"""The Biozon-style schema (paper Figure 1) and its graph mapping.

The paper's Biozon snapshot stores "28 million biological objects
(stored in seven tables) and 9.6 million binary relationships between
the objects (stored in eight tables)".  We reproduce exactly that
shape: seven entity tables and eight relationship tables.

Entity sets: Protein, DNA, Unigene, Interaction, Family, Pathway,
Structure.  Relationship sets (undirected at the model level):

=================  ==========  ==========
relationship       endpoint    endpoint
=================  ==========  ==========
encodes            Protein     DNA
uni_encodes        Unigene     Protein
uni_contains       Unigene     DNA
interacts_protein  Protein     Interaction
interacts_dna      DNA         Interaction
belongs            Protein     Family
in_pathway         Family      Pathway
manifests          Protein     Structure
=================  ==========  ==========

With this schema there are exactly **ten** schema paths of length ≤ 3
between Protein and DNA — the count the paper quotes for Biozon — which
is asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.schema_graph import SchemaEdge, SchemaGraph
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType

# Short letters used by the paper's figures (P, D, U, I, F, W, S).
TYPE_LETTERS: Dict[str, str] = {
    "Protein": "P",
    "DNA": "D",
    "Unigene": "U",
    "Interaction": "I",
    "Family": "F",
    "Pathway": "W",
    "Structure": "S",
}

ENTITY_TYPES: Tuple[str, ...] = tuple(TYPE_LETTERS)


@dataclass(frozen=True)
class RelationshipSpec:
    """How one relationship table maps to a typed graph edge."""

    table: str          # relational table name
    edge_type: str      # graph edge label
    left_table: str     # entity table of the first endpoint
    left_column: str    # FK column holding the first endpoint id
    right_table: str
    right_column: str


RELATIONSHIPS: Tuple[RelationshipSpec, ...] = (
    RelationshipSpec("Encodes", "encodes", "Protein", "PID", "DNA", "DID"),
    RelationshipSpec("UniEncodes", "uni_encodes", "Unigene", "UID", "Protein", "PID"),
    RelationshipSpec("UniContains", "uni_contains", "Unigene", "UID", "DNA", "DID"),
    RelationshipSpec(
        "InteractsProtein", "interacts_protein", "Protein", "PID", "Interaction", "IID"
    ),
    RelationshipSpec("InteractsDNA", "interacts_dna", "DNA", "DID", "Interaction", "IID"),
    RelationshipSpec("Belongs", "belongs", "Protein", "PID", "Family", "FID"),
    RelationshipSpec("InPathway", "in_pathway", "Family", "FID", "Pathway", "WID"),
    RelationshipSpec("Manifests", "manifests", "Protein", "PID", "Structure", "SID"),
)


def biozon_schema_graph() -> SchemaGraph:
    """The ER schema as an undirected multigraph (paper Figure 1)."""
    edges = [
        SchemaEdge(spec.edge_type, spec.left_table, spec.right_table)
        for spec in RELATIONSHIPS
    ]
    return SchemaGraph(list(ENTITY_TYPES), edges)


def _entity_schemas() -> List[TableSchema]:
    text = DataType.TEXT
    integer = DataType.INT
    return [
        TableSchema(
            "Protein",
            [Column("ID", integer, True), Column("DESC", text)],
            primary_key="ID",
        ),
        TableSchema(
            "DNA",
            [Column("ID", integer, True), Column("TYPE", text), Column("DESC", text)],
            primary_key="ID",
        ),
        TableSchema(
            "Unigene",
            [Column("ID", integer, True), Column("DESC", text)],
            primary_key="ID",
        ),
        TableSchema(
            "Interaction",
            [Column("ID", integer, True), Column("ITYPE", text), Column("DESC", text)],
            primary_key="ID",
        ),
        TableSchema(
            "Family",
            [Column("ID", integer, True), Column("NAME", text)],
            primary_key="ID",
        ),
        TableSchema(
            "Pathway",
            [Column("ID", integer, True), Column("NAME", text)],
            primary_key="ID",
        ),
        TableSchema(
            "Structure",
            [Column("ID", integer, True), Column("METHOD", text), Column("NAME", text)],
            primary_key="ID",
        ),
    ]


def _relationship_schemas() -> List[TableSchema]:
    integer = DataType.INT
    out: List[TableSchema] = []
    for spec in RELATIONSHIPS:
        out.append(
            TableSchema(
                spec.table,
                [
                    Column("ID", integer, True),
                    Column(spec.left_column, integer, True),
                    Column(spec.right_column, integer, True),
                ],
                primary_key="ID",
            )
        )
    return out


def build_empty_database(name: str = "biozon") -> Database:
    """Create the fifteen Biozon tables with the indexes the paper
    assumes ("indices on all the primary keys and queried attributes"):
    primary-key hash indexes plus FK hash indexes on both endpoints of
    every relationship table."""
    db = Database(name)
    for schema in _entity_schemas():
        db.create_table(schema)
    for schema, spec in zip(_relationship_schemas(), RELATIONSHIPS):
        table = db.create_table(schema)
        table.create_hash_index("by_left", [spec.left_column])
        table.create_hash_index("by_right", [spec.right_column])
    return db


def database_to_graph(db: Database) -> LabeledGraph:
    """Materialize the data graph of Section 2.1 from the relational
    instance: one node per entity row (typed by its table), one edge per
    relationship row (typed by the relationship).

    Entity ids must be globally unique across entity tables (the paper
    assumes "the IDs of different biological objects are not
    overlapping"); edge ids are namespaced per relationship table.
    """
    graph = LabeledGraph()
    for entity_type in ENTITY_TYPES:
        table = db.table(entity_type)
        id_pos = table.schema.column_position("ID")
        for row in table.rows:
            graph.add_node(row[id_pos], entity_type)
    for spec in RELATIONSHIPS:
        table = db.table(spec.table)
        id_pos = table.schema.column_position("ID")
        left_pos = table.schema.column_position(spec.left_column)
        right_pos = table.schema.column_position(spec.right_column)
        for row in table.rows:
            graph.add_edge(
                (spec.edge_type, row[id_pos]),
                row[left_pos],
                row[right_pos],
                spec.edge_type,
            )
    return graph
