"""Core topology-search library: the paper's primary contribution.

Public API tour:

>>> from repro.biozon import build_figure3_database
>>> from repro.core import (TopologySearchSystem, TopologyQuery,
...                         KeywordConstraint, AttributeConstraint)
>>> system = TopologySearchSystem(build_figure3_database())
>>> system.build([("Protein", "DNA")], max_length=3)       # offline phase
>>> query = TopologyQuery("Protein", "DNA",
...                       KeywordConstraint("DESC", "enzyme"),
...                       AttributeConstraint("TYPE", "mRNA"))
>>> result = system.search(query, method="fast-top")
>>> len(result.tids)                                        # T1..T4
4
"""

from repro.core.alltops import AllTopsReport, compute_alltops
from repro.core.engine import BuildReport, TopologySearchSystem
from repro.core.instances import InstanceRetriever, TopologyInstance
from repro.core.methods import ALL_METHOD_NAMES, Method, MethodResult, create_method
from repro.core.model import ClassSignature, PairTopologies, Topology
from repro.core.plan import (
    CostCalibrator,
    PlanAlternative,
    PlanClass,
    Planner,
    QueryPlan,
    work_units,
)
from repro.core.pruning import PruneReport, apply_pruning, suggest_threshold
from repro.core.query import (
    AttributeConstraint,
    ConjunctionConstraint,
    Constraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
)
from repro.core.ranking import RANKING_SCHEMES, compute_scores, score_column
from repro.core.store import TopologyStore
from repro.core.topologies import (
    path_equivalence_classes,
    topologies_for_pair,
    topology_result,
)
from repro.core.weak import BIOZON_WEAK_PATTERNS, WeakPathRules

__all__ = [
    "ALL_METHOD_NAMES",
    "AllTopsReport",
    "AttributeConstraint",
    "BIOZON_WEAK_PATTERNS",
    "BuildReport",
    "ClassSignature",
    "ConjunctionConstraint",
    "Constraint",
    "CostCalibrator",
    "InstanceRetriever",
    "KeywordConstraint",
    "Method",
    "MethodResult",
    "NoConstraint",
    "PairTopologies",
    "PlanAlternative",
    "PlanClass",
    "Planner",
    "PruneReport",
    "QueryPlan",
    "RANKING_SCHEMES",
    "Topology",
    "TopologyInstance",
    "TopologyQuery",
    "TopologySearchSystem",
    "TopologyStore",
    "apply_pruning",
    "compute_alltops",
    "compute_scores",
    "create_method",
    "path_equivalence_classes",
    "score_column",
    "suggest_threshold",
    "topologies_for_pair",
    "topology_result",
    "work_units",
]
