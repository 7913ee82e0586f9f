"""Physical operators (Volcano iterators) including the DGJ family."""

from repro.relational.operators.base import GroupAware, Operator
from repro.relational.operators.dgj import (
    HDGJ,
    IDGJ,
    FirstPerGroup,
    GroupJoinIndex,
    GroupOrder,
    IDGJProbe,
)
from repro.relational.operators.filter import Filter, GroupFilter, Project
from repro.relational.operators.join import (
    HashJoin,
    HashSemiJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
    SortMergeJoin,
)
from repro.relational.operators.scan import (
    HashIndexScan,
    OrderedIndexScan,
    RowsSource,
    SeqScan,
    table_batch,
    table_layout,
)
from repro.relational.operators.sort import Distinct, Limit, Sort, TopN, UnionAll

__all__ = [
    "Distinct",
    "Filter",
    "FirstPerGroup",
    "GroupAware",
    "GroupFilter",
    "GroupJoinIndex",
    "GroupOrder",
    "HDGJ",
    "HashIndexScan",
    "HashJoin",
    "HashSemiJoin",
    "IDGJ",
    "IDGJProbe",
    "IndexNestedLoopJoin",
    "Limit",
    "NestedLoopJoin",
    "Operator",
    "OrderedIndexScan",
    "Project",
    "RowsSource",
    "SeqScan",
    "Sort",
    "SortMergeJoin",
    "TopN",
    "UnionAll",
    "table_batch",
    "table_layout",
]
