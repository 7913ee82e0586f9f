"""Cost-model constants shared by the System-R enumerator and the DGJ
cost model.

All costs are abstract work units roughly proportional to "rows touched"
(1.0 = streaming one row through an operator).  Only *relative* costs
matter: the optimizer compares plans, it does not predict seconds.
"""

from __future__ import annotations

import math

# Streaming one row out of a scan.
ROW_COST = 1.0
# Evaluating one predicate against one row.
PRED_COST = 0.2
# One hash-index probe (bucket lookup + pointer chase).
INDEX_PROBE_COST = 2.0
# Inserting one row into a join hash table.
HASH_BUILD_COST = 1.5
# Probing a join hash table with one row.
HASH_PROBE_COST = 1.0
# One pair comparison in a nested-loops join.
NLJ_PAIR_COST = 0.6
# Emitting one joined/output row.
OUTPUT_ROW_COST = 0.5
# Per-row cost of duplicate elimination.
DISTINCT_ROW_COST = 0.8
# Ordered-index scans pay a small penalty over heap scans (pointer
# chasing in key order instead of sequential pages).
ORDERED_SCAN_FACTOR = 1.1


def sort_cost(rows: float) -> float:
    """Comparison-sort cost for ``rows`` input rows."""
    rows = max(rows, 1.0)
    return 1.2 * rows * math.log2(rows + 1.0)
