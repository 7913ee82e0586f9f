"""Secondary indexes: hash (equality) and sorted (range / ordered scan).

The paper's experiments "built indices on all the primary keys and
queried attributes"; the sorted index additionally provides the
score-ordered scan of ``TopInfo`` that the ET plans rely on
("idxScan TopoInfo (score order)", Figure 15).

Both index kinds map a key value to the *positions* of matching rows in
the owning table's row list.  They are maintained on append; the tables
in this workload are bulk-loaded and never updated in place (Biozon
updates arrive "in bulk every few weeks" per Section 3.2).
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.relational.column import HAVE_NUMPY, np

_UNSET = object()


def is_null_key(key: Any) -> bool:
    """Is a join key NULL, or a composite with a NULL part?  Such a key
    equals nothing, itself included: NULL never joins."""
    return key is None or (type(key) is tuple and None in key)


class CsrKeys:
    """Sorted-key / offsets / positions (CSR) view of an equality index
    over one INT key: the probe kernel every array-native equi-join
    shares.

    ``keys`` holds the distinct keys ascending, ``positions`` the
    payload of every entry grouped by key — within a key in insertion
    order — and ``offsets[i]:offsets[i + 1]`` delimits key ``i``'s group.
    :meth:`probe` answers a whole batch of outer keys at once and emits
    the matching pairs in the order the per-key loop over a dict of
    buckets would: outer order, then bucket insertion order.
    """

    __slots__ = ("keys", "offsets", "positions")

    def __init__(
        self, keys: "np.ndarray", positions: Optional["np.ndarray"] = None
    ) -> None:
        """``keys``: one int64 key per entry, in insertion order;
        ``positions``: each entry's payload (default: its ordinal)."""
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        boundary = np.empty(ordered.size, dtype=bool)
        boundary[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        self.keys = ordered[starts]
        self.offsets = np.append(starts, ordered.size)
        self.positions = order if positions is None else positions[order]

    def probe(self, probe: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
        """(outer position, payload) of every match of an int/bool key
        array, as two parallel int64 arrays."""
        keys = self.keys
        if keys.size == 0 or probe.size == 0:
            return _NO_PAIRS
        at = np.searchsorted(keys, probe)
        np.minimum(at, keys.size - 1, out=at)
        hit = np.flatnonzero(keys[at] == probe)
        if hit.size == 0:
            return _NO_PAIRS
        at = at[hit]
        starts = self.offsets[at]
        counts = self.offsets[at + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == hit.size:  # every hit bucket holds one entry
            return hit, self.positions[starts]
        within = np.arange(total) - np.repeat(ends - counts - starts, counts)
        return np.repeat(hit, counts), self.positions[within]


_NO_PAIRS = (
    (np.empty(0, dtype="int64"), np.empty(0, dtype="int64")) if HAVE_NUMPY else None
)


class HashIndex:
    """Equality index: key value -> list of row positions.

    A single-column index over INT keys additionally hands out a
    :class:`CsrKeys` view of its buckets (:meth:`key_arrays`), built on
    the first array probe and dropped by every mutation."""

    def __init__(self, name: str, column_positions: Sequence[int]) -> None:
        self.name = name
        self.column_positions: Tuple[int, ...] = tuple(column_positions)
        self._buckets: Dict[Any, List[int]] = {}
        self._csr: Any = _UNSET

    def key_of(self, row: Sequence[Any]) -> Any:
        if len(self.column_positions) == 1:
            return row[self.column_positions[0]]
        return tuple(row[p] for p in self.column_positions)

    def insert(self, row: Sequence[Any], position: int) -> None:
        self._buckets.setdefault(self.key_of(row), []).append(position)
        self._csr = _UNSET

    def bulk_build_columns(self, store) -> None:
        """Rebuild straight from a table's column store, touching only
        the key columns instead of materializing row tuples."""
        buckets: Dict[Any, List[int]] = {}
        if len(self.column_positions) == 1:
            keys = store.column_values(self.column_positions[0])
            for position, key in enumerate(keys):
                buckets.setdefault(key, []).append(position)
        else:
            key_columns = [store.column_values(p) for p in self.column_positions]
            for position, key in enumerate(zip(*key_columns)):
                buckets.setdefault(key, []).append(position)
        self._buckets = buckets
        self._csr = _UNSET

    def lookup(self, key: Any) -> List[int]:
        """Positions of the rows whose key *equals* ``key`` — none for a
        NULL key (or a composite with a NULL part), although such rows
        are stored: NULL equals nothing, so it never joins."""
        if is_null_key(key):
            return []
        return self._buckets.get(key, [])

    def buckets(self) -> Dict[Any, List[int]]:
        """The key -> row positions dict itself, NULL bucket included
        (read-only to callers): what a per-key probe loop binds ``.get``
        of once per batch, and what tells whether a key is stored."""
        return self._buckets

    def key_arrays(self) -> Optional[CsrKeys]:
        """The CSR view of the buckets, or None when they cannot be one:
        numpy absent, a composite key, or a key that is not an int64
        (TEXT, FLOAT, a Python int beyond 64 bits).  The NULL bucket is
        left out — NULL never joins."""
        view = self._csr
        if view is _UNSET:
            view = self._csr = self._build_key_arrays()
        return view

    def _build_key_arrays(self) -> Optional[CsrKeys]:
        if not HAVE_NUMPY or len(self.column_positions) != 1:
            return None
        buckets = [(k, b) for k, b in self._buckets.items() if k is not None]
        # bool keys pass: hash(True) == hash(1), so the dict already
        # treats them as the ints int64 equality compares.
        if not all(isinstance(k, int) for k, _ in buckets):
            return None
        try:
            keys = np.array([k for k, _ in buckets], dtype="int64")
        except OverflowError:
            return None
        counts = np.array([len(b) for _, b in buckets], dtype="int64")
        positions = np.fromiter(
            chain.from_iterable(b for _, b in buckets), "int64", int(counts.sum())
        )
        return CsrKeys(np.repeat(keys, counts), positions)

    def distinct_keys(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())


class SortedIndex:
    """Ordered index on one column: supports equality, range scans, and
    full scans in ascending/descending key order.

    NULL keys are excluded (matching SQL index semantics closely enough
    for this workload: predicates never match NULL).
    """

    def __init__(self, name: str, column_position: int) -> None:
        self.name = name
        self.column_position = column_position
        self._keys: List[Any] = []
        self._positions: List[int] = []

    def insert(self, row: Sequence[Any], position: int) -> None:
        key = row[self.column_position]
        if key is None:
            return
        idx = bisect.bisect_right(self._keys, key)
        self._keys.insert(idx, key)
        self._positions.insert(idx, position)

    def bulk_build_columns(self, store) -> None:
        """Rebuild straight from a table's column store, touching only
        the key column instead of materializing row tuples."""
        pairs = [
            (key, pos)
            for pos, key in enumerate(store.column_values(self.column_position))
            if key is not None
        ]
        pairs.sort(key=lambda kv: kv[0])
        self._keys = [k for k, _ in pairs]
        self._positions = [p for _, p in pairs]

    def lookup(self, key: Any) -> List[int]:
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._positions[lo:hi]

    def range_scan(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[int]:
        """Row positions with key in the given (optionally open) range,
        in ascending key order."""
        if low is None:
            lo = 0
        elif low_inclusive:
            lo = bisect.bisect_left(self._keys, low)
        else:
            lo = bisect.bisect_right(self._keys, low)
        if high is None:
            hi = len(self._keys)
        elif high_inclusive:
            hi = bisect.bisect_right(self._keys, high)
        else:
            hi = bisect.bisect_left(self._keys, high)
        for i in range(lo, hi):
            yield self._positions[i]

    def scan(self, descending: bool = False) -> Iterator[int]:
        """All row positions in key order."""
        if descending:
            return iter(self._positions[::-1])
        return iter(self._positions)

    def distinct_keys(self) -> int:
        count = 0
        prev = object()
        for k in self._keys:
            if k != prev:
                count += 1
                prev = k
        return count

    def min_key(self) -> Optional[Any]:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Optional[Any]:
        return self._keys[-1] if self._keys else None

    def __len__(self) -> int:
        return len(self._keys)
