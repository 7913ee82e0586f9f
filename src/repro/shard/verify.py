"""Prove a shard split lossless against the unsharded reference.

One check over exported store states
(:meth:`TopologyStore.export_state` / :func:`repro.persist.read_store_state`):
for each shard ``i`` of ``n``,

* its routed rows (AllTops, LeftTops) are *exactly* the reference rows
  whose E1 endpoint hashes to ``i``, in the reference's row order;
* its pair catalog is exactly the same filter of the reference's;
* its replicated components (topology catalog, ExcpTops, pruned TIDs,
  ``truncated_pairs``) equal the reference's.

That is the whole proof, and no union of the shards is built: see
:func:`verify_split`.  The acceptance test for sharded serving is this
check plus nine-method answer equality in the coordinator tests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ShardError
from repro.shard.build import shard_of


def _row_key(row: Sequence[Any]) -> Tuple[str, str, int]:
    """Stable sort key for an (e1, e2, tid) row.  Node ids may be ints,
    strings, bytes, or tuples — mutually unorderable, so compare their
    reprs (stable for these types) and break ties on the integer TID."""
    return (repr(row[0]), repr(row[1]), row[2])


def _canonical_topology(record: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "tid": record["tid"],
        "key": record["key"],
        "entity_pair": list(record["entity_pair"]),
        "endpoint_indices": list(record["endpoint_indices"]),
        # Record order of signatures is canonical per topology; keep it.
        "class_signatures": [list(sig) for sig in record["class_signatures"]],
        "frequency": record["frequency"],
        "scores": dict(record["scores"]),
    }


def _canonical_pair(pair: Dict[str, Any]) -> Tuple[Any, ...]:
    """A pair-catalog entry in one comparable shape: exported states
    carry lists (class signatures sorted), read-back states tuples and a
    frozenset of signatures."""
    return (
        repr(pair["e1"]),
        repr(pair["e2"]),
        tuple(pair["entity_pair"]),
        sorted(map(tuple, pair["class_signatures"])),
    )


#: Components every shard carries a full copy of (``truncated_pairs``,
#: a plain counter, is replicated too and compared without a canonical
#: form); the rest are routed by E1 bucket.
_REPLICATED = ("topologies", "excptops_rows", "pruned_tids")
_ROUTED_ROWS = ("alltops_rows", "lefttops_rows")


def _canonical_component(state: Dict[str, Any], key: str) -> Any:
    """The canonical form of one replicated component of a store state —
    the unit of work here: callers canonicalise exactly the components
    they compare."""
    value = state[key]
    if key == "topologies":
        return sorted((_canonical_topology(t) for t in value), key=lambda t: t["tid"])
    if key == "pruned_tids":
        return sorted(value)
    return [[repr(e1), repr(e2), tid] for e1, e2, tid in sorted(value, key=_row_key)]


def _expected_shards(
    reference_state: Dict[str, Any], num_shards: int
) -> List[Dict[str, List[Any]]]:
    """Each shard's expected routed rows and canonical pair catalog, in
    reference order: one pass, one :func:`shard_of` call per reference
    row and pair.  Written apart from :func:`split_state` on purpose —
    the check must not share code with what it checks."""
    expected: List[Dict[str, List[Any]]] = [
        {"alltops_rows": [], "lefttops_rows": [], "pairs": []}
        for _ in range(num_shards)
    ]
    for kind in _ROUTED_ROWS:
        for row in reference_state[kind]:
            expected[shard_of(row[0], num_shards)][kind].append(row)
    for pair in reference_state["pairs"]:
        expected[shard_of(pair["e1"], num_shards)]["pairs"].append(
            _canonical_pair(pair)
        )
    return expected


def verify_split(
    reference_state: Dict[str, Any], shard_states: Sequence[Dict[str, Any]]
) -> None:
    """Assert a split is lossless; raise :class:`ShardError` otherwise.

    Checks, per shard ``i`` of ``n``: routed rows equal the reference
    rows with ``shard_of(e1) == i`` in reference order; the pair catalog
    equals the same filter; replicated parts and ``truncated_pairs``
    equal the reference's.

    **Lemma: these checks imply the union of the shards equals the
    reference.**  :func:`shard_of` is total into ``[0, n)``, so the
    ``n`` filters partition the reference's routed rows and pairs: each
    lies in exactly one filter, hence in exactly one shard, once.  The
    union of the shards is then a permutation of the reference — every
    routed row and pair present exactly once, every replicated
    component equal — and its canonical (order-free) digest must equal
    the reference's.  A union digest would catch nothing these checks
    miss, so none is computed.

    Cost: each reference row and pair is bucketed once, each pair is
    canonicalised once per side, and the reference and every shard are
    canonicalised only in their replicated components."""
    num_shards = len(shard_states)
    if num_shards < 1:
        raise ShardError("cannot verify an empty shard-state list")
    expected = _expected_shards(reference_state, num_shards)
    ref_replicated = {
        key: _canonical_component(reference_state, key) for key in _REPLICATED
    }
    for index, state in enumerate(shard_states):
        for kind in _ROUTED_ROWS:
            if list(state[kind]) != expected[index][kind]:
                raise ShardError(
                    f"shard {index} {kind} does not match the E1-bucket "
                    f"filter of the reference ({len(state[kind])} rows "
                    f"vs {len(expected[index][kind])} expected)"
                )
        if [_canonical_pair(p) for p in state["pairs"]] != expected[index]["pairs"]:
            raise ShardError(
                f"shard {index} pair catalog does not match the "
                f"E1-bucket filter of the reference"
            )
        for key in _REPLICATED:
            if _canonical_component(state, key) != ref_replicated[key]:
                raise ShardError(
                    f"shard {index} replicated component {key!r} "
                    f"differs from the reference"
                )
        if state["truncated_pairs"] != reference_state["truncated_pairs"]:
            raise ShardError(
                f"shard {index} truncated_pairs="
                f"{state['truncated_pairs']} differs from reference "
                f"{reference_state['truncated_pairs']}"
            )
