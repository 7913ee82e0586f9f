"""Prove a shard split lossless against the unsharded reference.

Two levels of check, both over exported store states
(:meth:`TopologyStore.export_state` / :func:`repro.persist.read_store_state`):

1. **Exact filters** — each shard's routed rows must be *exactly* the
   reference rows whose E1 endpoint hashes to that shard, in the
   reference's row order; each shard's replicated parts must equal the
   reference's.  This is the strong per-shard statement.
2. **Canonical union digest** — the shards' states, unioned and
   canonicalized (rows sorted under a stable key), must hash equal to
   the canonicalized reference.  Row order inside a store is
   meaningful (digests are order-sensitive) but not recoverable from a
   union of shards, so the union digest deliberately compares the
   *order-free* canonical form; check 1 is what pins the order.

The acceptance test for sharded serving is digest equality here plus
nine-method answer equality in the coordinator tests.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ShardError
from repro.shard.build import shard_of


def _row_key(row: Sequence[Any]) -> Tuple[str, str, int]:
    """Stable sort key for an (e1, e2, tid) row.  Node ids may be ints,
    strings, bytes, or tuples — mutually unorderable, so compare their
    reprs (stable for these types) and break ties on the integer TID."""
    return (repr(row[0]), repr(row[1]), row[2])


def _canonical_signatures(signatures: Any) -> List[List[str]]:
    """Class-signature collections appear as tuple-of-tuples (topology
    records, order canonical) or frozenset-of-tuples (pair catalog,
    unordered); both canonicalize to a sorted list of lists."""
    return sorted([list(sig) for sig in signatures])


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


def _canonical_pair(pair: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "e1": repr(pair["e1"]),
        "e2": repr(pair["e2"]),
        "entity_pair": list(pair["entity_pair"]),
        "class_signatures": _canonical_signatures(pair["class_signatures"]),
    }


#: Components every shard carries a full copy of (``truncated_pairs``,
#: a plain counter, is replicated too and compared without a canonical
#: form); the rest are routed by E1 bucket.
_REPLICATED = ("topologies", "excptops_rows", "pruned_tids")
_ROUTED_ROWS = ("alltops_rows", "lefttops_rows")


def _canonical_component(state: Dict[str, Any], key: str) -> Any:
    """The canonical form of ONE component of a store state — the unit
    of work here: sorting every row of a store under a repr key is what
    verification costs, so callers canonicalise exactly the components
    they compare."""
    value = state[key]
    if key == "topologies":
        return sorted((_canonical_topology(t) for t in value), key=lambda t: t["tid"])
    if key.endswith("_rows"):
        return [[repr(e1), repr(e2), tid] for e1, e2, tid in sorted(value, key=_row_key)]
    if key == "pruned_tids":
        return sorted(value)
    if key == "pairs":
        return sorted(
            (_canonical_pair(p) for p in value),
            key=lambda p: (p["e1"], p["e2"], p["entity_pair"]),
        )
    return value  # truncated_pairs


def canonical_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """An order-free, JSON-ready canonical form of a store state: rows
    sorted under stable keys, node ids rendered via ``repr``.  Equal
    canonical forms mean equal stores up to row order."""
    return {
        key: _canonical_component(state, key)
        for key in (*_REPLICATED, *_ROUTED_ROWS, "pairs", "truncated_pairs")
    }


def _digest(canonical: Dict[str, Any]) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def state_digest(state: Dict[str, Any]) -> str:
    """SHA-256 over the canonical form.  Unlike
    :meth:`TopologyStore.state_digest` this is row-order-insensitive —
    use it when comparing a union of shards to a reference."""
    return _digest(canonical_state(state))


def _require_replicated_equal(
    states: Sequence[Dict[str, Any]], key: str
) -> None:
    first = json.dumps(_canonical_component(states[0], key), sort_keys=True)
    for index, state in enumerate(states[1:], start=1):
        if json.dumps(_canonical_component(state, key), sort_keys=True) != first:
            raise ShardError(
                f"replicated component {key!r} differs between shard 0 "
                f"and shard {index}"
            )


def union_state(states: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge shard states back into one store state.

    Replicated components (topology catalog, ExcpTops, pruned TIDs,
    truncation counter) must be identical across shards — taking shard
    0's copy is then sound.  Routed components concatenate; a routed
    row appearing in two shards means the split double-counted and is
    an error.  The result's row order is concatenation order; compare
    it via :func:`state_digest`, not the order-sensitive store digest.
    """
    if not states:
        raise ShardError("cannot union an empty shard-state list")
    for key in _REPLICATED:
        _require_replicated_equal(states, key)
    truncated = {state["truncated_pairs"] for state in states}
    if len(truncated) != 1:
        raise ShardError(
            f"replicated component 'truncated_pairs' differs across "
            f"shards: {sorted(truncated)}"
        )
    return _merge(states)


def _merge(states: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """:func:`union_state` once the replicated components are known to
    agree: shard 0's copy of those, the routed ones concatenated."""
    merged: Dict[str, Any] = {
        "topologies": list(states[0]["topologies"]),
        "alltops_rows": [],
        "lefttops_rows": [],
        "excptops_rows": list(states[0]["excptops_rows"]),
        "pruned_tids": list(states[0]["pruned_tids"]),
        "pairs": [],
        "truncated_pairs": states[0]["truncated_pairs"],
    }
    for kind in _ROUTED_ROWS:
        seen: Dict[Tuple[str, str, int], int] = {}
        for index, state in enumerate(states):
            for row in state[kind]:
                key = _row_key(row)
                if key in seen:
                    raise ShardError(
                        f"{kind} row {row!r} appears in both shard "
                        f"{seen[key]} and shard {index}"
                    )
                seen[key] = index
            merged[kind].extend(state[kind])
    seen_pairs: Dict[Tuple[str, str], int] = {}
    for index, state in enumerate(states):
        for pair in state["pairs"]:
            key = (repr(pair["e1"]), repr(pair["e2"]))
            if key in seen_pairs:
                raise ShardError(
                    f"pair catalog entry {key} appears in both shard "
                    f"{seen_pairs[key]} and shard {index}"
                )
            seen_pairs[key] = index
        merged["pairs"].extend(state["pairs"])
    return merged


def union_digest(states: Sequence[Dict[str, Any]]) -> str:
    """Canonical digest of the shard union — equals
    ``state_digest(reference)`` iff the split was lossless."""
    return state_digest(union_state(states))


def verify_split(
    reference_state: Dict[str, Any], shard_states: Sequence[Dict[str, Any]]
) -> None:
    """Assert a split is lossless; raise :class:`ShardError` otherwise.

    Checks, per shard ``i`` of ``n``: routed rows equal the reference
    rows with ``shard_of(e1) == i`` in reference order; replicated
    parts equal the reference's.  Then the union digest must equal the
    reference's canonical digest.

    Each state is canonicalised at most once — the reference and the
    union whole (for their digests), a shard only in its replicated
    components — and no two whole canonical forms are alive together."""
    num_shards = len(shard_states)
    if num_shards < 1:
        raise ShardError("cannot verify an empty shard-state list")
    ref_canonical = canonical_state(reference_state)
    ref_digest = _digest(ref_canonical)
    ref_replicated = {key: ref_canonical[key] for key in _REPLICATED}
    del ref_canonical
    for index, state in enumerate(shard_states):
        for kind in _ROUTED_ROWS:
            expected = [
                row
                for row in reference_state[kind]
                if shard_of(row[0], num_shards) == index
            ]
            if list(state[kind]) != expected:
                raise ShardError(
                    f"shard {index} {kind} does not match the E1-bucket "
                    f"filter of the reference ({len(state[kind])} rows "
                    f"vs {len(expected)} expected)"
                )
        expected_pairs = [
            _canonical_pair(p)
            for p in reference_state["pairs"]
            if shard_of(p["e1"], num_shards) == index
        ]
        got_pairs = [_canonical_pair(p) for p in state["pairs"]]
        if got_pairs != expected_pairs:
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
    # Every shard's replicated parts equal the reference's, hence each
    # other's: the union needs no second comparison of them.
    if state_digest(_merge(shard_states)) != ref_digest:
        raise ShardError(
            "shard union digest does not match the reference digest"
        )
