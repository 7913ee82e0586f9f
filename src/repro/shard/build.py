"""Split a built system into N self-contained shard snapshots.

Routing rule (fixed per scheme version, recorded in every shard's
metadata and in the manifest):

    ``shard_of(e1) = stable_partition(e1, num_shards)``

where ``e1`` is the row's E1 endpoint — the *build-orientation* source
entity, i.e. the first element of every AllTops/LeftTops/pair-catalog
row.  Routing by one endpoint (never by the pair) keeps all rows of a
given source entity on one shard, so a shard's LeftTops is exactly the
LeftTops a from-scratch build over that shard's sources would produce.

What is replicated rather than routed, and why, is documented on the
package (:mod:`repro.shard`).  The split is **serving-oriented**: the
builder process holds the full system plus the shard states while
splitting, so the memory *budget* a shard set buys applies to the
serving processes, not to the offline build.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ShardError
from repro.obs import span as obs_span
from repro.obs import tracer as obs_tracer
from repro.parallel.partition import histogram_skew, stable_partition
from repro.shard.manifest import write_manifest

#: Routing-scheme identifier stored in shard metadata and manifests.
#: Bump the suffix if the routing rule or the replication set ever
#: changes — coordinators refuse to mix scheme versions.
SHARD_SCHEME = "crc32-e1/v1"

#: Max/mean routed-row skew above which the split logs a structured
#: warning: past 2x, half the nominal scatter-gather speedup is gone.
SKEW_WARNING_THRESHOLD = 2.0

_LOG = logging.getLogger("repro.shard")


def shard_of(node_id: Any, num_shards: int) -> int:
    """The shard owning an E1 endpoint — CRC-32 bucket of the node id,
    identical in every process and on every run."""
    return stable_partition(node_id, num_shards)


def shard_set_id(reference_digest: str, num_shards: int) -> str:
    """Deterministic identity of a shard set: same store + same shard
    count + same scheme => same id, so re-splitting is idempotent and a
    coordinator can tell sibling shards from strays."""
    text = f"{reference_digest}:{num_shards}:{SHARD_SCHEME}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def split_state(
    state: Dict[str, Any], num_shards: int
) -> List[Dict[str, Any]]:
    """Split an exported store state into ``num_shards`` shard states.

    Routed keys (``alltops_rows``, ``lefttops_rows``, ``pairs``) are
    filtered by E1 bucket with their original row order preserved;
    everything else is replicated.  The shard states share the
    reference state's (immutable) topology records, so splitting costs
    one pass over the routed rows and no record copies.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    shards: List[Dict[str, Any]] = []
    for index in range(num_shards):
        shards.append(
            {
                "topologies": list(state["topologies"]),
                "alltops_rows": [],
                "lefttops_rows": [],
                "excptops_rows": list(state["excptops_rows"]),
                "pruned_tids": list(state["pruned_tids"]),
                "pairs": [],
                "truncated_pairs": state["truncated_pairs"],
            }
        )
    for kind in ("alltops_rows", "lefttops_rows"):
        for row in state[kind]:
            shards[shard_of(row[0], num_shards)][kind].append(row)
    for pair in state["pairs"]:
        shards[shard_of(pair["e1"], num_shards)]["pairs"].append(pair)
    return shards


@dataclass
class ShardSplitReport:
    """What a split produced, for logs, stats, and benchmarks."""

    num_shards: int
    scheme: str
    set_id: str
    manifest_path: str
    shard_paths: List[str]
    alltops_histogram: Tuple[int, ...]
    lefttops_histogram: Tuple[int, ...]
    pairs_histogram: Tuple[int, ...]
    replicated_topologies: int
    replicated_excptops: int
    file_bytes: List[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def row_histogram(self) -> Tuple[int, ...]:
        """Routed rows per shard (AllTops + LeftTops) — the load each
        shard actually scans at query time."""
        return tuple(
            a + l
            for a, l in zip(self.alltops_histogram, self.lefttops_histogram)
        )

    @property
    def skew(self) -> float:
        """Max/mean of :attr:`row_histogram` (1.0 = balanced)."""
        return histogram_skew(self.row_histogram)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "num_shards": self.num_shards,
            "scheme": self.scheme,
            "set_id": self.set_id,
            "manifest_path": self.manifest_path,
            "shard_paths": list(self.shard_paths),
            "alltops_histogram": list(self.alltops_histogram),
            "lefttops_histogram": list(self.lefttops_histogram),
            "pairs_histogram": list(self.pairs_histogram),
            "row_histogram": list(self.row_histogram),
            "skew": self.skew,
            "replicated_topologies": self.replicated_topologies,
            "replicated_excptops": self.replicated_excptops,
            "file_bytes": list(self.file_bytes),
            "elapsed_seconds": self.elapsed_seconds,
            "spans": list(self.spans),
        }


def _warn_on_skew(report: ShardSplitReport) -> None:
    if report.skew <= SKEW_WARNING_THRESHOLD:
        return
    # Structured (JSON) payload so log scrapers can alert on it without
    # parsing prose; mirrors the shape /stats exposes.
    _LOG.warning(
        "shard split skew %.2fx exceeds %.1fx: %s",
        report.skew,
        SKEW_WARNING_THRESHOLD,
        json.dumps(
            {
                "event": "shard_skew",
                "set_id": report.set_id,
                "num_shards": report.num_shards,
                "skew": report.skew,
                "row_histogram": list(report.row_histogram),
            },
            sort_keys=True,
        ),
    )


def split_system(
    system,
    num_shards: int,
    directory,
    stem: str = "shard",
    verify: bool = True,
) -> ShardSplitReport:
    """Split a built system into ``num_shards`` snapshot files plus a
    manifest, and (by default) verify the split lossless.

    Writes ``<stem>-<i>-of-<n>.topo`` for each shard and
    ``<stem>.manifest.json`` into ``directory`` (created if missing).
    The store is exported once; each shard file is written straight
    from its routed state and the system's own base relations — no
    clone, store or materialised table per shard — so peak builder
    memory is the system plus the shard states.

    With ``verify=True`` the saved files are read back and checked
    against the reference state (:func:`repro.shard.verify.verify_split`)
    *before* the manifest is written: a manifest on disk names a
    certified set, and a returned report certifies the on-disk set, not
    the in-memory intent.
    """
    from repro.core.store import digest_state
    from repro.persist import read_store_state
    from repro.persist.snapshot import write_snapshot

    if system.store is None:
        raise ShardError("cannot split an unbuilt system: run build() first")
    start = time.perf_counter()
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)

    with obs_span(
        "shard.split", ingress=True, num_shards=num_shards, scheme=SHARD_SCHEME
    ) as split_span:
        with obs_span("split.state"):
            reference_state = system.store.export_state()
            set_id = shard_set_id(digest_state(reference_state), num_shards)
            shard_states = split_state(reference_state, num_shards)

        paths: List[str] = []
        file_bytes: List[int] = []
        with obs_span("split.save"):
            for index, state in enumerate(shard_states):
                path = os.path.join(
                    directory, f"{stem}-{index}-of-{num_shards}.topo"
                )
                write_snapshot(
                    system,
                    state,
                    path,
                    shard={
                        "index": index,
                        "count": num_shards,
                        "scheme": SHARD_SCHEME,
                        "set_id": set_id,
                    },
                )
                paths.append(path)
                file_bytes.append(os.path.getsize(path))

        if verify:
            from repro.shard.verify import verify_split

            with obs_span("split.verify"):
                verify_split(
                    reference_state, [read_store_state(p) for p in paths]
                )

        manifest = write_manifest(
            os.path.join(directory, f"{stem}.manifest.json"),
            set_id=set_id,
            scheme=SHARD_SCHEME,
            shard_paths=paths,
        )

    split_spans: List[Dict[str, Any]] = []
    if split_span.trace_id is not None:
        split_spans = [
            s.to_wire() for s in obs_tracer().trace_spans(split_span.trace_id)
        ]
    report = ShardSplitReport(
        num_shards=num_shards,
        scheme=SHARD_SCHEME,
        set_id=set_id,
        manifest_path=manifest.path,
        shard_paths=paths,
        alltops_histogram=tuple(
            len(s["alltops_rows"]) for s in shard_states
        ),
        lefttops_histogram=tuple(
            len(s["lefttops_rows"]) for s in shard_states
        ),
        pairs_histogram=tuple(len(s["pairs"]) for s in shard_states),
        replicated_topologies=len(reference_state["topologies"]),
        replicated_excptops=len(reference_state["excptops_rows"]),
        file_bytes=file_bytes,
        elapsed_seconds=time.perf_counter() - start,
        spans=split_spans,
    )
    _warn_on_skew(report)
    return report
