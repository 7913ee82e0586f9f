"""Sharded topology store: split one built store into N snapshots.

The offline phase produces a single :class:`~repro.core.store.TopologyStore`
whose serving footprint (AllTops/LeftTops plus the base relations) can
outgrow one machine's memory.  This package splits a built system into
``N`` **self-contained** shard snapshots:

* AllTops, LeftTops, and the pair catalog are **routed** — each row goes
  to the shard owning its E1 endpoint's CRC-32 bucket
  (:func:`shard_of`, the same :func:`~repro.parallel.partition.stable_partition`
  the partitioned build uses, so build partitioning and serving
  sharding agree by construction);
* ExcpTops, the topology catalog (TopInfo: global frequencies and
  scores), the pruned-TID set, and the base relations are **replicated**
  to every shard.  Replication is what keeps every shard's answer a
  subset of the global answer: the pruned fast-* methods re-check
  candidate pairs by chain-joining the *base* tables with
  ``NOT EXISTS ExcpTops``, and an exception row filed under another
  shard's bucket would otherwise turn into a false positive; global
  scores are what make per-shard top-k lists mergeable without a second
  round-trip.

Each shard is an ordinary :mod:`repro.persist` snapshot (loadable by
``load_system`` like any other) with shard membership recorded in its
metadata, so a shard set degrades gracefully into N independently
inspectable engines.  A JSON manifest (:mod:`repro.shard.manifest`)
names the set; :mod:`repro.shard.verify` proves a split lossless
against the unsharded reference: every shard must equal its exact
E1-bucket filter of the reference, and because ``shard_of`` is total
those filters partition the reference, so the shards' union is the
reference up to row order.

>>> from repro.shard import split_system, read_manifest
>>> report = split_system(system, num_shards=4, directory="shards/")
>>> manifest = read_manifest(report.manifest_path)

Serving over a shard set is :class:`repro.service.ShardCoordinator`.
"""

from repro.shard.build import (
    SHARD_SCHEME,
    SKEW_WARNING_THRESHOLD,
    ShardSplitReport,
    shard_of,
    shard_set_id,
    split_state,
    split_system,
)
from repro.shard.manifest import (
    MANIFEST_FORMAT,
    ShardManifest,
    read_manifest,
    write_manifest,
)
from repro.shard.verify import verify_split

__all__ = [
    "MANIFEST_FORMAT",
    "SHARD_SCHEME",
    "SKEW_WARNING_THRESHOLD",
    "ShardManifest",
    "ShardSplitReport",
    "read_manifest",
    "shard_of",
    "shard_set_id",
    "split_state",
    "split_system",
    "verify_split",
]
