"""Shard a built store and serve it scatter-gather.

Walks the sharded serving path (:mod:`repro.shard` +
:class:`~repro.service.ShardCoordinator`) end to end on a synthetic
Biozon instance:

1. split — one built system becomes N self-contained shard snapshots
   plus a manifest; the split is verified lossless (each shard equals
   its exact E1-bucket filter of the store) before anything serves;
2. scatter-gather — a coordinator starts one warm worker process per
   shard; every query fans out to all shards and the partial answers
   merge with the engine's own ordering, so sharded answers are
   *identical* to unsharded ones (checked live below);
3. operations — per-shard stats, routing skew, and a generation commit:
   ``rebuild()`` builds and splits a successor set, then swaps it in
   all-or-nothing while queries keep flowing.

Run:  python examples/sharded_serving.py
"""

from __future__ import annotations

import tempfile

from repro.biozon import BiozonConfig, generate
from repro.core import (
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.service import ShardCoordinator
from repro.shard import split_system

NUM_SHARDS = 3


def make_query(keyword: str, k: int = 4) -> TopologyQuery:
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        NoConstraint(),
        k=k,
        ranking="rare",
    )


def main() -> None:
    ds = generate(BiozonConfig.tiny(seed=4))
    system = TopologySearchSystem(ds.database, ds.graph())
    system.build([("Protein", "DNA")], max_length=3)

    with tempfile.TemporaryDirectory(prefix="sharded-serving-") as directory:
        # 1. Split into a verified shard set.
        split = split_system(system, NUM_SHARDS, directory)
        print(f"split into {split.num_shards} shards, set {split.set_id}")
        print(f"  routed rows per shard: {list(split.row_histogram)}")
        print(f"  skew (max/mean):       {split.skew:.2f}x")
        print(f"  manifest:              {split.manifest_path}")

        # 2. Serve scatter-gather; answers must match the unsharded engine.
        with ShardCoordinator(split.manifest_path) as coordinator:
            for keyword in ("kinase", "binding", "human"):
                query = make_query(keyword)
                merged = coordinator.query(query)
                reference = system.search(query)
                match = (
                    merged.tids == reference.tids
                    and merged.scores == reference.scores
                )
                print(
                    f"  {keyword:<8} -> {len(merged.tids)} topologies "
                    f"from {merged.work['shards']} shards, "
                    f"identical to unsharded: {match}"
                )
                assert match

            # 3a. Operations: per-shard health + routing skew.
            stats = coordinator.stats()
            for section in stats.shards:
                print(
                    f"  shard {section['index']}: "
                    f"{section['routed_rows']} routed rows, "
                    f"{section['calls']} calls, "
                    f"{section['failures']} failures"
                )
            print(f"  skew report: {coordinator.skew_report()}")

            # 3b. A generation commit: new set built, verified, started,
            # swapped in one step; the old workers retire afterwards.
            coordinator.rebuild()
            after = coordinator.query(make_query("kinase"))
            print(
                f"  after rebuild: generation {coordinator.generation}, "
                f"answer stamped {after.generation}, "
                f"still identical: "
                f"{after.tids == system.search(make_query('kinase')).tids}"
            )


if __name__ == "__main__":
    main()
