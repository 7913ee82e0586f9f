"""The benchmark's dataset and the built store the online workloads serve.

The dataset is part of the benchmark's definition, not of a run's
inputs: ``--seed`` draws the *requests*, while the store is always built
from ``BiozonConfig(seed=DATASET_SEED, n_proteins=N_PROTEINS)``.  Two
reasons, both measured: AllTops differs by ±12 % between generator
seeds (52.7k–67.3k rows over seeds 1, 2, 3, 7, 8), which would swamp
every bound when the driver compares runs of different seeds; and
build + save + split costs ≈ 21 s, which the time cap allows once per
checkout but not once per run.

The built store is this benchmark's build product: the first run in a
checkout generates, builds, saves and splits it into ``bench/out/``
(keyed by the digest of ``src/``), later runs load it.  What that build
costs is exactly what the ``offline_build`` workload measures every
time it runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from bench import OUT, ROOT
from bench.measure import source_digest

DATASET_SEED = 7
N_PROTEINS = 1000
SMOKE_PROTEINS = 120
PAIRS: Tuple[Tuple[str, str], ...] = (("Protein", "DNA"), ("Protein", "Interaction"))
MAX_LENGTH = 3
NUM_SHARDS = 2


def dataset(n_proteins: int):
    """The generated dataset (≈ 0.1 s at the benchmark's size, so the
    request generator regenerates it instead of reading a snapshot)."""
    from repro.biozon import BiozonConfig, generate

    return generate(BiozonConfig(seed=DATASET_SEED, n_proteins=n_proteins))


def new_system(data):
    """An unbuilt engine over ``data`` — everything before ``build()``."""
    from repro.core import TopologySearchSystem

    return TopologySearchSystem(data.database, data.graph())


@dataclass(frozen=True)
class Fixture:
    """Paths of the built store plus the counts recorded when it was
    built (``info``)."""

    directory: str
    snapshot: str
    manifest: str
    info: Dict[str, Any]

    @property
    def shard_paths(self) -> Tuple[str, ...]:
        return tuple(self.info["shard_paths"])


def _load(directory: str) -> Fixture:
    with open(os.path.join(directory, "fixture.json"), "r", encoding="utf-8") as handle:
        info = json.load(handle)
    info["shard_paths"] = [
        os.path.join(directory, "shards", name) for name in info["shard_files"]
    ]
    return Fixture(
        directory=directory,
        snapshot=os.path.join(directory, "single.topo"),
        manifest=os.path.join(directory, "shards", "shard.manifest.json"),
        info=info,
    )


def _directory(n_proteins: int) -> str:
    return os.path.join(OUT, f"fixture-{n_proteins}-{source_digest()}")


def ensure_fixture(n_proteins: int = N_PROTEINS) -> Fixture:
    """The built store for ``n_proteins``, building it on first use —
    in a process of its own, so the build's 430 MB never count towards
    the peak memory of the workload that happened to need it first."""
    directory = _directory(n_proteins)
    if not os.path.exists(os.path.join(directory, "fixture.json")):
        subprocess.run(
            [sys.executable, "-m", "bench.fixture", str(n_proteins)], cwd=ROOT, check=True
        )
    return _load(directory)


def build_fixture(n_proteins: int) -> None:
    """Generate, build, save and split into a private directory, then
    rename it into place: an interrupted build never leaves a
    half-written fixture behind."""
    from repro.persist import save_system
    from repro.shard import split_system

    directory = _directory(n_proteins)
    scratch = f"{directory}.tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        start = time.perf_counter()
        system = new_system(dataset(n_proteins))
        system.build(list(PAIRS), max_length=MAX_LENGTH)
        snapshot = os.path.join(scratch, "single.topo")
        save_system(system, snapshot)
        report = split_system(system, NUM_SHARDS, os.path.join(scratch, "shards"))
        store = system.require_store()
        info = {
            "n_proteins": n_proteins,
            "dataset_seed": DATASET_SEED,
            "pairs": [list(pair) for pair in PAIRS],
            "max_length": MAX_LENGTH,
            "alltops_rows": len(store.alltops_rows),
            "lefttops_rows": len(store.lefttops_rows),
            "topologies": len(store.topologies),
            "state_digest": store.state_digest(),
            "snapshot_bytes": os.path.getsize(snapshot),
            "shard_files": [os.path.basename(p) for p in report.shard_paths],
            "shard_bytes": list(report.file_bytes),
            "shard_row_skew": report.skew,
            "build_seconds": time.perf_counter() - start,
        }
        with open(os.path.join(scratch, "fixture.json"), "w", encoding="utf-8") as handle:
            json.dump(info, handle, indent=2, sort_keys=True)
        if os.path.exists(directory):  # lost a race to another run: keep theirs
            shutil.rmtree(scratch)
        else:
            os.rename(scratch, directory)
    except BaseException:
        shutil.rmtree(scratch, ignore_errors=True)
        raise


if __name__ == "__main__":
    build_fixture(int(sys.argv[1]))
