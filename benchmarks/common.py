"""Shared infrastructure for the three benchmark instruments
(``bench_columnar``, ``bench_concurrent``, ``bench_observability``).

Rendered tables go to stdout (visible with ``pytest -s``); the numbers
go to ``BENCH_<name>.json`` at the repo root.

Scale: ``REPRO_BENCH_SCALE`` ∈ {tiny, small, medium} (default small)
controls the synthetic dataset size.

Snapshot reuse: the offline build dominates harness start-up, so
``private_system`` persists each built system under
``benchmarks/.snapshots/`` (via :mod:`repro.persist`) and restores it on
later runs instead of rebuilding.  Set ``REPRO_BENCH_SNAPSHOTS=0`` to
force a fresh build (e.g. after changing the generator or the offline
pipeline); stale or incompatible snapshot files are rebuilt
automatically when the snapshot schema version changes.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Dict, Tuple

import repro
from repro.biozon import BiozonConfig, generate
from repro.core import TopologySearchSystem
from repro.errors import TopologyError
from repro.persist import SCHEMA_VERSION, load_system, save_system

SNAPSHOT_DIR = pathlib.Path(__file__).parent / ".snapshots"
# Machine-readable benchmark output lands at the repo root as
# BENCH_<name>.json so the perf trajectory is tracked across PRs.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale not in ("tiny", "small", "medium"):
        raise ValueError(f"bad REPRO_BENCH_SCALE {scale!r}")
    return scale


def bench_config(seed: int = 7) -> BiozonConfig:
    return getattr(BiozonConfig, bench_scale())(seed=seed)


def snapshots_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_SNAPSHOTS", "1") != "0"


def snapshot_path(
    pairs: Tuple[Tuple[str, str], ...], max_length: int, seed: int
) -> pathlib.Path:
    """Deterministic per-configuration snapshot file name.  Both the
    snapshot format version and the engine version are part of the
    name, so incompatible old files — or systems built by an older
    engine/generator — are ignored and rebuilt rather than silently
    served stale."""
    pair_part = "+".join(f"{a}-{b}" for a, b in pairs)
    name = (
        f"{bench_scale()}-seed{seed}-l{max_length}-{pair_part}"
        f"-v{SCHEMA_VERSION}-e{repro.__version__}.topo"
    )
    return SNAPSHOT_DIR / name


def private_system(
    pairs: Tuple[Tuple[str, str], ...] = (("Protein", "DNA"), ("Protein", "Interaction")),
    max_length: int = 3,
    seed: int = 7,
) -> TopologySearchSystem:
    """A *new* system instance for this configuration, restored from
    a disk snapshot when one exists (see module docstring) — never a
    shared object, so a harness may mutate engine state such as
    calibration factors."""
    path = snapshot_path(pairs, max_length, seed)
    if snapshots_enabled() and path.exists():
        try:
            return load_system(path)
        except TopologyError:
            path.unlink()  # corrupt/stale snapshot: rebuild below
    ds = generate(bench_config(seed))
    system = TopologySearchSystem(ds.database, ds.graph())
    system.build(list(pairs), max_length=max_length)
    if snapshots_enabled():
        save_system(system, path)
    return system


def emit(name: str, text: str) -> None:
    """Print a harness's rendered output."""
    print(f"\n===== {name} =====\n" + text)


def emit_json(name: str, payload: Dict[str, Any]) -> pathlib.Path:
    """Merge ``payload`` into ``BENCH_<name>.json`` at the repo root.

    Merging (rather than overwriting) lets several tests in one harness
    contribute sections to the same file; the ``meta`` block records the
    scale and engine version the numbers were measured at.  Sections are
    only merged with an existing file from the *same* scale and engine
    version — anything else would mix provenance, so the file restarts."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    meta = {
        "engine_version": repro.__version__,
        "scale": bench_scale(),
    }
    data: Dict[str, Any] = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            existing_meta = existing.get("meta", {})
            if all(existing_meta.get(k) == v for k, v in meta.items()):
                data = existing
        except (ValueError, OSError):
            data = {}
    data.update(payload)
    data["meta"] = dict(meta, generated_at=time.strftime("%Y-%m-%dT%H:%M:%S"))
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
