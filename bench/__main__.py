"""Command line of the benchmark.

The driver's form runs one workload in one mode and ends with one JSON
line (``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

Leave ``--workload`` out to run all five, ``--trace`` out to run both
modes; every run of such a suite gets a process of its own.  ``--smoke`` shrinks everything (120 proteins, a fraction of a
second per workload) for a quick correctness pass; ``--repeat N
--check`` runs the selection N times and fails unless the repeats agree
(see :mod:`bench.check`).  Exit status is non-zero on any wrong answer,
failed operation or failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench import OUT, ROOT
from bench.check import compare, load_spec
from bench.children import adopt_orphans, stop_all
from bench.fixture import N_PROTEINS, SMOKE_PROTEINS, dataset, ensure_fixture
from bench.measure import envelope, metric_lines
from bench.metrics import END_TO_END, PER_LAYER, as_wire
from bench.offline import run_offline
from bench.online import run_end_to_end
from bench.traced import run_traced
from bench.workloads import (
    BLOCKS,
    ONLINE,
    REQUESTS_PER_SECOND,
    TRACED_PER_SECOND,
    WORKLOADS,
    build_requests,
    hot_reads,
)

SMOKE_SECONDS = 0.4


def run_one(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict[str, Any]:
    """One workload in one mode; returns the full result record."""
    started = time.perf_counter()
    n_proteins = SMOKE_PROTEINS if smoke else N_PROTEINS
    meta = envelope(seed, seconds, n_proteins)
    data = dataset(n_proteins)
    if workload in ONLINE:
        fixture = ensure_fixture(n_proteins)
        per_second = (TRACED_PER_SECOND if traced else REQUESTS_PER_SECOND)[workload]
        count = max(1, int(per_second * seconds) // BLOCKS) * BLOCKS
        listed = build_requests(workload, seed, count, data)
        if traced:
            result = run_traced(workload, fixture, listed.requests, listed.warmup)
        else:
            result = run_end_to_end(workload, fixture, listed.requests, listed.warmup, seconds)
        result["info"]["requests_digest"] = listed.requests_digest
        result["info"]["requests_listed"] = len(listed.requests)
    else:
        result = run_offline(n_proteins, hot_reads(seed, data), traced)
        if not traced:
            result["info"]["layers"] = result["layers"]
    values = result["layers"] if traced else result["metrics"]
    record = {
        "workload": workload,
        "trace": int(traced),
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": as_wire(values, PER_LAYER if traced else END_TO_END),
        "info": result["info"],
        "meta": meta,
        "wall_s": time.perf_counter() - started,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(result_path(workload, traced), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return record


def result_path(workload: str, traced: bool) -> str:
    return os.path.join(OUT, f"result-{workload}-trace{int(traced)}.json")


def run_in_child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict[str, Any]:
    """One workload in one mode in a process of its own, the way the
    driver runs it: peak memory is a high-water mark of the process and
    must not carry over from the previous workload of a suite."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(traced)),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but its contract line
    if done.returncode not in (0, 1):  # 1 = ran to the end, found failures
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}")
    with open(result_path(workload, traced), "r", encoding="utf-8") as handle:
        return json.load(handle)


def contract_line(record: Dict[str, Any]) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: record[key] for key in keys})


def report(record: Dict[str, Any]) -> None:
    meta = record["meta"]
    print(f"== {record['workload']}  trace={record['trace']}  ({record['wall_s']:.1f} s)")
    print(f"   why: {WORKLOADS[record['workload']]}")
    print(f"   meta: {json.dumps(meta, sort_keys=True)}")
    shown = {
        name: entry
        for name, entry in record["metrics"].items()
        if not record["trace"] or entry["value"] != 0
    }
    print("\n".join(metric_lines(shown)))
    print(f"   info: {json.dumps(record['info'], sort_keys=True, default=str)}")
    failed, attempted = record["failed"], record["attempted"]
    print(f"   error_rate: {failed}/{attempted} = {failed / attempted:.6f}")
    if meta["noisy"]:
        print(f"   NOISY: {meta['busy_cores']:.2f} cores were busy at start")


def main(argv: Optional[List[str]] = None) -> int:
    """Run, and on every path out stop each process the run started and
    wait until it has ended (see :mod:`bench.children`)."""
    adopt_orphans()
    # A polite kill unwinds through the ``finally`` below, too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _main(argv)
    finally:
        stop_all()


def _main(argv: Optional[List[str]]) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]

    if len(workloads) * len(modes) * args.repeat == 1:  # the driver's form
        record = run_one(workloads[0], args.seed, seconds, modes[0], args.smoke)
        report(record)
        print(contract_line(record))
        return 0 if record["correct"] else 1

    started = time.perf_counter()
    repeats: List[List[Dict[str, Any]]] = [
        [
            run_in_child(workload, args.seed, seconds, traced, args.smoke)
            for workload in workloads
            for traced in modes
        ]
        for _ in range(args.repeat)
    ]
    everything = [run for runs in repeats for run in runs]
    print(f"== total {time.perf_counter() - started:.1f} s, {len(everything)} runs")

    problems = [
        f"{run['workload']} trace={run['trace']}: {run['failed']} of {run['attempted']} failed"
        for run in everything
        if not run["correct"]
    ]
    if args.check:
        problems += compare(repeats, spec)
    for problem in problems:
        print(f"FAIL {problem}")
    if args.check and not problems:
        print(f"check passed: {args.repeat} repeats agree within bounds")
    for run in everything:
        print(f"{run['workload']} trace={run['trace']} {contract_line(run)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
