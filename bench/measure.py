"""Small measuring helpers shared by every workload: order statistics,
peak memory of a process, the run envelope and the noise guard."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import time
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from bench import SRC


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def banded(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an ascending, non-empty sequence, read
    as the mean of the order statistics from ``q - 1`` to ``q + 1``
    percent.  The latencies of a fixed request list are a staircase —
    a few clusters of like queries with cliffs between them — and p95
    sits on a slope of 10–15 % per percent of rank on two workloads: one
    order statistic there moved by a tenth from run to run because a
    handful of samples changed places, the mean over the band does not."""
    low = max(0, math.ceil((q - 1.0) / 100.0 * len(ordered)) - 1)
    high = min(len(ordered), math.ceil((q + 1.0) / 100.0 * len(ordered)))
    return mean(ordered[low:high])


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 in milliseconds plus the sample count.  p95 is the
    highest percentile with at least ten samples beyond its band at the
    request counts the workloads reach; p99 (nearest rank) is printed as
    information only."""
    ordered = sorted(seconds)
    return {
        "samples": len(ordered),
        "p50_ms": banded(ordered, 50) * 1e3,
        "p95_ms": banded(ordered, 95) * 1e3,
        "p99_ms": percentile(ordered, 99) * 1e3,
    }


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def digest(items: Iterable[Any]) -> str:
    """SHA-256 over the canonical JSON of ``items``, one per line."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(json.dumps(item, sort_keys=True).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def source_digest() -> str:
    """Digest of the program under test (every ``.py`` under ``src``).

    The checkout the driver runs in is not a git repository, so this
    stands in for the commit id in the run envelope — and keys the
    cached fixture, so an edited program never serves a stale one."""
    sha = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sha.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:12]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_jiffies() -> Tuple[int, int]:
    """(busy, total) jiffies of the whole machine since boot."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    idle = fields[3] + fields[4]  # idle + iowait
    return sum(fields) - idle, sum(fields)


def busy_cores(window: float = 0.2) -> float:
    """How many cores other processes keep busy, sampled while this
    process sleeps for ``window`` seconds."""
    busy0, total0 = _cpu_jiffies()
    time.sleep(window)
    busy1, total1 = _cpu_jiffies()
    return ratio(busy1 - busy0, total1 - total0) * (os.cpu_count() or 1)


def envelope(seed: int, seconds: float, n_proteins: int) -> Dict[str, Any]:
    """The ``meta`` block every result carries.  A run that starts on a
    box where others already keep more than half the cores busy is
    marked ``noisy`` and ``--check`` refuses to compare it.  The 1-minute
    load average is recorded too, but it cannot be the test: it still
    remembers the previous workload of the same suite."""
    import repro

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count() or 1
    busy = busy_cores()
    return {
        "source_digest": source_digest(),
        "repro_version": repro.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "n_proteins": n_proteins,
        "loadavg_1m": os.getloadavg()[0],
        "busy_cores": busy,
        "noisy": busy > nproc / 2.0,
    }


# ----------------------------------------------------------------------
# Reference speed
# ----------------------------------------------------------------------
# On a shared sandbox the machine itself changes speed: a fixed loop
# takes 14 ms for a while, then 20 ms for the next half minute, with no
# steal time reported.  Whole runs land in one spell or the other, so
# no statistic *within* a run removes it: ten runs of one workload
# spread (quartile distance over median) by 10-30 %.  Every timed
# stretch is therefore measured against a fixed reference kernel —
# bracketed by probes, or with a sampler running inside it — and
# durations are reported at reference speed:
#
#     reported = measured * REFERENCE_KERNEL_SECONDS / kernel time then
#
# The kernel does not depend on the program under test, so a change to
# the program moves reported times exactly as it moves measured ones.
# Over ten runs per workload while raw throughput spread by 22-28 %,
# reported throughput spread by 5-11 %.  Raw values stay in every
# result's info.
REFERENCE_KERNEL_SECONDS = 0.0031  # one kernel on this sandbox, undisturbed
_PROBE_KERNELS = 3
# The cores this process may use, read before any workload narrows its
# own threads to a subset (see HttpSut).
CPUS = sorted(os.sched_getaffinity(0))


def _walk() -> Tuple[Dict[Tuple[int, int], int], List[List[Tuple[int, int]]]]:
    """A table of 60,000 rows keyed by tuples (≈ 12 MB) and, for each
    of a probe's kernels, its own 8,000 keys in an order unrelated to
    the order they were allocated in: more than a core's 2 MiB L2 holds,
    so no kernel finds its rows cached by the one before.  Built on
    first use, and only in the process that probes: a server child
    imports this module too and must not carry the table in its peak
    memory."""
    global _WALK
    if _WALK is None:
        rng = random.Random(0)
        keys = [(rng.randrange(1 << 30), rng.randrange(1 << 30)) for _ in range(60000)]
        table = {key: at & 127 for at, key in enumerate(keys)}
        rng.shuffle(keys)
        _WALK = (table, [keys[8000 * k : 8000 * (k + 1)] for k in range(_PROBE_KERNELS)])
    return _WALK


_WALK: Any = None


def _reference_kernel(number: int) -> int:
    """Fixed arithmetic, then look-ups that walk a table of tuples far
    larger than the core's cache — the two things the program under
    test spends its time on.  Arithmetic alone misses half the spells:
    for minutes it read a steady 4.1 ms while look-ups went from 3.5 ms
    to 4.4 ms and every workload slowed by a quarter with them.
    Neither part allocates: the kernel must read the machine's speed,
    not the state of this process's heap (a kernel that built lists ran
    40 % slower after the third engine had been loaded and freed, on a
    machine that was not slow at all)."""
    x = 0
    for i in range(20000):
        x += i * i % 7
    table, keys = _walk()
    for key in keys[number]:
        x += table[key]
    return x


def probe(cpus: Sequence[int] = CPUS) -> float:
    """Seconds one reference kernel takes right now on ``cpus`` — the
    cores the program under test runs on — averaged over them: on each,
    the fastest of three (≈ 12 ms per core).  A slow spell slows all
    three; a stray preemption slows one, and the minimum ignores it.
    The cores differ (one read 5.5 ms for seconds while the other read
    4.2 ms), so a workload that keeps to one core is probed on that one
    and a workload that uses both on both."""
    _walk()
    mine = os.sched_getaffinity(0)
    fastest = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            best = float("inf")
            for number in range(_PROBE_KERNELS):
                start = time.perf_counter()
                _reference_kernel(number)
                best = min(best, time.perf_counter() - start)
            fastest.append(best)
    finally:
        os.sched_setaffinity(0, mine)
    return mean(fastest)


class SpeedSampler:
    """Reads the machine's speed *during* a call that takes seconds.

    Probes before and after say little about a six-second build between
    them.  While this is active, a timer makes the main thread run one
    reference kernel five times a second, between two bytecodes of
    whatever it is executing — same thread, same core, so the kernel
    feels what the call feels.  A stretch is then reported at reference
    speed by the median of the kernels that ran in it, and without the
    time they took.  Only for single-threaded work on the main thread:
    the kernel would compete with callers on other threads."""

    INTERVAL = 0.2
    MARGIN = 0.5  # kernels this close to a stretch count for it
    FEWEST = 5  # else the nearest this many do

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (started, took)
        self._previous: Any = None

    def __enter__(self) -> "SpeedSampler":
        _walk()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_: Any) -> None:
        start = time.perf_counter()
        _reference_kernel(len(self.samples) % _PROBE_KERNELS)
        self.samples.append((start, time.perf_counter() - start))

    def own_seconds(self, start: float, end: float) -> float:
        """What the kernels that ran between ``start`` and ``end`` took."""
        return sum(took for at, took in self.samples if start <= at < end)

    def factor(self, start: float, end: float) -> float:
        """Measured -> reference speed for the stretch ``start``..``end``."""
        near = [
            took for at, took in self.samples
            if start - self.MARGIN <= at <= end + self.MARGIN
        ]
        if len(near) < self.FEWEST:
            middle = (start + end) / 2.0
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            near = [took for _, took in nearest[: self.FEWEST]]
        return REFERENCE_KERNEL_SECONDS / median(near) if near else 1.0


def pin(pid: int, cpus: Iterable[int]) -> None:
    """Restrict every thread of process ``pid`` to ``cpus`` (affinity
    is per thread; threads started later inherit it)."""
    for task in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(task), cpus)


def at_reference_speed(before: float, after: float) -> float:
    """Factor that turns a duration measured between two probes into
    the duration at reference speed (below 1 while the box is slow)."""
    return REFERENCE_KERNEL_SECONDS / ((before + after) / 2.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def metric_lines(metrics: Dict[str, Dict[str, Any]]) -> List[str]:
    """Human-readable ``name value unit`` lines, sorted by name."""
    width = max((len(name) for name in metrics), default=0)
    return [
        f"  {name:<{width}}  {metrics[name]['value']:.6g} {metrics[name]['unit']}"
        for name in sorted(metrics)
    ]
