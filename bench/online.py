"""The four online workloads: set-up, closed loop, checking, metrics.

Each workload drives one *system under test* (SUT) through the same
steps — ``start`` (the timed set-up: cold start + warm-up), ``callers``
(one callable per connection or thread), ``counters`` (a public stats
snapshot, read before and after the timed part) and ``stop`` (peak
memory, then a clean shutdown):

==================  ==================================================
``http_hot``        server child process, 2 keep-alive connections
``http_cold_topk``  server child process, 1 connection
``direct_exhaustive``  ``TopologyServer`` in this process, 1 thread
``shard_scatter``   ``ShardCoordinator`` in this process over 2 worker
                    processes, 1 thread
==================  ==================================================

End-to-end runs carry no benchmark timers beyond one ``perf_counter``
pair per request on the client side.  Replies are kept raw and checked
against the oracle only after the loop has ended.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from bench.fixture import Fixture
from bench.measure import (
    CPUS,
    at_reference_speed,
    latency_summary,
    median,
    peak_rss_mb,
    pin,
    probe,
    ratio,
)
from bench.oracle import Oracle
from bench.serve import HttpChild
from bench.workloads import BLOCKS, Request

SEGMENTS = 3  # set-ups per run; each measures a third of it
WINDOWS = BLOCKS // SEGMENTS  # closed-loop windows per segment, one per stretch of the list
SLOWEST = 4.0  # a window is cut off at this multiple of its share of --seconds
_JSON_HEADERS = {"Content-Type": "application/json"}
Decoded = Optional[Tuple[List[int], Optional[List[float]], str]]


class Sample(NamedTuple):
    index: int
    seconds: float  # client-side latency
    raw: Any  # the reply as received, or the exception that replaced it


# ----------------------------------------------------------------------
# Systems under test
# ----------------------------------------------------------------------
class HttpSut:
    """``POST /query`` against a server child over real sockets."""

    def __init__(self, fixture: Fixture, label: str, connections: int) -> None:
        self.fixture, self.label, self.connections = fixture, label, connections
        shared = connections == 1 or len(CPUS) == 1
        self.cpus = CPUS[:1] if shared else CPUS  # the cores the work runs on
        self._caller_cpus = CPUS[:1] if shared else CPUS[:-1]
        self._server_cpus = CPUS[:1] if shared else CPUS[-1:]
        self._child: Optional[HttpChild] = None
        self._open: List[Any] = []

    def start(self, warmup: Sequence[Request]) -> None:
        # One connection is a strict alternation — the caller waits
        # while the server works and the server waits while the caller
        # works — so both sides share the first core, and the reference
        # probe reads the speed of the one core all the work runs on.
        # (On a core each, the caller's was idle four fifths of the
        # time and the two cores' probes, averaged, missed spells that
        # slowed the server's alone: ten runs spread by 26 %.)  Two
        # connections do overlap with the server: it gets the last
        # core, the callers the rest, and both are probed.
        pin(os.getpid(), self._caller_cpus)
        self._child = HttpChild(self.fixture.snapshot, self.label).start()
        pin(self._child.pid, self._server_cpus)
        self._open = [self._child.connect() for _ in range(self.connections)]
        post = self.callers()[0]
        for request in warmup:
            post(request)

    def callers(self) -> List[Callable[[Request], Any]]:
        def caller(connection: Any) -> Callable[[Request], Any]:
            def post(request: Request) -> Tuple[int, bytes]:
                connection.request("POST", "/query", body=request.body, headers=_JSON_HEADERS)
                response = connection.getresponse()
                return response.status, response.read()

            return post

        return [caller(connection) for connection in self._open]

    @staticmethod
    def decode(raw: Any) -> Decoded:
        status, body = raw
        if status != 200:
            return None
        wire = json.loads(body)
        return wire["tids"], wire["scores"], wire["plan_choice"] or ""

    def counters(self) -> Dict[str, Any]:
        assert self._child is not None
        _, stats = self._child.get("/stats")
        gate = stats["http"]["admission"]
        return {
            "requests": stats["requests"],
            "executions": stats["executions"],
            "coalesced": stats["coalesced"],
            "cache_hits": stats["result_cache"]["hits"],
            "cache_misses": stats["result_cache"]["misses"],
            "cache_size": stats["result_cache"]["size"],
            "plan_hits": stats["plan_cache"]["hits"],
            "plan_misses": stats["plan_cache"]["misses"],
            "admitted": gate["admitted"],
            "rejected": gate["rejected_queue_full"] + gate["rejected_timeout"],
        }

    def stop(self) -> Dict[str, Any]:
        child = self._child
        assert child is not None
        try:
            child.stop()
        finally:
            self.close()
        return {"rss_mb": [child.peak_rss_mb]}

    def close(self) -> None:
        for connection in self._open:
            connection.close()
        self._open = []
        child, self._child = self._child, None
        if child is not None:
            child.close()
        pin(os.getpid(), CPUS)


def _decode_result(result: Any) -> Decoded:
    return result.tids, result.scores, result.plan_choice or ""


def _counters(stats: Any) -> Dict[str, Any]:
    """The shared part of ``ServerStats`` / ``CoordinatorStats``."""
    cache, plans = stats.result_cache, stats.plan_cache
    return {
        "requests": stats.requests,
        "executions": stats.executions,
        "coalesced": stats.coalesced,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_size": cache.size,
        "plan_hits": plans.hits,
        "plan_misses": plans.misses,
    }


class DirectSut:
    """``TopologyServer.query`` in this process, no wire."""

    decode = staticmethod(_decode_result)

    cpus = CPUS[:1]  # one thread: kept on the core that is probed

    def __init__(self, fixture: Fixture) -> None:
        self.fixture = fixture
        self.server: Any = None

    def start(self, warmup: Sequence[Request]) -> None:
        from repro.service import TopologyServer

        pin(os.getpid(), self.cpus)
        self.server = TopologyServer.from_snapshot(self.fixture.snapshot)
        for request in warmup:
            self.server.query(request.query, request.method)

    def callers(self) -> List[Callable[[Request], Any]]:
        server = self.server
        return [lambda request: server.query(request.query, request.method)]

    def counters(self) -> Dict[str, Any]:
        return _counters(self.server.stats())

    def stop(self) -> Dict[str, Any]:
        self.close()
        return {"rss_mb": [peak_rss_mb(os.getpid())]}

    def close(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.close()
        gc.collect()  # the engine is cyclic: free it before the next one loads
        pin(os.getpid(), CPUS)


class ShardSut:
    """``ShardCoordinator.query`` here, one worker process per shard."""

    decode = staticmethod(_decode_result)
    cpus = CPUS  # a worker on each core, left to the scheduler

    def __init__(self, fixture: Fixture) -> None:
        self.fixture = fixture
        self.coordinator: Any = None

    def start(self, warmup: Sequence[Request]) -> None:
        from repro.service import ShardCoordinator

        self.coordinator = ShardCoordinator(self.fixture.manifest)
        for request in warmup:
            self.coordinator.query(request.query, request.method)

    def callers(self) -> List[Callable[[Request], Any]]:
        coordinator = self.coordinator
        return [lambda request: coordinator.query(request.query, request.method)]

    def counters(self) -> Dict[str, Any]:
        stats = self.coordinator.stats()
        counters = _counters(stats)
        for key in ("calls", "failures", "timeouts"):
            counters[f"shard_{key}"] = sum(shard[key] for shard in stats.shards)
        return counters

    def stop(self) -> Dict[str, Any]:
        coordinator = self.coordinator
        try:
            workers = [section["pid"] for section in coordinator.shard_obs_sections()]
            extras = {
                "row_skew": coordinator.partition_skew(),
                "worker_rss_mb": [peak_rss_mb(pid) for pid in workers],
            }
            extras["rss_mb"] = [peak_rss_mb(os.getpid())] + extras["worker_rss_mb"]
        finally:
            self.close()
        return extras

    def close(self) -> None:
        coordinator, self.coordinator = self.coordinator, None
        if coordinator is not None:
            coordinator.close()  # terminates and joins both worker processes


def make_sut(workload: str, fixture: Fixture) -> Any:
    if workload == "http_hot":
        return HttpSut(fixture, workload, connections=2)
    if workload == "http_cold_topk":
        return HttpSut(fixture, workload, connections=1)
    if workload == "direct_exhaustive":
        return DirectSut(fixture)
    if workload == "shard_scatter":
        return ShardSut(fixture)
    raise ValueError(f"not an online workload: {workload}")


def counters_between(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """What the SUT counted during the timed window (set-up and warm-up
    excluded).  ``cache_size`` is a level, not a count: ``evictions`` is
    what was there or was inserted, and is there no longer (every miss
    inserts once and nothing clears the cache mid-run)."""
    window = {key: after[key] - before[key] for key in after}
    window["evictions"] = before["cache_size"] + window["executions"] - after["cache_size"]
    del window["cache_size"]
    return window


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
def closed_loop(
    callers: Sequence[Callable[[Request], Any]],
    requests: Sequence[Request],
    seconds: Optional[float],
    first_index: int = 0,
) -> Tuple[List[Sample], float]:
    """Each caller sends its next request only when the previous reply
    has arrived.  Caller ``c`` of ``n`` owns requests ``c, c+n, ...`` of
    the fixed list, so what is sent never depends on timing.  Runs until
    ``seconds`` have passed (``None``: until the list ends).  Returns
    the samples in request order (indices offset by ``first_index``)
    and the wall time they took."""
    stride = len(callers)
    lanes: List[List[Sample]] = [[] for _ in callers]
    begin = threading.Barrier(stride + 1)
    origin: List[float] = []

    def lane(at: int) -> None:
        call, out = callers[at], lanes[at]
        clock = time.perf_counter
        begin.wait()
        deadline = None if seconds is None else origin[0] + seconds
        for index in range(at, len(requests), stride):
            start = clock()
            if deadline is not None and start >= deadline:
                break
            try:
                raw = call(requests[index])
            except Exception as error:  # noqa: BLE001 - a failed operation is a result
                raw = error
            out.append(Sample(first_index + index, clock() - start, raw))

    threads = [
        threading.Thread(target=lane, args=(at,), name=f"bench-caller-{at}")
        for at in range(stride)
    ]
    for thread in threads:
        thread.start()
    origin.append(time.perf_counter())
    begin.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - origin[0]
    samples = sorted((s for out in lanes for s in out), key=lambda s: s.index)
    return samples, wall


class Checked(NamedTuple):
    attempted: int
    failed: int
    correct: List[Sample]  # ``raw`` replaced by the reply's tids
    strategies: Dict[str, int]  # chosen plan strategy -> replies


def check(
    sut: Any, oracle: Oracle, requests: Sequence[Request], samples: Sequence[Sample]
) -> Checked:
    """Compare every reply with the oracle.  Failed, refused and
    wrong-answer operations all count as failed."""
    failed = 0
    correct: List[Sample] = []
    strategies: Dict[str, int] = {}
    for sample in samples:
        decoded = None if isinstance(sample.raw, Exception) else sut.decode(sample.raw)
        if decoded is None:
            failed += 1
            continue
        tids, scores, plan_choice = decoded
        if not oracle.matches(requests[sample.index].query, tids, scores):
            failed += 1
            continue
        correct.append(sample._replace(raw=list(tids)))
        strategy = plan_choice.split(" ", 1)[0]
        strategies[strategy] = strategies.get(strategy, 0) + 1
    return Checked(len(samples), failed, correct, strategies)


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------
class Window(NamedTuple):
    """One closed-loop stretch between two reference probes."""

    samples: List[Sample]
    wall: float
    factor: float  # measured -> reference speed, see bench.measure


class Segment(NamedTuple):
    """One set-up of the SUT and the windows measured on it."""

    setup_seconds: float  # at reference speed
    setup_raw_seconds: float
    windows: List[Window]
    counters: Dict[str, Any]
    extras: Dict[str, Any]


def measure_segments(
    sut: Any, requests: Sequence[Request], warmup: Sequence[Request], seconds: float
) -> List[Segment]:
    """Set the SUT up ``SEGMENTS`` times — cold start plus warm-up to
    the first timed request — and measure a third of the list on each,
    in ``WINDOWS`` closed-loop windows over consecutive slices of it,
    each bracketed by reference probes on the cores the SUT uses.

    Set-up has to be repeated to report its median; measuring on every
    instance instead of only the last spreads the same requests over
    about twice the wall time.

    A window runs its slice to the end: the list is sized to take
    ``seconds`` at the seed commit (``workloads.REQUESTS_PER_SECOND``),
    and every run of one ``--seconds`` sends the same requests, whatever
    the seed and the machine's speed.  The deadline only keeps a program
    that got several times slower within the driver's time limit."""
    share = len(requests) // (SEGMENTS * WINDOWS)
    deadline = SLOWEST * seconds / (SEGMENTS * WINDOWS)
    segments = []
    for number in range(SEGMENTS):
        before = probe(sut.cpus)
        start = time.perf_counter()
        try:
            sut.start(warmup)
            setup_raw = time.perf_counter() - start
            after = probe(sut.cpus)
            setup = setup_raw * at_reference_speed(before, after)
            counted = sut.counters()
            windows = []
            for w in range(number * WINDOWS, (number + 1) * WINDOWS):
                before = after
                samples, wall = closed_loop(
                    sut.callers(), requests[w * share : (w + 1) * share], deadline, w * share
                )
                after = probe(sut.cpus)
                windows.append(Window(samples, wall, at_reference_speed(before, after)))
            counters = counters_between(counted, sut.counters())
            segments.append(Segment(setup, setup_raw, windows, counters, sut.stop()))
        finally:
            sut.close()  # no child process outlives a failed segment
    return segments


def served_mb(workload: str, fixture: Fixture) -> float:
    """Bytes on disk of the snapshot file(s) the SUT serves from."""
    if workload == "shard_scatter":
        return sum(fixture.info["shard_bytes"]) / 1e6
    return fixture.info["snapshot_bytes"] / 1e6


def run_end_to_end(
    workload: str,
    fixture: Fixture,
    requests: Sequence[Request],
    warmup: Sequence[Request],
    seconds: float,
) -> Dict[str, Any]:
    sut = make_sut(workload, fixture)
    segments = measure_segments(sut, requests, warmup, seconds)
    windows = [window for segment in segments for window in segment.windows]
    # The oracle engine is loaded only now, so it is neither in the
    # SUT's peak memory nor competing with it for the two cores.
    oracle = Oracle.from_snapshot(fixture.snapshot)
    attempted = failed = 0
    scaled: List[float] = []
    raw: List[float] = []
    for window in windows:
        checked = check(sut, oracle, requests, window.samples)
        attempted += checked.attempted
        failed += checked.failed
        raw += [s.seconds for s in checked.correct]
        scaled += [s.seconds * window.factor for s in checked.correct]
    latency, latency_raw = latency_summary(scaled), latency_summary(raw)
    wall_raw = sum(window.wall for window in windows)
    wall = sum(window.wall * window.factor for window in windows)
    hits = sum(segment.counters["cache_hits"] for segment in segments)
    served = sum(segment.counters["requests"] for segment in segments)
    per_window = len(requests) // (SEGMENTS * WINDOWS)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(segment.setup_seconds for segment in segments),
            "throughput_rps": ratio(len(scaled), wall),
            "latency_p50_ms": latency["p50_ms"],
            "latency_p95_ms": latency["p95_ms"],
            "peak_rss_mb": max(sum(segment.extras["rss_mb"]) for segment in segments),
            "snapshot_mb": served_mb(workload, fixture),
        },
        "info": {
            "samples": latency["samples"],
            "latency_p99_ms": latency["p99_ms"],
            "raw": {
                "setup_s": median(segment.setup_raw_seconds for segment in segments),
                "throughput_rps": ratio(len(raw), wall_raw),
                "latency_p50_ms": latency_raw["p50_ms"],
                "latency_p95_ms": latency_raw["p95_ms"],
                "latency_p99_ms": latency_raw["p99_ms"],
                "wall_s": wall_raw,
            },
            "speed_factors": [round(window.factor, 4) for window in windows],
            "cache_hit_ratio": ratio(hits, served),
            "cut_off": any(len(w.samples) < per_window for w in windows),
        },
    }
