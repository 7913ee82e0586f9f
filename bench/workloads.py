"""The five workloads and their seeded request lists.

``--seed`` is the only randomness: the program under test receives only
what this module generates.  Every list is a pure function of
``(workload, seed, length)`` and the fixed dataset, so one seed always
replays the same requests and every count repeats exactly.

Like the dataset, the *population* of queries a workload draws on is
part of its definition; the seed decides the order in which it is
visited: it shuffles within each twelfth of the list, the stretch one
closed-loop window measures (:mod:`bench.online`), so every window of
every seed sends the same requests in another order.  Measured on
``direct_exhaustive``, eight runs at reference speed: lists that
differed in population spread by 11 % on the median latency and 18 % on
p95, lists that differed in order only by 3 % and 5 % — which query
meets which k matters more than any stratum count can balance.

The query family (both built entity pairs)::

    constraint1   keyword on Protein.DESC, one of the 25 most frequent
                  words of the generated table — or, for exhaustive
                  requests, an AND of two of them;
                  or a point predicate Protein.ID = <id read from the table>
    constraint2   none | DNA.TYPE in {mRNA, genomic, EST}
                  none | Interaction.DESC keyword in {physical, direct,
                  experimental}
    top-k         k in 1..60, ranking in {freq, rare, domain}

which gives 36,000 distinct keyword top-k queries — far more than the
4096-entry result cache holds or a run reaches.  Lists that must miss
draw from it *without replacement* (asserted), so their result-cache
hit ratio is exactly 0.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.biozon import INTERACTION_KEYWORDS
from repro.core import (
    AttributeConstraint,
    ConjunctionConstraint,
    Constraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
)
from repro.core.ranking import RANKING_SCHEMES
from repro.service.http.schemas import constraint_to_wire

from bench.fixture import MAX_LENGTH, PAIRS

WORKLOADS: Dict[str, str] = {
    "http_hot": (
        "POST /query over sockets, Zipf(1.1) over a 256-query hot set that fits the "
        "result cache: >= 99 % hits, so only wire, schema, admission and cache work shows"
    ),
    "http_cold_topk": (
        "POST /query, pairwise-distinct top-k requests on the default method: hit ratio "
        "exactly 0, time is in planning and the DGJ/early-termination stacks"
    ),
    "direct_exhaustive": (
        "in-process TopologyServer.query, distinct requests round-robin over full-top, "
        "fast-top, full-top-k, fast-top-k: columnar scan/join/sort and pruned checks, no DGJ, no HTTP"
    ),
    "shard_scatter": (
        "ShardCoordinator.query over 2 worker processes, half point queries on E1 and half "
        "keyword queries: IPC, pickle and merge; only the point half can ever skip a shard"
    ),
    "offline_build": (
        "generate, build, save, load, split+verify, then a hot rebuild under paced reads: "
        "the write side, where work moved out of query time shows"
    ),
}
ONLINE = ("http_hot", "http_cold_topk", "direct_exhaustive", "shard_scatter")

HOT_SET = 256
ZIPF_EXPONENT = 1.1
KEYWORDS = 25
MAX_K = 60
WARMUP = 16
BLOCKS = 12  # the seed reorders requests within each of this many stretches of a list
DIRECT_METHODS = ("full-top", "fast-top", "full-top-k", "fast-top-k")

# List length per second of --seconds: what the seed commit gets through
# at reference speed, so a run measures for --seconds there.  A run sends
# its whole list: were it cut off by the clock, which requests it got to
# would depend on the seed and on the machine's speed that minute, and
# that alone spread ten runs by 9 % on throughput and 16 % on p95.
REQUESTS_PER_SECOND = {
    "http_hot": 2300,
    "http_cold_topk": 110,
    "direct_exhaustive": 120,
    "shard_scatter": 120,
}
# Requests the traced run replays per second of --seconds (fixed, so
# its counts are exact for one seed): 396 at 8 s on the miss workloads.
TRACED_PER_SECOND = {
    "http_hot": 500,
    "http_cold_topk": 50,
    "direct_exhaustive": 50,
    "shard_scatter": 50,
}


@dataclass(frozen=True)
class Request:
    """One generated request: the typed query for in-process callers,
    the encoded ``POST /query`` body for wire callers."""

    query: TopologyQuery
    method: Optional[str]  # None = the server's default method
    kind: str  # "keyword" or "point"
    body: bytes


@dataclass(frozen=True)
class RequestList:
    requests: Tuple[Request, ...]
    warmup: Tuple[Request, ...]
    requests_digest: str


class Catalog:
    """What the generator reads from the dataset: protein ids for point
    queries and the keyword vocabulary."""

    def __init__(self, data: Any) -> None:
        table = data.database.table("Protein")
        id_at = table.schema.column_position("ID")
        desc_at = table.schema.column_position("DESC")
        words: Counter = Counter()
        ids = []
        for row in table.rows:
            ids.append(row[id_at])
            words.update(set(row[desc_at].split()))
        self.protein_ids: Tuple[Any, ...] = tuple(ids)
        ranked = sorted(words.items(), key=lambda item: (-item[1], item[0]))
        self.keywords: Tuple[str, ...] = tuple(word for word, _ in ranked[:KEYWORDS])
        if len(self.keywords) < KEYWORDS:
            raise ValueError(f"dataset has only {len(self.keywords)} keywords")


def _second_constraints(entity2: str) -> Tuple[Constraint, ...]:
    if entity2 == "DNA":
        values = ("mRNA", "genomic", "EST")
        return (NoConstraint(),) + tuple(AttributeConstraint("TYPE", v) for v in values)
    return (NoConstraint(),) + tuple(
        KeywordConstraint("DESC", word) for word, _ in INTERACTION_KEYWORDS
    )


def _request(query: TopologyQuery, method: Optional[str], kind: str) -> Request:
    payload: Dict[str, Any] = {
        "entity1": query.entity1,
        "entity2": query.entity2,
        "constraint1": constraint_to_wire(query.constraint1),
        "constraint2": constraint_to_wire(query.constraint2),
        "max_length": query.max_length,
        "ranking": query.ranking,
    }
    if query.k is not None:
        payload["k"] = query.k
    if method is not None:
        payload["method"] = method
    return Request(query, method, kind, json.dumps(payload, sort_keys=True).encode())


def _passes(rng: random.Random, items: Sequence[Any]) -> Iterator[Any]:
    """Endless reshuffled passes over ``items``: every item once before
    any repeats, so any long stretch holds them in equal shares."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class _Family:
    """Stratified streams of pairwise-distinct queries.

    What a query costs depends on its stratum far more than on its
    seed-drawn details (an EST-constrained top-k costs ten times an
    unconstrained one), so a plain random sample makes two seeds differ
    by which strata happened to come first.  Every stream therefore
    walks the eight (entity pair, second constraint) strata in reshuffled
    passes, and within a stratum the first constraints, k and ranking
    likewise: any stretch of a list has the same mix."""

    def __init__(self, catalog: Catalog, rng: random.Random) -> None:
        self.rng = rng
        self.strata = [
            (pair, second) for pair in PAIRS for second in _second_constraints(pair[1])
        ]
        words = catalog.keywords
        self.keywords: Tuple[Constraint, ...] = tuple(
            KeywordConstraint("DESC", w) for w in words
        )
        # Exhaustive requests carry no k or ranking to tell them apart,
        # so two-keyword conjunctions widen their space to
        # (25 + 300) * 8 = 2600 queries.
        self.conjunctions: Tuple[Constraint, ...] = tuple(
            ConjunctionConstraint(
                (KeywordConstraint("DESC", a), KeywordConstraint("DESC", b))
            )
            for i, a in enumerate(words)
            for b in words[i + 1 :]
        )
        self.points: Tuple[Constraint, ...] = tuple(
            AttributeConstraint("ID", pid) for pid in catalog.protein_ids
        )

    def _query(
        self, stratum: Any, first: Constraint, k: Optional[int], ranking: str
    ) -> TopologyQuery:
        pair, second = stratum
        return TopologyQuery(
            pair[0], pair[1], first, second, max_length=MAX_LENGTH, k=k, ranking=ranking
        )

    def topk(self, firsts: Sequence[Constraint]) -> Iterator[TopologyQuery]:
        """Top-k queries.  Within a stratum, k and ranking also come in
        reshuffled passes (early termination makes cost grow with k);
        a combination that came up before is skipped, so the stream is
        pairwise distinct, and it ends long before its space does."""
        rng = self.rng
        first_of = {s: _passes(rng, firsts) for s in self.strata}
        k_of = {s: _passes(rng, range(1, MAX_K + 1)) for s in self.strata}
        ranking_of = {s: _passes(rng, RANKING_SCHEMES) for s in self.strata}
        seen = set()
        space = len(self.strata) * len(firsts) * MAX_K * len(RANKING_SCHEMES)
        for stratum in _passes(rng, self.strata):
            if len(seen) >= space // 2:
                return
            first, ranking = next(first_of[stratum]), next(ranking_of[stratum])
            k = next(k_of[stratum])
            while (stratum, first, k, ranking) in seen:
                k = next(k_of[stratum])
            seen.add((stratum, first, k, ranking))
            yield self._query(stratum, first, k, ranking)

    def exhaustive(self, firsts: Sequence[Constraint]) -> Iterator[TopologyQuery]:
        """Queries without k; distinct because each (stratum, first) is
        used once."""
        rng = self.rng
        unused = {s: rng.sample(list(firsts), len(firsts)) for s in self.strata}
        for stratum in _passes(rng, self.strata):
            if not unused[stratum]:
                return
            yield self._query(stratum, unused[stratum].pop(), None, RANKING_SCHEMES[0])

    def exhaustive_keywords(self) -> Iterator[TopologyQuery]:
        """One single-keyword query, then three conjunctions, and so on
        — the share that lets both spaces run out together."""
        single = self.exhaustive(self.keywords)
        double = self.exhaustive(self.conjunctions)
        while True:
            for stream in (single, double, double, double):
                query = next(stream, None)
                if query is None:
                    return
                yield query


def _digest(requests: Sequence[Request]) -> str:
    sha = hashlib.sha256()
    for request in requests:
        sha.update(request.body)
        sha.update(b"\n")
    return sha.hexdigest()


def _hot_set(family: _Family) -> List[Request]:
    """256 distinct top-k queries.  k depends on the rank alone, so the
    reply-size mix of the Zipf draw is the same for every seed."""
    queries = itertools.islice(family.topk(family.keywords), HOT_SET)
    return [
        _request(dataclasses.replace(q, k=1 + (rank * 37) % MAX_K), None, "keyword")
        for rank, q in enumerate(queries)
    ]


def _http_hot(family: _Family, count: int, order: random.Random) -> RequestList:
    hot = _hot_set(family)
    weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, HOT_SET + 1)]
    drawn = _seed_order(family.rng.choices(hot, weights=weights, k=count), order)
    # The whole hot set is the warm-up: every timed request can hit.
    return RequestList(tuple(drawn), tuple(hot), _digest(drawn))


def _http_cold_topk(family: _Family, count: int, order: random.Random) -> RequestList:
    queries = itertools.islice(family.topk(family.keywords), count + WARMUP)
    return _distinct_list([_request(q, None, "keyword") for q in queries], order)


def _direct_exhaustive(family: _Family, count: int, order: random.Random) -> RequestList:
    streams = {
        "full-top": family.exhaustive_keywords(),
        "fast-top": family.exhaustive_keywords(),
        "full-top-k": family.topk(family.keywords),
        "fast-top-k": family.topk(family.keywords),
    }
    requests = []
    for method in itertools.islice(itertools.cycle(DIRECT_METHODS), count + WARMUP):
        query = next(streams[method], None)
        if query is None:
            break
        requests.append(_request(query, method, "keyword"))
    return _distinct_list(requests, order)


def _shard_scatter(family: _Family, count: int, order: random.Random) -> RequestList:
    """Alternating point/keyword requests, 75 % on the default method
    and 25 % on ``full-top`` (exhaustive, no k).  The ``full-top``
    quarter is every second *point* query: with keyword queries all
    top-k, the costly EST stratum is 6.25 % of every block, so p95 lies
    inside that cluster — at 5 % it sat on the cluster's edge and jumped
    between 13 ms and 28 ms from run to run."""
    streams = {
        ("point", True): family.topk(family.points),
        ("point", False): family.exhaustive(family.points),
        ("keyword", True): family.topk(family.keywords),
    }
    requests = []
    for i in range(count + WARMUP):
        kind = ("point", "keyword")[i % 2]
        topk = kind == "keyword" or (i // 2) % 2 == 0
        query = next(streams[(kind, topk)], None)
        if query is None:
            break
        requests.append(_request(query, None if topk else "full-top", kind))
    return _distinct_list(requests, order)


def _seed_order(timed: List[Request], order: random.Random) -> List[Request]:
    """``timed`` shuffled within each of ``BLOCKS`` consecutive
    stretches: every stretch keeps exactly the requests it was
    generated with."""
    size = max(1, len(timed) // BLOCKS)
    return [
        request
        for start in range(0, len(timed), size)
        for request in order.sample(timed[start : start + size], len(timed[start : start + size]))
    ]


def _distinct_list(population: List[Request], order: random.Random) -> RequestList:
    """Assert what the hit-ratio-0 claim rests on — no (method, query)
    pair occurs twice — split off the warm-up, and put the rest in the
    seed's order."""
    if len({(r.method, r.query) for r in population}) != len(population):
        raise AssertionError("generated requests are not pairwise distinct")
    ordered = _seed_order(population[:-WARMUP], order)
    return RequestList(tuple(ordered), tuple(population[-WARMUP:]), _digest(ordered))


_BUILDERS: Dict[str, Callable[[_Family, int, random.Random], RequestList]] = {
    "http_hot": _http_hot,
    "http_cold_topk": _http_cold_topk,
    "direct_exhaustive": _direct_exhaustive,
    "shard_scatter": _shard_scatter,
}


def build_requests(workload: str, seed: int, count: int, data: Any) -> RequestList:
    """The seeded request list of one online workload (``count`` timed
    requests plus its warm-up)."""
    family = _Family(Catalog(data), random.Random(f"{workload}:population"))
    return _BUILDERS[workload](family, count, random.Random(f"{workload}:{seed}"))


def hot_reads(seed: int, data: Any) -> Tuple[Request, ...]:
    """The hot set the ``offline_build`` reader cycles through while the
    store is rebuilt under it, in the seed's order."""
    hot = _hot_set(_Family(Catalog(data), random.Random("offline_build:population")))
    return tuple(random.Random(f"offline_build:{seed}").sample(hot, len(hot)))
