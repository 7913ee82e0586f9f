"""The answer every reply is checked against.

The oracle runs in the ``bench`` process on an engine loaded
independently from the snapshot, and computes each expected answer by a
different route than the program under test took: one *exhaustive*
``full-top`` evaluation of the request's constraints (no k, no
ranking), then the paper's definition of top-k applied here — order by
(score desc, tid desc) with the scores of the store's topology catalog,
cut at k.  Requests that differ only in k and ranking share one
exhaustive evaluation, which is what keeps checking every reply
affordable.

Requests whose own method is ``full-top`` are therefore checked against
the same method on a second engine; that method is in turn checked on
every run by the ``fast-top``, ``fast-top-k`` and default-method
requests over the same constraints (the paper's nine-method
equivalence), so an error in it cannot hide.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import TopologyQuery

Answer = Tuple[List[int], Optional[List[float]]]


class Oracle:
    def __init__(self, system: Any) -> None:
        self.system = system
        self._exhaustive: Dict[TopologyQuery, List[int]] = {}

    @classmethod
    def from_snapshot(cls, path: str) -> "Oracle":
        from repro.persist import load_system

        return cls(load_system(path))

    def expected(self, query: TopologyQuery) -> Answer:
        base = dataclasses.replace(query, k=None, ranking="freq")
        tids = self._exhaustive.get(base)
        if tids is None:
            tids = list(self.system.search(base, method="full-top").tids)
            self._exhaustive[base] = tids
        if query.k is None:
            return list(tids), None
        store = self.system.require_store()
        scored = [(store.topology(t).scores[query.ranking], t) for t in tids]
        scored.sort(key=lambda st: (-st[0], -st[1]))
        top = scored[: query.k]
        return [t for _, t in top], [s for s, _ in top]

    def matches(
        self, query: TopologyQuery, tids: Sequence[int], scores: Optional[Sequence[float]]
    ) -> bool:
        want_tids, want_scores = self.expected(query)
        if list(tids) != want_tids:
            return False
        if want_scores is None:
            return scores is None
        return scores is not None and list(scores) == want_scores
