"""``--check``: do repeated runs of one commit agree with each other?

A benchmark whose own repeats disagree by more than its bounds cannot
carry a later claim.  Given the runs of ``--repeat N`` (same code, same
seed) this compares each later repeat with the first and fails when

* a run was ``noisy`` (started while others kept over half the cores busy),
* an end-to-end metric moved by more than its ``BENCHMARK.json`` bound,
  in either direction,
* a count that must be exact (``metrics.EXACT``, the request and answer
  digests) differs, or
* the names the code prints and the names ``BENCHMARK.json`` lists
  differ.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence

from bench import ROOT
from bench.metrics import END_TO_END, EXACT, PER_LAYER

EXACT_INFO = ("requests_digest", "answers_digest", "state_digest")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def catalogue_problems(spec: Dict[str, Any]) -> List[str]:
    problems = []
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in spec[key]}
        if listed != catalogue:
            odd = sorted(set(listed.items()) ^ set(catalogue.items()))
            problems.append(f"BENCHMARK.json {key} and bench/metrics.py disagree on {odd}")
    return problems


def compare(repeats: Sequence[Sequence[Dict[str, Any]]], spec: Dict[str, Any]) -> List[str]:
    """Problems found between the first repeat and each later one.
    Each repeat is the list of runs (one per workload and trace mode)
    in the same order."""
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    problems = catalogue_problems(spec)
    for run in (run for repeat in repeats for run in repeat):
        if run["meta"]["noisy"]:
            problems.append(
                f"{run['workload']}: noisy run ({run['meta']['busy_cores']:.2f} cores busy "
                f"at start), not comparable"
            )
    first = repeats[0]
    for number, later in enumerate(repeats[1:], start=2):
        for a, b in zip(first, later):
            where = f"{a['workload']} trace={a['trace']} repeat 1 vs {number}"
            if a["trace"]:
                names = [n for n in EXACT if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
                problems += [
                    f"{where}: exact count {n} differs: "
                    f"{a['metrics'][n]['value']} vs {b['metrics'][n]['value']}"
                    for n in names
                ]
            else:
                for name, bound in bounds.items():
                    x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                    moved = abs(x - y) / min(abs(x), abs(y))
                    if moved > bound:
                        problems.append(
                            f"{where}: {name} moved {moved:.1%} (> {bound:.0%}): {x:.6g} vs {y:.6g}"
                        )
            for key in EXACT_INFO:
                if a["info"].get(key) != b["info"].get(key):
                    problems.append(f"{where}: {key} differs")
    return problems
