"""The repository's benchmark: five named workloads over the whole spine.

Run one workload the way the driver does::

    python3 -m bench --workload http_hot --seed 7 --seconds 8 --trace 0

or the whole suite (``python3 -m bench --seed 7``).  ``README.md`` in
this directory explains the workloads, the metrics and how to read the
output; ``BENCHMARK.json`` at the repository root is the contract.

The package measures ``src/repro`` from outside, so it puts the
checkout's ``src`` on ``sys.path`` itself: the benchmark command names
no path outside this directory.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Everything the benchmark writes (fixture, child logs, span files,
# result files) lands here; the directory is git-ignored.
OUT = os.path.join(ROOT, "bench", "out")

if not os.path.isdir(os.path.join(SRC, "repro")):
    # A directory that holds only the benchmark has no program to
    # measure: fail before anything prints a result.
    raise ImportError(f"no program to measure: {SRC}/repro is missing")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
