"""Reproduction of "Topology Search over Biological Databases"
(Guo, Shanmugasundaram, Yona; ICDE 2007).

Packages:

* :mod:`repro.graph` — labeled multigraphs, canonical forms, paths,
  schema-level topology enumeration (Section 2.1 / 3.1);
* :mod:`repro.relational` — the host relational engine with DGJ
  operators and a System-R optimizer (Sections 5.3-5.4);
* :mod:`repro.biozon` — the Biozon-style schema, the Figure-3 fixture,
  and the synthetic data generator;
* :mod:`repro.core` — topology definitions, the offline
  computation/pruning pipeline, and the nine query methods (Sections
  2-6);
* :mod:`repro.parallel` — the partition hash, and a multi-process
  computation step (bit-identical to the serial one) that the
  benchmark compares the serial build with;
* :mod:`repro.persist` — schema-versioned SQLite snapshots of a built
  system (save once, cold-start in milliseconds);
* :mod:`repro.shard` — split a built store into verified
  self-contained shard snapshots (routed by the partition hash);
* :mod:`repro.service` — the online query service: LRU result cache,
  batched execution, per-method latency statistics, and the
  scatter-gather shard coordinator;
* :mod:`repro.analysis` — frequency distributions, Zipf fits, report
  rendering for the benchmark harnesses.
"""

__version__ = "1.4.0"

from repro.core import (
    AttributeConstraint,
    InstanceRetriever,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)

__all__ = [
    "AttributeConstraint",
    "InstanceRetriever",
    "KeywordConstraint",
    "NoConstraint",
    "TopologyQuery",
    "TopologySearchSystem",
    "__version__",
]
