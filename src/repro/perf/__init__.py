"""Profiling and reference oracles for the simulation core.

* :func:`profile_scenario` / :func:`format_profile` — the
  ``repro perf --profile <scenario>`` cProfile hotspot report;
* :func:`seed_baseline` — restores the seed (pre-fast-path) hot paths
  so the equivalence suite can assert that the fast path produces
  byte-identical reports.

Performance itself is measured by the repository benchmark,
``perfbench/run.py`` (declared in ``BENCHMARK.json``): absolute
end-to-end metrics per workload plus a per-layer time split.
"""

from repro.perf.baseline import seed_baseline
from repro.perf.profile import (
    PROFILE_SCHEMA_VERSION,
    format_profile,
    profile_scenario,
)

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "format_profile",
    "profile_scenario",
    "seed_baseline",
]
