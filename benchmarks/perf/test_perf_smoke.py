"""Tractability checks for the big-fleet scenarios.

These verify that the ~10k-GPU ``dense-xl`` and the 100k-GPU
``fleet-quarter`` scenarios can run at all inside a CI-sized budget.
Performance numbers come from the repository benchmark,
``perfbench/run.py`` (see ``BENCHMARK.json``).
"""

import time

#: Wall-clock ceiling for the dense-xl completion check.  The CI smoke
#: budget is minutes; a 10x margin over the observed ~3 s keeps the
#: assertion meaningful without flaking on slow runners.
DENSE_XL_BUDGET_S = 120.0

#: Wall-clock ceiling for one simulated week of fleet-quarter at full
#: width (12.5k machines).  Observed ~12 s including the one-time
#: cluster build; the margin covers slow shared runners.
FLEET_QUARTER_WEEK_BUDGET_S = 180.0


def test_fleet_quarter_week_within_budget():
    """One simulated week of the flagship 100k-GPU scenario — full
    12.5k-machine width, hazard substrate on — must stay tractable."""
    from repro.experiments.registry import get_scenario

    t0 = time.perf_counter()
    report = get_scenario("fleet-quarter").build(
        duration_s=7 * 86400.0).run()
    elapsed = time.perf_counter() - t0
    assert elapsed < FLEET_QUARTER_WEEK_BUDGET_S
    payload = report.payload
    assert payload["machine_hazard"]["hits"] > 0
    assert payload["jobs_completed"] > 0


def test_dense_xl_completes_within_budget():
    """~10k GPUs (1250 machines) must be tractable end-to-end."""
    from repro.experiments.registry import get_scenario

    t0 = time.perf_counter()
    report = get_scenario("dense-xl").build(duration_s=1800.0).run()
    elapsed = time.perf_counter() - t0
    assert elapsed < DENSE_XL_BUDGET_S
    assert report.final_step > 0
    assert report.wall_time_s == 1800.0
