"""Tiny-size runs of the ``repro.perf`` benchmark harness.

`benchmarks/perf/test_perf_smoke.py` gates real ratios but is excluded
from CI's coverage collection (its wall-clock floors would flake under
the tracer).  These runs shrink every problem size to near-trivial and
assert only payload *shape* and invariants — they exist so the harness
itself is exercised (and covered) by the tier-1 suite, never to gate a
ratio.
"""

from repro.perf import (
    bench_cancellation,
    bench_fault_health_substrate,
    bench_metrics_plane,
    bench_oneshot_events,
    bench_scenario,
    bench_scheduler_ticks,
)


def test_oneshot_events_tiny():
    row = bench_oneshot_events(n=500, repeat=1)
    assert row["name"] == "oneshot_events"
    assert row["events"] == 500
    assert row["fast"]["seconds"] > 0
    assert row["seed"]["seconds"] > 0
    assert row["speedup"] > 0


def test_oneshot_events_without_seed_side():
    row = bench_oneshot_events(n=200, repeat=1, with_seed=False)
    assert "seed" not in row and "speedup" not in row


def test_cancellation_tiny():
    row = bench_cancellation(n=400, repeat=1)
    assert row["events"] == 400
    assert row["speedup"] > 0


def test_scheduler_ticks_tiny():
    row = bench_scheduler_ticks(tasks=20, ticks=3, repeat=1)
    assert row["events"] == 20 * 3
    assert row["fast"]["events_per_sec"] > 0


def test_substrate_tiny():
    row = bench_fault_health_substrate(machines=128, iters=2, repeat=1)
    assert row["events"] == 128 * 2
    # the bench itself raises if the modes' emission streams diverge
    assert row["fast"]["emissions"] == row["seed"]["emissions"]


def test_metrics_plane_tiny():
    row = bench_metrics_plane(steps=512, repeat=1)
    assert row["name"] == "metrics_plane"
    # 512 steps x (loss + grad_norm), no rollback replays below 10k
    assert row["fast"]["events"] == 1024
    assert row["speedup"] > 0


def test_scenario_cell_without_baseline():
    entry = bench_scenario("standby-sizing", {"machines": 64},
                           repeat=1, with_seed_baseline=False)
    assert entry["name"] == "standby-sizing"
    assert entry["fast_seconds"] > 0
    assert "speedup" not in entry

