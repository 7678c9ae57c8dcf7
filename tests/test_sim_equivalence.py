"""Determinism equivalence: optimized engine vs the seed engine.

The fast-path engine (tuple-entry heap, inlined run loop, coalesced
``TickGroup`` scheduling, O(1) inspection sweeps) must be *behaviorally
invisible*: the exact same callbacks in the exact same order, and
byte-identical scenario reports.  These tests lockstep it against the
seed implementation preserved in :mod:`repro.sim._reference` — first on
synthetic torture workloads (tie-breaking, cancellation, periodic
batches), then end-to-end on the ``dense`` and ``degraded-network``
production scenarios.
"""

import json

import pytest

from repro.perf import seed_baseline
from repro.sim import Simulator
from repro.sim._reference import ReferenceSimulator
from repro.sim.engine import SimulationError


def _drive(sim_cls):
    """A torture workload over both periodic APIs; returns the trace.

    Exercises the order-sensitive cases: same-instant ties between
    periodic ticks and one-shots, priorities, callbacks scheduling at
    the current instant, mid-run cancellation, and stopping periodic
    tasks from inside their own callbacks.
    """
    sim = sim_cls()
    trace = []

    def mark(tag):
        return lambda: trace.append((tag, sim.now))

    # two same-cadence tasks (coalescible) + one solo cadence
    sim.every_tick(10.0, mark("tick-a"))
    sim.every_tick(10.0, mark("tick-b"))
    sim.every_tick(4.0, mark("tick-solo"))
    # a jittered general periodic task
    sim.every(7.0, mark("periodic"), first_delay=3.0, jitter=lambda: 1.0)
    # one-shots tying with tick instants, including priority inversions
    sim.schedule(10.0, mark("oneshot@10"))
    sim.schedule(20.0, mark("hi@20"), priority=-5)
    sim.schedule(20.0, mark("lo@20"), priority=5)

    # a callback that schedules at the current instant and one interval
    # ahead (lands exactly on the next shared tick)
    def layered():
        trace.append(("layered", sim.now))
        sim.schedule(0.0, mark("layered-now"))
        sim.schedule(10.0, mark("layered+10"))
    sim.schedule(30.0, layered)

    # cancellations: one plain, one cancelled from another callback
    doomed = sim.schedule(15.0, mark("doomed"))
    doomed.cancel()
    victim = sim.schedule(26.0, mark("victim"))
    sim.schedule(25.0, lambda: victim.cancel())

    # a periodic task that stops itself after three firings
    holder = {}

    def self_stop():
        trace.append(("self-stop", sim.now))
        if len([t for t in trace if t[0] == "self-stop"]) == 3:
            holder["task"].stop()
    holder["task"] = sim.every_tick(6.0, self_stop)

    sim.run(until=60.0)
    trace.append(("final-now", sim.now))
    return trace, sim.pending_count()


class TestEngineOrderEquivalence:
    def test_torture_trace_identical(self):
        fast_trace, fast_pending = _drive(Simulator)
        seed_trace, seed_pending = _drive(ReferenceSimulator)
        assert fast_trace == seed_trace
        # pending_count counts heap callbacks: the coalesced engine
        # legitimately carries fewer entries (one per TickGroup), never
        # more
        assert 0 < fast_pending <= seed_pending

    def test_mixed_interleaving_many_tasks(self):
        def drive(sim_cls):
            sim = sim_cls()
            trace = []
            for i in range(17):
                sim.every_tick(5.0, lambda i=i: trace.append((i, sim.now)))
            for i in range(40):
                sim.schedule(0.7 * i, lambda i=i: trace.append(("s", i)))
            sim.run(until=50.0)
            return trace
        assert drive(Simulator) == drive(ReferenceSimulator)


@pytest.mark.parametrize("scenario", ["dense", "degraded-network"])
def test_scenario_reports_byte_identical(scenario):
    """The whole production stack produces byte-identical reports on
    the fast path and in seed-baseline mode (seed engine + seed sweeps
    + seed loss model)."""
    from repro.experiments.registry import get_scenario

    params = {"duration_s": 4 * 3600.0}
    fast = get_scenario(scenario).build(**params).run()
    with seed_baseline():
        built = get_scenario(scenario).build(**params)
        # a patch that misses the construction site would compare the
        # fast path with itself and pass vacuously
        assert isinstance(built.system.sim, ReferenceSimulator)
        seed = built.run()
    assert (json.dumps(fast.to_dict(), sort_keys=True)
            == json.dumps(seed.to_dict(), sort_keys=True))


class TestPeriodicAnchoring:
    def test_cadence_does_not_drift(self):
        """Firing times stay on the anchored grid."""
        sim = Simulator()
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run(until=55.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_tick_group_anchored(self):
        sim = Simulator()
        ticks = []
        sim.every_tick(0.1, lambda: ticks.append(sim.now))
        sim.run(until=1.05)
        # accumulating 0.1 floats: the grid must match repeated addition
        expected, t = [], 0.0
        for _ in range(10):
            t += 0.1
            expected.append(t)
        assert ticks == expected


class TestRunUntilGuard:
    def test_until_before_now_rejected(self):
        sim = Simulator(start_time=100.0)
        with pytest.raises(SimulationError):
            sim.run(until=50.0)

    def test_until_equal_now_is_noop(self):
        sim = Simulator(start_time=100.0)
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        assert sim.run(until=100.0) == 0
        assert fired == []
        assert sim.now == 100.0
