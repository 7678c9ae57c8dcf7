"""Unit tests for the discrete-event simulator kernel and its RNG
streams."""

import pytest

from repro.sim import RngStreams, Simulator
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_execute_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_ties():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("low"), priority=10)
    sim.schedule(1.0, lambda: order.append("high"), priority=-10)
    sim.run()
    assert order == ["high", "low"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # clock advanced to the window end
    sim.run()
    assert fired == [1, 10]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    trace = []

    def first():
        trace.append(("first", sim.now))
        sim.schedule(2.0, lambda: trace.append(("second", sim.now)))

    sim.schedule(1.0, first)
    sim.run()
    assert trace == [("first", 1.0), ("second", 3.0)]


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.pending_count() == 1


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.schedule(4.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.peek() == 2.0


def test_periodic_task_fires_repeatedly():
    sim = Simulator()
    ticks = []
    task = sim.every(10.0, lambda: ticks.append(sim.now))
    sim.run(until=35.0)
    assert ticks == [10.0, 20.0, 30.0]
    task.stop()
    sim.run(until=100.0)
    assert ticks == [10.0, 20.0, 30.0]


def test_periodic_task_first_delay():
    sim = Simulator()
    ticks = []
    sim.every(10.0, lambda: ticks.append(sim.now), first_delay=0.0)
    sim.run(until=25.0)
    assert ticks == [0.0, 10.0, 20.0]


def test_periodic_task_jitter():
    sim = Simulator()
    ticks = []
    sim.every(10.0, lambda: ticks.append(sim.now), first_delay=0.0,
              jitter=lambda: 1.0)
    sim.run(until=25.0)
    # first at 0+1, then +11 each time
    assert ticks == [1.0, 12.0, 23.0]


def test_periodic_rejects_nonpositive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_every_tick_coalesces_same_cadence():
    sim = Simulator()
    order = []
    sim.every_tick(10.0, lambda: order.append("a"))
    sim.every_tick(10.0, lambda: order.append("b"))
    # one heap entry carries both members
    assert sim.pending_count() == 1
    sim.run(until=25.0)
    assert order == ["a", "b", "a", "b"]


def test_every_tick_first_delay_and_stop():
    sim = Simulator()
    ticks = []
    member = sim.every_tick(10.0, lambda: ticks.append(sim.now),
                            first_delay=5.0)
    sim.run(until=26.0)
    assert ticks == [5.0, 15.0, 25.0]
    member.stop()
    assert member.stopped
    sim.run(until=100.0)
    assert ticks == [5.0, 15.0, 25.0]
    assert sim.pending_count() == 0


def test_every_tick_different_cadences_stay_separate():
    sim = Simulator()
    order = []
    sim.every_tick(10.0, lambda: order.append("ten"))
    sim.every_tick(4.0, lambda: order.append("four"))
    assert sim.pending_count() == 2
    sim.run(until=12.0)
    assert order == ["four", "four", "ten", "four"]


def test_every_tick_member_stopped_mid_batch_does_not_fire():
    sim = Simulator()
    order = []
    holder = {}
    sim.every_tick(5.0, lambda: (order.append("first"),
                                 holder["second"].stop()))
    holder["second"] = sim.every_tick(5.0, lambda: order.append("second"))
    sim.run(until=11.0)
    assert order == ["first", "first"]


def test_every_tick_registered_mid_batch_joins_and_fires_next_tick():
    sim = Simulator()
    order = []
    holder = {}

    def spawner():
        order.append(("spawner", sim.now))
        if "late" not in holder:
            holder["late"] = sim.every_tick(
                5.0, lambda: order.append(("late", sim.now)))

    sim.every_tick(5.0, spawner)
    sim.run(until=11.0)
    # the late member joined the live group (one heap entry) and first
    # fired one full interval after registration
    assert order == [("spawner", 5.0), ("spawner", 10.0), ("late", 10.0)]
    assert sim.pending_count() == 1


def test_every_tick_member_exception_kills_only_that_member():
    sim = Simulator()
    order = []

    def bad():
        order.append(("bad", sim.now))
        raise RuntimeError("boom")

    sim.every_tick(5.0, bad)
    sim.every_tick(5.0, lambda: order.append(("good", sim.now)))
    with pytest.raises(RuntimeError):
        sim.run(until=20.0)
    # the raiser is dead, the cadence survives: resuming the run keeps
    # firing the healthy member on the anchored grid
    sim.run(until=20.0)
    assert order == [("bad", 5.0), ("good", 10.0), ("good", 15.0),
                     ("good", 20.0)]


def test_every_tick_rejects_nonpositive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every_tick(0.0, lambda: None)


def test_stop_periodic_from_its_own_callback():
    sim = Simulator()
    ticks = []
    holder = {}

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 2:
            holder["task"].stop()

    holder["task"] = sim.every(5.0, tick)
    sim.run(until=100.0)
    assert ticks == [5.0, 10.0]


def test_rng_streams_deterministic_and_independent():
    s1, s2 = RngStreams(7), RngStreams(7)
    a = s1.get("faults").random(5)
    # drawing from another stream first must not perturb "faults"
    s2.get("jitter").random(100)
    b = s2.get("faults").random(5)
    assert a.tolist() == b.tolist()


def test_rng_streams_differ_across_names_and_seeds():
    s = RngStreams(7)
    assert s.get("a").random() != s.get("b").random()
    assert RngStreams(1).get("a").random() != RngStreams(2).get("a").random()


def test_rng_fork_is_disjoint():
    parent = RngStreams(7)
    child = parent.fork("replay")
    assert parent.get("x").random() != child.get("x").random()
