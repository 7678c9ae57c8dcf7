"""Unit tests for the discrete-event simulator kernel and its RNG
streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_run_stopped_by_max_events_keeps_the_clock():
    """A run cut short by ``max_events`` with events still due by
    ``until`` leaves the clock at its last event, so the next run never
    moves it backwards; once nothing live is due, ``until`` applies."""
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, lambda: fired.append(sim.now))
    assert sim.run(until=10.0, max_events=1) == 1
    assert sim.now == 1.0
    sim.run()
    assert fired == [1.0, 2.0, 3.0] and sim.now == 3.0

    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None).cancel()
    sim.schedule_at(20.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    assert sim.now == 10.0          # a cancelled entry is not due


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


def test_every_tick_sleeping_member_is_skipped():
    sim = Simulator()
    order = []
    a = sim.every_tick(5.0, lambda: order.append(("a", sim.now)))
    sim.every_tick(5.0, lambda: order.append(("b", sim.now)))
    a.sleep()
    assert a.asleep and not a.stopped
    sim.run(until=11.0)
    assert order == [("b", 5.0), ("b", 10.0)]
    a.wake()
    assert not a.asleep
    sim.run(until=16.0)
    # the woken member fires in its registration slot
    assert order[2:] == [("a", 15.0), ("b", 15.0)]


def test_every_tick_wake_mid_batch_depends_on_slot():
    """A wake from inside a batch fires a member whose slot the batch
    has not reached on this tick, and one it has passed on the next."""
    sim = Simulator()
    order = []
    members = {}

    def waker():
        order.append(("waker", sim.now))
        members["before"].wake()
        members["after"].wake()

    members["before"] = sim.every_tick(
        5.0, lambda: order.append(("before", sim.now)))
    sim.every_tick(5.0, waker)
    members["after"] = sim.every_tick(
        5.0, lambda: order.append(("after", sim.now)))
    members["before"].sleep()
    members["after"].sleep()
    sim.run(until=5.0)
    assert order == [("waker", 5.0), ("after", 5.0)]
    members["after"].sleep()
    sim.run(until=10.0)
    assert order[2:] == [("before", 10.0), ("waker", 10.0),
                         ("after", 10.0)]


def test_every_tick_sleep_keeps_registration_order():
    sim = Simulator()
    order = []
    members = [sim.every_tick(5.0, lambda i=i: order.append(i))
               for i in range(4)]
    for member in members[::2]:
        member.sleep()
    sim.run(until=5.0)
    assert order == [1, 3]
    for member in members:
        member.wake()
    sim.run(until=10.0)
    assert order[2:] == [0, 1, 2, 3]


def test_every_tick_stopping_sleeping_last_member_retires_group():
    sim = Simulator()
    ticks = []
    keep = sim.every_tick(5.0, lambda: ticks.append(sim.now))
    other = sim.every_tick(5.0, lambda: None)
    other.stop()
    keep.sleep()
    assert sim.pending_count() == 1     # the group stays armed
    keep.stop()
    assert sim.pending_count() == 0
    assert not sim._tick_groups
    sim.run(until=50.0)
    assert ticks == [] and sim.now == 50.0
    keep.wake()                         # no-op on a stopped member
    assert keep.stopped and not keep.asleep
    sim.run(until=100.0)
    assert ticks == [] and sim.pending_count() == 0


def test_every_tick_wake_does_not_revive_a_stopped_member():
    sim = Simulator()
    order = []
    stopped = sim.every_tick(5.0, lambda: order.append("stopped"))
    sim.every_tick(5.0, lambda: order.append("live"))
    stopped.stop()
    stopped.wake()
    sim.run(until=11.0)
    assert order == ["live", "live"]


def test_every_tick_all_asleep_group_keeps_cadence():
    """A group whose members all sleep fires once, finds nobody awake
    and leaves the heap; a later wake still lands on the anchored
    grid."""
    counts = []
    for sleep in (False, True):
        sim = Simulator()
        ticks = []
        member = sim.every_tick(5.0, lambda: ticks.append(sim.now),
                                first_delay=2.0)
        if sleep:
            member.sleep()
        executed = sim.run(until=30.0)
        counts.append(executed)
        member.wake()
        sim.run(until=40.0)
        assert ticks[-2:] == [32.0, 37.0]
    assert counts == [6, 1]


def test_every_tick_all_asleep_group_leaves_the_heap():
    sim = Simulator()
    members = [sim.every_tick(5.0, lambda: None) for _ in range(2)]
    for member in members:
        member.sleep()
    assert sim.pending_count() == 1     # armed until a tick finds nobody
    assert sim.run(until=30.0) == 1
    assert sim.pending_count() == 0
    members[1].wake()
    assert sim.pending_count() == 1


def test_every_tick_wake_after_many_skipped_ticks_lands_on_the_grid():
    """A dormant group re-enters on the grid its repeated additions
    reach, not on ``first + k * interval``."""
    sim = Simulator()
    ticks = []
    member = sim.every_tick(0.1, lambda: ticks.append(sim.now))
    member.sleep()
    sim.run(until=1000.05)
    member.wake()
    sim.run(until=1000.25)
    grid = [0.1]
    while grid[-1] <= 1000.25:
        grid.append(grid[-1] + 0.1)
    assert ticks == [t for t in grid if 1000.05 < t <= 1000.25]
    assert ticks[0] != 10001 * 0.1      # the grids part ways by then


def test_every_tick_wake_at_a_grid_instant_inside_a_run():
    """At a tick's instant, the woken group fires now only when its key
    (the previous tick's instant) sorts after the running entry's."""
    sim = Simulator()
    ticks = []
    member = sim.every_tick(5.0, lambda: ticks.append(sim.now))
    member.sleep()
    # pushed before the tick at 5: sorts before the group's entry at 10
    sim.schedule_at(10.0, member.wake)
    sim.run(until=12.0)
    assert ticks == [10.0]

    sim = Simulator()
    ticks = []
    member = sim.every_tick(5.0, lambda: ticks.append(sim.now))
    member.sleep()
    # pushed after the tick at 5: the group's entry at 10 ran first
    sim.schedule_at(7.0, lambda: sim.schedule_at(10.0, member.wake))
    sim.run(until=16.0)
    assert ticks == [15.0]


def test_every_tick_wake_outside_a_run_at_a_grid_instant():
    sim = Simulator()
    ticks = []
    member = sim.every_tick(5.0, lambda: ticks.append(sim.now))
    member.sleep()
    sim.run(until=10.0)                 # the tick at 10 has passed
    member.wake()
    sim.run(until=20.0)
    assert ticks == [15.0, 20.0]


def test_every_tick_wake_between_runs_keeps_the_run_order():
    """A run that ends between ticks marks its end instant, so entries
    pushed after it sort after a re-entry keyed to an earlier tick."""
    sim = Simulator()
    order = []
    member = sim.every_tick(5.0, lambda: order.append(("tick", sim.now)))
    member.sleep()
    sim.run(until=7.0)
    sim.schedule_at(10.0, lambda: order.append(("shot", sim.now)))
    member.wake()
    sim.run(until=10.0)
    assert order == [("tick", 10.0), ("shot", 10.0)]


def test_every_tick_stopping_last_member_of_a_dormant_group_retires_it():
    sim = Simulator()
    member = sim.every_tick(5.0, lambda: None)
    member.sleep()
    sim.run(until=12.0)
    assert sim.pending_count() == 0 and sim._tick_groups
    member.stop()
    assert not sim._tick_groups
    member.wake()
    assert sim.run(until=50.0) == 0 and sim.pending_count() == 0


def test_every_tick_reentries_on_one_mark_order_by_previous_tick():
    """Re-entries sharing an instant mark run earlier previous tick
    first, as the always-armed groups' re-arms would have; cancelling
    one clears its slot without moving the other."""
    def script(stop_b):
        sim = Simulator()
        order = []
        a = sim.every_tick(3.0, lambda: order.append(("a", sim.now)))
        b = sim.every_tick(4.0, lambda: order.append(("b", sim.now)))
        c = sim.every_tick(6.0, lambda: order.append(("c", sim.now)))
        for member in (a, b, c):
            member.sleep()

        def wake_all():
            for member in (a, b, c):
                member.wake()

        sim.schedule_at(11.0, wake_all)
        if stop_b:
            sim.schedule_at(11.5, b.stop)
        sim.run(until=12.0)
        return order, sim.pending_count()

    # instants 3, 4, 6 and 11: c keys to 6's mark; a (previous tick 9)
    # and b (8) share 11's, and b's earlier tick goes first
    assert script(stop_b=False) == ([("c", 12.0), ("b", 12.0),
                                     ("a", 12.0)], 3)
    assert script(stop_b=True) == ([("c", 12.0), ("a", 12.0)], 2)


def test_every_tick_joins_a_dormant_group_whose_grid_reaches_first():
    sim = Simulator()
    order = []
    sleeper = sim.every_tick(5.0, lambda: order.append(("sleeper", sim.now)))
    sleeper.sleep()
    joined = {}
    sim.schedule_at(7.0, lambda: joined.setdefault("m", sim.every_tick(
        5.0, lambda: order.append(("joined", sim.now)), first_delay=3.0)))
    sim.run(until=16.0)
    assert joined["m"]._group is sleeper._group
    assert len(sim._tick_groups) == 1
    assert order == [("joined", 10.0), ("joined", 15.0)]
    # off the grid: a new group
    late = sim.every_tick(5.0, lambda: None, first_delay=1.0)
    assert late._group is not sleeper._group


def test_run_without_until_returns_when_only_dormant_groups_remain():
    sim = Simulator()
    member = sim.every_tick(5.0, lambda: None)
    member.sleep()
    assert sim.run() == 1
    assert sim.now == 5.0


def test_every_tick_same_tick_coincidences_order_after_a_reentry():
    """Pinned: an entry pushed *during* the previous tick's instant for
    exactly the re-entered tick, at the group's priority, now runs after
    the group (an always-armed group would have run after it).  A
    same-cadence sibling group on the same grid is one such entry."""
    def script(keep_armed):
        sim = Simulator()
        order = []
        a = sim.every_tick(5.0, lambda: order.append(("a", sim.now)))
        if keep_armed:
            sim.every_tick(5.0, lambda: None)
        a.sleep()
        # b: a second group on a's grid from 10 on, created earlier
        # than a's re-arm at 5, so it sorts first at 10
        sim.every_tick(5.0, lambda: order.append(("b", sim.now)),
                       first_delay=10.0)
        # pushed at 10, before a's tick there, for a's next tick
        sim.schedule_at(10.0, lambda: sim.schedule_at(
            15.0, lambda: order.append(("shot", sim.now))))
        sim.schedule_at(12.0, a.wake)
        sim.run(until=15.0)
        return [entry for entry in order if entry[1] == 15.0]

    assert script(keep_armed=True) == [("b", 15.0), ("shot", 15.0),
                                       ("a", 15.0)]
    assert script(keep_armed=False) == [("a", 15.0), ("b", 15.0),
                                        ("shot", 15.0)]


_CADENCES = (0.5, 1.0, 1.5, 2.0, 3.0, 0.7)
_ACTIONS = st.one_of(
    st.just(("noop", 0)),
    st.tuples(st.sampled_from(("sleep", "sleep", "wake", "wake", "stop")),
              st.integers(0, 5)))


@st.composite
def dormancy_scripts(draw):
    """Groups on grids that never coincide at one cadence (distinct
    cadences from phase 0, or one cadence at distinct phases), members
    acting on each other at each fire, one-shots at arbitrary times and
    driver actions between two runs."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cadences = draw(st.lists(st.sampled_from(_CADENCES), min_size=n,
                                 max_size=n, unique=True))
        phases = [None] * n
    else:
        cadence = draw(st.sampled_from(_CADENCES))
        cadences = [cadence] * n
        phases = draw(st.lists(st.floats(0.01, cadence), min_size=n,
                               max_size=n, unique=True))
    groups = [(cadences[i], phases[i], draw(st.integers(0, 1)),
               draw(st.lists(st.lists(_ACTIONS, min_size=1, max_size=4),
                             min_size=1, max_size=3)))
              for i in range(n)]
    shots = draw(st.lists(st.tuples(st.floats(0.0, 30.0),
                                    st.integers(0, 1), _ACTIONS),
                          max_size=24))
    split = draw(st.floats(0.0, 30.0))
    between = draw(st.lists(_ACTIONS, max_size=4))
    return groups, shots, split, between


def _run_dormancy_script(script, keep_armed):
    """Run ``script``; with ``keep_armed`` every group also holds a
    never-sleeping no-op member, so no group ever goes dormant."""
    groups, shots, split, between = script
    sim = Simulator()
    log = []
    members = []

    def act(action):
        verb, index = action
        if verb != "noop":
            getattr(members[index % len(members)], verb)()

    def fire(ident, program):
        count = [0]

        def callback():
            log.append((sim.now, ident))
            act(program[count[0] % len(program)])
            count[0] += 1
        return callback

    for cadence, phase, priority, programs in groups:
        for program in programs:
            members.append(sim.every_tick(
                cadence, fire(len(members), program), first_delay=phase,
                priority=priority))
        if keep_armed:
            sim.every_tick(cadence, lambda: None, first_delay=phase,
                           priority=priority)
    for i, (at, priority, action) in enumerate(shots):
        sim.schedule_at(at, lambda i=i, action=action: (
            log.append((sim.now, f"shot{i}")), act(action)),
            priority=priority)
    executed = sim.run(until=split)
    for action in between:
        act(action)
    executed += sim.run(until=30.0)
    return log, executed


@settings(max_examples=300, deadline=None)
@given(dormancy_scripts())
def test_dormant_groups_fire_as_always_armed_groups_would(script):
    """The oracle for dormancy: the firing log of every script equals
    the same script's with each group kept armed by a no-op member."""
    dormant, dormant_events = _run_dormancy_script(script, False)
    armed, armed_events = _run_dormancy_script(script, True)
    assert dormant == armed
    assert dormant_events <= armed_events


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
