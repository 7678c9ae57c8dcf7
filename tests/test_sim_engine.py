"""Unit tests for the discrete-event simulator kernel and its RNG
streams."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngStreams, Simulator
from repro.sim.engine import SimulationError, TickGroup


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
    """Inside a run, a dormant group's tick at ``now`` still runs, after
    the running entry, however early the wake was queued."""
    def script(wake_at_10):
        sim = Simulator()
        ticks = []
        member = sim.every_tick(5.0, lambda: ticks.append(sim.now))
        member.sleep()
        wake_at_10(sim, member)
        sim.run(until=16.0)
        return ticks

    # queued before the group's tick at 5, and after it
    assert script(lambda sim, m: sim.schedule_at(10.0, m.wake)) == [
        10.0, 15.0]
    assert script(lambda sim, m: sim.schedule_at(
        7.0, lambda: sim.schedule_at(10.0, m.wake))) == [10.0, 15.0]


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
    """A re-entry is an ordinary entry: at its instant it runs after
    entries queued before the wake and before those queued after it."""
    sim = Simulator()
    order = []
    member = sim.every_tick(5.0, lambda: order.append(("tick", sim.now)))
    member.sleep()
    sim.run(until=7.0)
    sim.schedule_at(10.0, lambda: order.append(("before", sim.now)))
    member.wake()
    sim.schedule_at(10.0, lambda: order.append(("after", sim.now)))
    sim.run(until=10.0)
    assert order == [("before", 10.0), ("tick", 10.0), ("after", 10.0)]


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


_END = 30.0


def _grid(first, cadence):
    """A group's anchored ticks up to the first one past the end, by
    the repeated addition the engine uses."""
    ticks = [first]
    while ticks[-1] <= _END:
        ticks.append(ticks[-1] + cadence)
    return ticks


def _run_dormancy_script(script, keep_armed):
    """Run ``script``; with ``keep_armed`` every group also holds a
    never-sleeping no-op member, so no group ever goes dormant.

    Returns the log, the executed event count, each member's group, each
    group's grid and the ticks each group held no heap entry for.  The
    log has ``("fire", t, member)``, each group's batch bounds
    ``("start"/"end", t, group)`` and every wake, sleep or stop that
    changed a member's state, ``(verb, t, member, inside_a_run)``."""
    groups, shots, split, between = script
    sim = Simulator()
    log = []
    members = []
    in_run = [True]

    def act(action):
        verb, index = action
        if verb == "noop":
            return
        index %= len(members)
        member = members[index]
        changes = {"sleep": not (member.asleep or member.stopped),
                   "wake": member.asleep,
                   "stop": not member.stopped}[verb]
        getattr(member, verb)()
        if changes:
            log.append((verb, sim.now, index, in_run[0]))

    def fire(ident, program):
        count = [0]

        def callback():
            log.append(("fire", sim.now, ident))
            act(program[count[0] % len(program)])
            count[0] += 1
        return callback

    tick_groups = []
    #: per group: [start, end) windows of ticks without a heap entry
    dormant = []
    fire_tick = TickGroup._fire
    reenter = TickGroup._reenter

    def logged_fire(group):
        gid = tick_groups.index(group)
        log.append(("start", sim.now, gid))
        fire_tick(group)
        log.append(("end", sim.now, gid))
        if not group._dead:
            # a batch that leaves no member live takes the group out
            assert (group._entry is None) == all(
                m.asleep or m.stopped for m in group._members)
            if group._entry is None:
                dormant[gid].append([group._next_time, float("inf")])

    def logged_reenter(group):
        reenter(group)
        dormant[tick_groups.index(group)][-1][1] = group._next_time

    owner = []
    grids = []
    with mock.patch.object(TickGroup, "_fire", logged_fire), \
            mock.patch.object(TickGroup, "_reenter", logged_reenter):
        for cadence, phase, priority, programs in groups:
            for program in programs:
                members.append(sim.every_tick(
                    cadence, fire(len(members), program), first_delay=phase,
                    priority=priority))
                owner.append(len(tick_groups))
            if keep_armed:
                sim.every_tick(cadence, lambda: None, first_delay=phase,
                               priority=priority)
            tick_groups.append(members[-1]._group)
            dormant.append([])
            grids.append(_grid(cadence if phase is None else phase,
                               cadence))
        for i, (at, priority, action) in enumerate(shots):
            sim.schedule_at(at, lambda i=i, action=action: (
                log.append(("shot", sim.now, i)), act(action)),
                priority=priority)
        executed = sim.run(until=split)
        in_run[0] = False
        for action in between:
            act(action)
        in_run[0] = True
        executed += sim.run(until=_END)
    for group, windows in zip(tick_groups, dormant):
        if group._dead and not (windows and windows[-1][1] == float("inf")):
            windows.append([group._next_time, float("inf")])
    return log, executed, owner, grids, dormant


def _check_grid_property(log, owner, grids):
    """Replay ``log`` against the grid rule: a member fires only inside
    its group's batch, on the group's anchored grid, at most once per
    tick and only while live; once live, it fires at the first grid tick
    still to run (a wake between runs finds the tick at ``now`` passed;
    a wake from inside its group's batch may find its slot passed)."""
    def after(gid, t, strict):
        return next(g for g in grids[gid]
                    if (g > t if strict else g >= t))

    started = [float("-inf")] * len(grids)
    firing = [False] * len(grids)
    live = [True] * len(owner)
    due = [(grids[gid][0],) for gid in owner]
    for kind, t, ident, *rest in log:
        if kind == "start":
            assert t in grids[ident] and t > started[ident]
            started[ident], firing[ident] = t, True
        elif kind == "end":
            firing[ident] = False
        elif kind == "fire":
            gid = owner[ident]
            assert live[ident] and t in due[ident]
            assert firing[gid] and started[gid] == t
            due[ident] = (after(gid, t, strict=True),)
        elif kind in ("sleep", "stop"):
            # a live member missed no tick before it
            assert not live[ident] or max(due[ident]) >= t
            live[ident], due[ident] = False, ()
        elif kind == "wake":
            gid = owner[ident]
            inside_a_run, = rest
            live[ident] = True
            if not inside_a_run:
                due[ident] = (after(gid, t, strict=True),)
            elif firing[gid]:
                due[ident] = (t, after(gid, t, strict=True))
            else:
                due[ident] = (after(gid, max(t, started[gid]),
                                    strict=started[gid] >= t),)
    for ident, candidates in enumerate(due):
        assert not live[ident] or max(candidates) > _END


@settings(max_examples=300, deadline=None)
@given(dormancy_scripts())
def test_dormant_groups_fire_on_their_grid(script):
    """Dormancy keeps each member on its anchored grid (see
    :func:`_check_grid_property`), and it saves exactly the ticks each
    group spent out of the heap: the executed count is the armed run's
    minus those dormant ticks."""
    log, executed, owner, grids, dormant = _run_dormancy_script(
        script, False)
    _check_grid_property(log, owner, grids)
    _, armed_executed, _, _, armed_dormant = _run_dormancy_script(
        script, True)
    assert not any(armed_dormant)
    dormant_ticks = sum(
        sum(1 for t in grid if t <= _END and start <= t < end)
        for grid, windows in zip(grids, dormant) for start, end in windows)
    assert executed == armed_executed - dormant_ticks


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
