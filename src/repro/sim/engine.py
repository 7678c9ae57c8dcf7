"""The discrete-event simulator: event queue plus simulated clock.

The simulator is deliberately minimal: callbacks scheduled at absolute
simulated times, executed in (time, priority, sequence) order.  Every
subsystem is written as callbacks and periodic tasks on top of it;
there is no process or waitable-event layer.

Hot-path design
---------------

The heap holds plain ``[time, priority, seq, callback]`` entries, which
compare in C: ``(time, priority, seq)`` is unique per event, so the
callback slot is never reached by a comparison.  That slot doubles as
the cancellation table — :meth:`EventHandle.cancel` clears it in place
(``entry[3] = None``) and the run loop drops cleared entries as they
surface, so no side table can leak and cancellation is O(1) with zero
heap traffic.

Periodic work has a second fast path: :meth:`Simulator.every_tick`
coalesces same-cadence tasks (gauge polls, log tails, inspection sweeps)
into one :class:`TickGroup` that occupies a single heap entry and fires
its members as a batch, in registration order — O(1) heap traffic per
cadence instead of O(tasks).  :meth:`Simulator.every` remains the
general path for jittered or irregular repetition.

The run loop pops and runs events inline: there is no per-event step
method and no redundant cancelled-entry scan.  Semantics track the seed implementation kept in
:mod:`repro.sim._reference`: ``tests/test_sim_equivalence.py`` pins
identical callback order on tie-heavy synthetic workloads and
byte-identical reports on the production scenarios.  One theoretical
tie-break divergence exists: a coalesced group re-arms once after its
batch, so an event scheduled *from inside a batch* for exactly the next
tick instant precedes the whole next batch, where the seed engine could
interleave it between members.  Similarly, if a batch member *raises*,
later members lose the rest of that tick (the seed engine's per-task
entries would survive a caught-and-resumed exception).  No current
workload hits either edge — the equivalence suite is the guard that
stays true.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly."""


class EventHandle:
    """A cancellable handle for a scheduled callback.

    Slim on purpose: it shares the heap entry with the queue, so
    cancelling clears the entry's callback slot in place instead of
    touching the heap or any side table.
    """

    __slots__ = ("_entry", "_sim", "cancelled")

    def __init__(self, entry: list, sim: "Simulator"):
        self._entry = entry
        self._sim = sim
        self.cancelled = False

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def priority(self) -> int:
        return self._entry[1]

    @property
    def seq(self) -> int:
        return self._entry[2]

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent.

        Cancelling after execution (or a second time) is a no-op, so
        the owning simulator's pending counter is decremented exactly
        once per effective cancellation.
        """
        entry = self._entry
        if entry[3] is not None:
            entry[3] = None
            self.cancelled = True
            self._sim._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.3f} {state}>"


class Simulator:
    """Deterministic discrete-event loop with a simulated clock.

    Time is a float in **seconds**.  Two callbacks scheduled for the same
    instant run in (priority, insertion) order, which keeps runs
    reproducible regardless of heap internals.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        #: [time, priority, seq, callback] entries; a None callback
        #: marks a cancelled (or already-executed) entry.
        self._queue: List[list] = []
        self._seq = itertools.count()
        self._running = False
        self._pending = 0
        #: (interval, priority) -> joinable TickGroup.
        self._tick_groups: Dict[Tuple[float, int], "TickGroup"] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], Any],
                 priority: int = 0) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self.schedule_at(self._now + delay, callback, priority)

    def schedule_at(self, time: float, callback: Callable[[], Any],
                    priority: int = 0) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})")
        entry = [time, priority, next(self._seq), callback]
        heappush(self._queue, entry)
        self._pending += 1
        return EventHandle(entry, self)

    def _push_entry(self, time: float, priority: int,
                    callback: Callable[[], Any]) -> list:
        """Internal no-handle schedule for self-managed repeat entries.

        :class:`TickGroup` re-arms itself tens of thousands of times a
        run; returning the raw heap entry (cancel = clear slot 3 and
        decrement ``_pending``) skips one object allocation per tick.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})")
        entry = [time, priority, next(self._seq), callback]
        heappush(self._queue, entry)
        self._pending += 1
        return entry

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        self._drop_cancelled()
        return self._queue[0][0] if self._queue else None

    def _drop_cancelled(self) -> None:
        # cancelled entries already left the pending count in cancel();
        # this only trims the heap
        queue = self._queue
        while queue and queue[0][3] is None:
            heappop(queue)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the queue empties or ``until`` is reached.

        Returns the number of events executed.  When ``until`` is given,
        the clock is advanced to exactly ``until`` even if the last event
        fires earlier, mirroring how a wall-clock observation window ends
        at a fixed time.  An ``until`` earlier than ``now`` is an error:
        the observation window would end before it began.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}: already at {self._now}")
        self._running = True
        executed = 0
        # Inlined loop: one heap pop per event, no per-event call
        # frame, one liveness check folded into the callback load.
        queue = self._queue
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                head = queue[0]
                callback = head[3]
                if callback is None:
                    heappop(queue)
                    continue
                if until is not None and head[0] > until:
                    break
                heappop(queue)
                head[3] = None
                self._pending -= 1
                self._now = head[0]
                callback()
                executed += 1
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until
        return executed

    def pending_count(self) -> int:
        """Number of scheduled, not-yet-cancelled callbacks.  O(1)."""
        return self._pending

    def every(self, interval: float, callback: Callable[[], Any],
              first_delay: Optional[float] = None,
              jitter: Callable[[], float] = lambda: 0.0) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until stopped.

        ``jitter`` may return a per-invocation offset (e.g. from an RNG
        stream) added to the interval; inspection loops use it so that
        thousands of machines do not tick in lock-step.  For jitter-free
        fixed cadences shared by many tasks, prefer :meth:`every_tick`,
        which coalesces same-cadence tasks into one heap entry.
        """
        return PeriodicTask(self, interval, callback, first_delay, jitter)

    def every_tick(self, interval: float, callback: Callable[[], Any],
                   first_delay: Optional[float] = None,
                   priority: int = 0) -> "TickMember":
        """Run ``callback`` every ``interval`` seconds on a shared tick.

        Tasks registered with the same ``(interval, priority)`` whose
        first firing coincides share a single :class:`TickGroup`: one
        heap entry per cadence fires the whole batch in registration
        order.  Scheduling cost per tick is O(1) in the number of
        member tasks, vs O(tasks) for individual :meth:`every` loops.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval}")
        delay = interval if first_delay is None else first_delay
        first = self._now + max(0.0, delay)
        key = (interval, priority)
        group = self._tick_groups.get(key)
        if group is None or not group.joinable(first):
            group = TickGroup(self, interval, priority, first)
            self._tick_groups[key] = group
        return group.add(callback)


class PeriodicTask:
    """A repeating callback; stop with :meth:`stop`.

    Firing times are anchored to the *scheduled* time, not to whatever
    ``now`` is when the callback returns: the next firing is
    ``scheduled + interval (+ jitter)``, so a cadence never drifts even
    if a callback manipulates the clock it observes.
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], Any],
                 first_delay: Optional[float],
                 jitter: Callable[[], float]):
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._stopped = False
        delay = interval if first_delay is None else first_delay
        self._next_time = sim.now + max(0.0, delay + jitter())
        self._handle = sim.schedule_at(self._next_time, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        anchor = self._next_time
        self._callback()
        if not self._stopped:
            self._next_time = anchor + max(0.0,
                                           self._interval + self._jitter())
            self._handle = self._sim.schedule_at(self._next_time, self._fire)

    def stop(self) -> None:
        """Stop future invocations.  Idempotent."""
        self._stopped = True
        self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped


class TickMember:
    """One task's membership in a :class:`TickGroup`."""

    __slots__ = ("_callback", "_stopped", "_group")

    def __init__(self, callback: Callable[[], Any], group: "TickGroup"):
        self._callback = callback
        self._stopped = False
        self._group = group

    def stop(self) -> None:
        """Stop future invocations.  Idempotent."""
        if not self._stopped:
            self._stopped = True
            self._group._member_stopped()

    @property
    def stopped(self) -> bool:
        return self._stopped


class TickGroup:
    """A batch of same-cadence periodic tasks behind one heap entry.

    Members fire in registration order at every tick; ticks are
    anchored (``first + k * interval``) so the cadence never drifts.
    When the last member stops, the group cancels its heap entry.
    """

    def __init__(self, sim: Simulator, interval: float, priority: int,
                 first: float):
        self._sim = sim
        self._interval = interval
        self._priority = priority
        self._members: List[TickMember] = []
        self._active = 0
        self._next_time = first
        self._dead = False
        self._entry = sim._push_entry(first, priority, self._fire)

    def joinable(self, first: float) -> bool:
        """Whether a task whose first firing is at ``first`` can join."""
        return not self._dead and self._next_time == first

    def add(self, callback: Callable[[], Any]) -> TickMember:
        member = TickMember(callback, self)
        self._members.append(member)
        self._active += 1
        return member

    def _fire(self) -> None:
        # Advance the anchor before dispatching so a task registered
        # from inside a member callback (first fire = now + interval)
        # joins this group instead of spawning a duplicate.
        self._next_time += self._interval
        members = self._members
        if len(members) == 1:
            # single-member groups (a lone cadence) skip the batch loop
            member = members[0]
            if not member._stopped:
                try:
                    member._callback()
                except BaseException:
                    self._member_failed(member)
                    raise
        else:
            # fixed upper bound: members added during the batch first
            # fire on the next tick
            for i in range(len(members)):
                member = members[i]
                if not member._stopped:
                    try:
                        member._callback()
                    except BaseException:
                        self._member_failed(member)
                        raise
        if self._active == 0:
            self._retire()
            return
        if len(self._members) > 2 * self._active:
            self._members = [m for m in self._members if not m._stopped]
        self._entry = self._sim._push_entry(self._next_time, self._priority,
                                            self._fire)

    def _member_failed(self, member: TickMember) -> None:
        # A raising task never reschedules itself (as in the seed
        # engine); the cadence must survive for the other members, so
        # re-arm the group for the *next* tick before propagating.
        # Divergence from per-task entries: members after the raiser
        # lose the remainder of the current tick — a driver that
        # catches the error and resumes sees them next tick, where the
        # seed engine would still fire them at this instant.
        member.stop()
        if self._active > 0 and not self._dead:
            self._entry = self._sim._push_entry(
                self._next_time, self._priority, self._fire)

    def _member_stopped(self) -> None:
        self._active -= 1
        if self._active == 0 and not self._dead:
            entry = self._entry
            if entry[3] is not None:
                entry[3] = None
                self._sim._pending -= 1
            self._retire()

    def _retire(self) -> None:
        self._dead = True
        self._members = []
        key = (self._interval, self._priority)
        if self._sim._tick_groups.get(key) is self:
            del self._sim._tick_groups[key]


__all__ = ["EventHandle", "PeriodicTask", "SimulationError", "Simulator",
           "TickGroup", "TickMember"]
