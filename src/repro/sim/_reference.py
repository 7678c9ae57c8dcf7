"""The seed simulator engine, kept verbatim as a reference baseline.

This module preserves the original (pre-fast-path) engine: per-event
:class:`ReferenceEventHandle` objects on the heap, a ``step()`` call per
event, and one heap push per periodic tick.  It is a test oracle:

* **Equivalence testing** — ``tests/test_sim_equivalence.py`` drives
  identical workloads through this engine and the optimized one in
  :mod:`repro.sim.engine` and asserts byte-identical execution order
  and scenario reports.
* **Seed mode** — :func:`repro.perf.baseline.seed_baseline` swaps this
  engine in for whole scenarios, so the same suite can compare full
  reports built on the seed hot paths against the fast path's.

Apart from the ``every_tick`` shim (which maps onto per-task
``ReferencePeriodicTask`` loops, i.e. the seed semantics for the same
call), the no-op ``sleep``/``wake`` stubs that make those loops
never-sleeping members, and ``current_key``/``reschedule`` (which a
training job's step chain needs on every engine it runs on), nothing
here should ever change.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.engine import SimulationError


class ReferenceEventHandle:
    """A cancellable handle for a scheduled callback (seed layout)."""

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "executed", "_sim")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], Any],
                 sim: Optional["ReferenceSimulator"] = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.executed = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._pending -= 1

    def __lt__(self, other: "ReferenceEventHandle") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ReferenceEventHandle t={self.time:.3f} {state}>"


class ReferenceSimulator:
    """The seed discrete-event loop, one object-handle per heap entry."""

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._queue: List[ReferenceEventHandle] = []
        self._seq = itertools.count()
        self._running = False
        self._pending = 0
        self._current: Optional[ReferenceEventHandle] = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def current_key(self) -> Optional[Tuple[int, int]]:
        current = self._current
        return None if current is None else (current.priority, current.seq)

    def schedule(self, delay: float, callback: Callable[[], Any],
                 priority: int = 0) -> ReferenceEventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self.schedule_at(self._now + delay, callback, priority)

    def schedule_at(self, time: float, callback: Callable[[], Any],
                    priority: int = 0) -> ReferenceEventHandle:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})")
        handle = ReferenceEventHandle(time, priority, next(self._seq),
                                      callback, sim=self)
        heapq.heappush(self._queue, handle)
        self._pending += 1
        return handle

    def reschedule(self, handle: ReferenceEventHandle,
                   time: float) -> ReferenceEventHandle:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})")
        again = ReferenceEventHandle(time, handle.priority, handle.seq,
                                     handle.callback, sim=self)
        heapq.heappush(self._queue, again)
        self._pending += 1
        return again

    def peek(self) -> Optional[float]:
        self._drop_cancelled()
        return self._queue[0].time if self._queue else None

    def _drop_cancelled(self) -> None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)

    def step(self) -> bool:
        self._drop_cancelled()
        if not self._queue:
            return False
        handle = heapq.heappop(self._queue)
        self._pending -= 1
        handle.executed = True
        if handle.time < self._now:  # pragma: no cover - invariant guard
            raise SimulationError("event queue went backwards in time")
        self._now = handle.time
        self._current = handle
        try:
            handle.callback()
        finally:
            self._current = None
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                self._drop_cancelled()
                if not self._queue:
                    break
                if until is not None and self._queue[0].time > until:
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until
        return executed

    def pending_count(self) -> int:
        return self._pending

    def every(self, interval: float, callback: Callable[[], Any],
              first_delay: Optional[float] = None,
              jitter: Callable[[], float] = lambda: 0.0
              ) -> "ReferencePeriodicTask":
        return ReferencePeriodicTask(self, interval, callback, first_delay,
                                     jitter)

    def every_tick(self, interval: float, callback: Callable[[], Any],
                   first_delay: Optional[float] = None,
                   priority: int = 0) -> "ReferencePeriodicTask":
        """Seed semantics for the coalesced API: one task per callback.

        ``priority`` is accepted for signature compatibility; the seed
        engine schedules every periodic firing at priority 0, which is
        what callers passing the default get from the optimized engine
        too.
        """
        if priority != 0:  # pragma: no cover - reference-only guard
            raise SimulationError(
                "reference engine only supports priority-0 ticks")
        return ReferencePeriodicTask(self, interval, callback, first_delay,
                                     jitter=lambda: 0.0)


class ReferencePeriodicTask:
    """The seed repeating callback (reschedules relative to ``now``)."""

    def __init__(self, sim: ReferenceSimulator, interval: float,
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
        self._handle = sim.schedule(max(0.0, delay + jitter()), self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule(
                max(0.0, self._interval + self._jitter()), self._fire)

    def stop(self) -> None:
        self._stopped = True
        self._handle.cancel()

    # the seed tasks never sleep: these stubs let callers of the
    # coalesced API run unchanged on this engine
    def sleep(self) -> None:
        pass

    def wake(self) -> None:
        pass

    @property
    def stopped(self) -> bool:
        return self._stopped
