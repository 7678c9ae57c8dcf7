"""Fleet scheduler: job queue, admission, priority dispatch, backfill.

The paper's platform is not N jobs frozen at t=0 — 778k jobs over
three months (Table 1) arrive, run, finish, and return their machines
to a shared pool.  :class:`FleetScheduler` is the mechanism layer for
that churn:

* **admission** — a request larger than the whole cluster, or with
  elastic bounds that do not bracket its size, can never be placed and
  is rejected immediately (:class:`AdmissionError`);
* **dispatch** — queued requests start in priority order (higher
  first, FIFO within a priority) whenever enough non-blacklisted FREE
  machines exist;
* **backfill** — when the head of the queue does not fit, later
  smaller requests may start in the gap, EASY-style: the head gets a
  *reservation* at the earliest time the planned completions of
  running jobs free enough machines, and a backfill candidate starts
  only if it cannot delay that reservation (it finishes before the
  reserved start, or it fits in the capacity the head will leave
  spare).  Requests without a planned duration cannot be reasoned
  about, so when the reservation is uncomputable the scheduler falls
  back to aggressive (reservation-less) backfill;
* **retry** — a dispatch that finds no capacity re-arms itself, so
  machines freed asynchronously (job completion, repair finishing) are
  picked up without the platform polling forever while the queue is
  empty;
* **preemption** — when a higher-priority request stays blocked, the
  scheduler plans victim releases from strictly-lower-priority running
  jobs (lowest priority first, newest first within a class) and asks
  the owner to preempt them; the owner carries the preemption out at
  a checkpoint boundary and calls :meth:`preempted` when the machines
  are back, which re-queues the victim to resume from its checkpoint;
* **elastic resize** — requests that declare ``(min_machines,
  max_machines)`` may be shrunk toward their floor to admit a blocked
  higher-priority head (cheaper than full preemption, tried first)
  and grown toward their ceiling when capacity sits free with an
  empty queue; both happen through the owner's ``resize`` callback at
  checkpoint boundaries, acknowledged via :meth:`resized`.

The scheduler owns *when* a job starts; *which* machines it gets is
delegated per-allocation to the pool's placement policy
(:mod:`repro.cluster.placement`), so dispatch routes through
``pool.allocate_active()`` and a pack/spread/any-free choice applies
uniformly to queued starts, backfills and retries.  What a "job" is
stays the owner's business — the platform hands in a ``start``
callback and calls :meth:`complete` when a job ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.pool import MachinePool
from repro.sim import Simulator


class AdmissionError(ValueError):
    """The request can never be satisfied by this cluster."""


@dataclass
class JobRequest:
    """One queued ask: ``num_machines`` for ``name`` at ``priority``."""

    name: str
    num_machines: int
    priority: int = 0
    submitted_at: float = 0.0
    #: Planned runtime, when the owner knows it (drives EASY
    #: backfill reservations); None = open-ended.
    duration_s: Optional[float] = None
    #: Monotonic tiebreak inside one priority class (FIFO).
    seq: int = 0
    started_at: Optional[float] = None
    #: Elastic size bounds (None/None = fixed size).  A job may be
    #: shrunk to ``min_machines`` to admit higher-priority work and
    #: grown to ``max_machines`` when capacity sits free.
    min_machines: Optional[int] = None
    max_machines: Optional[int] = None
    #: False exempts the job from preemption entirely.
    preemptible: bool = True
    #: Times this request was preempted; ``was_preempted`` flags a
    #: queued request whose next start is a resume.
    preemptions: int = 0
    was_preempted: bool = False

    @property
    def elastic(self) -> bool:
        return (self.min_machines is not None
                or self.max_machines is not None)

    @property
    def size_floor(self) -> int:
        return (self.min_machines if self.min_machines is not None
                else self.num_machines)

    @property
    def size_ceiling(self) -> int:
        return (self.max_machines if self.max_machines is not None
                else self.num_machines)

    @property
    def planned_end(self) -> Optional[float]:
        if self.started_at is None or self.duration_s is None:
            return None
        return self.started_at + self.duration_s

    @property
    def wait_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


class FleetScheduler:
    """Priority/backfill dispatch of job requests over a MachinePool."""

    def __init__(self, sim: Simulator, pool: MachinePool,
                 start: Callable[[JobRequest, List[int]], None],
                 backfill: bool = True,
                 retry_interval_s: float = 60.0,
                 preemption: str = "none",
                 preempt: Optional[Callable[[JobRequest], None]] = None,
                 resize: Optional[
                     Callable[[JobRequest, int], None]] = None):
        if preemption not in ("none", "kill", "checkpoint"):
            raise ValueError(f"unknown preemption policy {preemption!r}")
        self.sim = sim
        self.pool = pool
        self.start = start
        self.backfill = backfill
        self.retry_interval_s = retry_interval_s
        #: "none" | "kill" | "checkpoint" — *whether* victims are
        #: preempted is decided here; *how* (immediate kill vs wait
        #: for the checkpoint boundary) is the owner's business.
        self.preemption = preemption
        #: Owner callback: begin preempting a running request.  The
        #: owner releases the machines (at its chosen boundary) and
        #: then calls :meth:`preempted`.
        self.preempt = preempt
        #: Owner callback: begin resizing a running request to a new
        #: machine count, acknowledged via :meth:`resized`.
        self.resize = resize
        self.queue: List[JobRequest] = []
        self.running: Dict[str, JobRequest] = {}
        self.finished: List[JobRequest] = []
        self._seq = 0
        self._retry_armed = False
        #: machines promised back by in-flight preemptions/shrinks,
        #: keyed by job name — keeps re-dispatch from over-preempting
        #: while a victim is still draining to its boundary
        self._pending_release: Dict[str, int] = {}
        #: names with a resize (either direction) in flight
        self._resizing: set = set()
        #: dispatch bookkeeping for fleet reports
        self.stats = {"submitted": 0, "started": 0, "completed": 0,
                      "backfilled": 0, "rejected": 0, "preempted": 0,
                      "resumed": 0, "shrunk": 0, "grown": 0}

    # ------------------------------------------------------------------
    def check_admission(self, name: str, num_machines: int,
                        min_machines: Optional[int] = None,
                        max_machines: Optional[int] = None) -> None:
        """Reject (and count) requests this cluster can never place:
        a size outside ``[1, cluster]`` or elastic bounds that do not
        bracket it.  Owners call this before building anything for a
        job, so a rejection leaves no state behind."""
        cluster_size = len(self.pool.cluster.machines)
        if num_machines < 1:
            reason = f" asks for {num_machines} machines"
        elif num_machines > cluster_size:
            reason = (f" needs {num_machines} machines, the cluster only "
                      f"has {cluster_size}")
        elif min_machines is not None and not (
                1 <= min_machines <= num_machines):
            reason = (f": min_machines {min_machines} outside "
                      f"[1, {num_machines}]")
        elif max_machines is not None and not (
                num_machines <= max_machines <= cluster_size):
            reason = (f": max_machines {max_machines} outside "
                      f"[{num_machines}, {cluster_size}]")
        else:
            return
        self.stats["rejected"] += 1
        raise AdmissionError(f"job {name!r}{reason}")

    def enqueue(self, name: str, num_machines: int, priority: int = 0,
                duration_s: Optional[float] = None,
                min_machines: Optional[int] = None,
                max_machines: Optional[int] = None,
                preemptible: bool = True) -> JobRequest:
        """Admit and queue a request without dispatching yet.

        Batch submitters (the platform's ``start()``) enqueue a whole
        set and then run one :meth:`dispatch`, so priority order holds
        across the batch instead of first-enqueued-first-served.
        """
        self.check_admission(name, num_machines, min_machines=min_machines,
                             max_machines=max_machines)
        request = JobRequest(name=name, num_machines=num_machines,
                             priority=priority, duration_s=duration_s,
                             submitted_at=self.sim.now, seq=self._seq,
                             min_machines=min_machines,
                             max_machines=max_machines,
                             preemptible=preemptible)
        self._seq += 1
        self.stats["submitted"] += 1
        self.queue.append(request)
        return request

    def submit(self, name: str, num_machines: int, priority: int = 0,
               duration_s: Optional[float] = None,
               min_machines: Optional[int] = None,
               max_machines: Optional[int] = None,
               preemptible: bool = True) -> JobRequest:
        """Queue a request; dispatch immediately if capacity allows."""
        request = self.enqueue(name, num_machines, priority=priority,
                               duration_s=duration_s,
                               min_machines=min_machines,
                               max_machines=max_machines,
                               preemptible=preemptible)
        self.dispatch()
        return request

    def complete(self, name: str) -> None:
        """A running job finished: returning its machines to the pool
        is the owner's job; here we release the scheduling slot and
        re-dispatch the queue."""
        request = self.running.pop(name, None)
        if request is None:
            raise KeyError(f"no running job {name!r}")
        # completion beats any in-flight preemption/resize of the job
        self._pending_release.pop(name, None)
        self._resizing.discard(name)
        self.stats["completed"] += 1
        self.finished.append(request)
        self.dispatch()

    # ------------------------------------------------------------------
    # preemption / elastic acknowledgements (owner callbacks land here)
    # ------------------------------------------------------------------
    def preempted(self, name: str,
                  remaining_s: Optional[float]) -> JobRequest:
        """The owner finished preempting ``name``: its machines are
        back in the pool.  The request re-enters the queue (fresh seq:
        it resumes behind same-priority peers) with ``remaining_s`` as
        its new planned runtime, and a dispatch follows immediately —
        normally starting the blocked head the preemption was for."""
        request = self.running.pop(name, None)
        if request is None:
            raise KeyError(f"no running job {name!r}")
        self._pending_release.pop(name, None)
        self.stats["preempted"] += 1
        request.preemptions += 1
        request.was_preempted = True
        request.started_at = None
        request.duration_s = remaining_s
        request.seq = self._seq
        self._seq += 1
        self.queue.append(request)
        self.dispatch()
        return request

    def resized(self, name: str, new_size: int) -> None:
        """The owner finished resizing ``name`` to ``new_size``."""
        request = self.running.get(name)
        if request is None:
            raise KeyError(f"no running job {name!r}")
        delta = new_size - request.num_machines
        self._pending_release.pop(name, None)
        self._resizing.discard(name)
        request.num_machines = new_size
        if delta < 0:
            self.stats["shrunk"] += 1
        elif delta > 0:
            self.stats["grown"] += 1
        self.dispatch()

    def resize_aborted(self, name: str) -> None:
        """The owner could not carry out a planned resize (capacity
        vanished before the boundary): clear the in-flight marks."""
        self._pending_release.pop(name, None)
        self._resizing.discard(name)

    def note_preempting(self, name: str) -> None:
        """The owner started preempting ``name`` on its own initiative
        (spot reclaim): count the machines as promised back so
        dispatch does not plan a second preemption on top of it."""
        request = self.running.get(name)
        if request is not None:
            self._pending_release[name] = request.num_machines

    # ------------------------------------------------------------------
    def available_machines(self) -> int:
        return len(self.pool.free - self.pool.blacklist)

    def _head_reservation(self, head_need: int
                          ) -> Tuple[Optional[float], int]:
        """EASY reservation for a blocked head: ``(start_time, spare)``.

        Walks the planned completions of running jobs until the
        accumulated releases (plus what is free now) cover the head;
        ``spare`` is the capacity left over at that instant, which
        long-running backfills may occupy without delaying the head.
        ``(None, 0)`` means the reservation is uncomputable from
        planned durations (open-ended jobs, or releases that only
        repairs will provide).
        """
        acc = self.available_machines()
        if acc >= head_need:
            # enough capacity right now: the "reservation" is
            # immediate (dispatch only asks for blocked heads, but a
            # standalone query must not report this as uncomputable)
            return self.sim.now, acc - head_need
        releases = sorted(
            (r.planned_end, r.num_machines)
            for r in self.running.values() if r.planned_end is not None)
        for t, n in releases:
            acc += n
            if acc >= head_need:
                return t, acc - head_need
        return None, 0

    def dispatch(self) -> int:
        """Start every queued request that may start right now.

        Requests are considered in (-priority, submit order).  The
        first request that does not fit becomes the *head*: it gets a
        reservation (see :meth:`_head_reservation`), and later
        requests may start past it only if they cannot delay it —
        they finish before the reserved start, or they fit in the
        head's spare capacity.  With an uncomputable reservation the
        backfill is aggressive (any fitting request starts), and with
        ``backfill=False`` nothing passes a blocked head at all.
        Returns the number of jobs started.
        """
        started = 0
        reservation: Optional[Tuple[Optional[float], int]] = None
        for request in sorted(self.queue,
                              key=lambda r: (-r.priority, r.seq)):
            if self.available_machines() < request.num_machines:
                if not self.backfill or self._pending_release:
                    # machines freed by an in-flight preemption/shrink
                    # plan are earmarked for the blocked head: letting
                    # a backfill (worst case: the victim itself) grab
                    # them would undo the plan — in kill mode, as an
                    # endless preempt/restart cycle at one timestamp
                    break
                if reservation is None:
                    reservation = self._head_reservation(
                        request.num_machines)
                continue
            if reservation is not None:
                reserved_at, spare = reservation
                if reserved_at is not None:
                    ends_in_time = (
                        request.duration_s is not None
                        and self.sim.now + request.duration_s
                        <= reserved_at)
                    if ends_in_time:
                        pass      # machines come back before the head starts
                    elif request.num_machines <= spare:
                        # runs past the reserved start, but in capacity
                        # the head leaves unused
                        reservation = (reserved_at,
                                       spare - request.num_machines)
                    else:
                        continue  # would delay the head: stay queued
                self.stats["backfilled"] += 1
            self.queue.remove(request)
            machines = self.pool.allocate_active(request.num_machines)
            request.started_at = self.sim.now
            self.running[request.name] = request
            self.stats["started"] += 1
            if request.was_preempted:
                self.stats["resumed"] += 1
                request.was_preempted = False
            started += 1
            self.start(request, machines)
        if self.queue:
            self._plan_preemption()
            if not self._retry_armed:
                # capacity frees asynchronously (repair completions) —
                # re-arm a single retry timer while anything is waiting
                self._retry_armed = True
                self.sim.schedule(self.retry_interval_s, self._retry)
        elif self.resize is not None:
            self._grow_elastic()
        return started

    def _retry(self) -> None:
        self._retry_armed = False
        if self.queue:
            self.dispatch()

    # ------------------------------------------------------------------
    # preemption planning / elastic growth
    # ------------------------------------------------------------------
    def _victims(self) -> List[JobRequest]:
        """Running jobs in victim order: lowest priority first, newest
        first within a class, skipping anything already in flight."""
        return sorted(
            (r for r in self.running.values()
             if r.name not in self._pending_release
             and r.name not in self._resizing),
            key=lambda r: (r.priority, -r.seq))

    def _plan_preemption(self) -> None:
        """Free capacity for the blocked queue head by shrinking and —
        failing that — preempting strictly-lower-priority victims.

        The plan executes only when it fully covers the head's
        shortfall (in-flight returns counted); a partial plan would
        churn victims without starting anyone.  Shrinks are tried
        first: an elastic job at or below the head's priority gives
        back everything above its floor without losing any progress.
        """
        if self.preemption == "none" and self.resize is None:
            return
        head = min(self.queue, key=lambda r: (-r.priority, r.seq))
        shortfall = (head.num_machines - self.available_machines()
                     - sum(self._pending_release.values()))
        if shortfall <= 0:
            return      # in-flight returns already cover the head
        shrinks: Dict[str, Tuple[JobRequest, int]] = {}
        recoverable = 0
        if self.resize is not None:
            for victim in self._victims():
                if victim.priority > head.priority:
                    continue
                floor = victim.size_floor
                if floor < victim.num_machines:
                    shrinks[victim.name] = (victim, floor)
                    recoverable += victim.num_machines - floor
                    if recoverable >= shortfall:
                        break
        preempts: List[JobRequest] = []
        if (recoverable < shortfall and self.preemption != "none"
                and self.preempt is not None):
            for victim in self._victims():
                if (not victim.preemptible
                        or victim.priority >= head.priority):
                    continue
                planned = shrinks.pop(victim.name, None)
                # a shrink already counted everything above the floor;
                # full preemption returns the floor as well
                recoverable += (planned[1] if planned
                                else victim.num_machines)
                preempts.append(victim)
                if recoverable >= shortfall:
                    break
        if recoverable < shortfall:
            return      # even the full plan cannot start the head
        for victim, floor in shrinks.values():
            self._pending_release[victim.name] = \
                victim.num_machines - floor
            self._resizing.add(victim.name)
            self.resize(victim, floor)
        for victim in preempts:
            self._pending_release[victim.name] = victim.num_machines
            self.preempt(victim)

    def _grow_elastic(self) -> None:
        """Hand free capacity to running elastic jobs (queue empty):
        highest priority first, oldest first within a class."""
        available = self.available_machines()
        if available <= 0:
            return
        for request in sorted(self.running.values(),
                              key=lambda r: (-r.priority, r.seq)):
            if available <= 0:
                break
            if (request.name in self._resizing
                    or request.name in self._pending_release):
                continue
            target = min(request.size_ceiling,
                         request.num_machines + available)
            if target <= request.num_machines:
                continue
            available -= target - request.num_machines
            self._resizing.add(request.name)
            self.resize(request, target)

    # ------------------------------------------------------------------
    def queued_names(self) -> List[str]:
        return [r.name for r in sorted(self.queue,
                                       key=lambda r: (-r.priority, r.seq))]
