"""Machine pool: the one ledger of machine state and ownership.

Every machine of the cluster is in exactly one of the pool's records:
``free``, ``active`` (the keys of ``owners``), ``standby``,
``provisioning`` or ``repairing``.  ``evicted`` and ``blacklist`` are
labels on top: evicted machines are in repair, and blacklisted ones are
in repair or reclaimed from ``free`` (spot capacity).  Nothing outside
this module mutates those records, and inside it every write to
``free`` or ``blacklist`` goes through :meth:`MachinePool._mark`, which
keeps :attr:`MachinePool.usable` — the usable machines by leaf switch
that placement picks from — in step and then calls
:attr:`MachinePool.on_change`, the fleet scheduler's wake, so a queued
job starts at the instant its capacity frees.

Owner rule: every allocation names its owner (a job name) and the pool
records it, so the active machines are exactly the owned ones.  A
release that names an owner frees only the machines that owner holds;
machines evicted since, or handed to another job, are not its to
return.  Eviction clears the owner.

The pool also owns the scheduling-time model that Table 7 and Fig. 12
are built on.  All restart flavours (full requeue,
reschedule-evicted-only, warm standby, oracle) are expressed in terms
of the same primitive delays so the comparisons stay internally
consistent:

* ``requeue`` pays metadata clearing + quota reallocation + full pod
  rebuilds, and grows with cluster scale;
* ``reschedule`` pays pod rebuilds for the evicted machines only;
* ``warm standby`` pays just the wake-from-low-power delay because pod
  environments were built (and self-checked) ahead of time;
* ``oracle`` is warm standby with an infinite pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Collection, Dict, Iterable, KeysView, List,
                    Optional, Set)

from repro.cluster.placement import (AnyFreePolicy, PlacementError,
                                     PlacementPolicy, UsableIndex, lowest_ids)
from repro.cluster.topology import Cluster
from repro.sim import Simulator


@dataclass(frozen=True)
class ProvisioningTimes:
    """Calibrated scheduling/provisioning delays (seconds).

    Calibration anchors (paper Table 7 / Fig. 12): full requeue of a
    128-machine job ≈ 454 s growing ≈ 105 s per doubling of scale; hot
    update ≈ 46 s at 128 machines growing ≈ 6 s per doubling; warm
    standby wake is scale-independent at ~30 s.
    """

    #: Full-requeue base cost at the reference scale.
    requeue_base_s: float = 454.0
    #: Extra requeue cost per doubling of machine count.
    requeue_per_doubling_s: float = 105.0
    #: Reference scale for the two constants above.
    reference_machines: int = 128
    #: Building a pod environment from scratch (image + libs).
    pod_build_s: float = 210.0
    #: Machine self-check before delivery (standby pre-validation).
    self_check_s: float = 90.0
    #: Scheduler round trip to allocate replacement machines.
    schedule_alloc_s: float = 45.0
    #: Per-machine incremental allocation cost.
    schedule_per_machine_s: float = 1.5
    #: Waking a warm standby out of low-power sleep.
    standby_wake_s: float = 45.0
    #: Stopping processes + applying a code patch in place.
    hot_update_base_s: float = 42.0
    #: Hot-update growth per doubling (barrier sync across more pods).
    hot_update_per_doubling_s: float = 6.5
    #: Restart barrier: relaunching training processes after any restart.
    process_relaunch_s: float = 15.0
    #: Repairing an evicted machine (offline triage) before reuse.
    repair_s: float = 4 * 3600.0

    def _doublings(self, num_machines: int) -> float:
        return max(0.0, math.log2(max(1, num_machines)
                                  / self.reference_machines))

    def requeue_time(self, num_machines: int) -> float:
        """Kill + requeue the whole job, reallocating every machine."""
        return (self.requeue_base_s
                + self.requeue_per_doubling_s * self._doublings(num_machines)
                + self.process_relaunch_s)

    def reschedule_time(self, evicted: int) -> float:
        """Allocate + rebuild pods for evicted machines only."""
        if evicted <= 0:
            return self.process_relaunch_s
        return (self.schedule_alloc_s
                + self.schedule_per_machine_s * evicted
                + self.pod_build_s + self.self_check_s
                + self.process_relaunch_s)

    def standby_wake_time(self, evicted: int) -> float:
        """Wake pre-validated standbys (pod env already built)."""
        if evicted <= 0:
            return self.process_relaunch_s
        return self.standby_wake_s + self.process_relaunch_s

    def hot_update_time(self, num_machines: int) -> float:
        """In-place code update: no machine change, no pod rebuild."""
        return (self.hot_update_base_s
                + self.hot_update_per_doubling_s
                * self._doublings(num_machines))


class InsufficientMachines(RuntimeError):
    """Raised when the pool cannot satisfy an allocation."""


class MachinePool:
    """Tracks machine lifecycle and ownership; provisions warm standbys.

    The pool is deliberately mechanism-only: *when* to evict and *how
    many* standbys to keep are policy decisions made by the controller
    (:mod:`repro.controller.standby`); the pool executes them.
    """

    def __init__(self, sim: Simulator, cluster: Cluster,
                 times: Optional[ProvisioningTimes] = None,
                 self_check: Optional["SelfCheckRunner"] = None,
                 placement: Optional[PlacementPolicy] = None):
        from repro.cluster.healthcheck import SelfCheckRunner
        self.sim = sim
        self.cluster = cluster
        self.times = times or ProvisioningTimes()
        #: Which free machines an allocation gets (see
        #: :mod:`repro.cluster.placement`).  The default reproduces the
        #: historical lowest-ids-first choice byte for byte.
        self.placement = placement or AnyFreePolicy()
        self.self_check = self_check or SelfCheckRunner()
        #: active machine id -> the job that holds it
        self.owners: Dict[int, str] = {}
        self.standby: Set[int] = set()
        self.provisioning: Set[int] = set()
        #: in offline repair: evicted, or rejected by the self-check
        self.repairing: Set[int] = set()
        self.evicted: Set[int] = set()
        self.blacklist: Set[int] = set()
        self.free: Set[int] = {m.id for m in cluster.machines}
        #: ``free - blacklist`` by leaf switch (written by :meth:`_mark`)
        self.usable = UsableIndex(cluster, self.free)
        #: Called with the machine id whenever a standby becomes ready.
        self.on_standby_ready: Optional[Callable[[int], None]] = None
        #: Called with the machine id when offline repair completes —
        #: the platform wires this to ``FaultInjector.clear_machine`` so
        #: repaired machines do not leave their faults active forever
        #: (quarter-long fleets otherwise accumulate tens of thousands
        #: of stale entries that every job (re)start then scans).
        self.on_repair: Optional[Callable[[int], None]] = None
        #: Called after every write of ``free``/``blacklist``; a
        #: :class:`~repro.cluster.scheduler.FleetScheduler` wires its
        #: wake here.
        self.on_change: Optional[Callable[[], None]] = None
        #: Total machine-seconds spent idling in the standby pool.
        self.standby_idle_machine_seconds = 0.0
        self._standby_since: dict = {}

    @property
    def active(self) -> KeysView[int]:
        """Machines serving a job: exactly the owned ones."""
        return self.owners.keys()

    def available(self) -> int:
        """Free machines an allocation may take (not blacklisted)."""
        return self.usable.size

    def _mark(self, machine_ids: Collection[int],
              free: Optional[bool] = None,
              blocked: Optional[bool] = None) -> None:
        """The one writer of ``free`` and ``blacklist``: add the
        machines to (True) or drop them from (False) each record, or
        leave it (None), keep :attr:`usable` in step and report the
        write to :attr:`on_change`."""
        if free is not None:
            (self.free.update if free
             else self.free.difference_update)(machine_ids)
        if blocked is not None:
            (self.blacklist.update if blocked
             else self.blacklist.difference_update)(machine_ids)
        self.usable.update(machine_ids, self.free, self.blacklist)
        if self.on_change is not None:
            self.on_change()

    # ------------------------------------------------------------------
    # initial allocation
    # ------------------------------------------------------------------
    def allocate_active(self, count: int, owner: str) -> List[int]:
        """Take ``count`` free machines for job ``owner`` (instant; job
        start cost is accounted separately by the recovery model).

        *Which* machines are taken is the placement policy's call:
        every allocation — scheduler dispatch and standby provisioning
        alike — routes through :meth:`_take_free`, which delegates the
        choice to :attr:`placement`.
        """
        chosen = self._take_free(count)
        self.owners.update(dict.fromkeys(chosen, owner))
        return chosen

    def _take_free(self, count: int) -> List[int]:
        if self.usable.size < count:
            raise InsufficientMachines(
                f"need {count} machines, only {self.usable.size} free")
        chosen = self.placement.select(self.usable, count)
        # validate in O(chosen)
        if (len(set(chosen)) != count or not self.free.issuperset(chosen)
                or not self.blacklist.isdisjoint(chosen)):
            raise PlacementError(
                f"placement policy {self.placement.name!r} returned an "
                f"invalid selection ({len(chosen)} of {count} asked)")
        self._mark(chosen, free=False)
        return chosen

    # ------------------------------------------------------------------
    # spot capacity
    # ------------------------------------------------------------------
    def reclaim_idle(self, count: int) -> List[int]:
        """Block up to ``count`` idle machines, lowest ids first: they
        stay in ``free`` but no allocation takes them until
        :meth:`return_idle` (spot capacity taken back)."""
        idle = lowest_ids(self.usable, count)
        self._mark(idle, blocked=True)
        return idle

    def return_idle(self, machine_ids: Collection[int]) -> None:
        """Lift a :meth:`reclaim_idle` block."""
        self._mark(machine_ids, blocked=False)

    # ------------------------------------------------------------------
    # warm standby provisioning
    # ------------------------------------------------------------------
    def provision_standbys(self, count: int) -> List[int]:
        """Start building pod environments on ``count`` free machines.

        Each machine becomes STANDBY after pod build + self-check; the
        self-check rejects machines that are currently unhealthy and
        sends them to repair instead (pre-validation, Sec. 6.2).
        """
        chosen = self._take_free(count)
        delay = self.times.pod_build_s + self.times.self_check_s
        for mid in chosen:
            self.provisioning.add(mid)
            self.sim.schedule(delay, lambda mid=mid: self._finish_provision(mid))
        return chosen

    def _finish_provision(self, mid: int) -> None:
        if mid not in self.provisioning:
            return  # was cancelled
        self.provisioning.discard(mid)
        machine = self.cluster.machine(mid)
        if self.self_check.run(machine).passed:
            self.standby.add(mid)
            self._standby_since[mid] = self.sim.now
            if self.on_standby_ready is not None:
                self.on_standby_ready(mid)
        else:
            self._send_to_repair(mid)

    def take_standbys(self, count: int, owner: str) -> List[int]:
        """Activate up to ``count`` warm standbys for job ``owner``
        (may return fewer)."""
        chosen = sorted(self.standby)[:count]
        for mid in chosen:
            self.standby.discard(mid)
            idle = self.sim.now - self._standby_since.pop(mid, self.sim.now)
            self.standby_idle_machine_seconds += idle
            self.owners[mid] = owner
        return chosen

    def release_standbys(self, count: int) -> List[int]:
        """Return up to ``count`` warm standbys to FREE (elastic
        shrink).

        The machines did nothing wrong — the resizer simply wants the
        capacity back — so there is no repair detour; the built pod
        environment is discarded.  Highest ids are released first so
        the lowest-id standbys (the ones :meth:`take_standbys`
        activates first) stay warm, keeping shrink and activation from
        churning the same machines.  In-flight provisioning is never
        cancelled: those machines finish building and a later shrink
        tick reclaims them if still surplus.
        """
        chosen = sorted(self.standby, reverse=True)[:max(0, count)]
        for mid in chosen:
            self.standby.discard(mid)
            idle = self.sim.now - self._standby_since.pop(mid, self.sim.now)
            self.standby_idle_machine_seconds += idle
        self._mark(chosen, free=True)
        return sorted(chosen)

    @property
    def standby_count(self) -> int:
        return len(self.standby)

    @property
    def standby_supply(self) -> int:
        """Standbys ready or being built — what resizing targets."""
        return len(self.standby) + len(self.provisioning)

    def release(self, machine_ids: Iterable[int],
                owner: Optional[str] = None) -> None:
        """Return healthy ACTIVE machines to FREE (job completed,
        shrank or was preempted).

        Unlike :meth:`evict` there is no repair detour: the machines
        did nothing wrong, so they are immediately reusable by the
        scheduler.  With ``owner``, only the machines that owner holds
        are freed and the rest are skipped; without, every machine
        must be active.
        """
        freed: List[int] = []
        try:
            for mid in machine_ids:
                holder = self.owners.get(mid)
                if owner is None and holder is None:
                    raise ValueError(f"machine {mid} is not active")
                if owner is None or holder == owner:
                    del self.owners[mid]
                    freed.append(mid)
        finally:
            self._mark(freed, free=True)

    # ------------------------------------------------------------------
    # eviction & repair
    # ------------------------------------------------------------------
    def evict(self, machine_ids: List[int], blacklist: bool = True) -> None:
        """Send machines to repair from wherever they are (their job,
        the standby pool); optionally block their IPs."""
        self._mark(machine_ids, free=False,
                   blocked=True if blacklist else None)
        for mid in machine_ids:
            self.owners.pop(mid, None)
            self.provisioning.discard(mid)      # cancels the build
            if mid in self.standby:
                self.standby.discard(mid)
                self._standby_since.pop(mid, None)
            self.evicted.add(mid)
            self._send_to_repair(mid)

    def _send_to_repair(self, mid: int) -> None:
        self.repairing.add(mid)
        self.sim.schedule(self.times.repair_s,
                          lambda: self._finish_repair(mid))

    def _finish_repair(self, mid: int) -> None:
        """Repair restores full health and returns the machine to FREE
        — unless an earlier repair of it already did (a machine evicted
        twice is repaired twice; the second leaves its state alone)."""
        if self.on_repair is not None:
            self.on_repair(mid)
        self.cluster.machine(mid).reset_health()
        self.evicted.discard(mid)
        if mid in self.repairing:
            self.repairing.discard(mid)
            self._mark((mid,), free=True, blocked=False)
        else:
            self._mark((mid,), blocked=False)

    # ------------------------------------------------------------------
    def counts(self) -> dict:
        return {
            "active": len(self.owners),
            "standby": len(self.standby),
            "provisioning": len(self.provisioning),
            "evicted": len(self.evicted),
            "free": len(self.free),
            "blacklisted": len(self.blacklist),
        }
