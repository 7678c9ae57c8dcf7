"""The checkpoint manager: every-step async checkpoints + recovery.

Runtime behaviour (Sec. 6.3 / Sec. 7 "High-Frequency Checkpointing"):

* each completed step kicks off an asynchronous save: after the D2H +
  serialization tail, the step's **local** checkpoint is durable in
  host memory; after the P2P exchange, its **backup** copy is durable
  on the cross-group peer machine;
* dual-buffering means a failure mid-save never corrupts the previous
  checkpoint — the latest *completed* step is always recoverable;
* a remote persist runs every ``remote_every_steps`` as a last-resort
  tier (kept off the hot restart path);
* on recovery, each rank prefers local CPU memory, then its backup
  peer, then remote; the job restarts from the *minimum* step available
  across ranks, and the manager reports where that step came from and
  how long loading takes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkpoint.planner import BackupPlan, plan_cross_group_backup
from repro.checkpoint.storage import StorageTiers
from repro.checkpoint.strategies import ByteRobustSave, CheckpointContext, SaveStrategy
from repro.parallelism import ShardedStateSizes
from repro.sim import Simulator
from repro.training.job import (
    SegmentListener,
    StepRun,
    StepSegment,
    TrainingJob,
)
from repro.training.metrics import StepMetrics

#: durability mark kinds on the due heap
_LOCAL, _BACKUP, _REMOTE = 0, 1, 2


class RecoverySource(enum.Enum):
    LOCAL_MEMORY = "local_memory"
    PEER_BACKUP = "peer_backup"
    REMOTE_STORAGE = "remote_storage"
    NONE = "none"          # nothing recoverable (restart from step 0)


@dataclass
class RecoveryDecision:
    """Where to restart from after evicting ``evicted_machines``."""

    restart_step: int
    source: RecoverySource
    load_seconds: float
    #: steps of progress lost relative to the last completed step
    lost_steps: int = 0


@dataclass
class _SlotCheckpointState:
    """Durable checkpoint steps for the ranks of one machine slot."""

    local_step: int = -1       # in host memory of the slot's machine
    backup_step: int = -1      # on the cross-group peer machine


class CheckpointManager(SegmentListener):
    """Every-step asynchronous checkpointing for one training job.

    It never needs a step on time: each save's local, backup and remote
    marks get the due times ``end + delay`` a per-save timer would have
    fired at, and :attr:`slot_states` / :attr:`remote_step` land every
    mark due by now before they are read or written — so the marks of
    steps saved before a crash still land after :meth:`after_recovery`,
    as such timers did.
    """

    def __init__(self, sim: Simulator, job: TrainingJob,
                 shard_sizes: ShardedStateSizes, tiers: StorageTiers,
                 strategy: Optional[SaveStrategy] = None,
                 remote_every_steps: int = 100):
        self.sim = sim
        self.job = job
        self.shard_sizes = shard_sizes
        self.tiers = tiers
        self.strategy = strategy or ByteRobustSave()
        self.remote_every_steps = remote_every_steps
        self.plan: BackupPlan = plan_cross_group_backup(job.topology)
        self._slot_states: Dict[int, _SlotCheckpointState] = {
            slot: _SlotCheckpointState()
            for slot in range(job.num_machines)}
        self._remote_step: int = -1
        self.saves_started = 0
        self.enabled = True
        #: (effective mfu, context) — everything else in the context
        #: is static, so it only needs rebuilding when the MFU moves
        #: (hot updates, degradations), not twice per training step.
        self._ctx_cache: Optional[tuple] = None
        #: heap of (due time, kind, step) durability marks not yet
        #: applied; kind is ``_LOCAL``, ``_BACKUP`` or ``_REMOTE``
        self._due: List[Tuple[float, int, int]] = []
        job.add_step_listener(self)
        job.overhead_providers.append(self._blocking_overhead)

    # ------------------------------------------------------------------
    # durable state: every mark due by now lands before a read or write
    # ------------------------------------------------------------------
    @property
    def slot_states(self) -> Dict[int, _SlotCheckpointState]:
        self._land_due_marks()
        return self._slot_states

    @property
    def remote_step(self) -> int:
        self._land_due_marks()
        return self._remote_step

    def _land_due_marks(self) -> None:
        self.job.materialize()
        due = self._due
        now = self.sim.now
        while due and due[0][0] <= now:
            _due, kind, step = heappop(due)
            self._mark(kind, step)

    # ------------------------------------------------------------------
    def _context(self) -> CheckpointContext:
        mfu = self.job.mfu_model.current_mfu()
        cached = self._ctx_cache
        if cached is not None and cached[0] == mfu:
            return cached[1]
        ctx = CheckpointContext(
            shard_sizes=self.shard_sizes, tiers=self.tiers,
            base_step_s=self.job.mfu_model.step_time(
                self.job.config.model.flops_per_step(
                    self.job.config.global_batch_size),
                self.job.topology.world_size,
                self.job.config.gpu_peak_tflops))
        self._ctx_cache = (mfu, ctx)
        return ctx

    def _blocking_overhead(self, step: int) -> float:
        if not self.enabled:
            return 0.0
        return self.strategy.blocking_seconds(self._context())

    def _delays(self) -> Tuple[float, float, Optional[float]]:
        """Seconds from a step's end until its local, backup and (on a
        remote step) remote copies are durable."""
        ctx = self._context()
        nbytes = self.shard_sizes.checkpoint_bytes
        # local durability: after D2H + serialization complete
        local = self.tiers.serialize_seconds(nbytes)
        # backup durability: after the P2P exchange also lands
        backup = (self.strategy.async_tail_seconds(ctx)
                  or self.tiers.serialize_seconds(nbytes))
        remote = (backup + self.tiers.remote_seconds(nbytes)
                  if self.remote_every_steps > 0
                  and self.tiers.remote_available else None)
        return local, backup, remote

    def __call__(self, metrics: StepMetrics) -> None:
        if self.enabled:
            self.saves_started += 1
            self._save(metrics.step, metrics.time, *self._delays())

    def on_steps(self, segment: StepSegment, run: StepRun) -> None:
        """Every step kicks off a save: the marks already due land now
        (no read or write of the durable state can have come between
        them and now, or it would have committed these steps), the
        others wait on the due heap."""
        if not self.enabled:
            return
        self.saves_started += run.count
        local, backup, remote = self._delays()
        now = self.sim.now
        first = run.first
        ends = run.ends()
        for kind, delay in enumerate((local, backup)):
            i = run.count
            while i and float(ends[i - 1]) + delay > now:
                i -= 1
                heappush(self._due, (float(ends[i]) + delay, kind,
                                     first + i))
            if i:
                self._mark(kind, first + i - 1)
        if remote is not None:
            every = self.remote_every_steps
            skip = -first % every
            for step, end in zip(range(first + skip, first + run.count,
                                       every), ends[skip::every].tolist()):
                if end + remote > now:
                    heappush(self._due, (end + remote, _REMOTE, step))
                else:
                    self._mark(_REMOTE, step)

    def _save(self, step: int, end: float, local: float, backup: float,
              remote: Optional[float]) -> None:
        due = self._due
        heappush(due, (end + local, _LOCAL, step))
        heappush(due, (end + backup, _BACKUP, step))
        if remote is not None and step % self.remote_every_steps == 0:
            heappush(due, (end + remote, _REMOTE, step))

    def _mark(self, kind: int, step: int) -> None:
        if kind == _REMOTE:
            self._remote_step = max(self._remote_step, step)
        elif kind == _LOCAL:
            for state in self._slot_states.values():
                if step > state.local_step:
                    state.local_step = step
        else:
            for state in self._slot_states.values():
                if step > state.backup_step:
                    state.backup_step = step

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def plan_recovery(self, evicted_machines: Sequence[int]
                      ) -> RecoveryDecision:
        """Best restart step after evicting those physical machines.

        For each machine slot, the slot's shards survive locally if its
        machine was not evicted; otherwise the backup copy survives if
        the backup-holder machine was not evicted; otherwise only the
        remote tier remains for that slot.
        """
        evicted_slots = {
            slot for mid in evicted_machines
            for slot in [self.job.slot_of_machine(mid)] if slot is not None}
        self._land_due_marks()
        remote_step = self._remote_step
        best_step = None
        worst_source = RecoverySource.LOCAL_MEMORY
        nbytes = self.shard_sizes.checkpoint_bytes
        for slot, state in self._slot_states.items():
            backup_slot = self._backup_holder_slot(slot)
            if slot not in evicted_slots:
                step, source = state.local_step, RecoverySource.LOCAL_MEMORY
            elif backup_slot not in evicted_slots:
                step, source = state.backup_step, RecoverySource.PEER_BACKUP
            elif self.tiers.remote_available and remote_step >= 0:
                step, source = remote_step, RecoverySource.REMOTE_STORAGE
            else:
                step, source = -1, RecoverySource.NONE
            if best_step is None or step < best_step:
                best_step = step
            worst_source = self._worse(worst_source, source)
        assert best_step is not None
        restart_step = max(0, best_step)
        if best_step < 0:
            worst_source = RecoverySource.NONE
        load = self._load_seconds(worst_source, nbytes)
        lost = max(0, self.job.current_step - restart_step)
        return RecoveryDecision(restart_step=restart_step,
                                source=worst_source, load_seconds=load,
                                lost_steps=lost)

    def _backup_holder_slot(self, slot: int) -> int:
        """Machine slot that holds backups of ``slot``'s ranks.

        The plan maps every rank of a machine to peers on one machine
        (shifting pp/dp moves whole machines), so any rank's peer
        machine represents the slot.
        """
        first_rank = self.job.topology.ranks_on_machine(slot)[0]
        return self.plan.machine_of_backup(first_rank)

    @staticmethod
    def _worse(a: RecoverySource, b: RecoverySource) -> RecoverySource:
        order = [RecoverySource.LOCAL_MEMORY, RecoverySource.PEER_BACKUP,
                 RecoverySource.REMOTE_STORAGE, RecoverySource.NONE]
        return max(a, b, key=order.index)

    def _load_seconds(self, source: RecoverySource, nbytes: int) -> float:
        if source is RecoverySource.LOCAL_MEMORY:
            return self.tiers.load_local_seconds(nbytes)
        if source is RecoverySource.PEER_BACKUP:
            return (self.tiers.p2p_seconds(nbytes)
                    + self.tiers.load_local_seconds(nbytes))
        if source is RecoverySource.REMOTE_STORAGE:
            return (self.tiers.remote_seconds(nbytes)
                    + self.tiers.load_local_seconds(nbytes))
        return 0.0

    # ------------------------------------------------------------------
    def rebind(self, restart_step: int,
               shard_sizes: Optional[ShardedStateSizes] = None) -> None:
        """Re-derive the backup plan and slot table after an elastic
        resize changed the job's topology (and with it the per-rank
        shard sizes).  Every slot of the new layout holds the boundary
        checkpoint it just loaded, mirroring :meth:`after_recovery`."""
        if shard_sizes is not None:
            self.shard_sizes = shard_sizes
        self.plan = plan_cross_group_backup(self.job.topology)
        self._land_due_marks()
        self._slot_states = {
            slot: _SlotCheckpointState(local_step=restart_step,
                                       backup_step=restart_step)
            for slot in range(self.job.num_machines)}
        self._ctx_cache = None

    def after_recovery(self, restart_step: int) -> None:
        """Reset durable state to the restarted step on every slot."""
        for state in self.slot_states.values():
            state.local_step = min(state.local_step, restart_step)
            state.backup_step = min(state.backup_step, restart_step)
        # A fresh copy now exists everywhere (the loaded checkpoint).
        for state in self._slot_states.values():
            state.local_step = max(state.local_step, restart_step)
            state.backup_step = max(state.backup_step, restart_step)
