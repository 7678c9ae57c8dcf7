"""The simulated training job: steps, faults, logs, and gauges.

A :class:`TrainingJob` advances one optimizer step at a time on the
simulator.  Its step duration follows from the model's FLOPs and the
current MFU; the loss at step *s* is a pure function of *s* (see
:mod:`repro.training.metrics`).  Faults injected into the cluster reach
the job through a :class:`~repro.cluster.faults.FaultInjector` listener
and take effect according to the fault's
:class:`~repro.cluster.faults.JobEffect`:

* ``CRASH``  — the job fail-stops, emitting a log event carrying the
  fault's log signature and exit code (what the diagnoser later reads);
* ``HANG``   — the in-flight step never completes and log/metric output
  ceases: only gauges (RDMA traffic draining to zero) betray it;
* ``SLOW``   — an MFU degradation factor applies while the fault lives;
* ``NAN``    — subsequent steps emit NaN loss/grad-norm but keep running
  until somebody stops the job.

The controller talks to the job through ``suspend`` / ``restart``; the
checkpoint engine and monitor subscribe to step completions, and the
monitor's sleeping polls and sweeps to ``change_listeners`` (state,
MFU model, machine binding and log appends).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.faults import (
    Fault,
    FaultInjector,
    JobEffect,
)
from repro.parallelism import ParallelismConfig, RankTopology
from repro.sim import Simulator
from repro.training.metrics import LossCurve, MfuModel, StepMetrics
from repro.training.model import ModelSpec
from repro.training.stacks import HangScenario


class JobState(enum.Enum):
    INIT = "init"
    RUNNING = "running"
    HUNG = "hung"
    CRASHED = "crashed"
    STOPPED = "stopped"     # suspended by the controller


@dataclass
class LogEvent:
    """One stdout/stderr line or process exit the monitor can read."""

    time: float
    level: str                  # "info" | "error"
    message: str
    exit_code: int = 0
    machine_ids: List[int] = field(default_factory=list)
    fault_id: Optional[int] = None


@dataclass
class StepRecord:
    """Execution record of one completed step (for ETTR accounting)."""

    step: int
    start: float
    end: float
    committed: bool = True      # flipped to False if rolled back


@dataclass
class TrainingJobConfig:
    model: ModelSpec
    parallelism: ParallelismConfig
    global_batch_size: int = 1024
    gpu_peak_tflops: float = 989.0
    loss_seed: int = 0
    #: Seconds of residual collective traffic after a hang starts
    #: (RDMA gauges only read zero once in-flight transfers drain).
    hang_drain_s: float = 20.0


class TrainingJob:
    """One LLM training job bound to a set of physical machines."""

    def __init__(self, sim: Simulator, config: TrainingJobConfig,
                 injector: Optional[FaultInjector] = None,
                 mfu_model: Optional[MfuModel] = None):
        self.sim = sim
        self.config = config
        self.topology = RankTopology(config.parallelism)
        self.loss_curve = LossCurve(seed=config.loss_seed)
        #: called with no argument after every state transition, MFU
        #: model write, binding change and log append: what a sleeping
        #: poll or sweep of this job must wake for
        self.change_listeners: List[Callable[[], None]] = []
        self.mfu_model = mfu_model or MfuModel()
        self.mfu_model.listeners.append(self._changed)
        self._state = JobState.INIT
        #: logical machine slot -> physical machine id
        self.slot_to_machine: Dict[int, int] = {}
        self._machines_cache: Optional[List[int]] = None
        self._machine_to_slot: Optional[Dict[int, int]] = None
        self.current_step = 0
        self.nan_active = False
        self.loss_spike_factor = 1.0
        self.step_records: List[StepRecord] = []
        self.log_events: List[LogEvent] = []
        self.last_progress_time: float = sim.now
        self.hung_since: Optional[float] = None
        self.hang_scenario: HangScenario = HangScenario.BACKWARD_COMM
        self.stalled_ranks: List[int] = []
        #: Physical machines currently degraded by a SLOW fault.
        self.slow_machines: set = set()
        self.last_crash: Optional[LogEvent] = None
        #: subscribers called with each completed StepMetrics
        self.step_listeners: List[Callable[[StepMetrics], None]] = []
        #: per-step extra blocking seconds (checkpoint stalls etc.)
        self.overhead_providers: List[Callable[[int], float]] = []
        self._completion_handle = None
        self._step_started_at: Optional[float] = None
        self._injector = injector
        #: unsubscribes the job from the fault feed (teardown)
        self.leave_fault_feed: Callable[[], None] = lambda: None
        if injector is not None:
            self.leave_fault_feed = injector.add_listener(
                self._on_fault_event)

    # ------------------------------------------------------------------
    # change hook
    # ------------------------------------------------------------------
    @property
    def state(self) -> JobState:
        return self._state

    @state.setter
    def state(self, state: JobState) -> None:
        if state is not self._state:
            self._state = state
            self._changed()

    def _changed(self) -> None:
        for fn in self.change_listeners:
            fn()

    # ------------------------------------------------------------------
    # machine binding
    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.topology.num_machines

    @property
    def machines(self) -> List[int]:
        """Physical machine ids by slot order.

        The list is rebuilt only after a binding change; monitor sweeps
        query it tens of thousands of times between changes, so they
        share one materialization (callers must not mutate it).
        """
        cached = self._machines_cache
        if cached is None:
            # slots are inserted in order and only ever reassigned, so
            # the mapping's values are already in slot order
            cached = list(self.slot_to_machine.values())
            self._machines_cache = cached
        return cached

    def bind_machines(self, machine_ids: Sequence[int]) -> None:
        if len(machine_ids) != self.num_machines:
            raise ValueError(
                f"job needs {self.num_machines} machines, "
                f"got {len(machine_ids)}")
        self.slot_to_machine = dict(enumerate(machine_ids))
        self._machines_cache = None
        self._machine_to_slot = None
        self._changed()

    def replace_machines(self, replacements: Dict[int, int]) -> None:
        """Swap physical machines into slots (phys_old -> phys_new)."""
        inverse = {phys: slot for slot, phys in self.slot_to_machine.items()}
        for old, new in replacements.items():
            if old not in inverse:
                raise ValueError(f"machine {old} is not part of this job")
            self.slot_to_machine[inverse[old]] = new
        self._machines_cache = None
        self._machine_to_slot = None
        self._changed()

    def rebind_parallelism(self, parallelism: ParallelismConfig,
                           machine_ids: Sequence[int]) -> None:
        """Elastic resize: adopt a new data-parallel layout and machine
        set in one move (checkpoint-boundary shrink/grow).

        The job must be suspended; callers restart it from the boundary
        step afterwards.  Step/log history survives — only the topology
        and the slot binding change.
        """
        if self.state is JobState.RUNNING:
            raise RuntimeError("suspend() before rebind_parallelism()")
        if len(machine_ids) != parallelism.num_machines:
            raise ValueError(
                f"layout needs {parallelism.num_machines} machines, "
                f"got {len(machine_ids)}")
        self.config.parallelism = parallelism
        self.topology = RankTopology(parallelism)
        self.slot_to_machine = dict(enumerate(machine_ids))
        self._machines_cache = None
        self._machine_to_slot = None
        self._changed()

    def slot_of_machine(self, machine_id: int) -> Optional[int]:
        # Fault blast-radius checks probe every fleet-wide active fault
        # against this job on each (re)start, so the lookup must be
        # O(1); the inverse map is rebuilt only after a binding change
        # (first-wins, matching the scan it replaced).
        inverse = self._machine_to_slot
        if inverse is None:
            inverse = {}
            for slot, phys in self.slot_to_machine.items():
                inverse.setdefault(phys, slot)
            self._machine_to_slot = inverse
        return inverse.get(machine_id)

    def ranks_of_machine(self, machine_id: int) -> List[int]:
        slot = self.slot_of_machine(machine_id)
        if slot is None:
            return []
        return self.topology.ranks_on_machine(slot)

    def uses_machine(self, machine_id: int) -> bool:
        return self.slot_of_machine(machine_id) is not None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, at_step: int = 0) -> None:
        if not self.slot_to_machine:
            raise RuntimeError("bind_machines() before start()")
        self.current_step = at_step
        self.state = JobState.RUNNING
        self.nan_active = any(
            f.effect is JobEffect.NAN for f in self._active_job_faults())
        self.last_progress_time = self.sim.now
        self._schedule_step()
        # A persistent fault that crashed or hung the job strikes again
        # shortly after any restart that failed to remove it — this is
        # what drives the reattempt → rollback → replay escalation.
        for fault in self._active_job_faults():
            if fault.effect in (JobEffect.CRASH, JobEffect.HANG):
                self.sim.schedule(
                    min(self.step_time() * 0.5, 30.0),
                    lambda fault=fault: self._reapply_if_running(fault))

    def suspend(self) -> None:
        """Controller stop: kill training processes, keep pod envs."""
        self._cancel_step()
        self.state = JobState.STOPPED
        self.hung_since = None

    def restart(self, from_step: int,
                replacements: Optional[Dict[int, int]] = None) -> None:
        """Resume from a checkpointed step, optionally on new machines.

        Steps beyond ``from_step`` that were already executed become
        uncommitted (rolled back) — their wall time turns into waste.
        """
        if replacements:
            self.replace_machines(replacements)
        for rec in self.step_records:
            if rec.step > from_step:
                rec.committed = False
        self.nan_active = False
        self.loss_spike_factor = 1.0
        self.stalled_ranks = []
        self.hung_since = None
        self._recompute_degradations()
        self.start(at_step=from_step)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step_time(self) -> float:
        base = self.mfu_model.step_time(
            self.config.model.flops_per_step(self.config.global_batch_size),
            self.topology.world_size, self.config.gpu_peak_tflops)
        overhead = sum(p(self.current_step + 1)
                       for p in self.overhead_providers)
        return base + overhead

    def _schedule_step(self) -> None:
        self._step_started_at = self.sim.now
        self._completion_handle = self.sim.schedule(
            self.step_time(), self._complete_step)

    def _cancel_step(self) -> None:
        if self._completion_handle is not None:
            self._completion_handle.cancel()
            self._completion_handle = None

    def _complete_step(self) -> None:
        self._completion_handle = None
        assert self._step_started_at is not None
        self.current_step += 1
        record = StepRecord(step=self.current_step,
                            start=self._step_started_at, end=self.sim.now)
        self.step_records.append(record)
        self.last_progress_time = self.sim.now
        metrics = StepMetrics(
            step=self.current_step,
            time=self.sim.now,
            duration_s=record.end - record.start,
            loss=self.loss_curve.loss(self.current_step,
                                      nan=self.nan_active,
                                      spike_factor=self.loss_spike_factor),
            grad_norm=self.loss_curve.grad_norm(
                self.current_step, nan=self.nan_active,
                spike_factor=self.loss_spike_factor),
            mfu=self.mfu_model.current_mfu(),
            tokens=(self.config.global_batch_size
                    * self.config.model.seq_len),
        )
        for listener in list(self.step_listeners):
            listener(metrics)
        if self.state is JobState.RUNNING:
            self._schedule_step()

    # ------------------------------------------------------------------
    # fault reactions
    # ------------------------------------------------------------------
    def _active_job_faults(self) -> List[Fault]:
        if self._injector is None:
            return []
        return [f for f in self._injector.active_faults.values()
                if self._fault_touches_job(f)]

    def _switch_machines(self, switch_id: int) -> List[int]:
        if self._injector is None:
            return []
        cluster = self._injector._cluster
        return [m.id for m in cluster.machines_on_switch(switch_id)]

    def _fault_touches_job(self, fault: Fault) -> bool:
        if not fault.machine_ids and fault.switch_id is None:
            return True             # service-level: affects any job
        if any(self.uses_machine(m) for m in fault.machine_ids):
            return True
        if fault.switch_id is not None:
            return any(self.uses_machine(m)
                       for m in self._switch_machines(fault.switch_id))
        return False

    def _reapply_if_running(self, fault: Fault) -> None:
        if (self.state is JobState.RUNNING and fault.active
                and self._fault_touches_job(fault)):
            self._apply_fault(fault)

    def _on_fault_event(self, event: str, fault: Fault) -> None:
        if self.state not in (JobState.RUNNING, JobState.HUNG):
            return
        if not self._fault_touches_job(fault):
            return
        if event == "inject":
            self._apply_fault(fault)
        else:
            self._clear_fault(fault)

    def _apply_fault(self, fault: Fault) -> None:
        if fault.effect is JobEffect.CRASH:
            self._crash(fault)
        elif fault.effect is JobEffect.HANG:
            self._hang(fault)
        elif fault.effect is JobEffect.SLOW:
            self.mfu_model.set_degradation(
                f"fault:{fault.fault_id}", 0.55)
            self.slow_machines.update(
                m for m in fault.machine_ids if self.uses_machine(m))
        elif fault.effect is JobEffect.NAN:
            self.nan_active = True
        # JobEffect.NONE: tolerated

    def _clear_fault(self, fault: Fault) -> None:
        if fault.effect is JobEffect.SLOW:
            self.mfu_model.clear_degradation(f"fault:{fault.fault_id}")
            self.slow_machines.difference_update(fault.machine_ids)
        # crashes / hangs do not self-heal when the fault clears: the
        # processes are already dead or wedged until a restart.

    def _crash(self, fault: Fault) -> None:
        self._cancel_step()
        self.state = JobState.CRASHED
        event = LogEvent(
            time=self.sim.now, level="error",
            message=fault.log_signature or fault.symptom.value,
            exit_code=fault.exit_code or 1,
            machine_ids=[m for m in fault.machine_ids
                         if self.uses_machine(m)],
            fault_id=fault.fault_id)
        self.log_events.append(event)
        self.last_crash = event
        self._changed()

    def _hang(self, fault: Fault) -> None:
        self._cancel_step()
        self.state = JobState.HUNG
        self.hung_since = self.sim.now
        self.stalled_ranks = [
            r for m in fault.machine_ids for r in self.ranks_of_machine(m)]
        if not self.stalled_ranks:
            # service-level hang (e.g. UFM): pick the last pipeline stage
            last = [r for r in self.topology.iter_ranks()
                    if self.topology.is_last_stage(r)]
            self.stalled_ranks = last[:self.config.parallelism.tp]
        scenario = {
            "defective_cuda_cores": HangScenario.EVAL_P2P,
            "ckpt_reshard_misconfig": HangScenario.CKPT_STALL,
        }.get(fault.detail.value, HangScenario.BACKWARD_COMM)
        self.hang_scenario = scenario

    def _recompute_degradations(self) -> None:
        for name in list(self.mfu_model.degradations):
            if name.startswith("fault:"):
                self.mfu_model.clear_degradation(name)
        self.slow_machines.clear()
        for fault in self._active_job_faults():
            if fault.effect is JobEffect.SLOW:
                self.mfu_model.set_degradation(
                    f"fault:{fault.fault_id}", 0.55)
                self.slow_machines.update(
                    m for m in fault.machine_ids if self.uses_machine(m))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def rdma_traffic_frac(self) -> float:
        """Cluster-wide RDMA traffic as a fraction of nominal."""
        if self.state is JobState.RUNNING:
            return self.mfu_model.current_mfu() / max(
                1e-9, self.mfu_model.profile.base_mfu)
        if self.state is JobState.HUNG:
            assert self.hung_since is not None
            elapsed = self.sim.now - self.hung_since
            drain = self.config.hang_drain_s
            return max(0.0, 1.0 - elapsed / drain) if drain > 0 else 0.0
        return 0.0

    def tensorcore_util_frac(self) -> float:
        """TensorCore utilization as a fraction of the healthy level."""
        if self.state is JobState.RUNNING:
            return self.mfu_model.current_mfu() / max(
                1e-9, self.mfu_model.profile.base_mfu)
        return 0.0

    def seconds_since_progress(self) -> float:
        return self.sim.now - self.last_progress_time

    def committed_steps(self) -> List[StepRecord]:
        return [r for r in self.step_records if r.committed]

    def wasted_step_seconds(self) -> float:
        return sum(r.end - r.start for r in self.step_records
                   if not r.committed)

    def loss_series(self) -> List[tuple]:
        """(step, loss) for committed steps, in execution order."""
        return [(r.step, self.loss_curve.loss(r.step))
                for r in self.committed_steps()]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TrainingJob {self.config.model.name} "
                f"{self.state.value} step={self.current_step}>")
