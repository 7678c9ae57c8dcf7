"""Multi-job platform: a fleet-scale control plane over one cluster.

ByteRobust manages an entire GPU platform (778,135 jobs over three
months, Table 1), not a single run.  The :class:`TrainingPlatform`
runs many independently-managed jobs — each with its own monitor,
controller, analyzer and incident log, all built through the shared
:func:`~repro.controller.stack.build_management_stack` — on one
cluster, one machine pool, and one warm-standby reserve.  It is the
only place a simulator, cluster, fault injector or machine pool is
built: the single-job :class:`~repro.core.byterobust.ByteRobustSystem`
is a platform running one job.

Jobs are *dynamic*: :meth:`submit` is legal at any simulated time, a
:class:`~repro.cluster.scheduler.FleetScheduler` queues requests that
do not fit and starts them (priority order, optional backfill) when
capacity frees, and jobs with a planned ``duration_s`` complete on
their own, returning their machines to the pool for whoever queues
next.  Evictions from any job compete for the same standbys, which is
exactly the contention the P99 pool sizing is meant to absorb.

The job-lifecycle surface is the typed :class:`JobSpec` →
:class:`JobHandle` pair: :meth:`submit` takes a spec — the platform's
only job intake — and returns a handle exposing :class:`HandleState`,
the lifecycle event history, and wasted-work accounting.  A spec is
admitted in full before anything is built, so a rejected submission
leaves no trace.  With ``config.preemption`` enabled the scheduler may
ask the platform to preempt a running victim — carried out at the next
checkpoint boundary (``"checkpoint"``) or immediately (``"kill"``) —
and with elastic bounds declared, to shrink/grow it through a
data-parallel topology rebind.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.agent.tracer import OnDemandTracer
from repro.cluster.components import MachineSpec
from repro.cluster.faults import FaultInjector
from repro.cluster.placement import make_placement_policy
from repro.cluster.pool import MachinePool
from repro.cluster.scheduler import FleetScheduler, JobRequest
from repro.cluster.topology import Cluster, ClusterSpec
from repro.controller.controller import ControllerConfig, RobustController
from repro.controller.policy import RecoveryPolicy
from repro.controller.stack import (
    ManagementStack,
    StackConfig,
    build_management_stack,
)
from repro.controller.standby import (
    StandbyPolicy,
    StandbyResizeConfig,
    StandbyResizer,
)
from repro.core.ettr import EttrTracker
from repro.core.incidents import IncidentLog
from repro.parallelism import ParallelismConfig
from repro.monitor.collectors import CollectorConfig, MetricsCollector
from repro.monitor.detectors import AnomalyDetector, DetectorConfig
from repro.monitor.inspections import InspectionConfig, InspectionEngine
from repro.sim import RngStreams, Simulator
from repro.training.job import TrainingJob, TrainingJobConfig


class HandleState(enum.Enum):
    """Lifecycle state exposed on a :class:`JobHandle`."""

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    RESIZING = "resizing"
    DONE = "done"


@dataclass
class JobSpec:
    """Everything one job submission needs, in a single value.

    The typed intake for :meth:`TrainingPlatform.submit`: size bounds
    (``min_machines``/``max_machines`` make the job elastic),
    priority, planned runtime (finite and non-negative, or None), and
    the preemption opt-out (``preemptible=False`` pins a job that must
    never lose its machines).
    """

    name: str
    job_config: TrainingJobConfig
    priority: int = 0
    #: planned runtime; None = runs until the simulation horizon
    duration_s: Optional[float] = None
    #: elastic size bounds (None/None = fixed size): the scheduler may
    #: shrink the job to ``min_machines`` to admit higher-priority
    #: work and grow it to ``max_machines`` when capacity sits free
    min_machines: Optional[int] = None
    max_machines: Optional[int] = None
    #: False exempts the job from preemption entirely
    preemptible: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.job_config, TrainingJobConfig):
            raise TypeError("JobSpec.job_config must be a "
                            "TrainingJobConfig")
        if self.duration_s is not None and not (
                math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise ValueError(f"JobSpec.duration_s must be finite and "
                             f">= 0, got {self.duration_s!r}")

    @property
    def num_machines(self) -> int:
        return (self.job_config.parallelism.world_size
                // self.job_config.parallelism.gpus_per_machine)


@dataclass
class ManagedJob:
    """One job plus its dedicated management stack and lifecycle.

    This *is* the :class:`JobHandle` :meth:`TrainingPlatform.submit`
    returns: :attr:`state` is the lifecycle state machine
    (``QUEUED/RUNNING/PREEMPTED/RESIZING/DONE``), :attr:`events` the
    append-only lifecycle history, and
    :attr:`wasted_machine_seconds` the work thrown away by
    preemptions (progress past the checkpoint the job resumed from).
    """

    name: str
    stack: ManagementStack
    priority: int = 0
    #: planned runtime; None = runs until the simulation horizon
    duration_s: Optional[float] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: elastic size bounds + preemption opt-out (the JobSpec surface)
    min_machines: Optional[int] = None
    max_machines: Optional[int] = None
    preemptible: bool = True
    #: lifecycle accounting
    preemptions: int = 0
    resumes: int = 0
    resize_events: List[dict] = field(default_factory=list)
    #: machine-seconds of progress discarded by preemptions (work past
    #: the checkpoint the job resumed from, times machines held)
    wasted_machine_seconds: float = 0.0
    #: machine-seconds actually spent holding machines, summed over
    #: running segments (excludes time parked on the queue between a
    #: preemption and its resume; resizes weight each segment by the
    #: machine count it ran at)
    busy_machine_seconds: float = 0.0
    #: step the next (re)start resumes from
    resume_step: int = 0
    #: wall-clock runtime still owed; None = open-ended
    remaining_s: Optional[float] = None
    #: append-only lifecycle event history: {"t", "event"} dicts
    events: List[dict] = field(default_factory=list)
    #: a preemption was requested; waiting for the boundary
    preempting: bool = False
    #: paused and re-queued; next dispatch is a resume
    is_preempted: bool = False
    #: an elastic resize is in flight
    is_resizing: bool = False
    #: when the current running segment started (resets on resume)
    segment_started_at: Optional[float] = None
    #: handle for the planned-completion timer (cancelled on preempt)
    _complete_handle: Optional[Any] = None

    # -- convenience passthroughs (the pre-scheduler ManagedJob API) --
    @property
    def job(self) -> TrainingJob:
        return self.stack.job

    @property
    def collector(self) -> MetricsCollector:
        return self.stack.collector

    @property
    def detector(self) -> AnomalyDetector:
        return self.stack.detector

    @property
    def inspections(self) -> InspectionEngine:
        return self.stack.inspections

    @property
    def controller(self) -> RobustController:
        return self.stack.controller

    @property
    def incident_log(self) -> IncidentLog:
        return self.stack.incident_log

    @property
    def tracer(self) -> OnDemandTracer:
        return self.stack.tracer

    # -- lifecycle queries --------------------------------------------
    @property
    def queued(self) -> bool:
        return self.started_at is None

    @property
    def running(self) -> bool:
        # a preempted job keeps its first started_at (wait accounting)
        # but holds no machines and must not read as running
        return (self.started_at is not None
                and self.completed_at is None
                and not self.is_preempted)

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def state(self) -> HandleState:
        """The :class:`JobHandle` lifecycle state machine."""
        if self.completed:
            return HandleState.DONE
        if self.is_preempted:
            return HandleState.PREEMPTED
        if self.is_resizing:
            return HandleState.RESIZING
        if self.started_at is None:
            return HandleState.QUEUED
        return HandleState.RUNNING

    @property
    def lifecycle(self) -> str:
        if self.completed:
            return "completed"
        return "queued" if self.queued else "running"

    @property
    def wait_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


#: The public name for what :meth:`TrainingPlatform.submit` returns.
JobHandle = ManagedJob


@dataclass
class PlatformConfig:
    """Fleet-level knobs."""

    seed: int = 0
    machine_spec: MachineSpec = field(default_factory=MachineSpec)
    machines_per_switch: int = 16
    standby: StandbyPolicy = field(default_factory=StandbyPolicy)
    collector: CollectorConfig = field(default_factory=CollectorConfig)
    detector: DetectorConfig = field(
        default_factory=lambda: DetectorConfig(hang_zero_rdma_s=300.0))
    inspections: InspectionConfig = field(default_factory=InspectionConfig)
    policy: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    #: let smaller queued jobs start past a blocked head-of-queue job
    backfill: bool = True
    #: which free machines an allocation gets: "any-free" (baseline,
    #: lowest ids first), "pack" (fewest leaf switches) or "spread"
    #: (stripe across switches) — see :mod:`repro.cluster.placement`
    placement: str = "any-free"
    #: elastic standby resizing: target warm standbys per active
    #: machine, re-evaluated periodically with hysteresis.  0 keeps
    #: the historical one-shot sizing at :meth:`start`.
    standby_target: float = 0.0
    #: seconds between elastic resize evaluations
    standby_resize_s: float = 900.0
    #: resize deadband in machines (suppresses provisioning churn)
    standby_hysteresis: int = 1
    #: build the checkpoint engine into the stack of every job on two
    #: or more machines; a one-machine job runs without it, since the
    #: cross-group backup needs a peer machine
    checkpoint: bool = False
    #: remote-persist cadence for checkpointing jobs
    remote_checkpoint_every_steps: int = 100
    #: run the real MiniGPT reference workload for bit-wise alignment
    #: (slower per diagnosis than the analytic stand-in)
    use_real_minigpt: bool = False
    #: "none" | "kill" | "checkpoint" — whether (and how) the
    #: scheduler may preempt running jobs for blocked higher-priority
    #: work: "checkpoint" drains the victim to its next step/checkpoint
    #: boundary (~zero wasted work), "kill" stops it immediately and
    #: resumes from the last *remote* checkpoint (or step 0)
    preemption: str = "none"
    #: honor elastic (min_machines, max_machines) bounds: shrink jobs
    #: for blocked higher-priority work, grow them into free capacity
    elastic: bool = True


class TrainingPlatform:
    """Dynamic managed jobs sharing one cluster and one standby pool."""

    def __init__(self, total_machines: int,
                 config: Optional[PlatformConfig] = None):
        self.config = config or PlatformConfig()
        self.sim = Simulator()
        self.rng = RngStreams(self.config.seed)
        self.cluster = Cluster(ClusterSpec(
            num_machines=total_machines,
            machine_spec=self.config.machine_spec,
            machines_per_switch=self.config.machines_per_switch))
        self.injector = FaultInjector(self.sim, self.cluster)
        self.pool = MachinePool(
            self.sim, self.cluster,
            placement=make_placement_policy(self.config.placement))
        self.pool.on_repair = self.injector.clear_machine
        self.scheduler = FleetScheduler(
            self.sim, self.pool, start=self._on_dispatch,
            backfill=self.config.backfill,
            preemption=self.config.preemption,
            preempt=(self._on_preempt_request
                     if self.config.preemption != "none" else None),
            resize=(self._on_resize_request
                    if self.config.elastic else None))
        self.jobs: Dict[str, ManagedJob] = {}
        self._started = False
        #: standby provisioning outcome at start() (satellite: the
        #: silent cap became a recorded shortfall)
        self.standby_target = 0
        self.standby_provisioned = 0
        #: shared elastic resizer (one pool, one resizer) — built at
        #: :meth:`start` when ``config.standby_target`` > 0
        self.resizer: Optional[StandbyResizer] = None

    # ------------------------------------------------------------------
    # job intake
    # ------------------------------------------------------------------
    def _build_stack(self, name: str,
                     job_config: TrainingJobConfig) -> ManagementStack:
        return build_management_stack(
            self.sim, self.cluster, self.pool, self.injector, job_config,
            owner=name, diag_rng=self.rng.fork(f"diag:{name}"),
            replay_rng=self.rng.fork(f"replay:{name}"),
            config=StackConfig(
                collector=self.config.collector,
                detector=self.config.detector,
                inspections=self.config.inspections,
                standby=self.config.standby,
                policy=self.config.policy,
                controller=self.config.controller,
                use_real_minigpt=self.config.use_real_minigpt,
                # the cross-group backup plan needs a peer machine, so
                # single-machine jobs run without the engine (boundary
                # preemption still works; kill falls back to step 0)
                checkpointing=(self.config.checkpoint
                               and job_config.parallelism.num_machines
                               > 1),
                remote_checkpoint_every_steps=(
                    self.config.remote_checkpoint_every_steps)))

    def submit(self, spec: JobSpec) -> JobHandle:
        """Submit a job at any simulated time; returns its handle.

        The platform's one job intake.  Before :meth:`start` the
        request just queues; afterwards the scheduler places it
        immediately if capacity allows, or parks it until machines free
        up (higher ``priority`` jumps the queue; smaller jobs may
        backfill, and with preemption/elastic bounds enabled,
        lower-priority victims may be shrunk or preempted for it).
        ``duration_s`` gives the job a planned runtime after which it
        completes and returns its machines.  Raises
        :class:`~repro.cluster.scheduler.AdmissionError` for requests
        larger than the whole cluster or with inconsistent size bounds
        — before any stack is built, so a rejection changes nothing.
        """
        if not isinstance(spec, JobSpec):
            raise TypeError("submit() takes a JobSpec")
        if spec.name in self.jobs:
            raise ValueError(f"duplicate job name {spec.name!r}")
        self.scheduler.check_admission(spec.name, spec.num_machines,
                                       min_machines=spec.min_machines,
                                       max_machines=spec.max_machines)
        stack = self._build_stack(spec.name, spec.job_config)
        min_machines = spec.min_machines
        if min_machines is not None and stack.ckpt_manager is not None:
            # the cross-group backup plan needs a peer machine, so
            # elastic shrink keeps checkpointing jobs at two minimum
            min_machines = max(2, min_machines)
        managed = ManagedJob(name=spec.name, stack=stack,
                             priority=spec.priority,
                             duration_s=spec.duration_s,
                             submitted_at=self.sim.now,
                             min_machines=min_machines,
                             max_machines=spec.max_machines,
                             preemptible=spec.preemptible,
                             remaining_s=spec.duration_s)
        self.jobs[spec.name] = managed
        self._record(managed, "submitted")
        if self._started:
            self.scheduler.submit(spec.name, stack.job.num_machines,
                                  priority=spec.priority,
                                  duration_s=spec.duration_s,
                                  min_machines=managed.min_machines,
                                  max_machines=spec.max_machines,
                                  preemptible=spec.preemptible)
        return managed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Dispatch every pre-submitted job and provision standbys."""
        if self._started:
            raise RuntimeError("platform already started")
        self._started = True
        # enqueue the whole pre-start batch, then dispatch once, so
        # priority order holds across it (per-job submit() would let
        # an earlier low-priority job grab capacity first)
        for managed in self.jobs.values():
            self.scheduler.enqueue(managed.name,
                                   managed.job.num_machines,
                                   priority=managed.priority,
                                   duration_s=managed.duration_s,
                                   min_machines=managed.min_machines,
                                   max_machines=managed.max_machines,
                                   preemptible=managed.preemptible)
        self.scheduler.dispatch()
        # one shared standby reserve sized for the whole active fleet;
        # a capacity-capped provisioning is recorded, not dropped
        self.standby_target = self.config.standby.standby_count(
            len(self.pool.active))
        self.standby_provisioned = min(self.standby_target,
                                       self.pool.available())
        if self.standby_provisioned > 0:
            self.pool.provision_standbys(self.standby_provisioned)
        if self.config.standby_target > 0:
            # elastic mode: a shared periodic resizer keeps the warm
            # pool matched to the *current* active fleet from here on
            self.resizer = StandbyResizer(
                self.sim, self.pool, sizing=self.config.standby,
                config=StandbyResizeConfig(
                    target_ratio=self.config.standby_target,
                    interval_s=self.config.standby_resize_s,
                    hysteresis=self.config.standby_hysteresis,
                    min_standbys=self.config.standby.min_standbys))
            self.resizer.start()

    def _record(self, managed: ManagedJob, event: str) -> None:
        managed.events.append({"t": float(self.sim.now),
                               "event": str(event)})

    def _on_dispatch(self, request: JobRequest,
                     machines: List[int]) -> None:
        managed = self.jobs[request.name]
        if managed.is_preempted:
            # a preempted job coming off the queue resumes from its
            # last checkpoint on a fresh set of machines
            managed.is_preempted = False
            managed.resumes += 1
            managed.segment_started_at = self.sim.now
            self._record(managed, "resumed")
            managed.stack.resume(machines, at_step=managed.resume_step)
        else:
            managed.started_at = self.sim.now
            managed.segment_started_at = self.sim.now
            self._record(managed, "started")
            managed.stack.launch(machines)
        if managed.remaining_s is not None:
            managed._complete_handle = self.sim.schedule(
                managed.remaining_s,
                lambda m=managed: self._complete(m))

    def _complete(self, managed: ManagedJob) -> None:
        """Planned completion: tear the job down, return machines."""
        if managed.completed:
            return
        if (managed.segment_started_at is not None
                and not managed.is_preempted):
            managed.busy_machine_seconds += (
                (self.sim.now - managed.segment_started_at)
                * managed.job.num_machines)
            managed.segment_started_at = None
        managed.completed_at = self.sim.now
        managed._complete_handle = None
        # completion beats any in-flight preemption/resize: boundary
        # listeners check these flags and become no-ops
        managed.preempting = False
        managed.is_resizing = False
        self._record(managed, "completed")
        managed.stack.shutdown()
        self.pool.release(managed.job.machines, owner=managed.name)
        self.scheduler.complete(managed.name)

    # ------------------------------------------------------------------
    # preemption & elastic resize (scheduler callbacks land here)
    # ------------------------------------------------------------------
    def preempt_job(self, name: str) -> bool:
        """Externally force a preemption (e.g. spot-capacity reclaim).

        The job drains to its boundary per ``config.preemption``,
        releases its machines, and re-queues to resume from its last
        checkpoint.  Returns False when the job is not running, not
        preemptible, or preemption is disabled platform-wide.
        """
        if self.config.preemption == "none":
            return False
        request = self.scheduler.running.get(name)
        managed = self.jobs.get(name)
        if request is None or managed is None or not request.preemptible:
            return False
        if (managed.completed or managed.preempting
                or managed.is_preempted or managed.is_resizing):
            return False
        self.scheduler.note_preempting(name)
        self._on_preempt_request(request)
        return True

    def _on_preempt_request(self, request: JobRequest) -> None:
        """The scheduler picked ``request`` as a preemption victim.

        ``"checkpoint"`` mode drains the job to its next step boundary
        (the every-step checkpoint makes that boundary durable), so
        nothing is wasted; ``"kill"`` mode stops it on the spot and
        the job resumes from whatever the remote checkpoint tier still
        holds (step 0 when checkpointing is off — the kill-and-restart
        baseline).
        """
        managed = self.jobs[request.name]
        if managed.completed or managed.is_preempted or managed.preempting:
            return
        managed.preempting = True
        self._record(managed, "preempt_requested")
        if self.config.preemption == "checkpoint":
            job = managed.job

            def on_boundary(metrics) -> None:
                job.remove_step_listener(on_boundary)
                if managed.completed or not managed.preempting:
                    return
                self._finish_preemption(managed,
                                        resume_step=metrics.step)

            job.add_step_listener(on_boundary)
        else:
            # kill: immediate, but after the current dispatch event so
            # the scheduler's plan executes atomically
            self.sim.schedule(
                0.0, lambda m=managed: self._finish_preemption(m))

    def _finish_preemption(self, managed: ManagedJob,
                           resume_step: Optional[int] = None) -> None:
        """Carry out a planned preemption: pause the stack, account
        the wasted work, release the machines, re-queue the job."""
        if managed.completed or not managed.preempting:
            return
        job = managed.job
        if resume_step is None:
            # kill mode: local/backup checkpoints die with the job's
            # machines; only the remote tier (if any) survives
            ckpt = managed.stack.ckpt_manager
            if ckpt is not None:
                resume_step = ckpt.plan_recovery(job.machines).restart_step
            else:
                resume_step = 0
        managed.preempting = False
        managed.is_preempted = True
        managed.preemptions += 1
        if managed._complete_handle is not None:
            managed._complete_handle.cancel()
            managed._complete_handle = None
        # committed progress past the resume step is wasted: the job
        # will re-run it (count before restart() marks it uncommitted)
        wasted_wall = job.step_seconds(committed=True, after=resume_step)
        managed.wasted_machine_seconds += wasted_wall * job.num_machines
        if managed.remaining_s is not None:
            elapsed = self.sim.now - (managed.segment_started_at
                                      if managed.segment_started_at
                                      is not None else self.sim.now)
            managed.remaining_s = max(
                1.0, managed.remaining_s - elapsed + wasted_wall)
        if managed.segment_started_at is not None:
            managed.busy_machine_seconds += (
                (self.sim.now - managed.segment_started_at)
                * job.num_machines)
            managed.segment_started_at = None
        managed.resume_step = resume_step
        self._record(managed, "preempted")
        managed.stack.pause()
        self.pool.release(managed.job.machines, owner=managed.name)
        self.scheduler.preempted(managed.name, managed.remaining_s)

    def _scaled_parallelism(self, par: ParallelismConfig,
                            new_machines: int
                            ) -> Optional[ParallelismConfig]:
        """``par`` rescaled to ``new_machines`` along the dp axis, or
        None when the tp×pp layout cannot tile that machine count."""
        new_world = new_machines * par.gpus_per_machine
        if new_world % (par.tp * par.pp) != 0:
            return None
        new_dp = new_world // (par.tp * par.pp)
        if new_dp < 1:
            return None
        ep = par.ep if new_dp % par.ep == 0 else 1
        return ParallelismConfig(tp=par.tp, pp=par.pp, dp=new_dp,
                                 ep=ep,
                                 gpus_per_machine=par.gpus_per_machine)

    def _on_resize_request(self, request: JobRequest,
                           new_size: int) -> None:
        """The scheduler wants ``request`` shrunk/grown to
        ``new_size`` machines; carried out at the next step boundary
        via a data-parallel topology rebind."""
        managed = self.jobs[request.name]
        if (managed.completed or managed.preempting
                or managed.is_preempted or managed.is_resizing):
            self.scheduler.resize_aborted(request.name)
            return
        managed.is_resizing = True
        self._record(managed, "resize_requested")
        job = managed.job

        def on_boundary(metrics) -> None:
            job.remove_step_listener(on_boundary)
            if managed.completed or not managed.is_resizing:
                return
            self._finish_resize(managed, new_size, metrics.step)

        job.add_step_listener(on_boundary)

    def _finish_resize(self, managed: ManagedJob, new_size: int,
                       step: int) -> None:
        """Rebind the job's topology to ``new_size`` machines at the
        ``step`` boundary.  Data-parallel resharding preserves all
        progress, so nothing is wasted either direction."""
        job = managed.job
        old_size = job.num_machines
        new_par = self._scaled_parallelism(job.config.parallelism,
                                           new_size)
        abort = new_par is None or new_size == old_size
        if not abort and new_size > old_size:
            # the free capacity the scheduler saw may be gone by now
            abort = self.pool.available() < new_size - old_size
        if abort:
            managed.is_resizing = False
            self._record(managed, "resize_aborted")
            self.scheduler.resize_aborted(managed.name)
            return
        managed.stack.pause()
        if managed.segment_started_at is not None:
            # close the segment at the old size; the new one runs at
            # the new machine count from this boundary on
            managed.busy_machine_seconds += (
                (self.sim.now - managed.segment_started_at) * old_size)
        managed.segment_started_at = self.sim.now
        machines = list(job.machines)
        if new_size < old_size:
            keep = machines[:new_size]
            self.pool.release(machines[new_size:], owner=managed.name)
        else:
            keep = machines + self.pool.allocate_active(
                new_size - old_size, managed.name)
        managed.resize_events.append({
            "t": float(self.sim.now), "from": int(old_size),
            "to": int(new_size), "step": int(step)})
        managed.resume_step = step
        managed.stack.resize(new_par, keep, at_step=step)
        managed.is_resizing = False
        self._record(managed, "resized")
        self.scheduler.resized(managed.name, new_size)

    def run_until(self, t: float) -> None:
        self.sim.run(until=t)

    # ------------------------------------------------------------------
    def fleet_report(self, run_end: Optional[float] = None) -> dict:
        """Platform-wide rollup across all jobs (JSON-safe)."""
        end = run_end if run_end is not None else self.sim.now
        tracker = EttrTracker()
        jobs = {}
        total_incidents = 0
        completed = 0
        for name, managed in sorted(self.jobs.items()):
            job_end = (managed.completed_at
                       if managed.completed_at is not None else end)
            # ETTR over the job's own runtime: a job that queued for a
            # day and then trained cleanly is a scheduler story, not a
            # robustness one
            job_start = (managed.started_at
                         if managed.started_at is not None else job_end)
            ettr = tracker.cumulative_at(managed.job.step_runs,
                                         job_end, run_start=job_start)
            resolved = managed.incident_log.resolved()
            total_incidents += len(resolved)
            completed += 1 if managed.completed else 0
            # blast-radius shape of the (last) placement: how many
            # leaf switches the job's machines hang off
            span = (self.cluster.switch_span(managed.job.machines)
                    if managed.started_at is not None
                    and managed.job.machines else None)
            busy = managed.busy_machine_seconds
            if (managed.segment_started_at is not None
                    and managed.completed_at is None
                    and not managed.is_preempted):
                # the live segment up to the report horizon
                busy += (max(0.0, end - managed.segment_started_at)
                         * managed.job.num_machines)
            jobs[name] = {
                "switch_span": (int(span) if span is not None else None),
                "cumulative_ettr": float(ettr),
                "final_step": int(managed.job.current_step),
                "incidents": len(resolved),
                "state": managed.job.state.value,
                "lifecycle": managed.lifecycle,
                "priority": int(managed.priority),
                "num_machines": int(managed.job.num_machines),
                "submitted_at": float(managed.submitted_at),
                "started_at": (float(managed.started_at)
                               if managed.started_at is not None
                               else None),
                "completed_at": (float(managed.completed_at)
                                 if managed.completed_at is not None
                                 else None),
                "wait_s": (float(managed.wait_seconds)
                           if managed.wait_seconds is not None
                           else None),
                # lifecycle accounting (JobHandle surface): "state"
                # above is the training-process state; this is the
                # handle's terminal lifecycle state
                "lifecycle_state": managed.state.value,
                "preemptions": int(managed.preemptions),
                "resumes": int(managed.resumes),
                "resize_events": [
                    {"t": float(e["t"]), "from": int(e["from"]),
                     "to": int(e["to"]), "step": int(e["step"])}
                    for e in managed.resize_events],
                "wasted_machine_seconds":
                    float(managed.wasted_machine_seconds),
                "busy_machine_seconds": float(busy),
            }
        waits = [j["wait_s"] for j in jobs.values()
                 if j["wait_s"] is not None]
        return {
            "wall_time_s": float(end),
            "jobs": jobs,
            "total_incidents": total_incidents,
            "jobs_submitted": len(self.jobs),
            "jobs_completed": completed,
            "jobs_queued": len(self.scheduler.queue),
            "mean_wait_s": (sum(waits) / len(waits)) if waits else 0.0,
            "scheduler": {k: int(v)
                          for k, v in sorted(self.scheduler.stats.items())},
            "pool": self.pool.counts(),
            "placement": str(self.pool.placement.name),
            "standby": {
                "target": int(self.standby_target),
                "provisioned": int(self.standby_provisioned),
                "shortfall": int(self.standby_target
                                 - self.standby_provisioned),
                "current": int(self.pool.standby_count),
                "resizer": (self.resizer.report()
                            if self.resizer is not None
                            else {"enabled": False}),
            },
            "standby_idle_machine_seconds":
                float(self.pool.standby_idle_machine_seconds),
        }
