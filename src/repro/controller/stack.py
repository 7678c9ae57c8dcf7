"""One per-job management stack, one way to build it.

Every managed training job on a
:class:`~repro.core.platform.TrainingPlatform` — including the one job
of a :class:`~repro.core.byterobust.ByteRobustSystem` — carries the
same data-plane/control-plane entourage from Fig. 4: metrics
collector, anomaly detector, inspection engine, on-demand tracer,
diagnoser, dual-phase replay, runtime analyzer, hot-update manager,
optional checkpoint engine, incident log, and the robust controller
that ties the event streams together.  :func:`build_management_stack`
is the single construction path for that wiring, and the platform is
its one caller.

Construction order is part of the contract: components are created and
listeners attached in a fixed sequence, and simulator/RNG state
depends on that sequence (the golden payload digests pin it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.agent.tracer import OnDemandTracer
from repro.analyzer.aggregation import AggregationConfig, RuntimeAnalyzer
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.storage import StorageTiers
from repro.checkpoint.strategies import ByteRobustSave
from repro.cluster.faults import FaultInjector
from repro.cluster.pool import MachinePool
from repro.cluster.topology import Cluster
from repro.controller.controller import ControllerConfig, RobustController
from repro.controller.hotupdate import HotUpdateManager
from repro.controller.policy import RecoveryPolicy
from repro.controller.standby import StandbyPolicy
from repro.core.incidents import IncidentLog
from repro.diagnosis.diagnoser import Diagnoser
from repro.diagnosis.replay import DualPhaseReplay
from repro.monitor.collectors import CollectorConfig, MetricsCollector
from repro.monitor.detectors import AnomalyDetector, DetectorConfig
from repro.monitor.inspections import InspectionConfig, InspectionEngine
from repro.sim import RngStreams, Simulator
from repro.training.job import TrainingJob, TrainingJobConfig
from repro.training.metrics import CodeVersionProfile, MfuModel


@dataclass
class StackConfig:
    """Knobs for one job's management stack."""

    collector: CollectorConfig = field(default_factory=CollectorConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    inspections: InspectionConfig = field(default_factory=InspectionConfig)
    standby: StandbyPolicy = field(default_factory=StandbyPolicy)
    policy: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    use_real_minigpt: bool = False
    #: Enable the ByteRobust-save checkpoint engine (ZeRO stage 1).
    checkpointing: bool = False
    remote_checkpoint_every_steps: int = 100


@dataclass
class ManagementStack:
    """One job plus its fully wired management entourage."""

    job: TrainingJob
    collector: MetricsCollector
    detector: AnomalyDetector
    inspections: InspectionEngine
    diagnoser: Diagnoser
    replay: DualPhaseReplay
    analyzer: RuntimeAnalyzer
    tracer: OnDemandTracer
    hotupdate: HotUpdateManager
    ckpt_manager: Optional[CheckpointManager]
    incident_log: IncidentLog
    controller: RobustController

    def launch(self, machine_ids: List[int], at_step: int = 0) -> None:
        """Bind machines and start monitor + job (standbys are the
        owner's concern — pools are shared on the platform)."""
        self.job.bind_machines(machine_ids)
        self.collector.start()
        self.inspections.start()
        self.job.start(at_step)

    def shutdown(self) -> None:
        """Stop the job for good: retire the controller (in-flight
        recovery callbacks become no-ops), kill the training
        processes, leave the fault feed, and silence the periodic
        monitor tasks."""
        self.controller.retire()
        self.job.suspend()
        self.job.leave_fault_feed()
        self.collector.stop()
        self.inspections.stop()

    def pause(self) -> None:
        """Reversibly stop the job (preemption or resize): suspend the
        controller's recovery (in-flight chains die at the epoch
        bump), kill the training processes, silence the monitors.
        Unlike :meth:`shutdown`, :meth:`resume` brings it back, so the
        job stays on the fault feed."""
        self.controller.suspend_recovery()
        self.job.suspend()
        self.collector.stop()
        self.inspections.stop()
        if self.ckpt_manager is not None:
            self.ckpt_manager.enabled = False

    def resume(self, machine_ids: List[int], at_step: int = 0) -> None:
        """Relaunch a paused stack on (possibly different) machines,
        restarting the job from the ``at_step`` checkpoint."""
        self.job.bind_machines(machine_ids)
        self.collector.start()
        self.inspections.start()
        self.controller.resume_recovery()
        if self.ckpt_manager is not None:
            self.ckpt_manager.enabled = True
            self.ckpt_manager.after_recovery(at_step)
        self.job.restart(at_step)

    def resize(self, parallelism, machine_ids: List[int],
               at_step: int = 0) -> None:
        """Elastic shrink/grow: relaunch a paused stack under a new
        data-parallel layout, rebinding every topology-derived
        component (rank topology, backup plan, shard sizes, runtime
        analyzer) before restarting from the boundary checkpoint."""
        self.job.rebind_parallelism(parallelism, machine_ids)
        if self.ckpt_manager is not None:
            from repro.parallelism import zero_shard_sizes

            shard_sizes = zero_shard_sizes(
                self.job.config.model.num_params,
                tp=parallelism.tp, pp=parallelism.pp, dp=parallelism.dp,
                zero_stage=1)
            self.ckpt_manager.rebind(at_step, shard_sizes=shard_sizes)
        self.analyzer = RuntimeAnalyzer(self.job.topology,
                                        AggregationConfig())
        self.controller.analyzer = self.analyzer
        self.collector.start()
        self.inspections.start()
        self.controller.resume_recovery()
        if self.ckpt_manager is not None:
            self.ckpt_manager.enabled = True
        self.job.restart(at_step)


def build_management_stack(sim: Simulator, cluster: Cluster,
                           pool: MachinePool, injector: FaultInjector,
                           job_config: TrainingJobConfig,
                           owner: str, diag_rng: RngStreams,
                           replay_rng: RngStreams,
                           config: Optional[StackConfig] = None
                           ) -> ManagementStack:
    """Construct the full per-job management stack (the Fig. 4 wiring).

    ``owner`` is the job's name: the controller names it on every
    machine it takes from ``pool``.  ``diag_rng``/``replay_rng`` are
    the RNG streams handed to the diagnoser and the dual-phase replay;
    the platform forks a named pair per job so jobs stay decorrelated.
    Every job starts on the ``v0`` code version at 30% MFU.
    """
    config = config or StackConfig()
    initial_profile = CodeVersionProfile("v0", 0.30)
    job = TrainingJob(
        sim, job_config, injector=injector,
        mfu_model=MfuModel(initial_profile))
    collector = MetricsCollector(sim, job, config.collector)
    detector = AnomalyDetector(sim, collector, config.detector)
    inspections = InspectionEngine(
        sim, cluster, lambda: job.machines, config.inspections)
    diagnoser = Diagnoser(cluster, diag_rng,
                          use_real_minigpt=config.use_real_minigpt)
    replay = DualPhaseReplay(cluster, replay_rng)
    analyzer = RuntimeAnalyzer(job.topology, AggregationConfig())
    tracer = OnDemandTracer(sim, job)
    hotupdate = HotUpdateManager(
        sim, initial_profile=initial_profile)
    ckpt_manager: Optional[CheckpointManager] = None
    if config.checkpointing:
        from repro.parallelism import zero_shard_sizes

        shard_sizes = zero_shard_sizes(
            job_config.model.num_params,
            tp=job_config.parallelism.tp,
            pp=job_config.parallelism.pp,
            dp=job_config.parallelism.dp,
            zero_stage=1)
        tiers = StorageTiers(machine_spec=cluster.spec.machine_spec)
        ckpt_manager = CheckpointManager(
            sim, job, shard_sizes, tiers,
            strategy=ByteRobustSave(),
            remote_every_steps=config.remote_checkpoint_every_steps)
    incident_log = IncidentLog()
    controller = RobustController(
        sim, job, pool, injector, diagnoser, replay, analyzer, tracer,
        hotupdate, standby_policy=config.standby,
        ckpt_manager=ckpt_manager, detector=detector,
        policy=config.policy, incident_log=incident_log,
        config=config.controller, owner=owner)
    detector.add_listener(controller.on_anomaly)
    inspections.add_listener(controller.on_inspection_event)
    return ManagementStack(
        job=job, collector=collector, detector=detector,
        inspections=inspections, diagnoser=diagnoser, replay=replay,
        analyzer=analyzer, tracer=tracer, hotupdate=hotupdate,
        ckpt_manager=ckpt_manager, incident_log=incident_log,
        controller=controller)
