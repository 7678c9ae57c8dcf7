"""The :class:`ByteRobustSystem` facade: one object, whole stack.

Construction wires the full architecture of Fig. 4 around a single
training job:

* data plane — metrics collector + anomaly detector, inspection engine,
  on-demand tracer, checkpoint manager;
* control plane — robust controller (Fig. 5 policy), runtime analyzer,
  hot-update manager, warm-standby provisioning.

``start()`` allocates machines, provisions the P99 standby pool, and
launches the job; ``run_until()`` advances simulated time; ``report()``
produces the :class:`RunReport` every benchmark and example consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analyzer.aggregation import AggregationConfig
from repro.checkpoint.strategies import SaveStrategy
from repro.cluster.components import MachineSpec
from repro.cluster.faults import FaultInjector
from repro.cluster.pool import MachinePool, ProvisioningTimes
from repro.cluster.topology import Cluster, ClusterSpec
from repro.controller.controller import ControllerConfig
from repro.controller.policy import RecoveryPolicy
from repro.controller.stack import StackConfig, build_management_stack
from repro.controller.standby import StandbyPolicy
from repro.core.ettr import EttrSeries, EttrTracker, UnproductiveBreakdown
from repro.core.incidents import IncidentLog
from repro.monitor.collectors import CollectorConfig
from repro.monitor.detectors import DetectorConfig
from repro.monitor.inspections import InspectionConfig
from repro.sim import RngStreams, Simulator
from repro.training.job import TrainingJobConfig
from repro.training.metrics import CodeVersionProfile


@dataclass
class SystemConfig:
    """Everything needed to stand up one robust training deployment."""

    job: TrainingJobConfig
    seed: int = 0
    #: Extra cluster capacity beyond the job (standbys + spares).  None
    #: sizes it automatically (P99 standbys + 25% headroom, min 8).
    spare_machines: Optional[int] = None
    machine_spec: MachineSpec = field(default_factory=MachineSpec)
    machines_per_switch: int = 16
    initial_code_profile: CodeVersionProfile = field(
        default_factory=lambda: CodeVersionProfile("v0", 0.30))
    collector: CollectorConfig = field(default_factory=CollectorConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    inspections: InspectionConfig = field(default_factory=InspectionConfig)
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    standby: StandbyPolicy = field(default_factory=StandbyPolicy)
    provisioning: ProvisioningTimes = field(
        default_factory=ProvisioningTimes)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    policy: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: Enable the checkpoint manager (None strategy = ByteRobust save).
    checkpointing: bool = True
    checkpoint_strategy: Optional[SaveStrategy] = None
    remote_checkpoint_every_steps: int = 100
    zero_stage: int = 1
    ettr_window_s: float = 3600.0
    #: Run the real MiniGPT reference workload for bit-wise alignment
    #: (slower per diagnosis, but a genuine numerical verification).
    use_real_minigpt: bool = True


@dataclass
class RunReport:
    """Everything a run produced, ready for tables and figures."""

    wall_time_s: float
    final_step: int
    ettr: EttrSeries
    breakdown: UnproductiveBreakdown
    incidents: IncidentLog
    mechanism_distribution: Dict[str, Dict[str, float]]
    loss_series: List[tuple]
    mfu_series: List[tuple]
    wasted_step_seconds: float
    standby_idle_machine_seconds: float

    @property
    def cumulative_ettr(self) -> float:
        return self.ettr.final_cumulative()

    def render_timeline(self, width: int = 72) -> str:
        """ASCII incident timeline (a poor man's Fig. 3 gantt)."""
        if not self.incidents.incidents:
            return "(no incidents)"
        lines = [f"0h {'-' * (width - 12)} "
                 f"{self.wall_time_s / 3600:.1f}h"]
        for inc in self.incidents.incidents:
            start = inc.occurred_at if inc.occurred_at >= 0 \
                else inc.detected_at
            end = inc.recovered_at if inc.recovered_at >= 0 \
                else self.wall_time_s
            a = int(width * max(0.0, start) / self.wall_time_s)
            b = max(a + 1, int(width * min(end, self.wall_time_s)
                               / self.wall_time_s))
            bar = " " * a + "#" * (b - a)
            lines.append(f"{bar:<{width}}  {inc.symptom.value} "
                         f"[{inc.mechanism or inc.phase.value}]")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable dump of the run (for dashboards/archival)."""
        mfus = [m for _, m in self.mfu_series]
        return {
            "wall_time_s": self.wall_time_s,
            "final_step": self.final_step,
            "cumulative_ettr": self.cumulative_ettr,
            "min_sliding_ettr": self.ettr.min_sliding(),
            "mean_mfu": sum(mfus) / len(mfus) if mfus else 0.0,
            "ettr_curve": {
                "times": list(self.ettr.times),
                "cumulative": list(self.ettr.cumulative),
                "sliding": list(self.ettr.sliding),
                "window_s": self.ettr.window_s,
            },
            "unproductive_breakdown": self.breakdown.as_dict(),
            "mechanism_distribution": self.mechanism_distribution,
            "mfu_series": [[t, m] for t, m in self.mfu_series],
            "wasted_step_seconds": self.wasted_step_seconds,
            "standby_idle_machine_seconds":
                self.standby_idle_machine_seconds,
            "incidents": [
                {
                    "id": inc.incident_id,
                    "symptom": inc.symptom.value,
                    "category": inc.category.value,
                    "mechanism": inc.mechanism,
                    "phase": inc.phase.value,
                    "occurred_at": inc.occurred_at,
                    "detected_at": inc.detected_at,
                    "localized_at": inc.localized_at,
                    "recovered_at": inc.recovered_at,
                    "detection_s": inc.detection_seconds,
                    "localization_s": inc.localization_seconds,
                    "failover_s": inc.failover_seconds,
                    "resolution_s": inc.resolution_seconds,
                    "evicted_machines": list(inc.evicted_machines),
                    "actions": list(inc.actions),
                    "detail": inc.detail,
                }
                for inc in self.incidents.incidents
            ],
        }

    def summary(self) -> str:
        lines = [
            f"wall time:        {self.wall_time_s / 3600:.1f} h",
            f"final step:       {self.final_step}",
            f"cumulative ETTR:  {self.cumulative_ettr:.4f}",
            f"incidents:        {len(self.incidents)}",
            f"recompute waste:  {self.wasted_step_seconds:.0f} s",
        ]
        for mech, row in sorted(self.mechanism_distribution.items()):
            total = sum(row.values())
            lines.append(f"  {mech:<12} {int(total)} incidents")
        return "\n".join(lines)


class ByteRobustSystem:
    """A fully wired robust-training deployment on the simulator."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.sim = Simulator()
        self.rng = RngStreams(config.seed)
        job_machines = config.job.parallelism.world_size \
            // config.job.parallelism.gpus_per_machine
        spare = config.spare_machines
        if spare is None:
            p99 = config.standby.standby_count(job_machines)
            spare = max(8, p99 + job_machines // 4)
        self.cluster = Cluster(ClusterSpec(
            num_machines=job_machines + spare,
            machine_spec=config.machine_spec,
            machines_per_switch=config.machines_per_switch))
        self.injector = FaultInjector(self.sim, self.cluster)
        self.pool = MachinePool(self.sim, self.cluster,
                                times=config.provisioning)
        self.pool.on_repair = self.injector.clear_machine
        self.stack = build_management_stack(
            self.sim, self.cluster, self.pool, self.injector, config.job,
            diag_rng=self.rng,
            config=StackConfig(
                collector=config.collector,
                detector=config.detector,
                inspections=config.inspections,
                aggregation=config.aggregation,
                standby=config.standby,
                policy=config.policy,
                controller=config.controller,
                initial_code_profile=config.initial_code_profile,
                use_real_minigpt=config.use_real_minigpt,
                checkpointing=config.checkpointing,
                checkpoint_strategy=config.checkpoint_strategy,
                remote_checkpoint_every_steps=(
                    config.remote_checkpoint_every_steps),
                zero_stage=config.zero_stage))
        self.job = self.stack.job
        self.collector = self.stack.collector
        self.detector = self.stack.detector
        self.inspections = self.stack.inspections
        self.diagnoser = self.stack.diagnoser
        self.replay = self.stack.replay
        self.analyzer = self.stack.analyzer
        self.tracer = self.stack.tracer
        self.hotupdate = self.stack.hotupdate
        self.ckpt_manager = self.stack.ckpt_manager
        self.incident_log = self.stack.incident_log
        self.controller = self.stack.controller
        self._started = False
        self._mfu_samples: List[tuple] = []
        self.collector.on_step(
            lambda m: self._mfu_samples.append((m.step, m.mfu)))

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Allocate machines, provision standbys, launch everything."""
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        machines = self.pool.allocate_active(self.job.num_machines)
        self.controller.ensure_standbys()
        self.stack.launch(machines)

    def run_until(self, t: float) -> None:
        self.sim.run(until=t)

    # ------------------------------------------------------------------
    def report(self, run_end: Optional[float] = None,
               samples: int = 200) -> RunReport:
        end = run_end if run_end is not None else self.sim.now
        tracker = EttrTracker(window_s=self.config.ettr_window_s)
        ettr = tracker.series(self.job.step_records, run_end=end,
                              samples=samples)
        breakdown = tracker.breakdown(
            self.incident_log.resolved(),
            recompute_seconds=self.job.wasted_step_seconds())
        return RunReport(
            wall_time_s=end,
            final_step=self.job.current_step,
            ettr=ettr,
            breakdown=breakdown,
            incidents=self.incident_log,
            mechanism_distribution=(
                self.incident_log.mechanism_distribution()),
            loss_series=self.job.loss_series(),
            mfu_series=list(self._mfu_samples),
            wasted_step_seconds=self.job.wasted_step_seconds(),
            standby_idle_machine_seconds=(
                self.pool.standby_idle_machine_seconds),
        )
