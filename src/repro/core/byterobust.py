"""The :class:`ByteRobustSystem` facade: one job on a one-job platform.

A single robust training deployment is one job on a
:class:`~repro.core.platform.TrainingPlatform`, built the way every
fleet job is built: the platform owns the simulator, cluster, fault
injector, machine pool and warm-standby reserve, and the job's Fig. 4
management stack comes from the shared
:func:`~repro.controller.stack.build_management_stack`.  The facade
only sizes the cluster for its job (the job's machines plus P99
standbys and 25% headroom, min 8), submits that job under the model's
name, and reads it back:

``start()`` dispatches the job and provisions the P99 standby pool;
``run_until()`` advances simulated time; ``report()`` produces the
:class:`RunReport` every benchmark and example consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.components import MachineSpec
from repro.controller.controller import ControllerConfig
from repro.controller.policy import RecoveryPolicy
from repro.controller.standby import StandbyPolicy
from repro.core.ettr import EttrSeries, EttrTracker, UnproductiveBreakdown
from repro.core.incidents import IncidentLog
from repro.core.platform import JobSpec, PlatformConfig, TrainingPlatform
from repro.monitor.collectors import CollectorConfig
from repro.monitor.detectors import DetectorConfig
from repro.monitor.inspections import InspectionConfig
from repro.training.job import TrainingJobConfig


@dataclass
class SystemConfig:
    """Everything needed to stand up one robust training deployment."""

    job: TrainingJobConfig
    seed: int = 0
    machine_spec: MachineSpec = field(default_factory=MachineSpec)
    machines_per_switch: int = 16
    collector: CollectorConfig = field(default_factory=CollectorConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    inspections: InspectionConfig = field(default_factory=InspectionConfig)
    standby: StandbyPolicy = field(default_factory=StandbyPolicy)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    policy: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: Enable the ByteRobust checkpoint engine.
    checkpointing: bool = True
    remote_checkpoint_every_steps: int = 100
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
    """A fully wired robust-training deployment: one job on a
    one-job :class:`~repro.core.platform.TrainingPlatform`."""

    def __init__(self, config: SystemConfig):
        self.config = config
        job_machines = config.job.parallelism.num_machines
        spare = max(8, config.standby.standby_count(job_machines)
                    + job_machines // 4)
        self.platform = TrainingPlatform(
            job_machines + spare, PlatformConfig(
                seed=config.seed,
                machine_spec=config.machine_spec,
                machines_per_switch=config.machines_per_switch,
                standby=config.standby,
                collector=config.collector,
                detector=config.detector,
                inspections=config.inspections,
                policy=config.policy,
                controller=config.controller,
                checkpoint=config.checkpointing,
                remote_checkpoint_every_steps=(
                    config.remote_checkpoint_every_steps),
                use_real_minigpt=config.use_real_minigpt))
        self.stack = self.platform.submit(
            JobSpec(config.job.model.name, config.job)).stack
        self.sim = self.platform.sim
        self.injector = self.platform.injector
        self.pool = self.platform.pool
        self.job = self.stack.job
        self.diagnoser = self.stack.diagnoser
        self.replay = self.stack.replay
        self.tracer = self.stack.tracer
        self.hotupdate = self.stack.hotupdate
        self.incident_log = self.stack.incident_log
        self.controller = self.stack.controller
        self._mfu_samples: List[tuple] = []
        self.stack.collector.on_step(
            lambda m: self._mfu_samples.append((m.step, m.mfu)))

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Dispatch the job and provision its standbys (once)."""
        self.platform.start()

    def run_until(self, t: float) -> None:
        self.sim.run(until=t)

    # ------------------------------------------------------------------
    def report(self, run_end: Optional[float] = None,
               samples: int = 200) -> RunReport:
        end = run_end if run_end is not None else self.sim.now
        tracker = EttrTracker()
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
