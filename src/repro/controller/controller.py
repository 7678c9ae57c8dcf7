"""The Robust Controller: event-driven incident handling (Fig. 5).

The controller consumes three event streams — inspection events,
metric/log anomalies, and manual update requests — and drives each
incident through the Fig. 5 policy: immediate eviction for
high-confidence signals, tolerance windows for network flaps, log-
guided stop-time checks, the reattempt → rollback → dual-phase-replay
escalation ladder, aggregation analysis for implicit failures, and
hot-update restarts for manual changes.  Every recovery path funnels
through one restart routine that merges pending lazy code updates,
chooses the machine-replacement flavour (warm standby vs reschedule),
consults the checkpoint manager for the restart step, and accounts the
incident timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.agent.tracer import OnDemandTracer
from repro.analyzer.aggregation import RuntimeAnalyzer
from repro.analyzer.failslow import FailSlowVerdict, FailSlowVoter
from repro.checkpoint.manager import CheckpointManager, RecoveryDecision, RecoverySource
from repro.cluster.faults import (
    FaultInjector,
    FaultSymptom,
    RootCause,
)
from repro.cluster.pool import MachinePool
from repro.controller.hotupdate import CodeUpdate, HotUpdateManager
from repro.controller.policy import (
    EscalationLevel,
    PolicyAction,
    RecoveryPolicy,
)
from repro.controller.standby import StandbyPolicy
from repro.core.incidents import Incident, IncidentLog, IncidentPhase
from repro.diagnosis.diagnoser import Diagnoser
from repro.diagnosis.replay import DualPhaseReplay
from repro.monitor.detectors import AnomalyDetector, AnomalyEvent, AnomalyKind
from repro.monitor.inspections import InspectionEvent, SignalConfidence
from repro.sim import Simulator
from repro.training.job import TrainingJob


class IncidentMechanism:
    """Resolution mechanism labels (the Table 4 rows)."""

    AUTOFT_ER = "AutoFT-ER"       # eviction + restart via fault tolerance
    AUTOFT_HU = "AutoFT-HU"       # hot-update restart
    ANALYZER_ER = "Analyzer-ER"   # aggregation analysis + over-eviction
    ROLLBACK = "Rollback"
    REATTEMPT = "Reattempt"
    REPLAY_ER = "Replay-ER"       # dual-phase replay + eviction
    TOLERATED = "Tolerated"
    ESCALATED = "Escalated"


#: inspection item → symptom for incident bookkeeping
_ITEM_SYMPTOM = {
    "gpu_lost": FaultSymptom.GPU_UNAVAILABLE,
    "gpu_driver_hang": FaultSymptom.GPU_UNAVAILABLE,
    "dcgm_unhealthy": FaultSymptom.GPU_UNAVAILABLE,
    "gpu_memory_error": FaultSymptom.GPU_MEMORY_ERROR,
    "gpu_high_temperature": FaultSymptom.MFU_DECLINE,
    "pcie_degraded": FaultSymptom.MFU_DECLINE,
    "nic_crash": FaultSymptom.INFINIBAND_ERROR,
    "port_flapping": FaultSymptom.INFINIBAND_ERROR,
    "switch_down": FaultSymptom.INFINIBAND_ERROR,
    "os_kernel_fault": FaultSymptom.OS_KERNEL_PANIC,
    "disk_fault": FaultSymptom.DISK_FAULT,
    "filesystem_mount": FaultSymptom.FILESYSTEM_MOUNT,
    "container_error": FaultSymptom.CONTAINER_ERROR,
    "insufficient_disk_space": FaultSymptom.DISK_SPACE,
    "cpu_oom": FaultSymptom.CPU_OOM,
    "cpu_overload": FaultSymptom.CPU_OVERLOAD,
}

#: An MFU decline is pinned on the machines of WARN inspection events
#: (thermal, PCIe, CPU overload) seen at most this long before it.
WARN_CORROBORATION_S = 600.0


@dataclass(frozen=True)
class ControllerConfig:
    """Controller knobs."""

    #: Delay for capturing stacks across all pods (tracer latency).
    trace_capture_s: float = 5.0
    #: Fail-slow voting cadence/rounds (Sec. 5.1).
    failslow_rounds: int = 5
    failslow_interval_s: float = 10.0
    #: Simulated human mean-time-to-fix for escalated incidents.
    human_fix_s: float = 2 * 3600.0


class RobustController:
    """Orchestrates detection → localization → recovery for one job."""

    def __init__(self, sim: Simulator, job: TrainingJob,
                 pool: MachinePool, injector: FaultInjector,
                 diagnoser: Diagnoser, replay: DualPhaseReplay,
                 analyzer: RuntimeAnalyzer, tracer: OnDemandTracer,
                 hotupdate: HotUpdateManager,
                 standby_policy: Optional[StandbyPolicy] = None,
                 ckpt_manager: Optional[CheckpointManager] = None,
                 detector: Optional[AnomalyDetector] = None,
                 policy: Optional[RecoveryPolicy] = None,
                 incident_log: Optional[IncidentLog] = None,
                 config: Optional[ControllerConfig] = None, *,
                 owner: str):
        self.sim = sim
        self.job = job
        self.pool = pool
        #: the job's name: the pool owner of every machine it takes
        self.owner = owner
        self.injector = injector
        self.diagnoser = diagnoser
        self.replay = replay
        self.analyzer = analyzer
        self.tracer = tracer
        self.hotupdate = hotupdate
        self.standby_policy = standby_policy or StandbyPolicy()
        self.ckpt_manager = ckpt_manager
        self.detector = detector
        self.policy = policy or RecoveryPolicy()
        self.log = incident_log if incident_log is not None else IncidentLog()
        self.config = config or ControllerConfig()
        self.escalation = EscalationLevel.FRESH
        self.last_recovery_at: float = 0.0
        self._handling: Optional[Incident] = None
        self._network_alerts: List[tuple] = []   # (time, machine_ids)
        #: WARN inspection events of the last WARN_CORROBORATION_S,
        #: oldest first
        self._warn_events: List[InspectionEvent] = []
        #: times of recent aggregation-based evictions; recurring
        #: implicit failures stop over-evicting and enter the Fig. 5
        #: escalation ladder instead (the fault is clearly elsewhere)
        self._recent_analyzer_evictions: List[float] = []
        #: called with applied CodeUpdates on every restart (scenarios
        #: use it to inject latent bugs carried by new versions)
        self.on_updates_applied: Optional[
            Callable[[List[CodeUpdate]], None]] = None
        hotupdate.on_update_required = self._on_update_required
        self.suppressed_events = 0
        #: set by :meth:`retire` when the job is torn down for good —
        #: in-flight recovery callbacks become no-ops instead of
        #: restarting a job whose machines were already released
        self.retired = False
        #: reversible cousin of ``retired``: set while the job is
        #: preempted or resizing (machines released, may come back)
        self.suspended = False
        #: bumped by :meth:`suspend_recovery`; recovery callbacks armed
        #: before a pause capture the old value and die on mismatch, so
        #: a preempted-then-resumed job can never be restarted by a
        #: stale pre-preemption incident chain
        self._epoch = 0

    def retire(self) -> None:
        """Permanently stop recovering this job (it completed or was
        torn down by its platform).  Pending scheduled recovery steps
        will return any machines they acquired and do nothing else."""
        self.retired = True

    def suspend_recovery(self) -> None:
        """Reversibly stop recovering: the job is being preempted or
        resized, its machines are (about to be) released.  In-flight
        recovery callbacks observe the epoch bump and return any
        machines they acquired instead of restarting a job that no
        longer holds its slots."""
        self._epoch += 1
        self._handling = None
        self.suspended = True

    def resume_recovery(self) -> None:
        """Re-enable recovery after :meth:`suspend_recovery` — the job
        was re-dispatched onto (possibly different) machines.  Chains
        armed before the pause stay dead: only callbacks created from
        the current epoch onward run."""
        self.suspended = False

    # ==================================================================
    # event entrypoints
    # ==================================================================
    def on_inspection_event(self, event: InspectionEvent) -> None:
        if self._busy():
            self.suppressed_events += 1
            return
        if event.confidence is SignalConfidence.WARN:
            warns = self._warn_events
            cutoff = self.sim.now - WARN_CORROBORATION_S
            while warns and warns[0].time < cutoff:
                del warns[0]
            warns.append(event)
            return
        symptom = _ITEM_SYMPTOM.get(event.item, FaultSymptom.CUDA_ERROR)
        machines = [m for m in event.machine_ids
                    if self.job.uses_machine(m)]
        if not machines:
            return
        if event.confidence is SignalConfidence.HIGH:
            incident = self._open(symptom, detail=event.item,
                                  occurred_at=self._fault_time(machines))
            incident.actions.append("inspection_high_confidence")
            self._evict_and_restart(incident, machines,
                                    IncidentMechanism.AUTOFT_ER)
            return
        # network confidence: tolerate a couple of alerts
        self._network_alerts.append((event.time, tuple(machines)))
        window = self.policy.network_window_s
        recent = [a for a in self._network_alerts
                  if a[0] >= event.time - window]
        self._network_alerts = recent
        if len(recent) >= self.policy.network_alert_threshold:
            incident = self._open(symptom, detail=event.item,
                                  occurred_at=self._fault_time(machines))
            incident.actions.append("network_alert_threshold")
            self._network_alerts.clear()
            self._evict_and_restart(incident, machines,
                                    IncidentMechanism.AUTOFT_ER)

    def on_anomaly(self, event: AnomalyEvent) -> None:
        if self._busy():
            self.suppressed_events += 1
            return
        self._maybe_reset_escalation()
        if event.kind is AnomalyKind.CRASH_WITH_MACHINES:
            incident = self._open(self._crash_symptom(event),
                                  detail=event.detail,
                                  occurred_at=self._log_time(event))
            incident.actions.append("explicit_crash")
            self._evict_and_restart(incident, event.machine_ids,
                                    IncidentMechanism.AUTOFT_ER)
        elif event.kind is AnomalyKind.USER_SPACE_ERROR:
            incident = self._open(FaultSymptom.CUDA_ERROR,
                                  detail=event.detail,
                                  occurred_at=self._log_time(event))
            incident.actions.append("user_space_error")
            if self.hotupdate.can_rollback():
                self._rollback_and_restart(incident)
            elif self.escalation < EscalationLevel.REATTEMPTED:
                self._reattempt(incident)
            else:
                # a recurring code error with nothing to roll back to:
                # only the owning team can fix it (Fig. 5's human arm)
                self._escalate(incident)
        elif event.kind is AnomalyKind.CRASH_NO_CULPRIT:
            incident = self._open(self._crash_symptom(event),
                                  detail=event.detail,
                                  occurred_at=self._log_time(event))
            self._stop_time_checks(incident, event.detail, nan=False)
        elif event.kind is AnomalyKind.NAN_METRIC:
            incident = self._open(FaultSymptom.NAN_VALUE,
                                  detail=event.detail,
                                  occurred_at=self._nan_fault_time())
            self._stop_time_checks(incident, "", nan=True)
        elif event.kind is AnomalyKind.HANG_SUSPECT:
            incident = self._open(FaultSymptom.JOB_HANG,
                                  detail=event.detail,
                                  occurred_at=self._hang_time())
            self._aggregation_for_hang(incident)
        elif event.kind is AnomalyKind.MFU_DECLINE:
            incident = self._open(FaultSymptom.MFU_DECLINE,
                                  detail=event.detail,
                                  occurred_at=self._slow_fault_time())
            self._handle_mfu_decline(incident)
        elif event.kind is AnomalyKind.LOSS_SPIKE:
            self._mitigate_loss_spike(event)

    def _mitigate_loss_spike(self, event: AnomalyEvent) -> None:
        """Algorithmic mitigation for loss spikes (Sec. 2.2): skip the
        problematic mini-batches instead of restarting.

        Production practice pauses the data stream over the offending
        window; here the job's spike factor is reset, recording an
        instantly-resolved incident with no unproductive time.
        """
        incident = self.log.open(FaultSymptom.CODE_DATA_ADJUSTMENT,
                                 detected_at=self.sim.now,
                                 occurred_at=self.sim.now,
                                 detail=f"loss spike: {event.detail}")
        incident.actions.append("skip_bad_batches")
        incident.mechanism = "BatchSkip"
        incident.localized_at = self.sim.now
        incident.recovered_at = self.sim.now
        incident.phase = IncidentPhase.RESOLVED
        self.job.loss_spike_factor = 1.0

    def request_manual_update(self, update: CodeUpdate) -> None:
        """Entry point for code/data adjustments (manual restarts)."""
        self.hotupdate.request(update)

    def _on_update_required(self, update: CodeUpdate) -> None:
        """Critical update or expired lazy window: restart now."""
        if self._busy():
            return   # it will merge into the in-flight restart
        incident = self._open(FaultSymptom.CODE_DATA_ADJUSTMENT,
                              detail=f"update {update.version}",
                              occurred_at=self.sim.now)
        incident.actions.append("hot_update")
        self._hot_update_restart(incident)

    # ==================================================================
    # incident bookkeeping helpers
    # ==================================================================
    def _busy(self) -> bool:
        return (self.retired or self.suspended
                or self._handling is not None)

    def _open(self, symptom: FaultSymptom, detail: str = "",
              occurred_at: float = -1.0) -> Incident:
        incident = self.log.open(symptom, detected_at=self.sim.now,
                                 occurred_at=occurred_at, detail=detail)
        self._handling = incident
        return incident

    def _maybe_reset_escalation(self) -> None:
        if (self.sim.now - self.last_recovery_at
                > self.policy.stable_window_s):
            self.escalation = EscalationLevel.FRESH

    def _fault_time(self, machines: Sequence[int]) -> float:
        times = [f.injected_at for m in machines
                 for f in self.injector.machine_faults(m)]
        return min(times) if times else -1.0

    def _log_time(self, event: AnomalyEvent) -> float:
        if event.log_event is not None:
            return event.log_event.time
        return -1.0

    def _hang_time(self) -> float:
        return (self.job.hung_since if self.job.hung_since is not None
                else -1.0)

    def _nan_fault_time(self) -> float:
        faults = self.injector.active_by_symptom(FaultSymptom.NAN_VALUE)
        return min((f.injected_at for f in faults), default=-1.0)

    def _slow_fault_time(self) -> float:
        faults = self.injector.active_by_symptom(FaultSymptom.MFU_DECLINE)
        return min((f.injected_at for f in faults), default=-1.0)

    @staticmethod
    def _crash_symptom(event: AnomalyEvent) -> FaultSymptom:
        msg = event.detail
        if "HDFS" in msg:
            return FaultSymptom.HDFS_ERROR
        if "NCCL" in msg or "ib" in msg.lower():
            return FaultSymptom.INFINIBAND_ERROR
        if "illegal memory access" in msg or "ECC" in msg:
            return FaultSymptom.GPU_MEMORY_ERROR
        return FaultSymptom.CUDA_ERROR

    # ==================================================================
    # localization paths
    # ==================================================================
    def _stop_time_checks(self, incident: Incident, log_message: str,
                          nan: bool) -> None:
        incident.phase = IncidentPhase.LOCALIZING
        incident.actions.append("stop_time_checks")
        self.job.suspend()
        report = self.diagnoser.diagnose(self.job.machines, log_message,
                                         nan=nan)
        epoch = self._epoch

        def after() -> None:
            if epoch != self._epoch:
                return
            self._after_stop_time(incident, report)

        self.sim.schedule(report.total_duration_s, after)

    def _after_stop_time(self, incident: Incident, report) -> None:
        action = self.policy.after_stop_time_checks(
            report.found_suspects, self.escalation,
            can_rollback=self.hotupdate.can_rollback())
        self.escalation = self.policy.escalate(self.escalation, action)
        if action is PolicyAction.EVICT_AND_RESTART:
            incident.actions.append(
                f"diagnosed:{','.join(report.tests_run)}")
            self._evict_and_restart(incident, report.suspects,
                                    IncidentMechanism.AUTOFT_ER)
        elif action is PolicyAction.REATTEMPT:
            self._reattempt(incident)
        elif action is PolicyAction.ROLLBACK_AND_RESTART:
            self._rollback_and_restart(incident)
        elif action is PolicyAction.DUAL_PHASE_REPLAY:
            self._dual_phase_replay(incident)
        else:
            self._escalate(incident)

    def _aggregation_for_hang(self, incident: Incident) -> None:
        incident.phase = IncidentPhase.LOCALIZING
        window = self.policy.stable_window_s
        self._recent_analyzer_evictions = [
            t for t in self._recent_analyzer_evictions
            if t >= self.sim.now - window]
        if len(self._recent_analyzer_evictions) >= 2:
            # over-eviction keeps failing to cure the hang: the root
            # cause is not in any evictable machine — escalate down the
            # stop-time ladder (reattempt / rollback / replay / human)
            incident.actions.append("recurring_hang")
            self._stop_time_checks(incident, "recurring hang", nan=False)
            return
        incident.actions.append("aggregation_analysis")
        epoch = self._epoch

        def run_analysis() -> None:
            if epoch != self._epoch:
                return
            capture = self.tracer.capture()
            result = self.analyzer.aggregate(
                capture.traces, slot_to_machine=self.job.slot_to_machine)
            action = self.policy.after_aggregation(result.found_suspects)
            if action is PolicyAction.EVICT_AND_RESTART:
                incident.actions.append(
                    f"isolated:{result.shared_dim}_group")
                # corroborate with the flight recorder: the collective
                # launch history should place the laggards inside the
                # same eviction set (Sec. 7's NCCL-timeout workflow)
                recorder = self.tracer.flight_recorder
                laggard_slots = set(recorder.suspect_machines())
                if laggard_slots:
                    laggard_phys = {
                        self.job.slot_to_machine.get(s, s)
                        for s in laggard_slots}
                    agree = laggard_phys <= set(result.eviction_machines)
                    incident.actions.append(
                        "flight_recorder:"
                        + ("corroborates" if agree else "diverges"))
                self._recent_analyzer_evictions.append(self.sim.now)
                self._evict_and_restart(incident, result.eviction_machines,
                                        IncidentMechanism.ANALYZER_ER)
            else:
                self._stop_time_checks(incident, "hang with no outliers",
                                       nan=False)

        self.sim.schedule(self.config.trace_capture_s, run_analysis)

    def _handle_mfu_decline(self, incident: Incident) -> None:
        incident.phase = IncidentPhase.LOCALIZING
        # corroborate with WARN inspections (thermal throttling) first
        recent = [e for e in self._warn_events
                  if e.time >= self.sim.now - WARN_CORROBORATION_S
                  and any(self.job.uses_machine(m) for m in e.machine_ids)]
        if recent:
            machines = sorted({m for e in recent for m in e.machine_ids
                               if self.job.uses_machine(m)})
            incident.actions.append("warn_corroboration")
            self._evict_and_restart(incident, machines,
                                    IncidentMechanism.AUTOFT_ER)
            return
        incident.actions.append("failslow_voting")
        epoch = self._epoch
        voter = FailSlowVoter(self.analyzer,
                              rounds=self.config.failslow_rounds,
                              interval_s=self.config.failslow_interval_s)
        voter.run(self.sim, lambda: self.tracer.capture().traces,
                  slot_to_machine=self.job.slot_to_machine,
                  done=lambda verdict: (
                      None if epoch != self._epoch
                      else self._after_failslow(incident, verdict)))

    def _after_failslow(self, incident: Incident,
                        verdict: FailSlowVerdict) -> None:
        if verdict.found_suspects:
            incident.actions.append(
                f"degrader:{verdict.degrader}")
            self._evict_and_restart(incident, verdict.eviction_machines,
                                    IncidentMechanism.ANALYZER_ER)
        else:
            self._stop_time_checks(incident, "mfu decline, no degrader",
                                   nan=False)

    def _dual_phase_replay(self, incident: Incident) -> None:
        incident.actions.append("dual_phase_replay")
        self.job.suspend()
        machines = self.job.machines
        pp_span = len(self.job.topology.machines_of_group(0, "pp"))
        m = self.replay.recommended_group_size(
            pp_size=pp_span, dp_size=self.job.config.parallelism.dp,
            num_machines=len(machines))
        result = self.replay.locate_faulty_machines(machines, m=m)
        # each replay group runs the job at a reduced DP size, which
        # requires resharding the checkpoint into the smaller layout
        # (ByteCheckpoint-style load-time resharding) — add that cost
        result.duration_s += self._replay_reshard_seconds(m)
        action = self.policy.after_replay(result.found_suspects)
        epoch = self._epoch

        def conclude() -> None:
            if epoch != self._epoch:
                return
            if action is PolicyAction.EVICT_AND_RESTART:
                incident.actions.append(
                    f"replay_isolated:{result.suspects}")
                self._evict_and_restart(incident, result.suspects,
                                        IncidentMechanism.REPLAY_ER)
            else:
                self._escalate(incident)

        self.sim.schedule(result.duration_s, conclude)

    def _replay_reshard_seconds(self, group_machines: int) -> float:
        """Checkpoint reshard cost for a reduced-DP replay group."""
        from repro.checkpoint.reshard import (
            plan_reshard,
            reshard_load_seconds,
        )
        from repro.parallelism import (
            ParallelismConfig,
            zero_shard_sizes,
        )

        par = self.job.config.parallelism
        group_gpus = group_machines * par.gpus_per_machine
        reduced_dp = max(1, group_gpus // (par.tp * par.pp))
        if reduced_dp >= par.dp:
            return 0.0      # nothing shrinks; the checkpoint fits as-is
        try:
            target = ParallelismConfig(
                tp=par.tp, pp=par.pp, dp=reduced_dp,
                ep=min(par.ep, reduced_dp),
                gpus_per_machine=par.gpus_per_machine)
        except ValueError:
            return 0.0      # group shape incompatible: replay re-inits
        model = self.job.config.model
        full = zero_shard_sizes(model.num_params, tp=1, pp=1, dp=1,
                                zero_stage=0)
        plan = plan_reshard(par, target,
                            model_total_bytes=full.model_bytes,
                            optimizer_total_bytes=full.optimizer_bytes)
        return reshard_load_seconds(plan)

    # ==================================================================
    # recovery executors
    # ==================================================================
    def _evict_and_restart(self, incident: Incident,
                           machines: Sequence[int],
                           mechanism: str) -> None:
        if self.retired or self.suspended:
            return
        incident.localized_at = self.sim.now
        incident.phase = IncidentPhase.RECOVERING
        incident.mechanism = mechanism
        job_machines = [m for m in machines if self.job.uses_machine(m)]
        incident.evicted_machines = list(job_machines)
        self.job.suspend()
        if not job_machines:
            self._restart_in_place(
                incident, self.pool.times.process_relaunch_s)
            return
        self.pool.evict(job_machines)
        self._replenish_standbys()
        self._acquire_replacements(incident, job_machines, acquired=[])

    def _acquire_replacements(self, incident: Incident,
                              evicted: List[int],
                              acquired: List[int],
                              epoch: Optional[int] = None) -> None:
        """Gather replacement machines: standbys first, then free pool;
        if the cluster is fully drained (everything in repair), wait for
        replenishment and retry — the paper's "training restarts when
        all needed machines finish their pod environment initialization".
        """
        if epoch is None:
            epoch = self._epoch
        if self.retired or epoch != self._epoch:
            self.pool.release(acquired, owner=self.owner)
            return
        needed = len(evicted) - len(acquired)
        acquired.extend(self.pool.take_standbys(needed, self.owner))
        needed = len(evicted) - len(acquired)
        from_free = 0
        if needed > 0:
            take = min(needed, self.pool.available())
            if take > 0:
                acquired.extend(self.pool.allocate_active(take, self.owner))
                from_free = take
                needed -= take
        if needed > 0:
            incident.actions.append(f"waiting_for_{needed}_machines")
            self.sim.schedule(60.0, lambda: self._acquire_replacements(
                incident, evicted, acquired, epoch))
            return
        if from_free > 0:
            delay = self.pool.times.reschedule_time(from_free)
        else:
            delay = self.pool.times.standby_wake_time(len(evicted))
        mapping = dict(zip(evicted, acquired))
        self._restart_with_ckpt(incident, evicted, mapping, delay)

    def _restart_with_ckpt(self, incident: Incident,
                           evicted: Sequence[int],
                           replacements: Dict[int, int],
                           scheduling_delay: float) -> None:
        if self.ckpt_manager is not None:
            decision = self.ckpt_manager.plan_recovery(evicted)
        else:
            decision = RecoveryDecision(
                restart_step=self.job.current_step,
                source=RecoverySource.LOCAL_MEMORY, load_seconds=1.0)
        total = scheduling_delay + decision.load_seconds
        epoch = self._epoch

        def do_restart() -> None:
            if self.retired or epoch != self._epoch:
                self.pool.release(replacements.values(), owner=self.owner)
                if self.retired:
                    self._handling = None
                return
            self._apply_pending_updates()
            self.job.restart(decision.restart_step,
                             replacements=replacements or None)
            if self.ckpt_manager is not None:
                self.ckpt_manager.after_recovery(decision.restart_step)
            self._finish(incident)

        self.sim.schedule(total, do_restart)

    def _restart_in_place(self, incident: Incident, delay: float) -> None:
        epoch = self._epoch

        def do_restart() -> None:
            if self.retired or epoch != self._epoch:
                if self.retired:
                    self._handling = None
                return
            self._apply_pending_updates()
            self.job.restart(self._inplace_restart_step())
            if self.ckpt_manager is not None:
                self.ckpt_manager.after_recovery(self.job.current_step)
            self._finish(incident)

        self.sim.schedule(delay, do_restart)

    def _inplace_restart_step(self) -> int:
        """In-place restarts reload the local in-memory checkpoint."""
        if self.ckpt_manager is not None:
            decision = self.ckpt_manager.plan_recovery([])
            return decision.restart_step
        return self.job.current_step

    def _reattempt(self, incident: Incident) -> None:
        incident.localized_at = self.sim.now
        incident.phase = IncidentPhase.RECOVERING
        incident.mechanism = incident.mechanism or IncidentMechanism.REATTEMPT
        incident.actions.append("reattempt")
        self.escalation = self.policy.escalate(
            self.escalation, PolicyAction.REATTEMPT)
        self.job.suspend()
        self._restart_in_place(incident, self.pool.times.process_relaunch_s)

    def _rollback_and_restart(self, incident: Incident) -> None:
        incident.localized_at = self.sim.now
        incident.phase = IncidentPhase.RECOVERING
        incident.mechanism = IncidentMechanism.ROLLBACK
        incident.actions.append("rollback")
        self.escalation = self.policy.escalate(
            self.escalation, PolicyAction.ROLLBACK_AND_RESTART)
        self.job.suspend()
        rolled_back = self.hotupdate.rollback()
        # reverting the code removes the bugs that version introduced
        for fault in list(self.injector.active_faults.values()):
            if fault.root_cause is RootCause.USER_CODE:
                self.injector.clear(fault)
        self.job.mfu_model.set_profile(self.hotupdate.current_profile)
        self._restart_in_place(
            incident,
            self.pool.times.hot_update_time(self.job.num_machines))

    def _hot_update_restart(self, incident: Incident) -> None:
        incident.localized_at = self.sim.now
        incident.phase = IncidentPhase.RECOVERING
        incident.mechanism = IncidentMechanism.AUTOFT_HU
        self.job.suspend()
        self._restart_in_place(
            incident,
            self.pool.times.hot_update_time(self.job.num_machines))

    def _escalate(self, incident: Incident) -> None:
        """No conclusion: hand off to humans, then repair + restart."""
        incident.phase = IncidentPhase.ESCALATED
        incident.mechanism = IncidentMechanism.ESCALATED
        incident.localized_at = self.sim.now
        incident.actions.append("escalate_human")
        self.escalation = EscalationLevel.ESCALATED
        self.job.suspend()
        epoch = self._epoch

        def human_fix() -> None:
            if epoch != self._epoch:
                return
            # humans fix the actual root cause, wherever it hides —
            # including service-level faults with no machine to evict
            for fault in list(self.injector.active_faults.values()):
                if self.job._fault_touches_job(fault):
                    self.injector.clear(fault)
            self.escalation = EscalationLevel.FRESH
            self._restart_in_place(incident,
                                   self.pool.times.process_relaunch_s)

        self.sim.schedule(self.config.human_fix_s, human_fix)

    # ==================================================================
    def _apply_pending_updates(self) -> None:
        applied = self.hotupdate.apply_pending()
        if not applied:
            return
        self.job.mfu_model.set_profile(self.hotupdate.current_profile)
        for update in applied:
            # lazy updates merged into this restart count as serviced
            # manual-restart incidents (Table 4's AutoFT-HU rows)
            if self._handling is not None and (
                    self._handling.symptom
                    is FaultSymptom.CODE_DATA_ADJUSTMENT):
                continue   # the in-flight incident already covers it
            merged = self.log.open(
                FaultSymptom.CODE_DATA_ADJUSTMENT,
                detected_at=update.requested_at,
                occurred_at=update.requested_at,
                detail=f"lazy update {update.version}")
            merged.localized_at = update.requested_at
            merged.recovered_at = self.sim.now
            merged.mechanism = IncidentMechanism.AUTOFT_HU
            merged.phase = IncidentPhase.RESOLVED
        if self.on_updates_applied is not None:
            self.on_updates_applied(applied)

    def _replenish_standbys(self) -> None:
        target = self.standby_policy.standby_count(len(self.pool.active))
        deficit = target - (self.pool.standby_count
                            + len(self.pool.provisioning))
        if deficit > 0:
            available = self.pool.available()
            if available > 0:
                self.pool.provision_standbys(min(deficit, available))

    def _finish(self, incident: Incident) -> None:
        incident.recovered_at = self.sim.now
        incident.phase = IncidentPhase.RESOLVED
        self.last_recovery_at = self.sim.now
        self._handling = None
        if self.detector is not None:
            self.detector.reset_episode()
