"""Integration tests: the full ByteRobust stack handling incidents
end-to-end on the simulator."""

import pytest

from repro import ByteRobustSystem, SystemConfig
from repro.cluster.faults import (
    Fault,
    FaultSymptom,
    JobEffect,
    RootCause,
    RootCauseDetail,
)
from repro.controller import CodeUpdate
from repro.controller.controller import (
    WARN_CORROBORATION_S,
    IncidentMechanism,
)
from repro.monitor.detectors import AnomalyEvent, AnomalyKind, DetectorConfig
from repro.monitor.inspections import InspectionEvent, SignalConfidence
from repro.parallelism import ParallelismConfig
from repro.training import JobState, TrainingJobConfig
from repro.training.metrics import CodeVersionProfile
from repro.training.model import ModelSpec


def make_system(seed=0, hang_window=120.0, tp=2, pp=2, dp=4, gpm=2,
                mfu_window=60.0):
    config = SystemConfig(
        job=TrainingJobConfig(
            model=ModelSpec("t", 2 * 10**9, 2 * 10**9, 8, seq_len=2048),
            parallelism=ParallelismConfig(tp=tp, pp=pp, dp=dp,
                                          gpus_per_machine=gpm),
            global_batch_size=128, gpu_peak_tflops=100.0),
        seed=seed,
        detector=DetectorConfig(hang_zero_rdma_s=hang_window,
                                mfu_decline_window_s=mfu_window))
    system = ByteRobustSystem(config)
    system.start()
    return system


def inject_at(system, t, fault):
    system.sim.schedule_at(t, lambda: system.injector.inject(fault))


class TestExplicitFailureHandling:
    def test_gpu_lost_evicted_and_restarted(self):
        s = make_system()
        victim = s.job.machines[3]
        inject_at(s, 500, Fault(
            symptom=FaultSymptom.GPU_UNAVAILABLE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_LOST, machine_ids=[victim],
            log_signature="CUDA error: device unavailable", exit_code=134))
        s.run_until(2000)
        assert s.job.state is JobState.RUNNING
        incidents = s.incident_log.resolved()
        assert len(incidents) == 1
        inc = incidents[0]
        assert inc.mechanism == IncidentMechanism.AUTOFT_ER
        assert victim in inc.evicted_machines
        assert victim not in s.job.machines          # replaced
        assert inc.total_unproductive_seconds < 600

    def test_detection_seconds_under_a_minute(self):
        """Explicit failures detect within the log-poll interval."""
        s = make_system()
        inject_at(s, 500, Fault(
            symptom=FaultSymptom.GPU_MEMORY_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HBM_FAULT,
            machine_ids=[s.job.machines[0]],
            log_signature="CUDA error: an illegal memory access",
            exit_code=134))
        s.run_until(2000)
        inc = s.incident_log.resolved()[0]
        assert inc.detection_seconds is not None
        assert inc.detection_seconds <= 60.0

    def test_evicted_machine_replaced_by_standby(self):
        s = make_system()
        # let the standby pool finish provisioning first
        s.run_until(400)
        standbys_before = s.pool.standby_count
        assert standbys_before >= 1
        victim = s.job.machines[1]
        inject_at(s, 500, Fault(
            symptom=FaultSymptom.DISK_FAULT,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.DISK_HW_FAULT, machine_ids=[victim],
            log_signature="blk_update_request: I/O error", exit_code=5))
        s.run_until(2000)
        inc = s.incident_log.resolved()[0]
        # standby wake + ckpt load is well under two minutes
        assert inc.failover_seconds < 120
        assert victim in s.pool.blacklist

    def test_service_level_crash_reattempted(self):
        """HDFS errors have no culprit machine: stop-time checks pass,
        then the job is simply restarted (transient fault)."""
        s = make_system()
        inject_at(s, 500, Fault(
            symptom=FaultSymptom.HDFS_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.STORAGE_SERVICE_FAULT,
            transient=True, auto_recover_after=120.0,
            log_signature="HDFS write failed: DataStreamer exception"))
        s.run_until(4000)
        assert s.job.state is JobState.RUNNING
        inc = s.incident_log.resolved()[0]
        assert inc.symptom is FaultSymptom.HDFS_ERROR
        assert inc.mechanism == IncidentMechanism.REATTEMPT
        assert not inc.evicted_machines


class TestImplicitFailureHandling:
    def test_hang_isolated_by_aggregation(self):
        s = make_system(hang_window=120.0)
        victim = s.job.machines[5]
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.DEFECTIVE_CUDA_CORES,
            machine_ids=[victim], effect=JobEffect.HANG))
        s.run_until(3000)
        assert s.job.state is JobState.RUNNING
        inc = s.incident_log.resolved()[0]
        assert inc.symptom is FaultSymptom.JOB_HANG
        assert inc.mechanism == IncidentMechanism.ANALYZER_ER
        # over-eviction: the victim's whole parallel group goes
        assert victim in inc.evicted_machines
        assert len(inc.evicted_machines) >= 1

    def test_hang_detection_latency_matches_window(self):
        s = make_system(hang_window=120.0)
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.DEFECTIVE_CUDA_CORES,
            machine_ids=[s.job.machines[5]], effect=JobEffect.HANG))
        s.run_until(3000)
        inc = s.incident_log.resolved()[0]
        # drain (20 s) + zero-RDMA window (120 s) + gauge cadence
        assert 120 <= inc.detection_seconds <= 180

    def test_mfu_decline_evicted_via_thermal_corroboration(self):
        s = make_system()
        victim = s.job.machines[2]
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.MFU_DECLINE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HIGH_TEMPERATURE,
            machine_ids=[victim], effect=JobEffect.SLOW))
        s.run_until(3000)
        inc = s.incident_log.resolved()[0]
        assert inc.symptom is FaultSymptom.MFU_DECLINE
        assert victim in inc.evicted_machines
        # thermal WARN inspection corroborates: resolved fast
        assert inc.mechanism == IncidentMechanism.AUTOFT_ER

    def test_pcie_degradation_found_by_failslow_voting(self):
        s = make_system()
        victim = s.job.machines[6]
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.MFU_DECLINE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.PCIE_DEGRADED,
            machine_ids=[victim], effect=JobEffect.SLOW))
        s.run_until(4000)
        resolved = s.incident_log.resolved()
        assert resolved
        inc = resolved[0]
        assert victim in inc.evicted_machines

    def test_nan_sdc_diagnosed_by_bitwise_alignment(self):
        s = make_system(seed=3)
        victim = s.job.machines[4]
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.NAN_VALUE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_SDC, machine_ids=[victim],
            effect=JobEffect.NAN, reproduce_prob=1.0))
        s.run_until(6000)
        inc = s.incident_log.resolved()[0]
        assert inc.symptom is FaultSymptom.NAN_VALUE
        assert inc.mechanism == IncidentMechanism.AUTOFT_ER
        assert victim in inc.evicted_machines


class TestWarnCorroboration:
    """An MFU decline is pinned on the job machines named by WARN
    inspection events of the last ``WARN_CORROBORATION_S``."""

    def warn_at(self, s, t, machine):
        s.sim.schedule_at(t, lambda: s.controller.on_inspection_event(
            InspectionEvent(time=s.sim.now, item="gpu_high_temperature",
                            category="gpu",
                            confidence=SignalConfidence.WARN,
                            machine_ids=[machine])))

    def decline_at(self, s, t):
        s.sim.schedule_at(t, lambda: s.controller.on_anomaly(
            AnomalyEvent(time=s.sim.now, kind=AnomalyKind.MFU_DECLINE,
                         detail="scripted decline")))

    def test_recent_warn_evicts_its_machine(self):
        s = make_system()
        victim = s.job.machines[2]
        self.warn_at(s, 1000.0, victim)
        self.decline_at(s, 1000.0 + WARN_CORROBORATION_S - 1.0)
        s.run_until(3000)
        inc = s.incident_log.incidents[0]
        assert inc.actions[0] == "warn_corroboration"
        assert inc.evicted_machines == [victim]
        assert inc.mechanism == IncidentMechanism.AUTOFT_ER
        assert victim not in s.job.machines

    def test_older_warn_falls_through_to_failslow_voting(self):
        s = make_system()
        victim = s.job.machines[2]
        self.warn_at(s, 1000.0, victim)
        self.decline_at(s, 1000.0 + WARN_CORROBORATION_S + 1.0)
        s.run_until(3000)
        inc = s.incident_log.incidents[0]
        assert inc.actions[0] == "failslow_voting"
        assert "warn_corroboration" not in inc.actions
        assert victim not in inc.evicted_machines

    def test_repeated_warns_keep_only_the_window(self):
        """A persistent WARN re-emits once per dedup window for the
        life of the job; the controller keeps only the events it could
        still corroborate with."""
        s = make_system()
        victim = s.job.machines[2]
        for k in range(72):                      # six hours
            self.warn_at(s, 300.0 * (k + 1), victim)
        s.run_until(300.0 * 72 + 1.0)
        warns = s.controller._warn_events
        # pruned when the last one arrived, at t = 21600
        assert [e.time for e in warns] == [21000.0, 21300.0, 21600.0]
        assert not s.incident_log.incidents


class TestUserCodeAndManualPaths:
    def test_user_space_error_rolls_back(self):
        s = make_system()
        # apply an update so there is something to roll back
        s.controller.request_manual_update(CodeUpdate(
            version="v1", profile=CodeVersionProfile("v1", 0.35),
            critical=True))
        s.run_until(600)
        assert s.hotupdate.current.version == "v1"
        inject_at(s, 700, Fault(
            symptom=FaultSymptom.CUDA_ERROR, root_cause=RootCause.USER_CODE,
            detail=RootCauseDetail.USER_CODE_BUG,
            log_signature="TypeError: forward() missing 1 argument",
            exit_code=1, code_version="v1"))
        s.run_until(3000)
        assert s.job.state is JobState.RUNNING
        rollback = [i for i in s.incident_log.resolved()
                    if i.mechanism == IncidentMechanism.ROLLBACK]
        assert rollback
        assert s.hotupdate.current.version == "v0"

    def test_critical_update_hot_restarts(self):
        s = make_system()
        s.controller.request_manual_update(CodeUpdate(
            version="v1", profile=CodeVersionProfile("v1", 0.4),
            critical=True))
        s.run_until(1000)
        inc = [i for i in s.incident_log.resolved()
               if i.symptom is FaultSymptom.CODE_DATA_ADJUSTMENT]
        assert inc
        assert inc[0].mechanism == IncidentMechanism.AUTOFT_HU
        assert s.job.mfu_model.profile.base_mfu == pytest.approx(0.4)
        # hot update is fast: well under two minutes of downtime
        assert inc[0].failover_seconds < 120

    def test_lazy_update_merges_into_failure_restart(self):
        s = make_system()
        s.controller.request_manual_update(CodeUpdate(
            version="v1", profile=CodeVersionProfile("v1", 0.42),
            critical=False))
        s.run_until(500)
        assert s.hotupdate.current.version == "v0"   # still pending
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.GPU_UNAVAILABLE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_LOST,
            machine_ids=[s.job.machines[0]],
            log_signature="CUDA error: device unavailable",
            exit_code=134))
        s.run_until(3000)
        assert s.hotupdate.current.version == "v1"   # merged
        mechanisms = {i.mechanism for i in s.incident_log.resolved()}
        assert IncidentMechanism.AUTOFT_ER in mechanisms
        assert IncidentMechanism.AUTOFT_HU in mechanisms

    def test_mfu_rises_across_hot_updates(self):
        """Fig. 11: each applied version lifts the MFU plateau."""
        s = make_system()
        s.run_until(300)     # baseline steps on v0 first
        for i, mfu in enumerate((0.36, 0.45), start=1):
            s.controller.request_manual_update(CodeUpdate(
                version=f"v{i}", profile=CodeVersionProfile(f"v{i}", mfu),
                critical=True))
            s.run_until(300 + 1500 * i)
        report = s.report()
        mfus = [m for _, m in report.mfu_series]
        assert mfus[0] == pytest.approx(0.30, abs=0.01)
        assert mfus[-1] == pytest.approx(0.45, abs=0.01)


class TestNetworkTolerance:
    def test_single_flap_tolerated(self):
        s = make_system()
        inject_at(s, 500, Fault(
            symptom=FaultSymptom.INFINIBAND_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.PORT_FLAPPING,
            machine_ids=[s.job.machines[1]], effect=JobEffect.NONE,
            transient=True, auto_recover_after=45.0))
        s.run_until(2000)
        # the flap recovered on its own: no eviction happened
        assert not s.incident_log.resolved()
        assert s.job.machines[1] not in s.pool.blacklist

    def test_persistent_flapping_evicted_after_threshold(self):
        s = make_system()
        victim = s.job.machines[1]
        # two separate flap events within the 5-minute window
        for t in (500.0, 620.0):
            inject_at(s, t, Fault(
                symptom=FaultSymptom.INFINIBAND_ERROR,
                root_cause=RootCause.INFRASTRUCTURE,
                detail=RootCauseDetail.PORT_FLAPPING,
                machine_ids=[victim], effect=JobEffect.NONE,
                transient=True, auto_recover_after=40.0))
        s.run_until(3000)
        evicted = [i for i in s.incident_log.resolved()
                   if victim in i.evicted_machines]
        assert evicted


class TestEttrAccounting:
    def test_healthy_run_has_near_perfect_ettr(self):
        s = make_system()
        s.run_until(4 * 3600)
        report = s.report()
        assert report.cumulative_ettr > 0.97
        assert not report.incidents.resolved()

    def test_ettr_dips_then_recovers_after_incident(self):
        s = make_system()
        inject_at(s, 3600, Fault(
            symptom=FaultSymptom.GPU_UNAVAILABLE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_LOST,
            machine_ids=[s.job.machines[0]],
            log_signature="CUDA error: device unavailable",
            exit_code=134))
        s.run_until(8 * 3600)
        report = s.report()
        assert 0.9 < report.cumulative_ettr < 1.0
        assert report.ettr.min_sliding() < report.cumulative_ettr

    def test_breakdown_accounts_incident_phases(self):
        s = make_system()
        # off the 10 s inspection grid so detection latency is non-zero
        inject_at(s, 1003, Fault(
            symptom=FaultSymptom.GPU_UNAVAILABLE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_LOST,
            machine_ids=[s.job.machines[0]],
            log_signature="CUDA error: device unavailable",
            exit_code=134))
        s.run_until(4000)
        report = s.report()
        assert report.breakdown.detection > 0
        assert report.breakdown.failover > 0
        assert report.breakdown.total > 0

    def test_report_summary_renders(self):
        s = make_system()
        s.run_until(1000)
        text = s.report().summary()
        assert "cumulative ETTR" in text


class TestEscalationLadder:
    def test_persistent_unknown_fault_escalates_to_replay(self):
        """A persistent SDC that EUD misses walks the Fig. 5 ladder and
        is finally isolated by dual-phase replay."""
        s = make_system(seed=17)
        victim = s.job.machines[2]
        # SDC invisible to inspections; seed 17 makes EUD's 70% recall
        # miss it (checked below); NaN appears at every step
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.NAN_VALUE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_SDC, machine_ids=[victim],
            effect=JobEffect.NAN, reproduce_prob=1.0))
        s.run_until(5 * 3600)
        assert s.job.state is JobState.RUNNING
        resolved = s.incident_log.resolved()
        assert resolved
        # whatever path it took, the victim machine ends up evicted
        all_evicted = {m for i in resolved for m in i.evicted_machines}
        assert victim in all_evicted
