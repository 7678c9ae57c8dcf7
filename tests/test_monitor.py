"""Unit tests for inspections, collectors, and anomaly detectors."""

import pytest

from repro.cluster import Cluster, ClusterSpec, Fault, FaultInjector
from repro.cluster.faults import (
    FaultSymptom,
    JobEffect,
    RootCause,
    RootCauseDetail,
)
from repro.monitor import (
    AnomalyKind,
    AnomalyDetector,
    InspectionEngine,
    MetricsCollector,
    SignalConfidence,
)
from repro.monitor.collectors import CollectorConfig
from repro.monitor.detectors import DetectorConfig
from repro.parallelism import ParallelismConfig
from repro.sim import Simulator
from repro.training import TrainingJob, TrainingJobConfig
from repro.training.model import ModelSpec


def setup_env(n_machines=4):
    sim = Simulator()
    cluster = Cluster(ClusterSpec(num_machines=n_machines,
                                  machines_per_switch=4))
    injector = FaultInjector(sim, cluster)
    config = TrainingJobConfig(
        model=ModelSpec("tiny", 10**9, 10**9, 4, seq_len=2048),
        parallelism=ParallelismConfig(tp=2, pp=2, dp=2, gpus_per_machine=2),
        global_batch_size=64, gpu_peak_tflops=100.0)
    job = TrainingJob(sim, config, injector=injector)
    job.bind_machines(list(range(4)))
    return sim, cluster, injector, job


class TestInspectionEngine:
    def make_engine(self, sim, cluster, machines=(0, 1, 2, 3), cfg=None):
        engine = InspectionEngine(sim, cluster, lambda: list(machines), cfg)
        events = []
        engine.add_listener(events.append)
        engine.start()
        return engine, events

    def test_gpu_lost_detected_within_10s(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.GPU_UNAVAILABLE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_LOST, machine_ids=[2]))
        sim.run(until=10.5)
        lost = [e for e in events if e.item == "gpu_lost"]
        assert lost and lost[0].machine_ids == [2]
        assert lost[0].confidence is SignalConfidence.HIGH
        assert lost[0].time <= 10.0

    def test_kernel_fault_detected_within_2s(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.OS_KERNEL_PANIC,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.OS_KERNEL_FAULT,
                         machine_ids=[1]))
        sim.run(until=2.5)
        assert any(e.item == "os_kernel_fault" and e.time <= 2.0
                   for e in events)

    def test_nic_crash_detected_within_30s(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.INFINIBAND_ERROR,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.NIC_CRASH, machine_ids=[0]))
        sim.run(until=30.5)
        crash = [e for e in events if e.item == "nic_crash"]
        assert crash and crash[0].time == 30.0
        assert crash[0].confidence is SignalConfidence.NETWORK

    def test_switch_down_needs_two_consecutive_sweeps(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.INFINIBAND_ERROR,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.SWITCH_DOWN, switch_id=0))
        sim.run(until=35.0)
        assert not any(e.item == "switch_down" for e in events)
        sim.run(until=61.0)
        down = [e for e in events if e.item == "switch_down"]
        assert down and down[0].time == 60.0
        assert down[0].machine_ids == [0, 1, 2, 3]

    def test_switch_recovery_resets_strikes(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        fault = inj.inject(Fault(
            symptom=FaultSymptom.INFINIBAND_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.SWITCH_DOWN, switch_id=0,
            transient=True, auto_recover_after=40.0))
        sim.run(until=120.0)
        assert not any(e.item == "switch_down" for e in events)

    def test_high_temperature_is_warn_confidence(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.MFU_DECLINE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_HIGH_TEMPERATURE,
                         machine_ids=[3], effect=JobEffect.SLOW))
        sim.run(until=10.5)
        temp = [e for e in events if e.item == "gpu_high_temperature"]
        assert temp and temp[0].confidence is SignalConfidence.WARN

    def test_dedup_suppresses_repeat_alerts(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.DISK_FAULT,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.DISK_HW_FAULT,
                         machine_ids=[0]))
        sim.run(until=200.0)
        assert len([e for e in events if e.item == "disk_fault"]) == 1

    def test_stop_halts_sweeps(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        engine.stop()
        inj.inject(Fault(symptom=FaultSymptom.DISK_FAULT,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.DISK_HW_FAULT,
                         machine_ids=[0]))
        sim.run(until=100.0)
        assert not events

    def test_machine_set_is_dynamic(self):
        sim, cluster, inj, _ = setup_env()
        machines = [0, 1]
        engine, events = self.make_engine(sim, cluster, machines=None)

        def current_machines():
            return machines

        engine._machine_ids = current_machines
        inj.inject(Fault(symptom=FaultSymptom.DISK_FAULT,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.DISK_HW_FAULT,
                         machine_ids=[3]))
        sim.run(until=10.0)
        assert not events                      # machine 3 not inspected
        machines.append(3)
        sim.run(until=20.0)
        assert any(e.item == "disk_fault" for e in events)


class TestMetricsCollector:
    def test_collects_steps_and_gauges(self):
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(sim, job)
        steps, gauges = [], []
        collector.on_step(steps.append)
        collector.on_gauge(gauges.append)
        collector.start()
        job.start()
        sim.run(until=job.step_time() * 3 + 1)
        assert [m.step for m in steps] == [1, 2, 3]
        assert gauges
        assert [g.time for g in gauges] == [
            10.0 * (i + 1) for i in range(len(gauges))]
        assert gauges[-1].rdma_traffic_frac == pytest.approx(1.0)

    def test_log_tail_latency_bounded_by_interval(self):
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(
            sim, job, CollectorConfig(log_interval_s=30.0))
        seen = []
        collector.on_log(seen.append)
        collector.start()
        job.start()
        sim.schedule(45.0, lambda: inj.inject(Fault(
            symptom=FaultSymptom.CUDA_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HBM_FAULT, machine_ids=[0],
            log_signature="CUDA error: ECC uncorrectable")))
        sim.run(until=200.0)
        assert seen
        # crash at t=45, next log sweep at t=60
        assert 45.0 < seen[0].time + 1e-9 <= 75.0

    def test_stop_detaches_step_listener(self):
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(sim, job)
        collector.start()
        assert collector._on_step in job.step_listeners
        collector.stop()
        assert collector._on_step not in job.step_listeners
        collector.stop()                       # idempotent
        collector.start()                      # restart re-subscribes
        assert job.step_listeners.count(collector._on_step) == 1

    def test_shutdown_releases_collector_subscription(self):
        """ManagementStack.shutdown() must leave no collector callback
        on the job: a retired stack that stays subscribed keeps feeding
        its detector (and is kept alive by the job) forever."""
        from repro.core.byterobust import ByteRobustSystem, SystemConfig
        from repro.workloads.fleet import fleet_job_config

        system = ByteRobustSystem(SystemConfig(job=fleet_job_config(2)))
        stack = system.stack
        seen = []
        stack.collector.on_step(seen.append)
        system.start()
        system.sim.run(until=120.0)
        assert stack.collector._on_step in stack.job.step_listeners
        collected = len(seen)
        assert collected > 0
        stack.shutdown()
        assert stack.collector._on_step not in stack.job.step_listeners
        # even if something force-restarts the job later, the retired
        # collector dispatches none of its steps
        stack.job.restart(from_step=stack.job.current_step)
        system.sim.run(until=600.0)
        assert stack.job.current_step > collected
        assert len(seen) == collected


class TestAnomalyDetector:
    def make(self, job_env=None, det_cfg=None, col_cfg=None):
        sim, cluster, inj, job = job_env or setup_env()
        collector = MetricsCollector(sim, job, col_cfg)
        detector = AnomalyDetector(sim, collector, det_cfg)
        events = []
        detector.add_listener(events.append)
        collector.start()
        return sim, inj, job, detector, events

    def test_nan_detected_at_next_step(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        inj.inject(Fault(symptom=FaultSymptom.NAN_VALUE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_SDC, machine_ids=[0],
                         effect=JobEffect.NAN))
        sim.run(until=job.step_time() * 1.5)
        assert any(e.kind is AnomalyKind.NAN_METRIC for e in events)

    def test_hang_detected_after_zero_rdma_window(self):
        cfg = DetectorConfig(hang_zero_rdma_s=120.0)
        sim, inj, job, detector, events = self.make(det_cfg=cfg)
        job.start()
        sim.schedule(50.0, lambda: inj.inject(Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.UFM_FAULT, effect=JobEffect.HANG)))
        sim.run(until=400.0)
        hangs = [e for e in events if e.kind is AnomalyKind.HANG_SUSPECT]
        assert hangs
        # drain (20s) + window (120s) after the hang at t=50
        assert 180.0 <= hangs[0].time <= 220.0

    def test_hang_reported_once(self):
        cfg = DetectorConfig(hang_zero_rdma_s=60.0)
        sim, inj, job, detector, events = self.make(det_cfg=cfg)
        job.start()
        inj.inject(Fault(symptom=FaultSymptom.JOB_HANG,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.UFM_FAULT,
                         effect=JobEffect.HANG))
        sim.run(until=1000.0)
        hangs = [e for e in events if e.kind is AnomalyKind.HANG_SUSPECT]
        assert len(hangs) == 1

    def test_mfu_decline_detected(self):
        cfg = DetectorConfig(mfu_decline_window_s=60.0)
        sim, inj, job, detector, events = self.make(det_cfg=cfg)
        job.start()
        inj.inject(Fault(symptom=FaultSymptom.MFU_DECLINE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_HIGH_TEMPERATURE,
                         machine_ids=[1], effect=JobEffect.SLOW))
        sim.run(until=300.0)
        assert any(e.kind is AnomalyKind.MFU_DECLINE for e in events)

    def test_healthy_run_has_no_anomalies(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        sim.run(until=500.0)
        assert not events

    def test_user_space_error_classified(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        inj.inject(Fault(
            symptom=FaultSymptom.CUDA_ERROR, root_cause=RootCause.USER_CODE,
            detail=RootCauseDetail.USER_CODE_BUG, machine_ids=[],
            log_signature="TypeError: forward() missing argument 'mask'",
            exit_code=1))
        sim.run(until=100.0)
        assert any(e.kind is AnomalyKind.USER_SPACE_ERROR for e in events)

    def test_infra_crash_with_machines_classified(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        inj.inject(Fault(
            symptom=FaultSymptom.GPU_MEMORY_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HBM_FAULT, machine_ids=[2],
            log_signature="CUDA error: an illegal memory access",
            exit_code=134))
        sim.run(until=100.0)
        crash = [e for e in events
                 if e.kind is AnomalyKind.CRASH_WITH_MACHINES]
        assert crash and crash[0].machine_ids == [2]

    def test_service_crash_has_no_culprit(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        inj.inject(Fault(
            symptom=FaultSymptom.HDFS_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.STORAGE_SERVICE_FAULT,
            log_signature="HDFS write failed: DataStreamer exception"))
        sim.run(until=100.0)
        assert any(e.kind is AnomalyKind.CRASH_NO_CULPRIT for e in events)

    def test_loss_spike_detected(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        step = job.step_time()
        sim.run(until=step * 10 + 0.5)   # build history
        job.loss_spike_factor = 8.0
        sim.run(until=step * 12 + 0.5)
        assert any(e.kind is AnomalyKind.LOSS_SPIKE for e in events)

    def test_reset_episode_rearms_hang_detection(self):
        cfg = DetectorConfig(hang_zero_rdma_s=60.0)
        sim, inj, job, detector, events = self.make(det_cfg=cfg)
        job.start()
        fault = inj.inject(Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.UFM_FAULT, effect=JobEffect.HANG))
        sim.run(until=200.0)
        assert sum(e.kind is AnomalyKind.HANG_SUSPECT for e in events) == 1
        inj.clear(fault)
        job.restart(from_step=job.current_step)
        detector.reset_episode()
        sim.schedule(10.0, lambda: inj.inject(Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.UFM_FAULT, effect=JobEffect.HANG)))
        sim.run(until=600.0)
        assert sum(e.kind is AnomalyKind.HANG_SUSPECT for e in events) == 2
