"""Unit tests for inspections, collectors, and anomaly detectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # a clean sweep sleeps; changing the set outside a job's change
        # hook must wake the engine (a job's binding change does)
        engine.wake()
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
        assert collector in job.step_listeners
        collector.stop()
        assert collector not in job.step_listeners
        collector.stop()                       # idempotent
        collector.start()                      # restart re-subscribes
        assert job.step_listeners.count(collector) == 1

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
        assert stack.collector in stack.job.step_listeners
        collected = len(seen)
        assert collected > 0
        stack.shutdown()
        assert stack.collector not in stack.job.step_listeners
        # even if something force-restarts the job later, the retired
        # collector dispatches none of its steps
        stack.job.restart(from_step=stack.job.current_step)
        system.sim.run(until=600.0)
        assert stack.job.current_step > collected
        assert len(seen) == collected


class TestTrailingMedian:
    @settings(max_examples=80, deadline=None)
    @given(losses=st.lists(st.floats(0.5, 20.0), max_size=300),
           keep=st.sampled_from([1, 2, 5, 32]))
    def test_sorted_window_matches_statistics_median(self, losses, keep):
        """The detector's bisect-kept window gives ``statistics.median``
        over the last ``spike_history`` losses of the 4x/1x-trimmed
        history."""
        import statistics

        from repro.monitor.detectors import _median

        sim, cluster, inj, job = setup_env()
        detector = AnomalyDetector(sim, MetricsCollector(sim, job),
                                   DetectorConfig(spike_history=keep))
        history = []
        for loss in losses:
            detector._push(loss)
            history.append(loss)
            if len(history) > 4 * keep:
                del history[:keep]
            assert detector._loss_history == history
            assert _median(detector._window) == statistics.median(
                history[-keep:])


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


class TestDormantPolls:
    """The gauge and log polls and the inspection sweeps sleep between
    changes; sleeping must never change what the monitor reports, and
    a retired stack must leave no watch or hook behind."""

    @staticmethod
    def _scripted_run(seed, keep_gauges_awake):
        """One job under a random script of a hang, a transient
        slowdown, a critical hot update and a crash; returns the
        detector's anomaly stream, the report payload and the number
        of gauge samples the detector saw."""
        import json

        import numpy as np

        from repro import ByteRobustSystem, SystemConfig
        from repro.controller import CodeUpdate
        from repro.training.metrics import CodeVersionProfile

        rng = np.random.default_rng(seed)
        system = ByteRobustSystem(SystemConfig(
            job=TrainingJobConfig(
                model=ModelSpec("t", 2 * 10**9, 2 * 10**9, 8,
                                seq_len=2048),
                parallelism=ParallelismConfig(tp=2, pp=2, dp=4,
                                              gpus_per_machine=2),
                global_batch_size=128, gpu_peak_tflops=100.0),
            seed=seed, use_real_minigpt=False,
            detector=DetectorConfig(hang_zero_rdma_s=120.0,
                                    mfu_decline_window_s=60.0)))
        collector, detector = system.stack.collector, system.stack.detector
        anomalies, samples = [], []
        detector.add_listener(lambda e: anomalies.append(
            (e.time, e.kind.value, e.detail, tuple(e.machine_ids))))
        # count the samples the detector sees, passing its verdict on
        inner = collector._gauge_listeners[0]
        collector._gauge_listeners[0] = lambda s: (
            samples.append(s.time), inner(s))[1]
        if keep_gauges_awake:
            collector.on_gauge(lambda sample: None)
        system.start()
        machines = system.job.machines

        def at(t, fn):
            system.sim.schedule_at(float(t), fn)

        def inject(**kw):
            return lambda: system.injector.inject(Fault(**kw))

        # a hang: the RDMA gauge drains over time while HUNG
        at(rng.uniform(200, 1500), inject(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.DEFECTIVE_CUDA_CORES,
            machine_ids=[machines[int(rng.integers(len(machines)))]],
            effect=JobEffect.HANG))
        # a slowdown set and cleared, short or long enough to alert
        at(rng.uniform(200, 3000), inject(
            symptom=FaultSymptom.MFU_DECLINE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.PCIE_DEGRADED,
            machine_ids=[machines[int(rng.integers(len(machines)))]],
            effect=JobEffect.SLOW, transient=True,
            auto_recover_after=float(rng.uniform(15, 200))))
        # a hot update: set_profile on the running job
        at(rng.uniform(200, 3000),
           lambda: system.controller.request_manual_update(CodeUpdate(
               version="v1", critical=True,
               profile=CodeVersionProfile("v1", float(
                   rng.uniform(0.31, 0.45))))))
        # a crash, which the controller answers with a restart
        at(rng.uniform(200, 3000), inject(
            symptom=FaultSymptom.GPU_UNAVAILABLE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_LOST,
            machine_ids=[machines[int(rng.integers(len(machines)))]],
            log_signature="CUDA error: device unavailable",
            exit_code=134))
        system.run_until(5000.0)
        payload = json.dumps(system.report().to_dict(), sort_keys=True)
        return anomalies, payload, len(samples)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_gauge_sleep_matches_an_awake_poll(self, seed):
        asleep = self._scripted_run(seed, keep_gauges_awake=False)
        awake = self._scripted_run(seed, keep_gauges_awake=True)
        kinds = {kind for _, kind, _, _ in awake[0]}
        assert "hang_suspect" in kinds, "the script raised no hang"
        assert asleep[:2] == awake[:2]
        # the oracle is not vacuous: the poll did sleep
        assert asleep[2] < awake[2] / 2

    def test_gauge_poll_sleeps_only_while_running_and_settled(self):
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(sim, job)
        events = []
        AnomalyDetector(sim, collector).add_listener(events.append)
        collector.start()
        job.start()
        sim.run(until=10.0)
        assert collector._tasks[0].asleep      # running, settled
        job.mfu_model.set_degradation("thermal", 0.5)
        assert not collector._tasks[0].asleep  # an MFU write wakes it
        sim.run(until=200.0)
        assert not collector._tasks[0].asleep  # low MFU: not settled
        assert any(e.kind is AnomalyKind.MFU_DECLINE for e in events)
        job.mfu_model.clear_degradation("thermal")
        sim.run(until=210.0)
        assert collector._tasks[0].asleep
        job.mfu_model.set_degradation("mild", 0.9)   # still settled
        sim.run(until=220.0)
        assert collector._tasks[0].asleep
        job.mfu_model.clear_degradation("mild")
        assert not collector._tasks[0].asleep
        sim.run(until=230.0)
        job.suspend()                            # a state transition
        sim.run(until=400.0)
        assert not collector._tasks[0].asleep  # not running: awake

    def test_gauge_poll_sleeps_only_while_running(self):
        """A listener that is always settled still sees every sample
        of a job that is not running."""
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(sim, job)
        seen = []
        collector.on_gauge(lambda sample: seen.append(sample.time) or True)
        collector.start()
        sim.run(until=30.0)                      # INIT: polled
        assert seen == [10.0, 20.0, 30.0]
        job.start()
        sim.run(until=60.0)                      # running: one sample
        assert seen[3:] == [40.0]
        job.suspend()
        sim.run(until=80.0)
        assert seen[4:] == [70.0, 80.0]

    def test_log_poll_sleeps_until_a_log_event(self):
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(sim, job)
        seen = []
        collector.on_log(seen.append)
        collector.start()
        job.start()
        sim.run(until=30.0)
        assert collector._tasks[1].asleep
        inj.inject(Fault(symptom=FaultSymptom.CUDA_ERROR,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_HBM_FAULT,
                         machine_ids=[0], log_signature="CUDA error"))
        assert not collector._tasks[1].asleep
        sim.run(until=60.0)
        assert [e.message for e in seen] == ["CUDA error"]
        assert collector._tasks[1].asleep

    def test_shutdown_leaves_no_watch_and_no_hook(self):
        from repro.core.byterobust import ByteRobustSystem, SystemConfig
        from repro.workloads.fleet import fleet_job_config

        system = ByteRobustSystem(SystemConfig(job=fleet_job_config(2)))
        stack = system.stack
        store = system.platform.cluster.store
        engine = stack.inspections
        system.start()
        system.sim.run(until=120.0)
        assert _watchers(store) == {engine}
        assert len(stack.job.change_listeners) == 2
        stack.shutdown()
        assert _watchers(store) == set()
        assert stack.job.change_listeners == []

    def test_spot_churn_watches_only_live_engines(self):
        from repro.core.platform import HandleState
        from repro.experiments.registry import get_scenario

        scenario = get_scenario("fleet-spot-churn").build(
            seed=3, duration_s=2 * 86400.0)
        scenario.run()
        platform = scenario.platform
        states = {m.state for m in platform.jobs.values()}
        assert HandleState.DONE in states, "no job finished: vacuous"
        assert sum(m.preemptions for m in platform.jobs.values()) > 0
        live = {m.stack.inspections for m in platform.jobs.values()
                if m.stack.inspections._tasks}
        assert live and _watchers(platform.cluster.store) == live
        assert all(m.state in (HandleState.RUNNING, HandleState.RESIZING)
                   for m in platform.jobs.values()
                   if m.stack.inspections in live)


def _watchers(store):
    """The engines named anywhere in a component store's watch
    registry."""
    return {fn.__self__
            for table in (store.row_watchers, store.switch_watchers)
            for fns in table.values() for fn in fns}
