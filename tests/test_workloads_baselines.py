"""Unit tests for workload generation, failure models, and baselines."""

import math

import pytest

from repro.baselines import (
    ByteRobustRestart,
    OracleRestart,
    RequeueRestart,
    RescheduleRestart,
    SelectiveStressTesting,
    TimeoutOnlyDetection,
    weighted_average_scheduling_time,
)
from repro.baselines.restart import eviction_scenario_weights
from repro.cluster.faults import (
    FaultSymptom,
    JobEffect,
    RootCause,
    RootCauseDetail,
)
from repro.experiments import get_scenario
from repro.sim import RngStreams
from repro.workloads import (
    TABLE1_COUNTS,
    IncidentTraceGenerator,
    mtbf_seconds,
)


class TestFailureModel:
    def test_anchor_point(self):
        assert mtbf_seconds(16_384) == pytest.approx(2.78 * 3600)

    def test_mtbf_inverse_in_gpus(self):
        assert mtbf_seconds(8_192) == pytest.approx(2 * mtbf_seconds(16_384))

    def test_validation(self):
        with pytest.raises(ValueError):
            mtbf_seconds(0)


class TestTraceGenerator:
    def gen(self, seed=0):
        return IncidentTraceGenerator(RngStreams(seed))

    def test_histogram_matches_table1_distribution(self):
        gen = self.gen()
        hist = gen.symptom_histogram(20_000)
        total = sum(hist.values())
        table_total = sum(TABLE1_COUNTS.values())
        for symptom in (FaultSymptom.CUDA_ERROR,
                        FaultSymptom.CODE_DATA_ADJUSTMENT,
                        FaultSymptom.JOB_HANG,
                        FaultSymptom.CPU_OVERLOAD):
            expected = TABLE1_COUNTS[symptom] / table_total
            observed = hist[symptom] / total
            assert observed == pytest.approx(expected, abs=0.02)

    def test_rare_symptoms_present_in_large_samples(self):
        hist = self.gen().symptom_histogram(50_000)
        assert hist[FaultSymptom.GPU_UNAVAILABLE] > 0
        assert hist[FaultSymptom.DISK_FAULT] > 0

    def test_job_hang_root_cause_mix(self):
        """Table 2: hangs are ~81% infrastructure, ~19% user code."""
        gen = self.gen()
        infra = user = 0
        for _ in range(600):
            fault = gen.make_fault(FaultSymptom.JOB_HANG, list(range(16)))
            assert fault.effect is JobEffect.HANG
            if fault.root_cause is RootCause.INFRASTRUCTURE:
                infra += 1
            else:
                user += 1
        assert infra / (infra + user) == pytest.approx(21 / 26, abs=0.07)

    def test_gpu_memory_error_mostly_user_code(self):
        """Table 2: illegal memory access is 41/62 user code."""
        gen = self.gen()
        user = 0
        for _ in range(600):
            fault = gen.make_fault(FaultSymptom.GPU_MEMORY_ERROR,
                                   list(range(16)))
            user += fault.root_cause is RootCause.USER_CODE
        assert user / 600 == pytest.approx(41 / 62, abs=0.07)

    def test_nan_faults_have_reproduce_prob(self):
        gen = self.gen()
        sdc = [gen.make_fault(FaultSymptom.NAN_VALUE, [0, 1])
               for _ in range(100)]
        sdc = [f for f in sdc if f.detail is RootCauseDetail.GPU_SDC]
        assert sdc
        assert all(0.4 <= f.reproduce_prob <= 1.0 for f in sdc)

    def test_crash_faults_carry_log_signatures(self):
        gen = self.gen()
        for symptom in (FaultSymptom.CPU_OOM, FaultSymptom.DISK_SPACE,
                        FaultSymptom.OS_KERNEL_PANIC):
            fault = gen.make_fault(symptom, [3])
            assert fault.log_signature
            assert fault.exit_code != 0

    def test_victims_drawn_from_population(self):
        gen = self.gen()
        for _ in range(50):
            fault = gen.make_fault(FaultSymptom.GPU_UNAVAILABLE, [7, 9])
            assert set(fault.machine_ids) <= {7, 9}

    def test_poisson_trace_sorted_and_bounded(self):
        gen = self.gen()
        events = gen.poisson_trace(duration_s=86400, mtbf_s=3600,
                                   machine_ids=list(range(8)))
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 < t < 86400 for t in times)
        assert len(events) > 5     # ~24 expected

    def test_poisson_trace_deterministic_per_seed(self):
        e1 = IncidentTraceGenerator(RngStreams(5)).poisson_trace(
            86400, 3600, [0, 1])
        e2 = IncidentTraceGenerator(RngStreams(5)).poisson_trace(
            86400, 3600, [0, 1])
        assert [e.time for e in e1] == [e.time for e in e2]

    def test_manual_events_are_updates(self):
        gen = self.gen()
        events = gen.poisson_trace(10 * 86400, 1800, [0, 1])
        manual = [e for e in events if e.is_manual]
        assert manual
        assert all(e.update is not None and e.fault is None
                   for e in manual)

    def test_invalid_trace_args(self):
        with pytest.raises(ValueError):
            self.gen().poisson_trace(0, 100, [0])


class TestRestartBaselines:
    def test_fig12_ordering(self):
        """ByteRobust ≈ oracle < reschedule < requeue at every scale."""
        requeue, resched = RequeueRestart(), RescheduleRestart()
        oracle, ours = OracleRestart(), ByteRobustRestart()
        for n in (128, 256, 512, 1024):
            weights = eviction_scenario_weights(
                n, 0.0012, p99_count=max(2, n // 256), catastrophic_size=32)
            was = {s.name: weighted_average_scheduling_time(s, n, weights)
                   for s in (requeue, resched, oracle, ours)}
            assert was["oracle"] <= was["byterobust"] < was["reschedule"] \
                < was["requeue"]

    def test_fig12_speedup_factors(self):
        """~10.9x vs requeue, ~5.4x vs reschedule, within ~6% of oracle."""
        n = 1024
        weights = eviction_scenario_weights(n, 0.0012, p99_count=4,
                                            catastrophic_size=32)
        was = {s.name: weighted_average_scheduling_time(s, n, weights)
               for s in (RequeueRestart(), RescheduleRestart(),
                         OracleRestart(), ByteRobustRestart())}
        assert 6 <= was["requeue"] / was["byterobust"] <= 16
        assert 3 <= was["reschedule"] / was["byterobust"] <= 9
        assert was["byterobust"] / was["oracle"] <= 1.10

    def test_byterobust_degrades_gracefully_beyond_pool(self):
        ours = ByteRobustRestart()
        within = ours.restart_seconds(1024, 4)    # P99 = 4
        beyond = ours.restart_seconds(1024, 32)   # catastrophic
        assert beyond > within
        # even catastrophic stays below a full requeue
        assert beyond < RequeueRestart().restart_seconds(1024, 32)

    def test_requeue_ignores_eviction_size(self):
        r = RequeueRestart()
        assert r.restart_seconds(512, 1) == r.restart_seconds(512, 32)

    def test_scenario_weights_sum_to_one(self):
        weights = eviction_scenario_weights(1024, 0.0012, p99_count=4,
                                            catastrophic_size=32)
        assert sum(weights.values()) == pytest.approx(1.0)
        assert weights[32] >= 0.01

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            eviction_scenario_weights(10, 0.001, 2, 5,
                                      catastrophic_prob=1.5)


class TestDetectionBaseline:
    def test_timeout_vs_inspection_gap(self):
        """Table 3: inspections detect in 2-60 s; timeouts take ~600 s."""
        baseline = TimeoutOnlyDetection()
        for detail in (RootCauseDetail.NIC_CRASH,
                       RootCauseDetail.GPU_LOST,
                       RootCauseDetail.OS_KERNEL_FAULT):
            assert baseline.detection_seconds(detail) == 600.0

    def test_thermal_uses_mfu_monitoring(self):
        baseline = TimeoutOnlyDetection()
        t = baseline.detection_seconds(
            RootCauseDetail.GPU_HIGH_TEMPERATURE, step_time_s=15.0)
        assert t == 300.0     # 20 iterations x 15 s

    def test_table3_column_has_all_rows(self):
        col = TimeoutOnlyDetection().table3_column()
        assert len(col) == 7
        assert col[RootCauseDetail.GPU_HIGH_TEMPERATURE][0] == "T_monitor"


class TestStressTestingBaseline:
    def test_infrastructure_symptoms_have_finite_cost(self):
        baseline = SelectiveStressTesting()
        assert baseline.resolution_seconds(
            FaultSymptom.GPU_MEMORY_ERROR) == 600.0
        assert baseline.can_localize(FaultSymptom.INFINIBAND_ERROR)

    def test_human_mistakes_are_inf(self):
        """Table 6: stress tests cannot localize code/data issues."""
        baseline = SelectiveStressTesting()
        assert math.isinf(baseline.resolution_seconds(
            FaultSymptom.CODE_DATA_ADJUSTMENT))
        assert math.isinf(baseline.resolution_seconds(
            FaultSymptom.CUDA_ERROR, root_cause=RootCause.USER_CODE))
        assert math.isinf(baseline.resolution_seconds(
            FaultSymptom.HDFS_ERROR))

    def test_nan_stress_testing_is_very_slow(self):
        baseline = SelectiveStressTesting()
        assert baseline.resolution_seconds(FaultSymptom.NAN_VALUE) >= 7200


class TestProductionScenario:
    def test_small_scenario_runs_to_completion(self):
        scenario = get_scenario("dense").build(
            num_machines=4, duration_s=6 * 3600, seed=2, mtbf_scale=3.0)
        report = scenario.run()
        assert report.final_step > 0
        assert 0.5 < report.cumulative_ettr <= 1.0

    def test_scenario_produces_incidents(self):
        # a 32-GPU fleet has a huge natural MTBF; compress it so the
        # 12-hour window sees a handful of incidents
        scenario = get_scenario("dense").build(
            num_machines=4, duration_s=12 * 3600, seed=4, mtbf_scale=0.002)
        report = scenario.run()
        assert len(report.incidents.resolved()) > 0
