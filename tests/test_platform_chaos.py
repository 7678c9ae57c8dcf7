"""Multi-job platform tests and a chaos (random fault sequence) test.

The chaos test is the strongest end-to-end invariant check in the
suite: random Table 1-distributed fault sequences are thrown at a fully
managed job, and afterwards the system must be live again, the books
must balance, and blacklisted machines must never have been reused.
"""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultSymptom
from repro.core.platform import JobSpec, TrainingPlatform
from repro.parallelism import ParallelismConfig
from repro.sim import RngStreams
from repro.training import JobState, TrainingJobConfig
from repro.training.model import ModelSpec
from repro.workloads.traces import IncidentTraceGenerator
from tests.test_system_integration import make_system


def tiny_job_config(machines=4):
    return TrainingJobConfig(
        model=ModelSpec("tiny", 10**9, 10**9, 4, seq_len=2048),
        parallelism=ParallelismConfig(tp=2, pp=2,
                                      dp=machines * 2 // 4,
                                      gpus_per_machine=2),
        global_batch_size=64, gpu_peak_tflops=100.0)


class TestTrainingPlatform:
    def test_two_jobs_share_one_fleet(self):
        platform = TrainingPlatform(total_machines=16)
        platform.submit(JobSpec("alpha", tiny_job_config()))
        platform.submit(JobSpec("beta", tiny_job_config()))
        platform.start()
        platform.run_until(2 * 3600)
        report = platform.fleet_report()
        assert set(report["jobs"]) == {"alpha", "beta"}
        for stats in report["jobs"].values():
            assert stats["state"] == "running"
            assert stats["final_step"] > 0
            assert stats["cumulative_ettr"] > 0.95

    def test_jobs_use_disjoint_machines(self):
        platform = TrainingPlatform(total_machines=16)
        a = platform.submit(JobSpec("alpha", tiny_job_config()))
        b = platform.submit(JobSpec("beta", tiny_job_config()))
        platform.start()
        assert not set(a.job.machines) & set(b.job.machines)

    def test_fault_on_one_job_leaves_other_untouched(self):
        from repro.cluster.faults import (
            Fault,
            RootCause,
            RootCauseDetail,
        )
        platform = TrainingPlatform(total_machines=16)
        a = platform.submit(JobSpec("alpha", tiny_job_config()))
        b = platform.submit(JobSpec("beta", tiny_job_config()))
        platform.start()
        victim = a.job.machines[0]
        platform.sim.schedule_at(600, lambda: platform.injector.inject(
            Fault(symptom=FaultSymptom.GPU_UNAVAILABLE,
                  root_cause=RootCause.INFRASTRUCTURE,
                  detail=RootCauseDetail.GPU_LOST, machine_ids=[victim],
                  log_signature="CUDA error: device unavailable",
                  exit_code=134)))
        platform.run_until(3 * 3600)
        assert len(a.incident_log.resolved()) == 1
        assert not b.incident_log.incidents       # beta never noticed
        assert a.job.state is JobState.RUNNING
        assert b.job.state is JobState.RUNNING

    def test_jobs_compete_for_shared_standbys(self):
        from repro.cluster.faults import (
            Fault,
            RootCause,
            RootCauseDetail,
        )
        platform = TrainingPlatform(total_machines=14)  # tight fleet
        a = platform.submit(JobSpec("alpha", tiny_job_config()))
        b = platform.submit(JobSpec("beta", tiny_job_config()))
        platform.start()
        for t, managed in ((600, a), (620, b)):
            platform.sim.schedule_at(t, lambda m=managed:
                                     platform.injector.inject(Fault(
                symptom=FaultSymptom.GPU_UNAVAILABLE,
                root_cause=RootCause.INFRASTRUCTURE,
                detail=RootCauseDetail.GPU_LOST,
                machine_ids=[m.job.machines[1]],
                log_signature="CUDA error: device unavailable",
                exit_code=134)))
        platform.run_until(4 * 3600)
        assert a.job.state is JobState.RUNNING
        assert b.job.state is JobState.RUNNING
        # both evictions were absorbed by the shared pool
        assert len(a.incident_log.resolved()) == 1
        assert len(b.incident_log.resolved()) == 1

    def test_duplicate_job_name_rejected(self):
        platform = TrainingPlatform(total_machines=16)
        platform.submit(JobSpec("alpha", tiny_job_config()))
        with pytest.raises(ValueError):
            platform.submit(JobSpec("alpha", tiny_job_config()))


class TestChaos:
    """Random fault storms must never wedge the system."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000),
           n_faults=st.integers(1, 5))
    def test_random_fault_storm_invariants(self, seed, n_faults):
        system = make_system(seed=seed, hang_window=120.0)
        gen = IncidentTraceGenerator(RngStreams(seed).fork("chaos"))
        # fire random faults at spaced times so each can be handled
        for i in range(n_faults):
            symptom = gen.sample_symptom()
            if symptom is FaultSymptom.CODE_DATA_ADJUSTMENT:
                continue
            t = 600.0 + i * 2400.0

            def fire(s=system, sym=symptom, g=gen):
                if s.job.state is not JobState.RUNNING:
                    return
                fault = g.make_fault(sym, s.job.machines)
                s.injector.inject(fault)

            system.sim.schedule_at(t, fire)
        horizon = 600.0 + n_faults * 2400.0 + 4 * 3600.0
        system.run_until(horizon)

        # --- invariants -------------------------------------------------
        # 1. the job is alive again (no permanent wedge)
        assert system.job.state is JobState.RUNNING
        # 2. ETTR is a valid ratio and training made real progress
        report = system.report()
        assert 0.0 < report.cumulative_ettr <= 1.0 + 1e-9
        assert report.final_step > 0
        # 3. no incident is stuck mid-recovery at the horizon
        from repro.core.incidents import IncidentPhase
        for inc in system.incident_log.incidents:
            assert inc.phase in (IncidentPhase.RESOLVED,
                                 IncidentPhase.DETECTED,
                                 IncidentPhase.LOCALIZING,
                                 IncidentPhase.RECOVERING,
                                 IncidentPhase.ESCALATED)
        # 4. the job never runs on a blacklisted machine, and it owns
        #    every machine it runs on
        for mid in system.job.machines:
            assert mid not in system.pool.blacklist
            assert system.pool.owners.get(mid) == system.controller.owner
        # 5. resolved incidents have consistent timelines
        for inc in system.incident_log.resolved():
            if inc.mechanism == "BatchSkip":
                continue
            assert inc.recovered_at >= inc.detected_at
            if inc.localized_at >= 0:
                assert inc.recovered_at >= inc.localized_at
