"""Unit tests for the training model: specs, metrics, stacks, job."""

import math

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
from repro.parallelism import ParallelismConfig, RankTopology
from repro.sim import Simulator
from repro.training import (
    JobState,
    LossCurve,
    MfuModel,
    TrainingJob,
    TrainingJobConfig,
    dense_70b,
    moe_200b,
)
from repro.training.metrics import CodeVersionProfile, mfu_relative_series
from repro.training.model import ModelSpec
from repro.training.recipe import standard_five_stage_recipe
from repro.training.stacks import (
    HangScenario,
    StackKind,
    capture_world,
    make_trace,
    propagate_hang,
)


class TestModelSpec:
    def test_dense_flops(self):
        m = dense_70b()
        assert m.flops_per_token() == pytest.approx(6 * 70e9)

    def test_moe_uses_activated_params(self):
        m = moe_200b()
        assert m.flops_per_token() < 6 * m.num_params
        assert m.flops_per_token() == pytest.approx(6 * m.activated_params)

    def test_flops_per_step(self):
        m = dense_70b(seq_len=4096)
        assert m.flops_per_step(8) == pytest.approx(6 * 70e9 * 8 * 4096)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("x", num_params=0, activated_params=1, num_layers=2)
        with pytest.raises(ValueError):
            ModelSpec("x", num_params=10, activated_params=20, num_layers=2)
        with pytest.raises(ValueError):
            dense_70b().flops_per_step(0)


class TestLossCurve:
    def test_monotone_decrease_on_average(self):
        curve = LossCurve(seed=1)
        assert curve.base(0) > curve.base(1000) > curve.base(100000)

    def test_deterministic_per_step(self):
        c1, c2 = LossCurve(seed=5), LossCurve(seed=5)
        assert c1.loss(123) == c2.loss(123)

    def test_different_seeds_differ(self):
        assert LossCurve(seed=1).loss(10) != LossCurve(seed=2).loss(10)

    def test_nan_flag(self):
        assert math.isnan(LossCurve().loss(10, nan=True))
        assert math.isnan(LossCurve().grad_norm(10, nan=True))

    def test_spike_factor(self):
        curve = LossCurve(noise_scale=0.0)
        assert curve.loss(10, spike_factor=5.0) == pytest.approx(
            5.0 * curve.loss(10))

    def test_rollback_replay_bitwise_identical(self):
        """Re-executing steps after a rollback reproduces losses exactly."""
        curve = LossCurve(seed=9)
        first = [curve.loss(s) for s in range(100, 120)]
        second = [curve.loss(s) for s in range(100, 120)]
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError):
            LossCurve(l0=1.0, l_inf=2.0)


class TestMfuModel:
    def test_base_and_degradation(self):
        m = MfuModel(CodeVersionProfile("v1", 0.40))
        assert m.current_mfu() == pytest.approx(0.40)
        m.set_degradation("thermal", 0.5)
        assert m.current_mfu() == pytest.approx(0.20)
        m.clear_degradation("thermal")
        assert m.current_mfu() == pytest.approx(0.40)

    def test_step_time(self):
        m = MfuModel(CodeVersionProfile("v1", 0.5))
        # 1e15 FLOPs over 2 GPUs at 500 TFLOP peak, 50% MFU -> 2 s
        assert m.step_time(1e15, 2, 500.0) == pytest.approx(2.0)

    def test_profile_upgrades_raise_mfu(self):
        m = MfuModel(CodeVersionProfile("v0", 0.3))
        m.set_profile(CodeVersionProfile("v1", 0.45))
        assert m.current_mfu() == pytest.approx(0.45)

    def test_validation(self):
        with pytest.raises(ValueError):
            CodeVersionProfile("v", 0.0)
        m = MfuModel()
        with pytest.raises(ValueError):
            m.set_degradation("x", 1.5)
        with pytest.raises(ValueError):
            m.step_time(1e12, 0, 100.0)

    def test_relative_series(self):
        assert mfu_relative_series([0.3, 0.45, 0.6]) == pytest.approx(
            [1.0, 1.5, 2.0])
        with pytest.raises(ValueError):
            mfu_relative_series([0.0, 0.1])

    def test_relative_series_ignores_nan_and_none(self):
        # NaN (NaN-fault steps) and None (gaps) are excluded from the
        # minimum but the series keeps its length/positions
        series = mfu_relative_series([0.3, float("nan"), 0.6])
        assert series[0] == pytest.approx(1.0)
        assert math.isnan(series[1])
        assert series[2] == pytest.approx(2.0)
        with_none = mfu_relative_series([None, 0.2, 0.4])
        assert with_none == [None, pytest.approx(1.0), pytest.approx(2.0)]

    def test_relative_series_no_finite_values(self):
        assert mfu_relative_series([]) == []
        assert mfu_relative_series([float("nan"), None]) == []

    def test_relative_series_negative_minimum_raises(self):
        with pytest.raises(ValueError):
            mfu_relative_series([-0.1, 0.3])

    def test_step_time_rejects_nonpositive_gpus(self):
        m = MfuModel(CodeVersionProfile("v1", 0.5))
        with pytest.raises(ValueError):
            m.step_time(1e12, 0, 100.0)
        with pytest.raises(ValueError):
            m.step_time(1e12, -8, 100.0)


class TestStackPropagation:
    def topo(self):
        return RankTopology(ParallelismConfig(
            tp=2, pp=4, dp=4, gpus_per_machine=2))

    def test_fig7_backward_comm_hang(self):
        """Machine 15 (ranks 30, 31, last stage) stalls in all-gather;
        machine 14 blocks in isend; machines 12-13 block in irecv;
        machines 0-11 drain to gradient sync."""
        topo = self.topo()
        states = propagate_hang(topo, [30, 31],
                                HangScenario.BACKWARD_COMM)
        assert states[30] is StackKind.TP_ALLGATHER_BLOCKED
        assert states[31] is StackKind.TP_ALLGATHER_BLOCKED
        # machine 14: ranks 28, 29 = stage 2 (immediately upstream)
        assert states[28] is StackKind.PP_SEND_BLOCKED
        assert states[29] is StackKind.PP_SEND_BLOCKED
        # machines 12-13: ranks 24-27 = stages 0-1
        for r in (24, 25, 26, 27):
            assert states[r] is StackKind.PP_RECV_BLOCKED
        # everyone else at grad sync
        for r in range(24):
            assert states[r] is StackKind.GRAD_SYNC_WAIT

    def test_outlier_count_matches_fig7(self):
        topo = self.topo()
        states = propagate_hang(topo, [30, 31])
        from collections import Counter
        sizes = Counter(states.values())
        assert sizes[StackKind.GRAD_SYNC_WAIT] == 24     # 12 machines
        assert sizes[StackKind.TP_ALLGATHER_BLOCKED] == 2
        assert sizes[StackKind.PP_SEND_BLOCKED] == 2
        assert sizes[StackKind.PP_RECV_BLOCKED] == 4

    def test_eval_p2p_hang(self):
        topo = self.topo()
        states = propagate_hang(topo, [26], HangScenario.EVAL_P2P)
        assert states[26] is StackKind.PP_RECV_BLOCKED
        for peer in topo.peers(26, "pp"):
            assert states[peer] is StackKind.PP_SEND_BLOCKED

    def test_dataloader_hang(self):
        topo = self.topo()
        states = propagate_hang(topo, [0], HangScenario.DATALOADER)
        assert states[0] is StackKind.DATALOADER_WAIT

    def test_requires_stalled_ranks(self):
        with pytest.raises(ValueError):
            propagate_hang(self.topo(), [])
        with pytest.raises(ValueError):
            propagate_hang(self.topo(), [99])

    def test_capture_world_renders_all_ranks(self):
        topo = self.topo()
        states = propagate_hang(topo, [30, 31])
        traces = capture_world(topo, None, states)
        assert len(traces) == 32
        assert traces[30].text().startswith("backward (my_megatron/large")

    def test_capture_world_with_machine_mapping(self):
        topo = self.topo()
        states = propagate_hang(topo, [30, 31])
        mapping = {slot: slot + 100 for slot in range(16)}
        traces = capture_world(topo, mapping, states)
        assert traces[0].machine_id == 100

    def test_trace_text_is_stable_aggregation_key(self):
        t1 = make_trace(0, 0, StackKind.GRAD_SYNC_WAIT)
        t2 = make_trace(5, 2, StackKind.GRAD_SYNC_WAIT)
        assert t1.text() == t2.text()


def small_job(sim, injector=None, gbs=64):
    config = TrainingJobConfig(
        model=ModelSpec("tiny", num_params=10**9, activated_params=10**9,
                        num_layers=4, seq_len=2048),
        parallelism=ParallelismConfig(tp=2, pp=2, dp=2, gpus_per_machine=2),
        global_batch_size=gbs,
        gpu_peak_tflops=100.0)
    job = TrainingJob(sim, config, injector=injector)
    job.bind_machines(list(range(4)))
    return job


class TestTrainingJob:
    def test_steps_complete_and_emit_metrics(self):
        sim = Simulator()
        job = small_job(sim)
        seen = []
        job.add_step_listener(seen.append)
        job.start()
        sim.run(until=job.step_time() * 3 + 1)
        assert job.current_step == 3
        assert [m.step for m in seen] == [1, 2, 3]
        assert seen[0].loss > seen[-1].loss or True  # noisy; sanity only
        assert all(m.duration_s > 0 for m in seen)

    def test_requires_machines_bound(self):
        sim = Simulator()
        config = TrainingJobConfig(
            model=ModelSpec("t", 10**9, 10**9, 4),
            parallelism=ParallelismConfig(tp=1, pp=1, dp=2,
                                          gpus_per_machine=2))
        job = TrainingJob(sim, config)
        with pytest.raises(RuntimeError):
            job.start()

    def test_machine_binding_roundtrip(self):
        sim = Simulator()
        job = small_job(sim)
        job.bind_machines([10, 11, 12, 13])
        assert job.machines == [10, 11, 12, 13]
        assert job.slot_of_machine(12) == 2
        assert job.ranks_of_machine(12) == [4, 5]
        assert job.uses_machine(13)
        assert not job.uses_machine(99)

    def test_replace_machines(self):
        sim = Simulator()
        job = small_job(sim)
        job.replace_machines({2: 42})
        assert job.machines == [0, 1, 42, 3]
        with pytest.raises(ValueError):
            job.replace_machines({999: 1})

    def test_crash_fault_stops_job_with_log(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4,
                                      machines_per_switch=4))
        inj = FaultInjector(sim, cluster)
        job = small_job(sim, injector=inj)
        job.start()
        step = job.step_time()
        sim.schedule(step * 1.5, lambda: inj.inject(Fault(
            symptom=FaultSymptom.CUDA_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HBM_FAULT, machine_ids=[1],
            log_signature="CUDA error: an illegal memory access",
            exit_code=134)))
        sim.run(until=step * 5)
        assert job.state is JobState.CRASHED
        assert job.current_step == 1          # step 2 never completed
        assert job.last_crash is not None
        assert "illegal memory access" in job.last_crash.message
        assert job.last_crash.exit_code == 134
        assert job.last_crash.machine_ids == [1]

    def test_hang_fault_stalls_without_logs(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4, machines_per_switch=4))
        inj = FaultInjector(sim, cluster)
        job = small_job(sim, injector=inj)
        job.start()
        step = job.step_time()
        sim.schedule(step * 1.2, lambda: inj.inject(Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.DEFECTIVE_CUDA_CORES, machine_ids=[3],
            effect=JobEffect.HANG)))
        sim.run(until=step * 10)
        assert job.state is JobState.HUNG
        assert job.current_step == 1
        assert job.last_crash is None          # hangs emit nothing
        assert job.stalled_ranks == [6, 7]
        assert job.hang_scenario is HangScenario.EVAL_P2P

    def test_hang_rdma_drains_to_zero(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4, machines_per_switch=4))
        inj = FaultInjector(sim, cluster)
        job = small_job(sim, injector=inj)
        job.start()
        assert job.rdma_traffic_frac() == pytest.approx(1.0)
        inj.inject(Fault(symptom=FaultSymptom.JOB_HANG,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.UFM_FAULT,
                         effect=JobEffect.HANG))
        sim.run(until=job.config.hang_drain_s + 5)
        assert job.rdma_traffic_frac() == 0.0
        assert job.tensorcore_util_frac() == 0.0

    def test_slow_fault_degrades_mfu_and_clears(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4, machines_per_switch=4))
        inj = FaultInjector(sim, cluster)
        job = small_job(sim, injector=inj)
        job.start()
        base = job.mfu_model.current_mfu()
        fault = inj.inject(Fault(
            symptom=FaultSymptom.MFU_DECLINE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HIGH_TEMPERATURE, machine_ids=[0],
            effect=JobEffect.SLOW))
        assert job.mfu_model.current_mfu() < base
        inj.clear(fault)
        assert job.mfu_model.current_mfu() == pytest.approx(base)

    def test_nan_fault_emits_nan_loss(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4, machines_per_switch=4))
        inj = FaultInjector(sim, cluster)
        job = small_job(sim, injector=inj)
        seen = []
        job.add_step_listener(seen.append)
        job.start()
        inj.inject(Fault(symptom=FaultSymptom.NAN_VALUE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_SDC, machine_ids=[2],
                         effect=JobEffect.NAN))
        sim.run(until=job.step_time() * 2.5)
        assert job.state is JobState.RUNNING   # NaN jobs keep "running"
        assert math.isnan(seen[-1].loss)

    def test_fault_on_other_machines_ignored(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=8, machines_per_switch=8))
        inj = FaultInjector(sim, cluster)
        job = small_job(sim, injector=inj)   # uses machines 0-3
        job.start()
        inj.inject(Fault(symptom=FaultSymptom.CUDA_ERROR,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_HBM_FAULT,
                         machine_ids=[7]))
        sim.run(until=job.step_time() * 2.5)
        assert job.state is JobState.RUNNING

    def test_suspend_and_restart_with_rollback(self):
        sim = Simulator()
        job = small_job(sim)
        job.start()
        step = job.step_time()
        sim.run(until=step * 5 + 0.1)
        assert job.current_step == 5
        job.suspend()
        assert job.state is JobState.STOPPED
        job.restart(from_step=3)
        assert job.current_step == 3
        # steps 4 and 5 are now uncommitted waste
        uncommitted = [r.step for r in job.step_records if not r.committed]
        assert uncommitted == [4, 5]
        assert job.wasted_step_seconds() == pytest.approx(2 * step)
        sim.run(until=sim.now + step * 2 + 0.1)
        assert job.current_step == 5

    def test_restart_with_replacement_machines(self):
        sim = Simulator()
        job = small_job(sim)
        job.start()
        sim.run(until=job.step_time() + 0.1)
        job.suspend()
        job.restart(from_step=1, replacements={3: 77})
        assert job.machines == [0, 1, 2, 77]
        assert job.state is JobState.RUNNING

    def test_loss_series_replay_overlap(self):
        """Fig. 2: rolled-back re-runs retrace the same loss values."""
        sim = Simulator()
        job = small_job(sim)
        job.start()
        step = job.step_time()
        sim.run(until=step * 6 + 0.1)
        losses_first = {r.step: job.loss_curve.loss(r.step)
                        for r in job.step_records}
        job.suspend()
        job.restart(from_step=2)
        sim.run(until=sim.now + step * 4 + 0.1)
        for step in [s for r in job.step_runs if r.committed
                     for s in r.steps]:
            assert job.loss_curve.loss(step) == losses_first[step]


class TestRecipe:
    def test_standard_recipe_fractions_sum(self):
        recipe = standard_five_stage_recipe()
        assert sum(s.step_fraction for s in recipe.stages) == pytest.approx(1)

    def test_stage_at_progress(self):
        recipe = standard_five_stage_recipe()
        assert recipe.stage_at(0.0).name == "warmup"
        assert recipe.stage_at(0.3).name == "general"
        assert recipe.stage_at(1.0).name == "anneal"

    def test_stage_boundaries_cover_all_steps(self):
        recipe = standard_five_stage_recipe()
        bounds = recipe.stage_boundaries(10000)
        assert bounds[0][1] == 0
        assert bounds[-1][2] == 9999

    def test_long_context_stage_has_long_seqlen(self):
        recipe = standard_five_stage_recipe()
        stage = next(s for s in recipe.stages if s.name == "long_context")
        assert stage.seq_len == 262144

    def test_validation(self):
        from repro.training.recipe import PretrainRecipe, RecipeStage
        with pytest.raises(ValueError):
            PretrainRecipe(stages=[])
        with pytest.raises(ValueError):
            PretrainRecipe(stages=[
                RecipeStage("a", 0.5, 8192), RecipeStage("b", 0.3, 8192)])
        with pytest.raises(ValueError):
            standard_five_stage_recipe().stage_at(1.5)


class TestActiveJobFaults:
    """The indexed blast-radius query equals testing every active
    fault, in injection order."""

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["machine", "switch", "service", "both", "clear",
                         "rebind", "replace"]),
        st.integers(0, 2**16)), max_size=40))
    def test_index_matches_the_full_filter(self, ops):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=16,
                                      machines_per_switch=4))
        inj = FaultInjector(sim, cluster)
        job = small_job(sim, injector=inj)
        faults = []
        for op, draw in ops:
            if op == "clear":
                if faults:
                    inj.clear(faults.pop(draw % len(faults)))
            elif op == "rebind":
                job.bind_machines([(draw + 3 * i) % 16 for i in range(4)])
            elif op == "replace":
                old = job.machines[draw % 4]
                new = draw % 16
                if new not in job.machines:
                    job.replace_machines({old: new})
            else:
                fault = Fault(
                    symptom=FaultSymptom.CUDA_ERROR,
                    root_cause=RootCause.INFRASTRUCTURE,
                    detail=RootCauseDetail.GPU_HBM_FAULT,
                    effect=JobEffect.NONE,
                    machine_ids=([draw % 16] if op in ("machine", "both")
                                 else []),
                    switch_id=(draw % 4 if op in ("switch", "both")
                               else None))
                faults.append(inj.inject(fault))
            full = [f for f in inj.active_faults.values()
                    if job._fault_touches_job(f)]
            assert job._active_job_faults() == full
