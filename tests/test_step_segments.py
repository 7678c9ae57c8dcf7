"""Training steps advance in lazy segments on one step chain per job:
tie order, the one-chain rule and the every-step oracle.

A running job schedules heap entries only for steps some listener must
see on time; every other step is committed in bulk when something reads
or perturbs the job.  These tests pin what that must not change:

* *tie order* — steps of lockstep jobs that complete at one instant run
  in the order the jobs started, and an event landing exactly on a
  step's completion time sees that step done or not as the per-step
  heap order had it;
* *one chain* — a restart supersedes the step in flight, also when it
  runs inside a step's own listeners (an elastic resize at a step
  boundary, a boundary preemption whose dispatch resumes the job): the
  job keeps one chain of live entries, and its step records are
  time-ordered, non-overlapping and of positive duration;
* *the every-step oracle* — a run with one extra plain per-step
  listener (which makes every step an acting step) produces the same
  step records, anomalies, recovery decisions and report payloads as
  the same run without it;
* *the run history* — a job keeps its steps as runs: the C-level fold
  of step ends is the sequential chain of additions, a split run and
  its per-step durations expand to the records they stand for, and an
  undisturbed job holds one run and no per-step record objects.
"""

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ettr import EttrTracker
from repro.core.platform import JobSpec, PlatformConfig, TrainingPlatform
from repro.parallelism import ParallelismConfig
from repro.sim import Simulator
from repro.training import JobState, TrainingJob, TrainingJobConfig
from repro.training.job import StepRecord, StepRun, fold_ends
from repro.training.metrics import BLOCK_STEPS
from repro.training.model import ModelSpec
from repro.workloads.fleet import fleet_job_config


def small_job(sim):
    config = TrainingJobConfig(
        model=ModelSpec("tiny", num_params=10**9, activated_params=10**9,
                        num_layers=4, seq_len=2048),
        parallelism=ParallelismConfig(tp=2, pp=2, dp=2, gpus_per_machine=2),
        global_batch_size=64, gpu_peak_tflops=100.0)
    job = TrainingJob(sim, config)
    job.bind_machines(list(range(4)))
    return job


class TestTieOrder:
    def test_tied_boundary_preemptions_run_in_start_order(self):
        platform = TrainingPlatform(total_machines=8, config=PlatformConfig(
            preemption="checkpoint", checkpoint=True))
        for name in ("a", "b"):
            platform.submit(JobSpec(name, fleet_job_config(4),
                                    duration_s=6 * 3600.0))
        order = []
        record = platform._record

        def spy(managed, event):
            order.append((managed.name, event, platform.sim.now))
            record(managed, event)

        platform._record = spy
        platform.start()
        platform.run_until(600.0)
        a, b = platform.jobs["a"].job, platform.jobs["b"].job
        # dispatched together with equal step times: lockstep
        assert a.step_time() == b.step_time()
        assert a.step_records[-1].end == b.step_records[-1].end
        # newest first, as the scheduler orders preemption victims
        victims = [r.name for r in platform.scheduler._victims()]
        assert victims == ["b", "a"]
        for name in victims:
            assert platform.preempt_job(name)
        platform.run_until(1200.0)
        preempted = [(name, t) for name, event, t in order
                     if event == "preempted"]
        assert [name for name, _t in preempted] == ["a", "b"]
        assert preempted[0][1] == preempted[1][1]      # one instant
        assert platform.jobs["a"].resume_step == \
            platform.jobs["b"].resume_step

    @pytest.mark.parametrize("scheduled_before_start", [True, False])
    def test_suspend_at_a_completion_instant(self, scheduled_before_start):
        """An event scheduled before the job started sorts before every
        step entry of that start and loses the step; one scheduled
        after the previous step completed sorts after it and keeps it."""
        sim = Simulator()
        job = small_job(sim)
        step = job.step_time()
        ends = [0.0]
        for _ in range(4):
            ends.append(ends[-1] + step)
        at = ends[3]
        if scheduled_before_start:
            sim.schedule_at(at, job.suspend)
            job.start()
        else:
            job.start()
            sim.run(until=(ends[2] + ends[3]) / 2)
            assert job.current_step == 2
            sim.schedule_at(at, job.suspend)
        sim.run(until=ends[4] + 1.0)
        assert job.current_step == (2 if scheduled_before_start else 3)
        assert [r.end for r in job.step_records] == \
            ends[1:job.current_step + 1]


# ----------------------------------------------------------------------
# one chain per job
# ----------------------------------------------------------------------

def _live_step_entries(job):
    return [entry for entry in job.sim._queue
            if entry[3] is not None and entry[3] == job._complete_step]


def _chains_after(platform, event):
    """How many chains the job's live step entries belong to, counted
    once the dispatch that records ``event`` has returned (at the same
    instant; a re-plan's superseded entry still waits there)."""
    counts = []
    record = platform._record

    def spy(managed, name):
        record(managed, name)
        if name == event:
            platform.sim.schedule(0.0, lambda: counts.append(len(
                {seq for _t, _p, seq, _cb in
                 _live_step_entries(managed.job)})))

    platform._record = spy
    return counts


def _assert_one_chain(job):
    """One live step entry, and step records that are contiguous and
    of positive duration (every restart here lands on a step end)."""
    assert len(_live_step_entries(job)) == 1
    records = job.step_records
    assert all(r.end > r.start for r in records)
    assert all(b.start == a.end for a, b in zip(records, records[1:]))
    assert [r.step for r in records] == list(range(1, len(records) + 1))


class TestOneChain:
    """A restart inside a step's own listeners supersedes the firing
    chain instead of stepping beside it."""

    def test_resize_at_a_step_boundary(self):
        platform = TrainingPlatform(total_machines=8, config=PlatformConfig(
            preemption="checkpoint", checkpoint=True))
        a = platform.submit(JobSpec("a", fleet_job_config(4),
                                    min_machines=2, max_machines=8))
        platform.submit(JobSpec("b", fleet_job_config(4),
                                duration_s=600.0))
        counts = _chains_after(platform, "resized")
        platform.start()
        platform.run_until(1800.0)
        # b's completion freed four machines; a grew into them at the
        # next step boundary, restarting from that step
        (resize,) = platform.jobs["a"].resize_events
        assert (resize["from"], resize["to"]) == (4, 8)
        assert counts == [1]
        _assert_one_chain(a.job)
        assert a.job.current_step > resize["step"]

    def test_preemption_resumed_by_its_own_dispatch(self):
        platform = TrainingPlatform(total_machines=4, config=PlatformConfig(
            preemption="checkpoint", checkpoint=True))
        a = platform.submit(JobSpec("a", fleet_job_config(4)))
        counts = _chains_after(platform, "preempted")
        platform.start()
        platform.run_until(600.0)
        assert platform.preempt_job("a")
        platform.run_until(1800.0)
        # nothing else is queued: the dispatch that re-queued the job
        # at its boundary started it again at once
        managed = platform.jobs["a"]
        assert managed.preemptions == 1
        assert managed.job.state is JobState.RUNNING
        assert counts == [1]
        _assert_one_chain(a.job)
        assert a.job.current_step > managed.resume_step


# ----------------------------------------------------------------------
# the every-step oracle
# ----------------------------------------------------------------------

ACTIONS = ("crash", "hang", "slow", "nan", "tolerated", "service", "mfu",
           "hot_update", "spike", "rollback0", "plan", "preempt",
           "pressure")
#: rollbacks to a step inside the history, which split the run they cut
SPLITS = ("rollback",)
HORIZON = 12_000.0


def _fault(rng, effect, machine, **kw):
    from repro.cluster.faults import (
        Fault, FaultSymptom, JobEffect, RootCause, RootCauseDetail)

    detail, symptom = {
        JobEffect.CRASH: (RootCauseDetail.GPU_LOST,
                          FaultSymptom.GPU_UNAVAILABLE),
        JobEffect.HANG: (RootCauseDetail.DEFECTIVE_CUDA_CORES,
                         FaultSymptom.JOB_HANG),
        JobEffect.SLOW: (RootCauseDetail.PCIE_DEGRADED,
                         FaultSymptom.MFU_DECLINE),
        JobEffect.NAN: (RootCauseDetail.GPU_SDC, FaultSymptom.NAN_VALUE),
        JobEffect.NONE: (RootCauseDetail.GPU_HIGH_TEMPERATURE,
                         FaultSymptom.MFU_DECLINE),
    }[effect]
    return Fault(symptom=symptom, root_cause=RootCause.INFRASTRUCTURE,
                 detail=detail, machine_ids=[machine], effect=effect,
                 log_signature="CUDA error: device unavailable",
                 exit_code=134, **kw)


def _scripted(seed, actions, facade, every_step, kill=False):
    """A one-job facade or a two-job platform (preempting at a step
    boundary, or with ``kill`` on the spot) under ``actions`` at seeded
    random times; returns everything a run reports."""
    import json

    import numpy as np

    from repro import ByteRobustSystem, SystemConfig
    from repro.cluster.faults import (
        Fault, FaultSymptom, JobEffect, RootCause, RootCauseDetail)
    from repro.controller import CodeUpdate
    from repro.monitor.detectors import DetectorConfig
    from repro.training.metrics import CodeVersionProfile

    rng = np.random.default_rng(seed)
    detector = DetectorConfig(hang_zero_rdma_s=120.0,
                              mfu_decline_window_s=60.0)
    # ~2 s steps: a run crosses a 4096-step loss-noise block
    config = fleet_job_config(4, step_time_factor=0.05)
    if facade:
        system = ByteRobustSystem(SystemConfig(
            job=config, seed=seed, use_real_minigpt=False,
            detector=detector))
        platform = system.platform
        handles = list(platform.jobs.values())
    else:
        platform = TrainingPlatform(total_machines=16, config=PlatformConfig(
            seed=seed, machines_per_switch=4, checkpoint=True,
            preemption="kill" if kill else "checkpoint",
            detector=detector))
        handles = [
            platform.submit(JobSpec("a", config, min_machines=2,
                                    max_machines=4)),
            platform.submit(JobSpec("b", fleet_job_config(
                2, step_time_factor=0.05))),
        ]
    anomalies, decisions = [], []
    for handle in handles:
        handle.detector.add_listener(
            lambda e, n=handle.name: anomalies.append(
                (n, e.time, e.kind.value, e.detail, tuple(e.machine_ids))))
        if every_step:
            handle.job.add_step_listener(lambda metrics: None)
    platform.start()
    sim = platform.sim

    def act(action, handle):
        job, ckpt = handle.job, handle.stack.ckpt_manager
        machine = job.machines[int(rng.integers(len(job.machines)))]
        effects = {"crash": JobEffect.CRASH, "hang": JobEffect.HANG,
                   "nan": JobEffect.NAN, "tolerated": JobEffect.NONE}
        if action in effects:
            platform.injector.inject(_fault(rng, effects[action], machine))
        elif action == "slow":
            platform.injector.inject(_fault(
                rng, JobEffect.SLOW, machine, transient=True,
                auto_recover_after=float(rng.uniform(15, 300))))
        elif action == "service":
            platform.injector.inject(Fault(
                symptom=FaultSymptom.HDFS_ERROR,
                root_cause=RootCause.INFRASTRUCTURE,
                detail=RootCauseDetail.STORAGE_SERVICE_FAULT,
                log_signature="HDFS write failed", transient=True,
                auto_recover_after=60.0))
        elif action == "mfu":
            job.mfu_model.set_degradation("thermal",
                                          float(rng.uniform(0.5, 0.95)))
            sim.schedule(float(rng.uniform(5, 400)),
                         lambda: job.mfu_model.clear_degradation("thermal"))
        elif action == "hot_update":
            handle.controller.request_manual_update(CodeUpdate(
                version=f"v{int(rng.integers(1, 99))}", critical=True,
                profile=CodeVersionProfile("v1", float(
                    rng.uniform(0.31, 0.45)))))
        elif action == "spike":
            job.loss_spike_factor = float(rng.uniform(1.5, 9.0))
        elif action == "rollback0":
            job.suspend()
            job.restart(from_step=0)
            if ckpt is not None:
                ckpt.after_recovery(0)
        elif action == "rollback":
            # back to a step inside the history: splits the run it cuts
            job.suspend()
            step = int(rng.integers(job.current_step + 1))
            decisions.append((handle.name, sim.now, "rollback", step,
                              job.current_step))
            job.restart(from_step=step)
            if ckpt is not None:
                ckpt.after_recovery(step)
        elif action == "plan" and ckpt is not None:
            d = ckpt.plan_recovery([machine])
            decisions.append((handle.name, sim.now, d.restart_step,
                              d.source.value, d.load_seconds, d.lost_steps))
        elif action == "preempt":
            platform.preempt_job(handle.name)
        elif action == "pressure" and not facade:
            platform.submit(JobSpec(f"hi{sim.now:.0f}", fleet_job_config(
                12, step_time_factor=0.05), priority=5,
                duration_s=float(rng.uniform(100, 2000))))

    for action in actions:
        handle = handles[int(rng.integers(len(handles)))]
        sim.schedule_at(float(rng.uniform(50, HORIZON)),
                        lambda a=action, h=handle: (
                            h.job.machines and act(a, h)))
    events = sim.run(until=HORIZON)
    report = (system.report().to_dict() if facade
              else platform.fleet_report())
    steps = {h.name: [(r.step, r.start, r.end, r.committed)
                      for r in h.job.step_records]
             for h in platform.jobs.values()}
    for records in steps.values():
        # one chain per job: time-ordered, non-overlapping, and every
        # step takes time
        assert all(start < end for _s, start, end, _c in records)
        assert all(b[1] >= a[2] for a, b in zip(records, records[1:]))
    # what the readers take from the runs: productive intervals, waste
    # (the job's and, on the platform, the preemptions')
    tracker = EttrTracker()
    steps["readers"] = {h.name: (
        tracker.productive_intervals(h.job.step_runs),
        h.job.wasted_step_seconds(), h.wasted_machine_seconds)
        for h in platform.jobs.values()}
    # what the next step would be judged and restored against
    state = {h.name: (h.detector._loss_history, None
                      if h.stack.ckpt_manager is None else (
                          [(s.local_step, s.backup_step) for s in
                           h.stack.ckpt_manager.slot_states.values()],
                          h.stack.ckpt_manager.remote_step))
             for h in platform.jobs.values()}
    return (steps, anomalies, decisions, json.dumps(report, sort_keys=True),
            state), events


class TestEveryStepOracle:
    """An extra plain per-step listener turns every step into an acting
    step; nothing any run reports may change."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16),
           actions=st.lists(st.sampled_from(ACTIONS + SPLITS), max_size=8),
           facade=st.booleans(), kill=st.booleans())
    def test_lazy_run_matches_every_step_run(self, seed, actions, facade,
                                             kill):
        lazy, lazy_events = _scripted(seed, actions, facade, False, kill)
        eager, eager_events = _scripted(seed, actions, facade, True, kill)
        assert lazy == eager
        # the oracle is not vacuous: the lazy run skipped most steps
        assert lazy_events < eager_events

    @pytest.mark.parametrize("facade", [True, False])
    def test_every_action_at_once(self, facade):
        import json

        lazy, lazy_events = _scripted(12, ACTIONS * 2, facade, False)
        eager, eager_events = _scripted(12, ACTIONS * 2, facade, True)
        assert lazy == eager
        assert lazy_events < eager_events
        kinds = {kind for _n, _t, kind, _d, _m in lazy[1]}
        assert {"nan_metric", "loss_spike", "hang_suspect",
                "crash_with_machines", "mfu_decline"} <= kinds
        assert lazy[2], "no recovery decision was planned"
        if not facade:
            jobs = json.loads(lazy[3])["jobs"]
            assert sum(j["preemptions"] for j in jobs.values()) > 0
            assert sum(len(j["resize_events"]) for j in jobs.values()) > 0

    def test_kill_preemptions_waste_the_same_steps(self):
        import json

        lazy, lazy_events = _scripted(12, ACTIONS * 2, False, False, True)
        eager, eager_events = _scripted(12, ACTIONS * 2, False, True, True)
        assert lazy == eager
        assert lazy_events < eager_events
        jobs = json.loads(lazy[3])["jobs"]
        assert sum(j["preemptions"] for j in jobs.values()) > 0
        # a kill wastes the steps past the resume point
        assert sum(j["wasted_machine_seconds"] for j in jobs.values()) > 0

    @pytest.mark.parametrize("facade", [True, False])
    def test_rollbacks_that_split_runs(self, facade):
        actions = ACTIONS * 2 + SPLITS * 4
        lazy, lazy_events = _scripted(12, actions, facade, False)
        eager, eager_events = _scripted(12, actions, facade, True)
        assert lazy == eager
        assert lazy_events < eager_events
        # some rollback went back to a step inside the history
        assert any(0 < d[3] < d[4] for d in lazy[2] if d[2] == "rollback")


# ----------------------------------------------------------------------
# the run history
# ----------------------------------------------------------------------

def _chain_of_additions(end, duration, count):
    ends = [end]
    for _ in range(count - 1):
        ends.append(ends[-1] + duration)
    return ends


def _records_alive():
    gc.collect()
    return sum(isinstance(o, StepRecord) for o in gc.get_objects())


class TestRunHistory:
    @settings(max_examples=200, deadline=None)
    @given(end=st.floats(0.0, 1e8), duration=st.floats(1e-6, 1e4),
           count=st.integers(1, BLOCK_STEPS + 1))
    def test_fold_is_the_sequential_chain(self, end, duration, count):
        ends = fold_ends(end, duration, count).tolist()
        assert ends == _chain_of_additions(end, duration, count)
        assert all(type(e) is float for e in ends)

    @settings(max_examples=100, deadline=None)
    @given(start=st.floats(0.0, 1e7), first_span=st.floats(1e-3, 1e3),
           duration=st.floats(1e-3, 1e3), first=st.integers(1, 10**6),
           count=st.integers(1, 500), data=st.data())
    def test_split_and_durations_expand_to_the_records(
            self, start, first_span, duration, first, count, data):
        """A run stands for the records of a per-step chain whose first
        step kept its own end; splitting it and summing its durations
        past any step read the same values in the same order."""
        ends = _chain_of_additions(start + first_span, duration, count)
        run = StepRun(first, count, start, ends[0], duration, ends[-1])
        records = [(r.step, r.start, r.end, r.committed)
                   for r in run.records()]
        assert records == [(first + i, ([start] + ends)[i], ends[i], True)
                           for i in range(count)]
        after = data.draw(st.integers(first - 2, first + count))
        assert run.durations(after) == [e - b for s, b, e, _c in records
                                        if s > after]
        if count > 1:
            cut = data.draw(st.integers(first, first + count - 2))
            rest = run.split(cut)
            assert (run.last, rest.first, rest.last) == (cut, cut + 1,
                                                        first + count - 1)
            assert [(r.step, r.start, r.end) for r in
                    run.records() + rest.records()] == \
                [r[:3] for r in records]

    def test_rollback_splits_the_run_it_cuts(self):
        sim = Simulator()
        job = small_job(sim)
        job.start()
        step = job.step_time()
        sim.run(until=step * 10 + 0.1)
        before = [(r.step, r.start, r.end) for r in job.step_records]
        assert len(job.step_runs) == 1
        job.suspend()
        job.restart(from_step=6)
        assert [(r.first, r.last, r.committed) for r in job.step_runs] == \
            [(1, 6, True), (7, 10, False)]
        assert [(r.step, r.start, r.end) for r in job.step_records] == before
        assert job.wasted_step_seconds() == sum(
            e - b for s, b, e in before if s > 6)

    def test_kill_preemption_wastes_the_steps_past_its_resume_point(self):
        platform = TrainingPlatform(total_machines=4, config=PlatformConfig(
            preemption="kill", checkpoint=True,
            remote_checkpoint_every_steps=10))
        a = platform.submit(JobSpec("a", fleet_job_config(
            4, step_time_factor=0.05)))
        platform.start()
        platform.run_until(3600.0)
        records = a.job.step_records
        assert platform.preempt_job("a")
        platform.run_until(3601.0)
        # resumed from the remote tier, inside the run it then splits
        assert 0 < a.resume_step < records[-1].step
        assert [(r.first, r.last, r.committed) for r in a.job.step_runs] \
            == [(1, a.resume_step, True),
                (a.resume_step + 1, records[-1].step, False)]
        assert a.wasted_machine_seconds == a.job.num_machines * sum(
            r.end - r.start for r in records
            if r.step > a.resume_step and r.committed)

    def test_undisturbed_job_holds_one_run_and_no_records(self):
        alive = _records_alive()
        sim = Simulator()
        job = small_job(sim)
        job.start()
        sim.run(until=job.step_time() * (3 * BLOCK_STEPS + 100))
        assert job.current_step > 3 * BLOCK_STEPS
        (run,) = job.step_runs
        assert (run.first, run.last) == (1, job.current_step)
        assert _records_alive() == alive
        records = job.step_records
        assert len(records) == job.current_step
        assert _records_alive() == alive + len(records)
