"""Fleet control plane: scheduler, dynamic platform, fleet scenarios.

Three layers under test:

* :class:`~repro.cluster.scheduler.FleetScheduler` mechanism —
  admission, priority order, backfill, completion-driven dispatch,
  asynchronous capacity pickup;
* the dynamic :class:`~repro.core.platform.TrainingPlatform` —
  ``submit()`` at any sim time, planned completions returning
  machines, standby-shortfall accounting, and the single-job facade
  as a one-job platform;
* the registered ``fleet-*`` scenarios — property-tested (hypothesis)
  to produce JSON-round-trip-stable payloads that are byte-identical
  at any sweep worker count, the PR 3 cache-equality invariant.
"""

import inspect
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, MachinePool
from repro.cluster.scheduler import AdmissionError, FleetScheduler
from repro.core.incidents import IncidentLog
from repro.core.platform import (
    HandleState,
    JobHandle,
    JobSpec,
    PlatformConfig,
    TrainingPlatform,
)
from repro.experiments import SweepRunner, SweepSpec, get_scenario
from repro.sim import Simulator
from repro.training import JobState
from repro.workloads.fleet import (
    FleetTraceGenerator,
    fleet_job_config,
)
from repro.sim import RngStreams


def make_scheduler(machines=8, backfill=True):
    sim = Simulator()
    cluster = Cluster(ClusterSpec(num_machines=machines,
                                  machines_per_switch=machines))
    pool = MachinePool(sim, cluster)
    started = []
    sched = FleetScheduler(
        sim, pool,
        start=lambda req, mids: started.append((req.name, list(mids))),
        backfill=backfill)
    return sim, pool, sched, started


class TestFleetScheduler:
    def test_fitting_job_starts_immediately(self):
        sim, pool, sched, started = make_scheduler()
        req = sched.submit("a", 4)
        assert started == [("a", [0, 1, 2, 3])]
        assert req.started_at == 0.0
        assert sched.running["a"] is req

    def test_admission_rejects_oversized_requests(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        with pytest.raises(AdmissionError):
            sched.submit("whale", 9)
        assert sched.stats["rejected"] == 1
        assert not started

    def test_queueing_and_completion_dispatch(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6)
        sched.submit("b", 6)
        assert [n for n, _ in started] == ["a"]
        assert sched.queued_names() == ["b"]
        # completion returns machines (platform's job) then dispatches
        pool.release(sorted(pool.active))
        sched.complete("a")
        assert [n for n, _ in started] == ["a", "b"]
        assert not sched.queue

    def test_priority_order_within_queue(self):
        sim, pool, sched, started = make_scheduler(machines=8,
                                                   backfill=False)
        sched.submit("big", 8)
        sched.submit("low", 4, priority=0)
        sched.submit("high", 4, priority=5)
        assert sched.queued_names() == ["high", "low"]
        pool.release(sorted(pool.active))
        sched.complete("big")
        assert [n for n, _ in started] == ["big", "high", "low"]

    def test_backfill_lets_small_jobs_pass_blocked_head(self):
        # open-ended jobs (no durations): the head's reservation is
        # uncomputable, so backfill falls back to aggressive mode
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6)
        sched.submit("head", 6, priority=9)   # blocked: only 2 free
        sched.submit("small", 2)              # fits in the gap
        assert [n for n, _ in started] == ["a", "small"]
        assert sched.stats["backfilled"] == 1
        assert sched.queued_names() == ["head"]

    def test_easy_reservation_protects_blocked_head(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6, duration_s=1000.0)
        sched.submit("head", 8, priority=9)   # reserved for t=1000
        # would hold its machines past the reservation with no spare
        # capacity at the reserved start: must NOT delay the head
        sched.submit("slowpoke", 2, duration_s=5000.0)
        assert [n for n, _ in started] == ["a"]
        # finishes before the reservation: free to backfill
        sched.submit("quick", 2, duration_s=500.0)
        assert [n for n, _ in started] == ["a", "quick"]
        assert sched.stats["backfilled"] == 1
        assert sched.queued_names() == ["head", "slowpoke"]

    def test_backfill_may_use_spare_capacity_past_reservation(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6, duration_s=1000.0)
        sched.submit("head", 6, priority=9)   # reserved t=1000, spare 2
        # runs long, but inside the 2 machines the head leaves unused
        sched.submit("long-small", 2, duration_s=9000.0)
        assert [n for n, _ in started] == ["a", "long-small"]
        assert sched.queued_names() == ["head"]

    def test_no_backfill_preserves_strict_order(self):
        sim, pool, sched, started = make_scheduler(machines=8,
                                                   backfill=False)
        sched.submit("a", 6)
        sched.submit("head", 6, priority=9)
        sched.submit("small", 2)
        assert [n for n, _ in started] == ["a"]
        assert sched.queued_names() == ["head", "small"]

    def test_retry_picks_up_asynchronously_freed_capacity(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 8)
        sched.submit("b", 4)
        assert len(started) == 1
        # machines freed outside complete() (e.g. finished repair):
        # the armed retry timer must notice without an explicit poke
        pool.release(sorted(pool.active)[:4])
        sim.run(until=sched.retry_interval_s + 1.0)
        assert [n for n, _ in started] == ["a", "b"]

    def test_complete_unknown_job_raises(self):
        sim, pool, sched, started = make_scheduler()
        with pytest.raises(KeyError):
            sched.complete("ghost")


class TestHeadReservation:
    """Edge cases of the EASY reservation itself (the dispatch tests
    above only exercise it indirectly through backfill decisions)."""

    def test_reservation_walks_planned_completions(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6, duration_s=1000.0)
        # head needs 8: 2 free now + 6 released at t=1000
        assert sched._head_reservation(8) == (1000.0, 0)

    def test_reservation_reports_spare_capacity(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6, duration_s=1000.0)
        # head of 6 is covered at t=1000 with 2 machines to spare
        assert sched._head_reservation(6) == (1000.0, 2)

    def test_immediate_reservation_when_capacity_already_there(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 4, duration_s=1000.0)
        # a standalone query for a fitting need is an *immediate*
        # reservation, not an uncomputable one
        assert sched._head_reservation(3) == (0.0, 1)

    def test_uncomputable_with_open_ended_running_jobs(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6)                     # open-ended
        assert sched._head_reservation(8) == (None, 0)

    def test_uncomputable_when_planned_releases_fall_short(self):
        sim, pool, sched, started = make_scheduler(machines=10)
        sched.submit("a", 4, duration_s=1000.0)
        sched.submit("b", 4)                     # open-ended
        # only a's 4 machines have a planned release: 2 free + 4 < 10
        assert sched._head_reservation(10) == (None, 0)

    def test_zero_duration_running_job_reserves_at_now(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6, duration_s=0.0)
        # planned_end == started_at: the release is due immediately,
        # and a zero duration must not be treated as "no duration"
        assert sched._head_reservation(8) == (0.0, 0)

    def test_zero_duration_backfill_candidate_passes_head(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6, duration_s=1000.0)
        sched.submit("head", 8, priority=9)      # reserved for t=1000
        sched.submit("instant", 2, duration_s=0.0)
        # duration 0 is falsy but known: it finishes before the
        # reservation and must backfill, not be mistaken for
        # open-ended (which could delay the head)
        assert [n for n, _ in started] == ["a", "instant"]
        assert sched.stats["backfilled"] == 1

    def test_candidate_finishing_exactly_at_reservation_backfills(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6, duration_s=1000.0)
        sched.submit("head", 8, priority=9)      # reserved t=1000, 0 spare
        sched.submit("exact", 2, duration_s=1000.0)
        # now + 1000 <= reserved 1000: the boundary is inclusive
        assert [n for n, _ in started] == ["a", "exact"]

    def test_candidate_overrunning_reservation_stays_queued(self):
        sim, pool, sched, started = make_scheduler(machines=8)
        sched.submit("a", 6, duration_s=1000.0)
        sched.submit("head", 8, priority=9)
        sched.submit("late", 2, duration_s=1000.1)
        assert [n for n, _ in started] == ["a"]
        assert sched.queued_names() == ["head", "late"]

    def test_aggressive_fallback_at_the_uncomputable_boundary(self):
        # same shape as the reservation case, but one open-ended
        # running job makes the reservation uncomputable: backfill
        # falls back to aggressive and the long candidate starts
        sim, pool, sched, started = make_scheduler(machines=10)
        sched.submit("a", 4, duration_s=1000.0)
        sched.submit("b", 4)                     # open-ended
        sched.submit("head", 10, priority=9)
        sched.submit("long", 2, duration_s=10_000.0)
        assert [n for n, _ in started] == ["a", "b", "long"]
        assert sched.stats["backfilled"] == 1


class TestMachinePoolRelease:
    def test_release_returns_active_machines_to_free(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4,
                                      machines_per_switch=4))
        pool = MachinePool(sim, cluster)
        mids = pool.allocate_active(3, "job")
        pool.release(mids[:2])
        assert pool.counts()["active"] == 1
        assert pool.counts()["free"] == 3
        for mid in mids[:2]:
            assert mid in pool.free and mid not in pool.active

    def test_release_rejects_non_active_machines(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4,
                                      machines_per_switch=4))
        pool = MachinePool(sim, cluster)
        with pytest.raises(ValueError):
            pool.release([0])


class TestDynamicPlatform:
    def test_submit_after_start_runs_when_capacity_frees(self):
        platform = TrainingPlatform(total_machines=8)
        platform.submit(JobSpec("first", fleet_job_config(6)))
        platform.start()
        # mid-sim arrival that cannot fit until `first` completes
        def arrive():
            managed = platform.submit(JobSpec(
                "second", fleet_job_config(6), duration_s=3600.0))
            assert managed.queued
        platform.sim.schedule_at(600.0, arrive)
        platform.sim.schedule_at(
            1200.0,
            lambda: platform._complete(platform.jobs["first"]))
        platform.run_until(4 * 3600.0)
        second = platform.jobs["second"]
        assert second.completed
        assert second.started_at >= 1200.0
        assert platform.jobs["first"].completed
        report = platform.fleet_report()
        assert report["jobs_completed"] == 2
        assert report["jobs"]["second"]["wait_s"] > 0

    def test_completed_job_returns_machines_to_pool(self):
        platform = TrainingPlatform(total_machines=8)
        platform.submit(JobSpec("a", fleet_job_config(4), duration_s=1800.0))
        platform.start()
        platform.run_until(3600.0)
        managed = platform.jobs["a"]
        assert managed.completed
        assert managed.job.state is JobState.STOPPED
        counts = platform.pool.counts()
        assert counts["active"] == 0
        # the standby floor may hold one machine; the rest are free
        assert counts["free"] + counts["standby"] \
            + counts["provisioning"] == 8

    def test_completed_jobs_leave_the_fault_feed(self):
        """Teardown unsubscribes a job from the injector: only jobs
        that have not completed stay on the fault feed."""
        platform = TrainingPlatform(total_machines=8)
        platform.submit(JobSpec("short", fleet_job_config(2),
                                duration_s=1800.0))
        platform.submit(JobSpec("long", fleet_job_config(2)))
        platform.start()
        platform.sim.schedule_at(2400.0, lambda: platform.submit(JobSpec(
            "late", fleet_job_config(2), duration_s=1800.0)))
        platform.sim.schedule_at(3000.0, lambda: platform.submit(JobSpec(
            "queued", fleet_job_config(8))))
        platform.run_until(3 * 3600.0)
        live = [m for m in platform.jobs.values() if not m.completed]
        assert [m.name for m in live] == ["long", "queued"]
        assert len(platform.injector._listeners) == len(live)

    def test_standby_shortfall_recorded_not_dropped(self):
        # job takes the whole fleet: zero machines left for standbys
        platform = TrainingPlatform(total_machines=4)
        platform.submit(JobSpec("greedy", fleet_job_config(4)))
        platform.start()
        platform.run_until(600.0)
        report = platform.fleet_report()
        standby = report["standby"]
        assert standby["target"] >= 1
        assert standby["provisioned"] == 0
        assert standby["shortfall"] == standby["target"]

    def test_facade_is_a_one_job_platform(self):
        from repro.core.byterobust import ByteRobustSystem, SystemConfig

        config = SystemConfig(job=fleet_job_config(4))
        system = ByteRobustSystem(config)
        [handle] = system.platform.jobs.values()
        assert handle.stack is system.stack
        assert system.controller is handle.controller
        system.start()
        name = config.job.model.name
        assert handle.state is HandleState.RUNNING
        assert system.pool.owners == {mid: name
                                      for mid in system.job.machines}
        assert (system.pool.standby_count
                + len(system.pool.provisioning)
                == config.standby.standby_count(system.job.num_machines))
        with pytest.raises(RuntimeError):
            system.start()

    def test_bitwise_alignment_follows_use_real_minigpt(self):
        from repro.core.byterobust import ByteRobustSystem, SystemConfig
        from repro.diagnosis.minigpt import MiniGptAlignmentTest
        from repro.diagnosis.suites import BitwiseAlignmentTest

        def bitwise(config=None):
            platform = TrainingPlatform(total_machines=4, config=config)
            handle = platform.submit(JobSpec("a", fleet_job_config(2)))
            return handle.stack.diagnoser.bitwise

        system = ByteRobustSystem(SystemConfig(job=fleet_job_config(2)))
        assert isinstance(system.diagnoser.bitwise, MiniGptAlignmentTest)
        assert isinstance(bitwise(), BitwiseAlignmentTest)
        assert isinstance(bitwise(PlatformConfig(use_real_minigpt=True)),
                          MiniGptAlignmentTest)

    def test_submitted_jobs_may_overcommit_and_queue(self):
        platform = TrainingPlatform(total_machines=6)
        platform.submit(JobSpec("a", fleet_job_config(4)))
        platform.submit(JobSpec("b", fleet_job_config(4)))
        platform.start()     # no raise: b just queues
        assert platform.jobs["a"].running
        assert platform.jobs["b"].queued

    def test_start_dispatches_prestart_batch_in_priority_order(self):
        platform = TrainingPlatform(total_machines=6)
        platform.submit(JobSpec("low", fleet_job_config(4), priority=0))
        platform.submit(JobSpec("high", fleet_job_config(4), priority=5))
        platform.start()
        # submission order must not beat priority within the batch
        assert platform.jobs["high"].running
        assert platform.jobs["low"].queued

    def test_admission_error_for_oversized_submit(self):
        platform = TrainingPlatform(total_machines=4)
        with pytest.raises(AdmissionError):
            platform.submit(JobSpec("whale", fleet_job_config(8)))
        # the rejection is the scheduler's call, so it shows up in the
        # scheduler stats every fleet report publishes
        assert platform.scheduler.stats["rejected"] == 1
        assert "whale" not in platform.jobs


def make_preempting_scheduler(machines=8, preemption="checkpoint",
                              elastic=False):
    """Scheduler with recording preempt/resize callbacks: the tests
    play the owner, acknowledging via preempted()/resized() by hand."""
    sim = Simulator()
    cluster = Cluster(ClusterSpec(num_machines=machines,
                                  machines_per_switch=machines))
    pool = MachinePool(sim, cluster)
    started, preempts, resizes = [], [], []
    allocated = {}

    def start(req, mids):
        started.append((req.name, list(mids)))
        allocated[req.name] = list(mids)

    sched = FleetScheduler(
        sim, pool, start=start,
        preemption=preemption,
        preempt=((lambda req: preempts.append(req.name))
                 if preemption != "none" else None),
        resize=((lambda req, n: resizes.append((req.name, n)))
                if elastic else None))
    return sim, pool, sched, started, preempts, resizes, allocated


class TestSchedulerPreemption:
    def test_blocked_head_preempts_newest_lowest_priority(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler()
        sched.submit("low1", 4)
        sched.submit("low2", 4)
        sched.submit("high", 4, priority=5)
        # victim order: lowest priority first, newest first within the
        # class — low2 (higher seq) goes, low1 keeps running
        assert preempts == ["low2"]
        # owner acknowledgement: machines back, then preempted()
        pool.release(alloc["low2"])
        sched.preempted("low2", remaining_s=600.0)
        assert [n for n, _ in started] == ["low1", "low2", "high"]
        assert sched.queued_names() == ["low2"]
        assert sched.stats["preempted"] == 1
        request = next(r for r in sched.queue if r.name == "low2")
        assert request.preemptions == 1
        assert request.was_preempted
        assert request.duration_s == 600.0

    def test_resume_counts_when_preempted_job_redispatches(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler()
        sched.submit("low", 8)
        sched.submit("high", 4, priority=5, duration_s=300.0)
        pool.release(alloc["low"])
        sched.preempted("low", remaining_s=900.0)
        # high started on 4 of the 8 released machines; low resumes
        # as soon as capacity covers it again
        pool.release(alloc["high"])
        sched.complete("high")
        assert [n for n, _ in started] == ["low", "high", "low"]
        assert sched.stats["resumed"] == 1
        assert not sched.running["low"].was_preempted

    def test_non_preemptible_victims_are_exempt(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler()
        sched.submit("low1", 4)
        sched.submit("low2", 4, preemptible=False)
        sched.submit("high", 4, priority=5)
        # low2 would be first in victim order but opted out
        assert preempts == ["low1"]

    def test_equal_priority_never_preempts(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler()
        sched.submit("a", 8)
        sched.submit("b", 8)          # same priority: waits its turn
        assert preempts == []
        assert sched.queued_names() == ["b"]

    def test_partial_plans_do_not_churn_victims(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler()
        sched.submit("low1", 4)
        sched.submit("low2", 4, preemptible=False)
        sched.submit("high", 8, priority=9)
        # preempting low1 alone frees 4 of the needed 8: executing
        # the partial plan would stop work without starting the head
        assert preempts == []
        assert not sched._pending_release

    def test_in_flight_release_suppresses_second_plan(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler()
        sched.submit("low1", 4)
        sched.submit("low2", 4)
        sched.note_preempting("low2")     # spot reclaim in flight
        sched.submit("high", 4, priority=5)
        # low2's machines are already promised back: planning another
        # victim on top would over-preempt
        assert preempts == []

    def test_shrink_preferred_over_preemption(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler(elastic=True)
        sched.submit("low", 8, min_machines=4)
        sched.submit("high", 4, priority=5)
        # the elastic victim covers the shortfall above its floor:
        # cheaper than preempting (no progress lost)
        assert resizes == [("low", 4)]
        assert preempts == []
        pool.release(alloc["low"][4:])
        sched.resized("low", 4)
        assert [n for n, _ in started] == ["low", "high"]
        assert sched.stats["shrunk"] == 1
        assert sched.running["low"].num_machines == 4

    def test_free_capacity_grows_elastic_jobs(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler(elastic=True)
        sched.submit("low", 4, max_machines=8)
        # queue empty + 4 free machines: growth toward the ceiling
        assert resizes == [("low", 8)]
        pool.allocate_active(4, "low")
        sched.resized("low", 8)
        assert sched.stats["grown"] == 1
        assert sched.running["low"].num_machines == 8

    def test_resize_abort_clears_in_flight_marks(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler(elastic=True)
        sched.submit("low", 4, max_machines=8)
        assert resizes == [("low", 8)]
        sched.resize_aborted("low")
        assert "low" not in sched._resizing
        assert "low" not in sched._pending_release
        # the next dispatch may plan the same growth again
        sched.dispatch()
        assert resizes == [("low", 8), ("low", 8)]

    def test_elastic_bounds_validated_at_admission(self):
        sim, pool, sched, started, preempts, resizes, alloc = \
            make_preempting_scheduler(elastic=True)
        with pytest.raises(AdmissionError):
            sched.submit("a", 4, min_machines=5)
        with pytest.raises(AdmissionError):
            sched.submit("b", 4, max_machines=3)
        with pytest.raises(AdmissionError):
            sched.submit("c", 4, max_machines=9)

    def test_unknown_preemption_policy_rejected(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4,
                                      machines_per_switch=4))
        pool = MachinePool(sim, cluster)
        with pytest.raises(ValueError):
            FleetScheduler(sim, pool, start=lambda r, m: None,
                           preemption="polite-request")

    def test_unknown_policy_is_a_scenario_error_at_build_time(self):
        # the CLI turns ScenarioError into a clean exit-2 one-liner,
        # so scenario builders must reject the knob before the
        # scheduler constructor tracebacks on it
        from repro.experiments import ScenarioError, get_scenario

        with pytest.raises(ScenarioError,
                           match="unknown preemption policy"):
            get_scenario("fleet-preemption").build(
                preemption="polite-request")


class TestJobSpecAPI:
    def test_double_specification_rejected(self):
        spec = JobSpec(name="a", job_config=fleet_job_config(4))
        with pytest.raises(TypeError):
            TrainingPlatform(total_machines=8).submit(
                spec, fleet_job_config(4))

    def test_name_without_config_raises(self):
        platform = TrainingPlatform(total_machines=8)
        with pytest.raises(TypeError, match="takes a JobSpec"):
            platform.submit("a")
        assert not platform.jobs

    def test_job_config_type_checked(self):
        with pytest.raises(TypeError):
            JobSpec(name="a", job_config="not-a-config")

    def test_submit_returns_live_handle(self):
        platform = TrainingPlatform(total_machines=8)
        handle = platform.submit(JobSpec(name="a",
                                         job_config=fleet_job_config(4)))
        assert isinstance(handle, JobHandle)
        assert handle.state is HandleState.QUEUED
        assert [e["event"] for e in handle.events] == ["submitted"]
        platform.start()
        assert handle.state is HandleState.RUNNING
        assert [e["event"] for e in handle.events] == ["submitted",
                                                       "started"]

    def test_duplicate_name_rejected(self):
        platform = TrainingPlatform(total_machines=8)
        platform.submit(JobSpec(name="a", job_config=fleet_job_config(2)))
        with pytest.raises(ValueError, match="duplicate"):
            platform.submit(JobSpec(name="a",
                                    job_config=fleet_job_config(2)))


class TestOneIntake:
    """``submit(JobSpec)`` is the platform's only intake, and a spec is
    admitted in full before anything is built or registered."""

    def test_submit_takes_exactly_one_spec(self):
        params = inspect.signature(TrainingPlatform.submit).parameters
        assert list(params) == ["self", "spec"]

    def test_rejected_submit_leaves_no_phantom_job(self):
        platform = TrainingPlatform(total_machines=8)
        platform.start()
        listeners = len(platform.injector._listeners)
        submitted = platform.scheduler.stats["submitted"]
        with pytest.raises(AdmissionError, match="min_machines"):
            platform.submit(JobSpec("bad", fleet_job_config(4),
                                    min_machines=10))
        assert "bad" not in platform.jobs
        assert not platform.scheduler.queue
        assert "bad" not in platform.fleet_report()["jobs"]
        assert platform.scheduler.stats["submitted"] == submitted
        assert platform.scheduler.stats["rejected"] == 1
        assert len(platform.injector._listeners) == listeners
        # the rejected name stays free for a valid spec
        assert platform.submit(JobSpec("bad", fleet_job_config(4))).running

    def test_bad_bounds_rejected_at_submit_not_at_start(self):
        platform = TrainingPlatform(total_machines=8)
        platform.submit(JobSpec("ok", fleet_job_config(4)))
        with pytest.raises(AdmissionError, match="max_machines"):
            platform.submit(JobSpec("bad", fleet_job_config(4),
                                    max_machines=2))
        platform.start()
        assert platform.jobs["ok"].running
        assert "bad" not in platform.jobs

    @pytest.mark.parametrize("duration_s", [-5.0, float("nan"),
                                            float("inf")])
    def test_bad_duration_rejected(self, duration_s):
        with pytest.raises(ValueError, match="duration_s"):
            JobSpec("a", fleet_job_config(4), duration_s=duration_s)

    def test_zero_and_open_ended_durations_accepted(self):
        assert JobSpec("a", fleet_job_config(4), duration_s=0.0)
        assert JobSpec("a", fleet_job_config(4), duration_s=None)


class TestPlatformPreemption:
    def _platform(self, **kwargs):
        defaults = dict(preemption="checkpoint", checkpoint=True)
        defaults.update(kwargs)
        return TrainingPlatform(total_machines=8,
                                config=PlatformConfig(**defaults))

    def test_checkpoint_preemption_wastes_nothing(self):
        platform = self._platform()
        low = platform.submit(JobSpec(name="low",
                                      job_config=fleet_job_config(8),
                                      duration_s=6 * 3600.0))
        platform.start()
        platform.sim.schedule_at(
            1200.0,
            lambda: platform.submit(JobSpec(
                name="hi", job_config=fleet_job_config(4), priority=5,
                duration_s=1800.0)))
        platform.run_until(4 * 3600.0)
        hi = platform.jobs["hi"]
        assert hi.completed
        # drained at the next step boundary: the head waited well under
        # the kill-and-restart alternative's full recovery
        assert hi.wait_seconds < 300.0
        assert low.preemptions == 1
        assert low.resumes == 1
        # boundary + every-step checkpoint: no progress discarded
        assert low.wasted_machine_seconds == 0.0
        assert low.resume_step > 0
        # the resume continued from the checkpoint, never re-ran it
        assert low.job.current_step >= low.resume_step
        events = [e["event"] for e in low.events]
        assert events[:2] == ["submitted", "started"]
        for expected in ("preempt_requested", "preempted", "resumed"):
            assert expected in events
        assert events.index("preempted") < events.index("resumed")

    def test_preempted_state_while_queued(self):
        platform = self._platform()
        low = platform.submit(JobSpec(name="low",
                                      job_config=fleet_job_config(8),
                                      duration_s=6 * 3600.0))
        platform.start()
        seen = {}
        def arrive():
            platform.submit(JobSpec(name="hi",
                                    job_config=fleet_job_config(8),
                                    priority=5, duration_s=3600.0))
        def probe():
            seen["state"] = low.state
            seen["running"] = low.running
        platform.sim.schedule_at(1200.0, arrive)
        # hi needs the whole fleet for an hour: at t=2000 low is
        # parked on the queue, holding no machines
        platform.sim.schedule_at(2000.0, probe)
        platform.run_until(3000.0)
        assert seen["state"] is HandleState.PREEMPTED
        assert seen["running"] is False

    def test_kill_preemption_pays_wasted_work(self):
        platform = self._platform(preemption="kill")
        low = platform.submit(JobSpec(name="low",
                                      job_config=fleet_job_config(8),
                                      duration_s=6 * 3600.0))
        platform.start()
        platform.sim.schedule_at(
            1200.0,
            lambda: platform.submit(JobSpec(
                name="hi", job_config=fleet_job_config(4), priority=5,
                duration_s=1800.0)))
        platform.run_until(4 * 3600.0)
        # killed mid-run: everything past the last *remote* checkpoint
        # (cadence 100 steps, not yet reached at t=1200) is re-run
        assert low.preemptions == 1
        assert low.wasted_machine_seconds > 0.0
        assert low.resume_step == 0

    def test_preempt_job_spot_reclaim_surface(self):
        platform = self._platform()
        platform.submit(JobSpec(name="low",
                                job_config=fleet_job_config(4),
                                duration_s=6 * 3600.0))
        platform.submit(JobSpec(name="pinned",
                                job_config=fleet_job_config(2),
                                duration_s=6 * 3600.0,
                                preemptible=False))
        platform.start()
        platform.run_until(600.0)
        assert platform.preempt_job("low") is True
        assert platform.preempt_job("low") is False    # already in flight
        assert platform.preempt_job("pinned") is False  # opted out
        assert platform.preempt_job("ghost") is False
        platform.run_until(1200.0)
        assert platform.jobs["low"].preemptions == 1

    def test_preempt_job_disabled_without_policy(self):
        platform = TrainingPlatform(total_machines=8)
        platform.submit(JobSpec(name="a", job_config=fleet_job_config(4),
                                duration_s=3600.0))
        platform.start()
        assert platform.preempt_job("a") is False

    def test_elastic_shrink_then_grow_at_boundaries(self):
        platform = self._platform()
        el = platform.submit(JobSpec(name="el",
                                     job_config=fleet_job_config(8),
                                     min_machines=4, max_machines=8,
                                     duration_s=8 * 3600.0))
        platform.start()
        platform.sim.schedule_at(
            1200.0,
            lambda: platform.submit(JobSpec(
                name="hi", job_config=fleet_job_config(4), priority=5,
                duration_s=1800.0)))
        platform.run_until(4 * 3600.0)
        assert platform.jobs["hi"].completed
        # shrunk to its floor for hi, grown back once hi finished
        assert el.preemptions == 0
        assert [(e["from"], e["to"]) for e in el.resize_events] \
            == [(8, 4), (4, 8)]
        assert el.job.num_machines == 8
        # dp-resharding keeps all progress: resumes from the boundary
        assert el.wasted_machine_seconds == 0.0
        events = [e["event"] for e in el.events]
        assert events.count("resize_requested") == 2
        assert events.count("resized") == 2
        assert platform.scheduler.stats["shrunk"] == 1
        assert platform.scheduler.stats["grown"] == 1


class TestIncidentLogTruthiness:
    def test_empty_log_is_truthy(self):
        log = IncidentLog()
        assert len(log) == 0
        assert bool(log) is True
        assert (log or None) is log


class TestFleetTraceGenerator:
    def test_arrivals_deterministic_and_admissible(self):
        gen1 = FleetTraceGenerator(RngStreams(7).fork("fleet-arrivals"))
        gen2 = FleetTraceGenerator(RngStreams(7).fork("fleet-arrivals"))
        a1 = gen1.arrivals(86400.0, 3600.0, max_machines=8,
                           initial_jobs=2)
        a2 = gen2.arrivals(86400.0, 3600.0, max_machines=8,
                           initial_jobs=2)
        assert a1 == a2
        assert sum(1 for s in a1 if s.submit_at == 0.0) >= 2
        for spec in a1:
            assert 1 <= spec.num_machines <= 8
            assert spec.duration_s >= 1800.0
            assert 0.0 <= spec.submit_at < 86400.0

    def test_invalid_rates_rejected(self):
        gen = FleetTraceGenerator(RngStreams(0))
        with pytest.raises(ValueError):
            gen.arrivals(86400.0, 0.0, max_machines=8)


# ----------------------------------------------------------------------
# property tests: the PR 3 cache-equality invariant for fleet payloads
# ----------------------------------------------------------------------

#: Small-but-real fleet windows (seconds) that keep hypothesis fast.
FLEET_PARAMS = {"total_machines": 8, "duration_s": 6 * 3600.0,
                "arrival_mean_s": 1800.0, "fault_mtbf_s": 3600.0,
                "initial_jobs": 2}

SETTINGS = dict(max_examples=5, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_fleet(name, seed):
    scenario = get_scenario(name).build(seed=seed, **FLEET_PARAMS)
    return scenario.run().to_dict()


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**16),
       name=st.sampled_from(["fleet-week", "fleet-standby-contention",
                             "fleet-priority-mix"]))
def test_fleet_report_roundtrips_and_is_deterministic(seed, name):
    first = run_fleet(name, seed)
    # JSON round-trip stability: what the cache writes is what any
    # later sweep reads back, bit for bit
    assert json.loads(json.dumps(first)) == first
    # determinism: an independent build with the same seed produces
    # the identical payload
    second = run_fleet(name, seed)
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)


@settings(**SETTINGS)
@given(base_seed=st.integers(0, 2**16),
       workers=st.sampled_from([2, 3]))
def test_fleet_sweep_identical_at_any_worker_count(base_seed, workers):
    spec = SweepSpec("fleet-standby-contention",
                     params=dict(FLEET_PARAMS),
                     grid={"fault_mtbf_s": [1800.0, 7200.0]},
                     base_seed=base_seed)
    inline = SweepRunner(workers=1).run(spec)
    fanned = SweepRunner(workers=workers).run(spec)
    assert json.dumps(inline.to_dict(), sort_keys=True) \
        == json.dumps(fanned.to_dict(), sort_keys=True)


#: The lifecycle fields PR 10 added to every job payload (cache
#: schema 4) — their presence is part of the round-trip contract.
LIFECYCLE_FIELDS = {"lifecycle_state", "preemptions", "resumes",
                    "resize_events", "wasted_machine_seconds"}


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**16),
       name=st.sampled_from(["fleet-preemption", "fleet-spot-churn",
                             "fleet-elastic-training"]))
def test_lifecycle_scenarios_roundtrip_and_deterministic(seed, name):
    first = run_fleet(name, seed)
    assert json.loads(json.dumps(first)) == first
    second = run_fleet(name, seed)
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)
    for payload in first["jobs"].values():
        assert LIFECYCLE_FIELDS <= set(payload)
        assert payload["lifecycle_state"] in (
            "queued", "running", "preempted", "resizing", "done")
        assert payload["wasted_machine_seconds"] >= 0.0


@settings(**SETTINGS)
@given(base_seed=st.integers(0, 2**16),
       workers=st.sampled_from([2, 3]))
def test_preemption_sweep_identical_at_any_worker_count(base_seed,
                                                        workers):
    # the preemption/kill/none comparison itself is the benchmark
    # driver's business; here only the cache-equality invariant —
    # fan-out must not perturb a payload full of lifecycle events
    spec = SweepSpec("fleet-preemption",
                     params=dict(FLEET_PARAMS),
                     grid={"preemption": ["kill", "checkpoint"]},
                     base_seed=base_seed)
    inline = SweepRunner(workers=1).run(spec)
    fanned = SweepRunner(workers=workers).run(spec)
    assert json.dumps(inline.to_dict(), sort_keys=True) \
        == json.dumps(fanned.to_dict(), sort_keys=True)


def test_lifecycle_api_exported_from_core():
    # the lifecycle types are the platform's public face — they ship
    # from the package root, not just the submodule
    import repro.core as core

    assert core.JobSpec is JobSpec
    assert core.JobHandle is JobHandle
    assert core.HandleState is HandleState
    assert core.TrainingPlatform is TrainingPlatform
    assert core.PlatformConfig is PlatformConfig
    for name in ("JobSpec", "JobHandle", "HandleState",
                 "TrainingPlatform", "PlatformConfig"):
        assert name in core.__all__
