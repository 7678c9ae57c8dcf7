"""Fleet-scale workloads: job churn over a shared platform.

The paper's census is fleet-level — 778,135 jobs over three months
(Table 1) sharing machines and one warm-standby reserve — and most of
those jobs are small: the headline 9.6k-GPU pretrains coexist with a
long tail of few-machine finetunes and ablations.
:class:`FleetTraceGenerator` samples that mix (sizes from a weighted
bucket mix, durations exponential with a size-dependent mean, Poisson
arrivals) into a concrete submission schedule, and
:class:`FleetScenario` drives it through the dynamic
:class:`~repro.core.platform.TrainingPlatform`: jobs arrive at any
simulated time, queue when the fleet is full, backfill/priority-jump
through the :class:`~repro.cluster.scheduler.FleetScheduler`, complete
and hand their machines to whoever waits — while a fleet-wide Poisson
fault process (Table 1 symptom mix) keeps every job's controller busy
and every eviction competing for the shared standbys.

The resulting :class:`FleetReport` payload is a flat-at-the-top,
JSON-round-trip-stable dict (string keys, native scalars, no enums)
so fleet scenarios sweep, cache, resume, and render exactly like every
other registered scenario.

Registered scenarios: ``fleet-week`` (a compressed week of ordinary
churn), ``fleet-standby-contention`` (fault storm on a tight fleet —
the regime P99 standby sizing is for), ``fleet-priority-mix``
(priority classes + backfill under queueing pressure),
``fleet-placement-blast-radius`` (leaf-switch faults vs pack/spread
placement — how many jobs one downed switch kills),
``fleet-elastic-standby`` (periodic warm-pool resizing tracking the
active fleet instead of the one-shot sizing at start),
``fleet-preemption`` (checkpoint-boundary preemption vs kill vs none
under a priority mix), ``fleet-spot-churn`` (capacity arrives and
leaves like spot instances, reclaiming idle machines first and
preempting running jobs when that is not enough) and
``fleet-elastic-training`` (jobs declaring ``(min, max)`` machine
bounds that the scheduler shrinks/grows at checkpoint boundaries).

Every ``fleet-*`` scenario takes a ``checkpoint_interval_s`` param:
0 disables the checkpoint engine (the historical behaviour); a
positive value builds every job's stack with checkpointing enabled
and a remote-persist cadence of about that many seconds of training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

from repro.cluster.faults import (
    Fault,
    FaultSymptom,
    JobEffect,
    MachineHazardProcess,
    RootCause,
    RootCauseDetail,
)
from repro.core.platform import JobSpec, PlatformConfig, TrainingPlatform
from repro.experiments.registry import (
    ParamSpec,
    ScenarioError,
    register_scenario,
)
from repro.monitor.collectors import CollectorConfig
from repro.monitor.detectors import DetectorConfig
from repro.monitor.inspections import InspectionConfig
from repro.parallelism import ParallelismConfig
from repro.sim import RngStreams
from repro.training.job import JobState, TrainingJobConfig
from repro.training.model import ModelSpec
from repro.workloads.traces import IncidentTraceGenerator

#: Fleet job-size mix (machines, weight): a long tail of small jobs
#: under a few large ones, the shape behind Table 1's 778k-job census.
FLEET_SIZE_MIX: List[tuple] = [
    (1, 0.50), (2, 0.24), (4, 0.15), (8, 0.08), (16, 0.03)]

#: Mid-size-heavy mix for placement studies: 1-machine jobs span one
#: switch under any policy, so the blast-radius scenario samples the
#: multi-switch-capable part of the census where pack vs spread can
#: actually differ.
PLACEMENT_STUDY_SIZE_MIX: List[tuple] = [
    (2, 0.25), (4, 0.35), (8, 0.25), (16, 0.15)]

#: 100k-GPU flagship mix (``fleet-quarter``): the census shape again,
#: but over a 12.5k-machine fleet the "small" end starts at 8 machines
#: and the headline pretrains reach 1024 (≈8k GPUs) — sub-switch jobs
#: would leave a quarter of the fleet idle at any sane arrival rate.
QUARTER_SIZE_MIX: List[tuple] = [
    (8, 0.35), (16, 0.22), (32, 0.16), (64, 0.12),
    (128, 0.08), (256, 0.04), (512, 0.02), (1024, 0.01)]

#: Mean job duration at 1 machine; larger jobs run longer (pretrains
#: vs finetunes), scaling with a gentle power of the size.
_BASE_DURATION_S = 6 * 3600.0
_DURATION_SIZE_EXP = 0.5
_MIN_DURATION_S = 1800.0


@dataclass(frozen=True)
class FleetJobSpec:
    """One sampled job: when it arrives and what it asks for."""

    name: str
    submit_at: float
    num_machines: int
    duration_s: float
    priority: int = 0
    #: elastic size bounds (None/None = fixed-size job)
    min_machines: Optional[int] = None
    max_machines: Optional[int] = None


def fleet_job_config(num_machines: int,
                     params_per_machine: float = 14e9,
                     step_time_factor: float = 1.0
                     ) -> TrainingJobConfig:
    """A fleet-churn job shape: tp=2, pp=1, dp = machine count at
    2 GPUs/machine (valid from one machine up).

    The model grows with the machine count — people size jobs to their
    models — which keeps the simulated step time roughly constant
    (~45 s) at every scale, so a week of fleet churn stays a tractable
    event stream rather than an event storm of sub-second steps from
    large jobs on a small model.  ``step_time_factor`` scales that
    baseline: the 90-day ``fleet-quarter`` runs bigger models per
    machine (step ≈ ``45 * factor`` seconds), which is what keeps a
    quarter of fleet churn at a few hundred thousand step events
    instead of several million.
    """
    params = int(params_per_machine * step_time_factor * num_machines)
    return TrainingJobConfig(
        model=ModelSpec(f"fleet-{num_machines}m", params, params, 16,
                        seq_len=2048),
        parallelism=ParallelismConfig(tp=2, pp=1, dp=num_machines,
                                      gpus_per_machine=2),
        global_batch_size=64, gpu_peak_tflops=400.0)


class FleetTraceGenerator:
    """Samples the fleet's job-size/duration mix into arrivals."""

    def __init__(self, rng: RngStreams,
                 size_mix: Optional[List[tuple]] = None,
                 base_duration_s: float = _BASE_DURATION_S,
                 duration_size_exp: float = _DURATION_SIZE_EXP):
        self.size_mix = list(size_mix or FLEET_SIZE_MIX)
        total = sum(w for _, w in self.size_mix)
        self._sizes = [s for s, _ in self.size_mix]
        self._weights = [w / total for _, w in self.size_mix]
        self.base_duration_s = base_duration_s
        self.duration_size_exp = duration_size_exp
        self._rng = rng.get("fleet-trace")

    def sample_size(self) -> int:
        idx = self._rng.choice(len(self._sizes), p=self._weights)
        return int(self._sizes[int(idx)])

    def sample_duration(self, num_machines: int) -> float:
        mean = self.base_duration_s * (
            num_machines ** self.duration_size_exp)
        return max(_MIN_DURATION_S, float(self._rng.exponential(mean)))

    def arrivals(self, duration_s: float, arrival_mean_s: float,
                 max_machines: int,
                 high_priority_frac: float = 0.0,
                 high_priority: int = 10,
                 initial_jobs: int = 0,
                 elastic_frac: float = 0.0) -> List[FleetJobSpec]:
        """A full submission schedule over ``[0, duration_s)``.

        ``initial_jobs`` are submitted at t=0 (the fleet is never
        empty at the start of the window); the rest arrive Poisson
        with mean ``arrival_mean_s``.  Sizes are clipped to the
        cluster so every request passes admission.  With
        ``elastic_frac`` > 0, that fraction of jobs declares elastic
        bounds (half to double the sampled size, clipped) — the draw
        is skipped entirely at 0 so existing traces stay
        byte-identical.
        """
        if arrival_mean_s <= 0 or duration_s <= 0:
            raise ValueError("durations must be positive")
        specs: List[FleetJobSpec] = []
        t = 0.0
        index = 0
        while True:
            if index < initial_jobs:
                submit_at = 0.0
            else:
                t += float(self._rng.exponential(arrival_mean_s))
                if t >= duration_s:
                    break
                submit_at = t
            size = min(self.sample_size(), max_machines)
            priority = (high_priority
                        if float(self._rng.random()) < high_priority_frac
                        else 0)
            min_m = max_m = None
            if (elastic_frac > 0
                    and float(self._rng.random()) < elastic_frac):
                min_m = max(1, size // 2)
                max_m = min(max_machines, size * 2)
            specs.append(FleetJobSpec(
                name=f"job-{index:04d}", submit_at=submit_at,
                num_machines=size,
                duration_s=self.sample_duration(size),
                priority=priority,
                min_machines=min_m, max_machines=max_m))
            index += 1
        return specs


@dataclass
class FleetReport:
    """Fleet-level rollup, JSON-round-trip stable by construction."""

    payload: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return self.payload

    @property
    def jobs_completed(self) -> int:
        return int(self.payload["jobs_completed"])

    @property
    def fleet_ettr(self) -> float:
        return float(self.payload["fleet_ettr"])

    def summary(self) -> str:
        p = self.payload
        return (f"fleet: {p['jobs_submitted']} jobs submitted, "
                f"{p['jobs_completed']} completed, "
                f"{p['jobs_queued']} still queued\n"
                f"fleet ETTR: {p['fleet_ettr']:.4f}   "
                f"utilization: {p['machine_utilization']:.3f}\n"
                f"incidents: {p['total_incidents']}   "
                f"mean queue wait: {p['mean_wait_s']:.0f}s\n"
                f"standby shortfall: {p['standby']['shortfall']} "
                f"(target {p['standby']['target']})")


@dataclass
class FleetScenario:
    """One platform + one submission schedule + one fault process."""

    platform: TrainingPlatform
    arrivals: List[FleetJobSpec]
    duration_s: float
    #: mean seconds between fleet-wide fault events (0 disables)
    fault_mtbf_s: float = 0.0
    #: mean seconds between leaf-switch outages (0 disables) — the
    #: blast-radius process placement policies are judged against
    switch_mtbf_s: float = 0.0
    #: per-machine hardware MTBF (0 disables the hazard substrate):
    #: when set, every machine in the fleet — allocated or idle — is an
    #: independent hazard sampled per tick in one vectorized draw
    #: (:class:`~repro.cluster.faults.MachineHazardProcess`), and the
    #: event heap carries only control-plane events
    machine_mtbf_s: float = 0.0
    #: hazard sampling tick (bounds fault-arrival time resolution)
    hazard_tick_s: float = 300.0
    #: scales the ~45 s baseline step time of fleet jobs (see
    #: :func:`fleet_job_config`)
    step_time_factor: float = 1.0
    #: mean seconds between spot-capacity re-draws (0 disables): each
    #: event draws a new available-capacity fraction and blacklists /
    #: returns idle machines to meet it, preempting running jobs when
    #: idle capacity alone cannot cover the reclaim
    spot_churn_mean_s: float = 0.0
    #: floor of the spot capacity fraction (draws are uniform in
    #: [spot_min_frac, 1])
    spot_min_frac: float = 0.5
    seed: int = 0
    _versions: Dict[str, int] = field(default_factory=dict)

    def run(self) -> FleetReport:
        platform = self.platform
        sim = platform.sim
        rng = RngStreams(self.seed).fork("fleet-faults")
        self._fault_rng = rng.get("process")
        self._trace_gen = IncidentTraceGenerator(rng)
        self._switch_rng = rng.get("switch-process")
        self._switch_stats = {"events": 0, "jobs_hit": 0,
                              "max_jobs_hit": 0, "machines_hit": 0}
        self._hazard = None
        self._spot_offline: set = set()
        self._spot_stats = {"events": 0, "reclaimed": 0, "returned": 0,
                            "preempts": 0}

        for spec in self.arrivals:
            if spec.submit_at <= 0.0:
                self._submit(spec)
            else:
                sim.schedule_at(spec.submit_at,
                                lambda s=spec: self._submit(s))
        platform.start()
        if self.fault_mtbf_s > 0:
            self._schedule_next_fault()
        if self.switch_mtbf_s > 0:
            self._schedule_next_switch_fault()
        if self.spot_churn_mean_s > 0:
            self._spot_rng = rng.get("spot-process")
            self._schedule_next_spot_churn()
        if self.machine_mtbf_s > 0:
            self._hazard = MachineHazardProcess(
                sim, rng.get("hazard"),
                [m.id for m in platform.cluster.machines],
                mtbf_s=self.machine_mtbf_s,
                tick_s=self.hazard_tick_s,
                on_hit=self._machine_hazard_hit)
            self._hazard.start()
        platform.run_until(self.duration_s)
        return self._report()

    # ------------------------------------------------------------------
    def _submit(self, spec: FleetJobSpec) -> None:
        self.platform.submit(JobSpec(
            name=spec.name,
            job_config=fleet_job_config(
                spec.num_machines, step_time_factor=self.step_time_factor),
            priority=spec.priority, duration_s=spec.duration_s,
            min_machines=spec.min_machines,
            max_machines=spec.max_machines))

    # ------------------------------------------------------------------
    # spot-capacity churn
    # ------------------------------------------------------------------
    def _schedule_next_spot_churn(self) -> None:
        gap = float(self._spot_rng.exponential(self.spot_churn_mean_s))
        self.platform.sim.schedule(max(60.0, gap),
                                   self._fire_spot_churn)

    def _fire_spot_churn(self) -> None:
        """Re-draw available spot capacity and converge toward it.

        Reclaims take idle (FREE, non-blacklisted) machines first —
        blacklisting keeps them unallocatable without a repair detour
        — and fall back to preempting running jobs (lowest priority,
        newest first) whose machines the next event can then pick up
        from the pool.  Returns simply lift the blacklist; that pool
        write wakes the scheduler.
        """
        self._schedule_next_spot_churn()
        self._spot_stats["events"] += 1
        pool = self.platform.pool
        total = len(self.platform.cluster.machines)
        frac = self.spot_min_frac + (1.0 - self.spot_min_frac) \
            * float(self._spot_rng.random())
        target_offline = int(round((1.0 - frac) * total))
        current = len(self._spot_offline)
        if target_offline > current:
            need = target_offline - current
            idle = pool.reclaim_idle(need)
            self._spot_offline.update(idle)
            self._spot_stats["reclaimed"] += len(idle)
            shortfall_machines = need - len(idle)
            if shortfall_machines > 0:
                victims = sorted(
                    self.platform.scheduler.running.values(),
                    key=lambda r: (r.priority, -r.seq))
                for victim in victims:
                    if shortfall_machines <= 0:
                        break
                    if self.platform.preempt_job(victim.name):
                        self._spot_stats["preempts"] += 1
                        shortfall_machines -= victim.num_machines
        elif target_offline < current:
            back = sorted(self._spot_offline)[:current - target_offline]
            pool.return_idle(back)
            self._spot_offline.difference_update(back)
            self._spot_stats["returned"] += len(back)

    def _machine_hazard_hit(self, machine_id: int) -> None:
        """One hazard arrival: a machine-bound hardware fault.

        Idle machines degrade too — the fault sits latent until the
        pool hands the machine to a job, whose inspections then catch
        it and evict (the paper's allocate→inspect→evict loop), or
        until a repair clears it.
        """
        self.platform.injector.inject(
            self._trace_gen.make_machine_fault(machine_id))

    def _schedule_next_fault(self) -> None:
        gap = float(self._fault_rng.exponential(self.fault_mtbf_s))
        self.platform.sim.schedule(max(1.0, gap), self._fire_fault)

    def _fire_fault(self) -> None:
        self._schedule_next_fault()
        running = [m for m in self.platform.jobs.values()
                   if m.running and m.job.state is JobState.RUNNING]
        if not running:
            return
        # victim jobs weighted by footprint: a 16-machine job absorbs
        # 16x the hardware faults of a single-machine one
        weights = [m.job.num_machines for m in running]
        total = sum(weights)
        pick = float(self._fault_rng.random()) * total
        managed = running[-1]
        for candidate, weight in zip(running, weights):
            pick -= weight
            if pick < 0:
                managed = candidate
                break
        symptom = self._trace_gen.sample_symptom()
        if symptom is FaultSymptom.CODE_DATA_ADJUSTMENT:
            self._manual_update(managed)
            return
        fault = self._trace_gen.make_fault(symptom, managed.job.machines)
        self.platform.injector.inject(fault)

    def _schedule_next_switch_fault(self) -> None:
        gap = float(self._switch_rng.exponential(self.switch_mtbf_s))
        self.platform.sim.schedule(max(1.0, gap),
                                   self._fire_switch_fault)

    def _fire_switch_fault(self) -> None:
        """Take down one random leaf switch (transient, Table 3 row).

        Every attached machine drops off the network at once, so every
        *running* job with at least one machine on the switch takes
        the hit — the jobs-hit count per event is exactly the blast
        radius the pack/spread placement policies trade against each
        other.  The switch is drawn uniformly from the whole fabric:
        which switches carry many jobs is the placement's doing, and
        sampling uniformly keeps the fault process identical across
        policies.
        """
        self._schedule_next_switch_fault()
        cluster = self.platform.cluster
        sw = int(self._switch_rng.integers(len(cluster.switches)))
        if not cluster.switches[sw].up:
            return  # already down: no new blast
        on_switch = {m.id for m in cluster.machines_on_switch(sw)}
        hit_jobs = [m for m in self.platform.jobs.values()
                    if m.running and m.job.state is JobState.RUNNING
                    and any(mid in on_switch for mid in m.job.machines)]
        machines_hit = sum(
            sum(1 for mid in m.job.machines if mid in on_switch)
            for m in hit_jobs)
        self._switch_stats["events"] += 1
        self._switch_stats["jobs_hit"] += len(hit_jobs)
        self._switch_stats["max_jobs_hit"] = max(
            self._switch_stats["max_jobs_hit"], len(hit_jobs))
        self._switch_stats["machines_hit"] += machines_hit
        self.platform.injector.inject(Fault(
            symptom=FaultSymptom.INFINIBAND_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.SWITCH_DOWN,
            machine_ids=[], switch_id=sw, effect=JobEffect.CRASH,
            transient=True,
            auto_recover_after=float(
                self._switch_rng.uniform(120.0, 600.0)),
            log_signature="NCCL WARN Net: ib_send failed",
            exit_code=1))

    def _manual_update(self, managed) -> None:
        from repro.controller.hotupdate import CodeUpdate
        from repro.training.metrics import CodeVersionProfile

        version = self._versions.get(managed.name, 0) + 1
        self._versions[managed.name] = version
        profile = CodeVersionProfile(
            f"{managed.name}-v{version}",
            min(0.55, managed.job.mfu_model.profile.base_mfu
                * float(self._fault_rng.uniform(1.0, 1.03))))
        managed.controller.request_manual_update(CodeUpdate(
            version=profile.version, profile=profile,
            critical=bool(self._fault_rng.random() < 0.2)))

    # ------------------------------------------------------------------
    def _report(self) -> FleetReport:
        payload = self.platform.fleet_report(run_end=self.duration_s)
        jobs = payload["jobs"]
        end = self.duration_s
        total_machines = len(self.platform.cluster.machines)
        busy = 0.0
        ettr_weighted = 0.0
        ettr_weight = 0.0
        for stats in jobs.values():
            if stats["started_at"] is None:
                continue
            # actual machine occupancy, summed over running segments —
            # a preempted job's parked time is not busy, and a resized
            # job weights each segment by the size it ran at
            held = stats["busy_machine_seconds"]
            busy += held
            ettr_weighted += stats["cumulative_ettr"] * held
            ettr_weight += held
        payload["machine_utilization"] = (
            busy / (total_machines * end) if end > 0 else 0.0)
        payload["fleet_ettr"] = (
            ettr_weighted / ettr_weight if ettr_weight > 0 else 0.0)
        # preemption / elastic accounting: wasted machine time is
        # checkpointed progress thrown away and re-run; goodput is the
        # utilization that remains after discounting it
        total_wasted = sum(stats["wasted_machine_seconds"]
                           for stats in jobs.values())
        payload["wasted_machine_seconds"] = float(total_wasted)
        payload["preemptions_total"] = int(
            sum(stats["preemptions"] for stats in jobs.values()))
        payload["resumes_total"] = int(
            sum(stats["resumes"] for stats in jobs.values()))
        payload["resizes_total"] = int(
            sum(len(stats["resize_events"]) for stats in jobs.values()))
        payload["goodput"] = (
            max(0.0, busy - total_wasted) / (total_machines * end)
            if end > 0 else 0.0)
        payload["spot"] = {
            "events": int(self._spot_stats["events"]),
            "reclaimed": int(self._spot_stats["reclaimed"]),
            "returned": int(self._spot_stats["returned"]),
            "preempts": int(self._spot_stats["preempts"]),
        }
        spans = [stats["switch_span"] for stats in jobs.values()
                 if stats["switch_span"] is not None]
        payload["mean_job_switch_span"] = (
            sum(spans) / len(spans) if spans else 0.0)
        sw_stats = self._switch_stats
        payload["switch_faults"] = {
            "events": int(sw_stats["events"]),
            "jobs_hit": int(sw_stats["jobs_hit"]),
            "mean_jobs_hit": (sw_stats["jobs_hit"] / sw_stats["events"]
                              if sw_stats["events"] else 0.0),
            "max_jobs_hit": int(sw_stats["max_jobs_hit"]),
            "machines_hit": int(sw_stats["machines_hit"]),
        }
        waits: Dict[str, List[float]] = {}
        censored: Dict[str, List[float]] = {}
        for stats in jobs.values():
            prio = str(stats["priority"])
            if stats["wait_s"] is not None:
                waits.setdefault(prio, []).append(stats["wait_s"])
                censored.setdefault(prio, []).append(stats["wait_s"])
            else:
                # still queued at the horizon: count the wait so far —
                # means over started-only jobs are survivorship-biased
                # (the low-priority jobs that never start vanish)
                censored.setdefault(prio, []).append(
                    end - stats["submitted_at"])
        payload["wait_by_priority"] = {
            prio: sum(values) / len(values)
            for prio, values in sorted(waits.items())}
        payload["censored_wait_by_priority"] = {
            prio: sum(values) / len(values)
            for prio, values in sorted(censored.items())}
        if self._hazard is not None:
            payload["machine_hazard"] = {
                "hits": int(self._hazard.hits),
                "mtbf_s": float(self.machine_mtbf_s),
                "tick_s": float(self.hazard_tick_s),
            }
        return FleetReport(payload=payload)


# ----------------------------------------------------------------------
# registered scenarios
# ----------------------------------------------------------------------

def _fleet_scenario_params(total_machines: int, duration_s: float,
                           seed: int, arrival_mean_s: float,
                           fault_mtbf_s: float,
                           machines_per_switch: int = 16,
                           placement: str = "any-free",
                           standby_target: float = 0.0,
                           checkpoint_interval_s: float = 0.0
                           ) -> List[ParamSpec]:
    return [
        ParamSpec("total_machines", "int", total_machines,
                  "machines in the shared fleet"),
        ParamSpec("duration_s", "float", duration_s,
                  "simulated window in seconds"),
        ParamSpec("seed", "int", seed, "RNG seed for trace + platform"),
        ParamSpec("arrival_mean_s", "float", arrival_mean_s,
                  "mean seconds between job submissions"),
        ParamSpec("fault_mtbf_s", "float", fault_mtbf_s,
                  "mean seconds between fleet-wide fault events"),
        ParamSpec("initial_jobs", "int", 3,
                  "jobs submitted at t=0 (fleet never starts empty)"),
        ParamSpec("backfill", "bool", True,
                  "let smaller jobs start past a blocked queue head"),
        ParamSpec("machines_per_switch", "int", machines_per_switch,
                  "machines cabled to one leaf switch"),
        ParamSpec("placement", "str", placement,
                  "machine placement: any-free | pack | spread"),
        ParamSpec("standby_target", "float", standby_target,
                  "elastic warm standbys per active machine "
                  "(0 = one-shot sizing at start)"),
        ParamSpec("checkpoint_interval_s", "float",
                  checkpoint_interval_s,
                  "remote checkpoint cadence in seconds of training "
                  "(0 = checkpoint engine off)"),
    ]


#: Per-job monitor cadences for fleet-level studies: N concurrent
#: stacks at single-job tick rates would spend the whole sim firing
#: sweeps, and fleet metrics care about minutes, not seconds, of
#: detection latency.
_FLEET_CADENCES = dict(
    collector=CollectorConfig(gauge_interval_s=30.0,
                              log_interval_s=60.0),
    inspections=InspectionConfig(network_interval_s=120.0,
                                 gpu_interval_s=120.0,
                                 host_interval_s=60.0),
    detector=DetectorConfig(hang_zero_rdma_s=300.0))

#: 90-day / 100k-GPU cadences: with ~300 s steps and a quarter-long
#: window, minute-level polling would dominate wall clock for no
#: fidelity gain — detection latencies stay minutes, ETTR at this
#: horizon is insensitive to them.
_QUARTER_CADENCES = dict(
    collector=CollectorConfig(gauge_interval_s=300.0,
                              log_interval_s=600.0),
    inspections=InspectionConfig(network_interval_s=600.0,
                                 gpu_interval_s=600.0,
                                 host_interval_s=300.0),
    detector=DetectorConfig(hang_zero_rdma_s=1800.0))


def _build_fleet(*, total_machines: int, duration_s: float, seed: int,
                 arrival_mean_s: float, fault_mtbf_s: float,
                 initial_jobs: int, backfill: bool,
                 machines_per_switch: int, placement: str,
                 standby_target: float, checkpoint_interval_s: float,
                 high_priority_frac: float = 0.0,
                 standby_resize_s: float = 900.0,
                 switch_mtbf_s: float = 0.0,
                 size_mix: Optional[List[tuple]] = None,
                 machine_mtbf_s: float = 0.0,
                 hazard_tick_s: float = 300.0,
                 step_time_factor: float = 1.0,
                 base_duration_s: float = _BASE_DURATION_S,
                 preemption: str = "none",
                 elastic_frac: float = 0.0,
                 spot_churn_mean_s: float = 0.0,
                 spot_min_frac: float = 0.5,
                 cadences: Optional[dict] = None) -> FleetScenario:
    """The builder behind every ``fleet-*`` scenario.

    The parameters without a default are the schema every fleet
    scenario declares (:func:`_fleet_scenario_params`).  The rest are
    feature switches a scenario opts into by declaring them; their
    defaults are the feature-off values every other scenario runs
    with.
    """
    if preemption not in ("none", "kill", "checkpoint"):
        # fail at build time with the CLI's clean one-liner contract
        # instead of a traceback out of the scheduler constructor
        raise ScenarioError(
            f"unknown preemption policy {preemption!r} "
            "(available: none, kill, checkpoint)")
    cad = dict(cadences or _FLEET_CADENCES)
    # checkpoint_interval_s is wall-clock-ish training seconds; fleet
    # jobs step every ~45 * step_time_factor seconds, so the remote
    # cadence rounds to the nearest whole number of steps
    checkpointing = checkpoint_interval_s > 0
    remote_every = (max(1, int(round(checkpoint_interval_s
                                     / (45.0 * step_time_factor))))
                    if checkpointing else 100)
    platform = TrainingPlatform(
        total_machines=total_machines,
        config=PlatformConfig(
            seed=seed, backfill=backfill,
            machines_per_switch=machines_per_switch,
            placement=placement,
            standby_target=standby_target,
            standby_resize_s=standby_resize_s,
            collector=cad["collector"],
            inspections=cad["inspections"],
            detector=cad["detector"],
            checkpoint=checkpointing,
            remote_checkpoint_every_steps=remote_every,
            preemption=preemption))
    gen = FleetTraceGenerator(RngStreams(seed).fork("fleet-arrivals"),
                              size_mix=size_mix,
                              base_duration_s=base_duration_s)
    arrivals = gen.arrivals(
        duration_s, arrival_mean_s,
        max_machines=max(1, total_machines // 2),
        high_priority_frac=high_priority_frac,
        initial_jobs=initial_jobs,
        elastic_frac=elastic_frac)
    return FleetScenario(platform=platform, arrivals=arrivals,
                         duration_s=duration_s,
                         fault_mtbf_s=fault_mtbf_s,
                         switch_mtbf_s=switch_mtbf_s,
                         machine_mtbf_s=machine_mtbf_s,
                         hazard_tick_s=hazard_tick_s,
                         step_time_factor=step_time_factor,
                         spot_churn_mean_s=spot_churn_mean_s,
                         spot_min_frac=spot_min_frac, seed=seed)


register_scenario(
    "fleet-week",
    params=_fleet_scenario_params(24, 7 * 86400.0, 0, 4 * 3600.0,
                                  6 * 3600.0),
    description="A week of fleet churn: Poisson job arrivals from the "
                "Table 1 size mix, completions returning machines, "
                "faults spread across whoever is running",
    tags=("fleet", "production"))(_build_fleet)

register_scenario(
    "fleet-standby-contention",
    params=_fleet_scenario_params(16, 2 * 86400.0, 1, 2 * 3600.0,
                                  1200.0),
    description="Fault storm on a tight fleet: concurrent evictions "
                "from many jobs drain the shared warm-standby pool "
                "(the P99-sizing contention regime)",
    tags=("fleet", "standby"))(_build_fleet)

register_scenario(
    "fleet-priority-mix",
    params=_fleet_scenario_params(16, 3 * 86400.0, 1, 5400.0,
                                  4 * 3600.0)
    + [ParamSpec("high_priority_frac", "float", 0.25,
                 "fraction of jobs submitted at high priority")],
    description="Priority classes at near-critical load: high-"
                "priority jobs jump the queue while small jobs "
                "backfill around blocked heads",
    tags=("fleet", "scheduler"))(_build_fleet)

# The generic fault process is off (``fault_mtbf_s=0``) so the only
# disturbance is the uniform leaf-switch outage process: every
# difference in ``switch_faults["jobs_hit"]`` between cells is the
# placement policy's doing.
register_scenario(
    "fleet-placement-blast-radius",
    params=_fleet_scenario_params(48, 2 * 86400.0, 5, 4800.0, 0.0,
                                  machines_per_switch=4,
                                  placement="pack")
    + [ParamSpec("switch_mtbf_s", "float", 3600.0,
                 "mean seconds between leaf-switch outages")],
    description="Leaf-switch outages vs placement policy: how many "
                "jobs one downed switch kills when jobs pack into "
                "few switches vs spread across many (Table 3's "
                "special-cased switch blast radius)",
    tags=("fleet", "placement", "topology"))(
        partial(_build_fleet, size_mix=PLACEMENT_STUDY_SIZE_MIX))


#: Per-machine hardware MTBF from the Llama 3 anchor (one failure per
#: 2.78 h at 16,384 GPUs, scaled to one 8-GPU machine ≈ 237 days);
#: over 12.5k machines × 90 days that is a few thousand hardware
#: faults — the paper's incident-census order of magnitude.
QUARTER_MACHINE_MTBF_S = 2.78 * 3600.0 * 16_384 / 8

_QUARTER_DURATION_S = 90 * 86400.0

# The generic job-weighted Poisson process is off (``fault_mtbf_s=0``):
# hardware faults arrive per-machine from the hazard substrate instead,
# landing on busy and idle machines alike, so allocation quality,
# inspection sweeps and standby sizing all face the same latent-fault
# population a real fleet does.
register_scenario(
    "fleet-quarter",
    params=_fleet_scenario_params(12_500, _QUARTER_DURATION_S, 0,
                                  2600.0, 0.0,
                                  machines_per_switch=32,
                                  placement="pack",
                                  standby_target=0.02)
    + [ParamSpec("machine_mtbf_s", "float", QUARTER_MACHINE_MTBF_S,
                 "per-machine hardware MTBF (Llama 3 anchor)"),
       ParamSpec("hazard_tick_s", "float", 300.0,
                 "fault-arrival sampling tick"),
       ParamSpec("step_time_factor", "float", 16.0,
                 "scales the ~45 s baseline step time"),
       ParamSpec("base_duration_s", "float", _BASE_DURATION_S,
                 "mean 1-machine job duration")],
    description="The flagship 100k-GPU quarter: 90 simulated days on "
                "12.5k machines, a few thousand jobs from an "
                "8-to-1024-machine size mix, per-machine hardware "
                "hazards sampled in one vectorized draw per tick "
                "(Llama 3 failure-rate anchor), elastic standbys and "
                "pack placement — the paper's operational census at "
                "its native scale",
    tags=("fleet", "production", "flagship"))(
        partial(_build_fleet, size_mix=QUARTER_SIZE_MIX,
                cadences=_QUARTER_CADENCES))

register_scenario(
    "fleet-elastic-standby",
    params=_fleet_scenario_params(24, 2 * 86400.0, 3, 2700.0,
                                  4 * 3600.0,
                                  standby_target=0.15)
    + [ParamSpec("standby_resize_s", "float", 900.0,
                 "seconds between elastic resize evaluations")],
    description="Elastic warm-standby resizing: a periodic task "
                "grows/shrinks the shared pool against a target "
                "ratio of the active fleet (hysteresis damps churn), "
                "vs the one-shot sizing at start",
    tags=("fleet", "standby", "elastic"))(_build_fleet)

register_scenario(
    "fleet-preemption",
    params=_fleet_scenario_params(16, 3 * 86400.0, 7, 5400.0,
                                  4 * 3600.0,
                                  checkpoint_interval_s=900.0)
    + [ParamSpec("preemption", "str", "checkpoint",
                 "victim handling: none | kill | checkpoint"),
       ParamSpec("high_priority_frac", "float", 0.25,
                 "fraction of jobs submitted at high priority")],
    description="Checkpoint-aware preemption under a priority mix: "
                "blocked high-priority jobs trigger victim selection "
                "(lowest priority, newest first); victims drain to "
                "their next checkpoint boundary and resume from it, "
                "vs kill-and-restart (wasted work since the last "
                "remote checkpoint) vs no preemption at all",
    tags=("fleet", "scheduler", "preemption"))(_build_fleet)

register_scenario(
    "fleet-spot-churn",
    params=_fleet_scenario_params(24, 3 * 86400.0, 11, 5400.0,
                                  6 * 3600.0,
                                  checkpoint_interval_s=900.0)
    + [ParamSpec("preemption", "str", "checkpoint",
                 "victim handling: none | kill | checkpoint"),
       ParamSpec("spot_churn_mean_s", "float", 2 * 3600.0,
                 "mean seconds between spot-capacity re-draws"),
       ParamSpec("spot_min_frac", "float", 0.5,
                 "floor of the available-capacity fraction")],
    description="Spot-market capacity churn: machines leave and "
                "return like preemptible instances (idle machines "
                "reclaimed first, running jobs preempted at their "
                "checkpoint boundary when that is not enough), so "
                "the fleet runs a rolling game of musical chairs",
    tags=("fleet", "scheduler", "preemption", "spot"))(_build_fleet)

register_scenario(
    "fleet-elastic-training",
    params=_fleet_scenario_params(16, 3 * 86400.0, 13, 5400.0,
                                  4 * 3600.0,
                                  checkpoint_interval_s=900.0)
    + [ParamSpec("preemption", "str", "checkpoint",
                 "victim handling: none | kill | checkpoint"),
       ParamSpec("elastic_frac", "float", 0.5,
                 "fraction of jobs declaring (min, max) bounds"),
       ParamSpec("high_priority_frac", "float", 0.25,
                 "fraction of jobs submitted at high priority")],
    description="Elastic data-parallel training: jobs declare "
                "(min_machines, max_machines), the scheduler shrinks "
                "them toward the floor to admit blocked high-priority "
                "work (cheaper than preemption, tried first) and "
                "grows them into free capacity, rebinding the rank "
                "topology at checkpoint boundaries",
    tags=("fleet", "scheduler", "elastic"))(_build_fleet)
