"""Ready-made production scenarios (the Sec. 8.1 deployment jobs).

A :class:`ProductionScenario` couples a wired
:class:`~repro.core.byterobust.ByteRobustSystem` with an incident trace
and drives the whole thing: faults are injected at their trace times
(skipped while a recovery is already in flight, since the job is down
anyway), manual updates flow through the controller, and the run ends
with a :class:`~repro.core.byterobust.RunReport`.

The base presets mirror the paper's deployment evaluation: a dense
Llama-like 70+B job and a 200+B MoE job on Hopper-class machines.  For
tractable test/bench runtimes the presets default to scaled-down
machine counts and compressed durations; the shapes (incident mix,
mechanism distribution, ETTR plateau) are what carry over.

Every builder registers in the scenario registry
(:mod:`repro.experiments.registry`) under a dash-separated name —
``dense``, ``moe``, ``staged``, plus variants ``dense-small``,
``dense-large``, ``dense-xl``, ``degraded-network``,
``aggressive-checkpoint`` and the analytic ``standby-sizing`` — so
sweeps and the CLI can build any of them from a flat parameter dict.
The size variants ``dense-small``, ``dense-large`` and ``dense-xl``
register :func:`dense_production_scenario` itself under their own
``ParamSpec`` defaults.
Any registered scenario can also be run once under cProfile with
``repro perf --profile <name>`` to see where its wall-clock goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cluster.faults import FaultSymptom
from repro.core.byterobust import ByteRobustSystem, RunReport, SystemConfig
from repro.experiments.registry import ParamSpec, register_scenario
from repro.monitor.collectors import CollectorConfig
from repro.monitor.detectors import DetectorConfig
from repro.parallelism import ParallelismConfig
from repro.sim import RngStreams
from repro.training.job import JobState, TrainingJobConfig
from repro.training.model import dense_70b, moe_200b
from repro.workloads.failure_model import mtbf_seconds
from repro.workloads.traces import (
    TABLE1_COUNTS,
    IncidentTraceGenerator,
    TraceEvent,
)


def _fleet_params(num_machines: int, duration_s: float, seed: int,
                  mtbf_scale: float,
                  hang_detect_s: Optional[float] = 300.0
                  ) -> List[ParamSpec]:
    """The parameter schema shared by every fleet scenario."""
    specs = [
        ParamSpec("num_machines", "int", num_machines,
                  "machines in the training job"),
        ParamSpec("duration_s", "float", duration_s,
                  "simulated run length in seconds"),
        ParamSpec("seed", "int", seed, "RNG seed for trace + system"),
        ParamSpec("mtbf_scale", "float", mtbf_scale,
                  "fleet MTBF multiplier (small fleets need small "
                  "values to see incidents)"),
    ]
    if hang_detect_s is not None:
        specs.append(ParamSpec(
            "hang_detect_s", "float", hang_detect_s,
            "zero-RDMA window before a hang is declared"))
    return specs


@dataclass
class ProductionScenario:
    """One system + one incident trace, ready to run."""

    system: ByteRobustSystem
    events: List[TraceEvent]
    duration_s: float

    def run(self) -> RunReport:
        self.system.start()
        sim = self.system.sim
        controller = self.system.controller
        injector = self.system.injector

        def fire(event: TraceEvent) -> None:
            if event.is_manual:
                controller.request_manual_update(event.update)
                return
            # while the job is down/recovering, new faults on the same
            # job are moot — production attributes them to the same
            # outage; skip to keep incident accounting 1:1
            if self.system.job.state is not JobState.RUNNING:
                return
            fault = event.fault
            # retarget victim machines to the job's *current* physical
            # machines (evictions change them over time)
            if fault.machine_ids:
                current = self.system.job.machines
                fault.machine_ids = [
                    current[hash(mid) % len(current)]
                    for mid in fault.machine_ids]
            injector.inject(fault)

        for event in self.events:
            sim.schedule_at(event.time, lambda ev=event: fire(ev))
        self.system.run_until(self.duration_s)
        return self.system.report(run_end=self.duration_s)


def _dense_job(num_machines: int,
               global_batch_size: int = 256) -> TrainingJobConfig:
    """The dense 70B-class job shape shared by every dense scenario.

    ``num_machines`` must be expressible as tp*pp*dp / gpus_per_machine;
    the preset uses TP=8, PP=2 and scales DP.
    """
    gpm = 8
    dp = max(1, num_machines * gpm // (8 * 2))
    return TrainingJobConfig(
        model=dense_70b(seq_len=4096),
        parallelism=ParallelismConfig(tp=8, pp=2, dp=dp,
                                      gpus_per_machine=gpm),
        global_batch_size=global_batch_size,
        gpu_peak_tflops=989.0)


def _production_config(job: TrainingJobConfig, seed: int,
                       hang_detect_s: float) -> SystemConfig:
    return SystemConfig(
        job=job, seed=seed,
        detector=DetectorConfig(hang_zero_rdma_s=hang_detect_s),
        collector=CollectorConfig(log_interval_s=30.0),
    )


@register_scenario(
    "dense", params=_fleet_params(16, 24 * 3600.0, 0, 1.0),
    description="Dense 70B-class production pretraining job (Sec. 8.1)",
    tags=("production", "dense"))
def dense_production_scenario(num_machines: int, duration_s: float, seed: int,
                              mtbf_scale: float, hang_detect_s: float,
                              global_batch_size: int = 256,
                              trace_counts: Optional[dict] = None,
                              configure: Optional[
                                  Callable[[SystemConfig], None]] = None
                              ) -> ProductionScenario:
    """The dense-model production job (scaled down by default).

    ``global_batch_size`` is only declared by ``dense-xl``, whose
    fleet is large enough to need more than the preset 256 sequences.
    ``trace_counts`` overrides the Table 1 symptom mix and
    ``configure`` mutates the :class:`SystemConfig` before wiring —
    the hooks the dense variants (degraded network, aggressive
    checkpointing) build on instead of re-plumbing the job.
    """
    job = _dense_job(num_machines, global_batch_size)
    config = _production_config(job, seed, hang_detect_s)
    if configure is not None:
        configure(config)
    system = ByteRobustSystem(config)
    gen = IncidentTraceGenerator(RngStreams(seed).fork("trace"),
                                 counts=trace_counts)
    mtbf = mtbf_seconds(job.parallelism.world_size) * mtbf_scale
    events = gen.poisson_trace(duration_s, mtbf,
                               machine_ids=list(range(num_machines)))
    return ProductionScenario(system=system, events=events,
                              duration_s=duration_s)


@register_scenario(
    "staged", params=_fleet_params(8, 5 * 86400.0, 7, 0.01,
                                   hang_detect_s=None),
    description="Multi-stage pretraining recipe with stage-driven "
                "code churn (Fig. 1)",
    tags=("production", "dense", "recipe"))
def staged_pretrain_scenario(num_machines: int, duration_s: float, seed: int,
                             mtbf_scale: float,
                             recipe: Optional["PretrainRecipe"] = None
                             ) -> ProductionScenario:
    """A multi-stage pretraining job following the Fig. 1 recipe.

    Stage churn drives manual code/data adjustments: the warmup and
    long-context stages request updates far more often than the anneal
    stage, reproducing the restart clustering the paper observes across
    the recipe.  Faults follow the same Poisson process as the flat
    scenarios.
    """
    from repro.training.recipe import (
        PretrainRecipe,
        standard_five_stage_recipe,
    )

    recipe = recipe or standard_five_stage_recipe()
    job = _dense_job(num_machines)
    system = ByteRobustSystem(_production_config(job, seed, 300.0))
    rng = RngStreams(seed).fork("staged")
    gen = IncidentTraceGenerator(rng, counts={
        s: c for s, c in IncidentTraceGenerator(rng).counts.items()
        if s is not FaultSymptom.CODE_DATA_ADJUSTMENT})
    mtbf = mtbf_seconds(job.parallelism.world_size) * mtbf_scale
    events = list(gen.poisson_trace(duration_s, mtbf,
                                    machine_ids=list(range(num_machines)),
                                    include_manual=False))

    # stage-driven manual updates: rate follows code_churn_per_day
    from repro.controller.hotupdate import CodeUpdate
    from repro.training.metrics import CodeVersionProfile

    churn_rng = RngStreams(seed).fork("churn").get("updates")
    t, version, mfu = 0.0, 0, 0.30
    while t < duration_s:
        stage = recipe.stage_at(min(1.0, t / duration_s))
        rate_per_s = stage.code_churn_per_day / 86400.0
        t += float(churn_rng.exponential(1.0 / max(rate_per_s, 1e-9)))
        if t >= duration_s:
            break
        version += 1
        mfu = min(0.55, mfu * float(churn_rng.uniform(1.0, 1.03)))
        events.append(TraceEvent(time=t, update=CodeUpdate(
            version=f"{stage.name}-v{version}",
            profile=CodeVersionProfile(f"{stage.name}-v{version}", mfu),
            critical=bool(churn_rng.random() < 0.2))))
    events.sort(key=lambda e: e.time)
    return ProductionScenario(system=system, events=events,
                              duration_s=duration_s)


@register_scenario(
    "moe", params=_fleet_params(16, 24 * 3600.0, 1, 1.0),
    description="MoE 200B-class production job with heavier "
                "custom-optimization churn (Sec. 8.1)",
    tags=("production", "moe"))
def moe_production_scenario(num_machines: int, duration_s: float, seed: int,
                            mtbf_scale: float,
                            hang_detect_s: float) -> ProductionScenario:
    """The MoE production job: more custom optimizations, more manual
    restarts and rollbacks (the paper's explanation for its lower ETTR)."""
    gpm = 8
    dp = max(2, num_machines * gpm // (8 * 2))
    job = TrainingJobConfig(
        model=moe_200b(seq_len=4096),
        parallelism=ParallelismConfig(tp=8, pp=2, dp=dp, ep=2,
                                      gpus_per_machine=gpm),
        global_batch_size=256,
        gpu_peak_tflops=989.0)
    config = _production_config(job, seed, hang_detect_s)
    system = ByteRobustSystem(config)
    gen = IncidentTraceGenerator(RngStreams(seed).fork("trace"))
    # MoE churn: manual adjustments arrive ~1.7x as often
    counts = dict(gen.counts)
    counts[FaultSymptom.CODE_DATA_ADJUSTMENT] = int(
        counts[FaultSymptom.CODE_DATA_ADJUSTMENT] * 1.7)
    gen = IncidentTraceGenerator(RngStreams(seed).fork("trace-moe"),
                                 counts=counts)
    mtbf = mtbf_seconds(job.parallelism.world_size) * mtbf_scale
    events = gen.poisson_trace(duration_s, mtbf,
                               machine_ids=list(range(num_machines)))
    return ProductionScenario(system=system, events=events,
                              duration_s=duration_s)


register_scenario(
    "dense-small", params=_fleet_params(4, 6 * 3600.0, 3, 0.05),
    description="Dense job on a small 4-machine fleet (fast smoke "
                "runs; MTBF compressed to keep the incident mix)",
    tags=("variant", "dense"))(dense_production_scenario)

register_scenario(
    "dense-large", params=_fleet_params(32, 24 * 3600.0, 5, 1.0),
    description="Dense job on a 32-machine (256-GPU) fleet, closer "
                "to the paper's deployment scale",
    tags=("variant", "dense"))(dense_production_scenario)


# The batch size scales with the fleet so simulated step time stays
# realistic; the default window and MTBF compression keep a handful of
# incidents in scope without letting the smoke run grow unbounded.
register_scenario(
    "dense-xl",
    params=_fleet_params(1250, 2 * 3600.0, 11, 0.1)
    + [ParamSpec("global_batch_size", "int", 8192,
                 "sequences per optimizer step (scaled with the fleet)")],
    description="Dense job at paper deployment scale: 1250 machines "
                "(~10k Hopper GPUs).  Tractable thanks to the "
                "coalesced-tick scheduler and O(1) inspection sweeps",
    tags=("variant", "dense", "xl"))(dense_production_scenario)


@register_scenario(
    "degraded-network",
    params=_fleet_params(16, 24 * 3600.0, 4, 1.0)
    + [ParamSpec("ib_error_factor", "float", 8.0,
                 "multiplier on InfiniBand-error incidence"),
       ParamSpec("hang_factor", "float", 2.0,
                 "multiplier on job-hang incidence")],
    description="Dense job on a flaky fabric: InfiniBand errors and "
                "hangs far above the Table 1 baseline",
    tags=("variant", "dense", "network"))
def degraded_network_scenario(num_machines: int, duration_s: float, seed: int,
                              mtbf_scale: float, hang_detect_s: float,
                              ib_error_factor: float,
                              hang_factor: float) -> ProductionScenario:
    """Dense job whose incident mix skews hard toward the network.

    Port flapping, NIC crashes, switch outages and collective hangs
    dominate — the regime the paper's fabric-level diagnosis targets.
    """
    counts = dict(TABLE1_COUNTS)
    counts[FaultSymptom.INFINIBAND_ERROR] = int(
        counts[FaultSymptom.INFINIBAND_ERROR] * ib_error_factor)
    counts[FaultSymptom.JOB_HANG] = int(
        counts[FaultSymptom.JOB_HANG] * hang_factor)
    return dense_production_scenario(
        num_machines=num_machines, duration_s=duration_s, seed=seed,
        mtbf_scale=mtbf_scale, hang_detect_s=hang_detect_s,
        trace_counts=counts)


@register_scenario(
    "aggressive-checkpoint",
    params=_fleet_params(16, 24 * 3600.0, 6, 1.0)
    + [ParamSpec("remote_every_steps", "int", 20,
                 "steps between remote checkpoint uploads")],
    description="Dense job checkpointing to remote storage far more "
                "often than the default cadence",
    tags=("variant", "dense", "checkpoint"))
def aggressive_checkpoint_scenario(num_machines: int, duration_s: float,
                                   seed: int, mtbf_scale: float,
                                   hang_detect_s: float,
                                   remote_every_steps: int
                                   ) -> ProductionScenario:
    """Dense job trading checkpoint overhead for less recompute.

    A tight remote cadence caps the rollback window after a failure at
    the cost of extra save traffic — the Table 8 trade-off as a
    runnable scenario.
    """
    def tighten(config: SystemConfig) -> None:
        config.remote_checkpoint_every_steps = remote_every_steps

    return dense_production_scenario(
        num_machines=num_machines, duration_s=duration_s, seed=seed,
        mtbf_scale=mtbf_scale, hang_detect_s=hang_detect_s,
        configure=tighten)


@dataclass
class AnalyticScenario:
    """A closed-form 'run': no simulator, just a dict of numbers.

    Lets pure-math evaluations (standby sizing, WAS tables) ride the
    same sweep/cache machinery as the simulated scenarios.
    """

    compute: Callable[[], Dict[str, float]]

    def run(self) -> Dict[str, float]:
        return self.compute()


@register_scenario(
    "standby-sizing",
    params=[ParamSpec("machines", "int", 1024, "active training machines"),
            ParamSpec("gpus_per_machine", "int", 16, "GPUs per machine"),
            ParamSpec("daily_failure_prob", "float", 0.0012,
                      "per-machine daily failure probability"),
            ParamSpec("quantile", "float", 0.99,
                      "sizing quantile of the binomial failure model")],
    description="P99 warm-standby pool sizing (Table 5, closed form)",
    tags=("analytic", "standby"))
def standby_sizing_scenario(machines: int, gpus_per_machine: int,
                            daily_failure_prob: float,
                            quantile: float) -> AnalyticScenario:
    """Table 5's binomial standby-pool sizing as a sweepable cell."""
    from repro.controller import StandbyPolicy

    def compute() -> Dict[str, float]:
        policy = StandbyPolicy(daily_failure_prob=daily_failure_prob,
                               quantile=quantile)
        row = dict(policy.table5_row(machines, gpus_per_machine))
        row.update({"machines": machines,
                    "gpus_per_machine": gpus_per_machine,
                    "daily_failure_prob": daily_failure_prob,
                    "quantile": quantile})
        return row

    return AnalyticScenario(compute)


@register_scenario(
    "sweep-stress",
    params=[ParamSpec("shard", "int", 0,
                      "cell index axis; grid over a range of shards to "
                      "scale a stress sweep to any cell count"),
            ParamSpec("machines", "int", 256,
                      "fleet width the closed form evaluates"),
            ParamSpec("mtbf_hours", "float", 40.0,
                      "per-machine mean time between failures"),
            ParamSpec("base_checkpoint_s", "int", 20,
                      "checkpoint write cost before the per-shard "
                      "perturbation")],
    description="Microsecond closed-form checkpoint-cadence cell "
                "(Young's approximation) for sweep-fabric stress runs",
    tags=("analytic", "stress", "fabric"))
def sweep_stress_scenario(shard: int, machines: int, mtbf_hours: float,
                          base_checkpoint_s: int) -> AnalyticScenario:
    """A deliberately cheap analytic cell for fabric stress sweeps.

    Each cell evaluates Young's approximation for the optimal
    checkpoint interval at a fleet-level MTBF, with the checkpoint
    cost perturbed by the ``shard`` index so a million-shard grid
    produces a million distinct (but closed-form, microsecond-cheap)
    reports.  Every cost in a stress sweep through this scenario is
    therefore fabric overhead — expansion, cache traffic, dispatch,
    aggregation — not simulation.
    """
    def compute() -> Dict[str, float]:
        checkpoint_s = float(base_checkpoint_s + shard % 64)
        fleet_mtbf_s = mtbf_hours * 3600.0 / max(1, machines)
        # Young's approximation: t_opt = sqrt(2 * w * MTBF)
        interval_s = math.sqrt(2.0 * checkpoint_s * fleet_mtbf_s)
        # expected waste per failure interval: checkpoint overhead
        # plus half an interval of recompute
        wasted_frac = (checkpoint_s / interval_s
                       + interval_s / (2.0 * fleet_mtbf_s))
        return {"shard": shard, "machines": machines,
                "checkpoint_s": checkpoint_s,
                "fleet_mtbf_s": fleet_mtbf_s,
                "optimal_interval_s": interval_s,
                "goodput_frac": max(0.0, 1.0 - wasted_frac)}

    return AnalyticScenario(compute)


@register_scenario(
    "sweep-stress-compute",
    params=[ParamSpec("shard", "int", 0,
                      "cell index axis (same role as in sweep-stress)"),
            ParamSpec("work_iters", "int", 1000,
                      "deterministic arithmetic iterations per cell — "
                      "dials per-cell compute from microseconds to "
                      "milliseconds")],
    description="sweep-stress sibling with tunable per-cell compute, "
                "for calibrating dispatch overhead against cell cost",
    tags=("analytic", "stress", "fabric"))
def sweep_stress_compute_scenario(shard: int,
                                  work_iters: int) -> AnalyticScenario:
    """Stress cell whose cost is an adjustable busy-loop.

    The fabric's dispatch batching only pays off while per-cell
    compute is comparable to per-cell overhead; sweeping
    ``work_iters`` maps out exactly where that crossover sits on a
    given host.  The checksum is a deterministic function of
    ``(shard, work_iters)`` so results stay byte-identical across
    backends and batch sizes.
    """
    def compute() -> Dict[str, float]:
        acc = shard & 0xFFFFFFFF
        for i in range(work_iters):
            acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
        return {"shard": shard, "work_iters": work_iters,
                "checksum": acc}

    return AnalyticScenario(compute)
