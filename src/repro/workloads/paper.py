"""Every remaining paper figure/table/ablation as a registered scenario.

PR 1 put the production jobs (``dense``, ``moe``, …) in the registry;
this module finishes the job: each of the paper's figure and table
experiments — the restart-replay loss curves of Fig. 2, the hang
breakdown of Fig. 3, dual-phase replay, stack aggregation, backup
placement, the hot-update ladders, the WAS comparison, and all the
tables and ablations — is a typed, sweepable scenario.  The benchmark
drivers under ``benchmarks/`` are now thin
:class:`~repro.experiments.sweep.SweepSpec` consumers, which means any
paper artifact can be grid-swept, cached, resumed, and rendered with
``repro report`` without touching driver code.

Payloads are flat JSON-safe dicts (enum values, never enums; string
keys throughout) so cells round-trip bit-identically through the
:class:`~repro.experiments.cache.ResultCache`.

Naming keeps the registry convention — lowercase, dash-separated,
most-generic word first — and variants share prefixes (``backup-*``,
``hotupdate-*``, ``standby-*``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.cluster.components import MachineSpec
from repro.cluster.faults import (
    Fault,
    FaultSymptom,
    JobEffect,
    RootCause,
    RootCauseDetail,
)
from repro.cluster.pool import ProvisioningTimes
from repro.core.byterobust import ByteRobustSystem, SystemConfig
from repro.experiments.registry import ParamSpec, register_scenario
from repro.monitor.detectors import DetectorConfig
from repro.parallelism import (
    ParallelismConfig,
    RankTopology,
    zero_shard_sizes,
)
from repro.sim import RngStreams, Simulator
from repro.training import TrainingJob, TrainingJobConfig
from repro.training.metrics import CodeVersionProfile, mfu_relative_series
from repro.training.model import ModelSpec
from repro.workloads.scenarios import AnalyticScenario


def _compact_system(seed: int = 0, machines: int = 8,
                    hang_window_s: float = 180.0,
                    **system_kwargs: Any) -> ByteRobustSystem:
    """A compact fully-managed job (the benchmarks' timing substrate)."""
    gpm = 2
    dp = machines * gpm // 4          # tp=2, pp=2 fixed
    config = SystemConfig(
        job=TrainingJobConfig(
            model=ModelSpec("bench", 2 * 10**9, 2 * 10**9, 8,
                            seq_len=2048),
            parallelism=ParallelismConfig(tp=2, pp=2, dp=dp,
                                          gpus_per_machine=gpm),
            global_batch_size=128, gpu_peak_tflops=100.0),
        seed=seed,
        detector=DetectorConfig(hang_zero_rdma_s=hang_window_s),
        **system_kwargs)
    system = ByteRobustSystem(config)
    system.start()
    return system


# ----------------------------------------------------------------------
# Fig. 2: loss + relative MFU across a multi-restart job
# ----------------------------------------------------------------------

@register_scenario(
    "restart-replay",
    params=[ParamSpec("num_runs", "int", 28, "restarts across the job"),
            ParamSpec("steps_per_run", "int", 40,
                      "committed steps per run segment"),
            ParamSpec("rollback_steps", "int", 5,
                      "steps rewound on each manual restart")],
    description="Multi-restart training job: per-run loss spans and "
                "the rising relative-MFU ladder (Fig. 2)",
    tags=("figure", "fig2", "training"))
def restart_replay_scenario(num_runs: int, steps_per_run: int,
                            rollback_steps: int) -> AnalyticScenario:
    """Fig. 2's 28-restart job as a sweepable cell."""

    def compute() -> Dict[str, Any]:
        sim = Simulator()
        job = TrainingJob(sim, TrainingJobConfig(
            model=ModelSpec("fig2", 10**10, 10**10, 24, seq_len=4096),
            parallelism=ParallelismConfig(tp=2, pp=2, dp=4,
                                          gpus_per_machine=2),
            global_batch_size=256, gpu_peak_tflops=500.0))
        job.bind_machines(list(range(8)))
        job.start()

        runs: List[Dict[str, Any]] = []
        mfu = 0.30
        for run in range(num_runs):
            start_step = job.current_step
            horizon = sim.now + job.step_time() * steps_per_run * 1.01
            sim.run(until=horizon)
            steps = [r.step for r in job.step_records
                     if r.step > start_step and r.committed]
            losses = [job.loss_curve.loss(s) for s in steps]
            runs.append({"steps": steps, "losses": losses, "mfu": mfu})
            if run == num_runs - 1:
                break
            # manual restart: engineering improvement + small rollback
            job.suspend()
            mfu = min(0.55, mfu * 1.025)
            job.mfu_model.set_profile(
                CodeVersionProfile(f"v{run + 1}", mfu))
            job.restart(from_step=max(0,
                                      job.current_step - rollback_steps))
        return {"runs": runs,
                "relative_mfu": mfu_relative_series(
                    [r["mfu"] for r in runs])}

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Fig. 3: unproductive-time breakdown for a job hang
# ----------------------------------------------------------------------

@register_scenario(
    "hang-breakdown",
    params=[ParamSpec("seed", "int", 5, "RNG seed for the managed job"),
            ParamSpec("machines", "int", 8, "machines in the job"),
            ParamSpec("hang_detect_s", "float", 300.0,
                      "zero-RDMA window before a hang is declared"),
            ParamSpec("inject_at", "float", 1200.0,
                      "simulated instant of the hang fault"),
            ParamSpec("duration_s", "float", 3 * 3600.0,
                      "simulated run length in seconds")],
    description="Unproductive-time breakdown for one implicit job hang "
                "(Fig. 3): detection / localization / failover / "
                "recompute slices",
    tags=("figure", "fig3", "hang"))
def hang_breakdown_scenario(seed: int, machines: int, hang_detect_s: float,
                            inject_at: float,
                            duration_s: float) -> AnalyticScenario:
    """One hang incident, measured slice by slice."""

    def compute() -> Dict[str, Any]:
        system = _compact_system(seed=seed, machines=machines,
                                 hang_window_s=hang_detect_s)
        system.sim.schedule_at(
            inject_at, lambda: system.injector.inject(Fault(
                symptom=FaultSymptom.JOB_HANG,
                root_cause=RootCause.INFRASTRUCTURE,
                detail=RootCauseDetail.DEFECTIVE_CUDA_CORES,
                machine_ids=[system.job.machines[5]],
                effect=JobEffect.HANG)))
        system.run_until(duration_s)
        report = system.report().to_dict()
        report["step_time_s"] = system.job.step_time()
        return report

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Fig. 6 / Algorithm 1: dual-phase replay localization
# ----------------------------------------------------------------------

@register_scenario(
    "replay-localization",
    params=[ParamSpec("machines", "int", 24, "fleet size z"),
            ParamSpec("group_size", "int", 4, "replay group size m"),
            ParamSpec("faulty", "int", 13, "machine carrying the SDC"),
            ParamSpec("reproduce_prob", "float", 1.0,
                      "per-replay fault reproduction probability"),
            ParamSpec("seed", "int", 3, "RNG seed for replay draws")],
    description="Dual-phase replay isolates the SDC machine "
                "(Fig. 6 / Algorithm 1)",
    tags=("figure", "fig6", "diagnosis"))
def replay_localization_scenario(machines: int, group_size: int, faulty: int,
                                 reproduce_prob: float,
                                 seed: int) -> AnalyticScenario:
    """One dual-phase replay localization run."""
    from repro.diagnosis import DualPhaseReplay, solution_cardinality

    def compute() -> Dict[str, Any]:
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=machines,
                                      machines_per_switch=machines))
        injector = FaultInjector(sim, cluster)
        injector.inject(Fault(
            symptom=FaultSymptom.NAN_VALUE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_SDC, machine_ids=[faulty],
            effect=JobEffect.NAN, reproduce_prob=reproduce_prob))
        replay = DualPhaseReplay(cluster, RngStreams(seed))
        result = replay.locate_faulty_machines(
            list(range(machines)), m=group_size)
        return {
            "failed_horizontal": list(result.failed_horizontal),
            "failed_vertical": list(result.failed_vertical),
            "suspects": list(result.suspects),
            "duration_s": result.duration_s,
            "n": result.n,
            "solution_cardinality": solution_cardinality(
                group_size, machines // group_size),
        }

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Fig. 7: stack aggregation pinpoints a backward-comm hang
# ----------------------------------------------------------------------

@register_scenario(
    "stack-aggregation",
    params=[ParamSpec("tp", "int", 2, "tensor-parallel degree"),
            ParamSpec("pp", "int", 4, "pipeline-parallel degree"),
            ParamSpec("dp", "int", 4, "data-parallel degree"),
            ParamSpec("gpus_per_machine", "int", 2, "GPUs per machine"),
            ParamSpec("hang", "str", "backward_comm",
                      "hang family (backward_comm, eval_p2p, "
                      "dataloader, ckpt_stall)")],
    description="Stack aggregation groups trainer stacks and isolates "
                "the hung parallel group (Fig. 7)",
    tags=("figure", "fig7", "diagnosis"))
def stack_aggregation_scenario(tp: int, pp: int, dp: int,
                               gpus_per_machine: int,
                               hang: str) -> AnalyticScenario:
    """Aggregate a hung world's stacks; the last machine stalls."""
    from repro.analyzer import RuntimeAnalyzer
    from repro.training.stacks import (
        HangScenario,
        capture_world,
        propagate_hang,
    )

    def compute() -> Dict[str, Any]:
        topo = RankTopology(ParallelismConfig(
            tp=tp, pp=pp, dp=dp, gpus_per_machine=gpus_per_machine))
        stalled = [topo.world_size - 2, topo.world_size - 1]
        states = propagate_hang(topo, stalled, HangScenario(hang))
        traces = capture_world(topo, None, states)
        result = RuntimeAnalyzer(topo).aggregate(traces)
        kinds: Dict[str, int] = {}
        for kind in states.values():
            kinds[kind.value] = kinds.get(kind.value, 0) + 1
        return {
            "groups": [{"role": g.role, "size": g.size,
                        "machine_ids": list(g.machine_ids),
                        "is_outlier": g.is_outlier, "text": g.text}
                       for g in result.groups],
            "shared_dim": result.shared_dim,
            "eviction_machines": list(result.eviction_machines),
            "stack_kinds": kinds,
        }

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Fig. 9: checkpoint backup placement survival
# ----------------------------------------------------------------------

def _neighbor_plan(topo: RankTopology):
    """Strawman placement: back up on the next machine over."""
    from repro.checkpoint import BackupPlan

    plan = BackupPlan(topology=topo)
    gpm = topo.config.gpus_per_machine
    for rank in topo.iter_ranks():
        plan.peer_of[rank] = (rank + gpm) % topo.world_size
    return plan


@register_scenario(
    "backup-survival",
    params=[ParamSpec("tp", "int", 2, "tensor-parallel degree"),
            ParamSpec("pp", "int", 4, "pipeline-parallel degree"),
            ParamSpec("dp", "int", 2, "data-parallel degree"),
            ParamSpec("gpus_per_machine", "int", 2, "GPUs per machine"),
            ParamSpec("placement", "str", "cross_group",
                      "backup placement (cross_group or neighbor)")],
    description="Checkpoint-backup survival under parallel-group "
                "over-eviction, per placement strategy (Fig. 9)",
    tags=("figure", "fig9", "checkpoint", "backup"))
def backup_survival_scenario(tp: int, pp: int, dp: int, gpus_per_machine: int,
                             placement: str) -> AnalyticScenario:
    """Evaluate one backup placement against every group eviction."""
    from repro.checkpoint import plan_cross_group_backup

    def compute() -> Dict[str, Any]:
        topo = RankTopology(ParallelismConfig(
            tp=tp, pp=pp, dp=dp, gpus_per_machine=gpus_per_machine))
        if placement == "cross_group":
            plan = plan_cross_group_backup(topo)
        elif placement == "neighbor":
            plan = _neighbor_plan(topo)
        else:
            raise ValueError(f"unknown placement {placement!r}")
        survives = {}
        for dim in ("pp", "tp", "dp"):
            groups = {tuple(topo.machines_of_group(r, dim))
                      for r in topo.iter_ranks()}
            survives[dim] = all(plan.survives_eviction(list(g))
                                for g in groups)
        return {
            "peer_of": {str(r): p for r, p in plan.peer_of.items()},
            "shares_no_group": all(
                not topo.shares_any_group(r, p)
                for r, p in plan.peer_of.items()),
            "survives": survives,
            "backup_load_per_machine": [
                len(plan.ranks_backed_up_on(m))
                for m in range(topo.num_machines)],
        }

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Fig. 11: relative MFU through hot-updated code versions
# ----------------------------------------------------------------------

#: Code-version ladders: dense reaches 1.25x, MoE 1.58x (paper).
HOTUPDATE_LADDERS = {
    "dense": [0.30, 0.33, 0.355, 0.375],          # -> 1.25x
    "moe": [0.28, 0.33, 0.385, 0.41, 0.4424],     # -> 1.58x
}


@register_scenario(
    "hotupdate-ladder",
    params=[ParamSpec("flavor", "str", "dense",
                      "which MFU ladder to climb (dense or moe)"),
            ParamSpec("seed", "int", 0, "RNG seed for the managed job"),
            ParamSpec("update_spacing_s", "float", 3000.0,
                      "seconds between successive code deployments")],
    description="Relative-MFU staircase from successive hot-updated "
                "code versions (Fig. 11)",
    tags=("figure", "fig11", "hotupdate"))
def hotupdate_ladder_scenario(flavor: str, seed: int,
                              update_spacing_s: float) -> AnalyticScenario:
    """Deploy one flavor's ladder through the hot-update mechanism."""
    from repro.controller.hotupdate import CodeUpdate

    ladder = HOTUPDATE_LADDERS[flavor]

    def compute() -> Dict[str, Any]:
        system = _compact_system(seed=seed)
        system.job.mfu_model.set_profile(
            CodeVersionProfile("v0", ladder[0]))
        for i, mfu in enumerate(ladder[1:], start=1):
            system.sim.schedule_at(
                i * update_spacing_s,
                lambda s=system, i=i, mfu=mfu:
                s.controller.request_manual_update(CodeUpdate(
                    version=f"v{i}",
                    profile=CodeVersionProfile(f"v{i}", mfu),
                    critical=True)))
        system.run_until(len(ladder) * update_spacing_s + 3600)
        report = system.report().to_dict()
        report["ladder"] = list(ladder)
        return report

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Fig. 12 + standby ablation: weighted-average scheduling time
# ----------------------------------------------------------------------

@register_scenario(
    "was-time",
    params=[ParamSpec("machines", "int", 1024, "training machines"),
            ParamSpec("catastrophic_size", "int", 32,
                      "machines lost in the catastrophic scenario"),
            ParamSpec("catastrophic_prob", "float", 0.01,
                      "weight of the catastrophic scenario")],
    description="Weighted-average scheduling time upon eviction: "
                "requeue vs reschedule vs oracle vs ByteRobust "
                "(Fig. 12)",
    tags=("figure", "fig12", "standby", "analytic"))
def was_time_scenario(machines: int, catastrophic_size: int,
                      catastrophic_prob: float) -> AnalyticScenario:
    """One scale's WAS-time comparison across restart strategies."""
    from repro.baselines import (
        ByteRobustRestart,
        OracleRestart,
        RequeueRestart,
        RescheduleRestart,
        weighted_average_scheduling_time,
    )
    from repro.baselines.restart import eviction_scenario_weights
    from repro.controller import StandbyPolicy

    def compute() -> Dict[str, float]:
        policy = StandbyPolicy()
        strategies = [RequeueRestart(), RescheduleRestart(),
                      OracleRestart(),
                      ByteRobustRestart(standby_policy=policy)]
        weights = eviction_scenario_weights(
            machines, policy.daily_failure_prob,
            p99_count=policy.standby_count(machines),
            catastrophic_size=catastrophic_size,
            catastrophic_prob=catastrophic_prob)
        return {s.name: weighted_average_scheduling_time(s, machines,
                                                         weights)
                for s in strategies}

    return AnalyticScenario(compute)


@register_scenario(
    "standby-quantile",
    params=[ParamSpec("machines", "int", 1024, "training machines"),
            ParamSpec("quantile", "float", 0.99,
                      "standby-pool sizing quantile"),
            ParamSpec("catastrophic_size", "int", 32,
                      "machines lost in the catastrophic scenario"),
            ParamSpec("catastrophic_prob", "float", 0.01,
                      "weight of the catastrophic scenario")],
    description="Standby sizing quantile trade-off: recovery time vs "
                "idle pool capacity (sizing ablation)",
    tags=("ablation", "standby", "analytic"))
def standby_quantile_scenario(machines: int, quantile: float,
                              catastrophic_size: int,
                              catastrophic_prob: float) -> AnalyticScenario:
    """One quantile's pool size, WAS time, and overflow probability."""
    from repro.baselines import (
        ByteRobustRestart,
        weighted_average_scheduling_time,
    )
    from repro.baselines.restart import eviction_scenario_weights
    from repro.controller import StandbyPolicy
    from repro.controller.standby import binomial_quantile

    def compute() -> Dict[str, float]:
        base = StandbyPolicy()
        p = base.daily_failure_prob
        # weights up to the *true* P999 so overflow events are
        # represented for the small pools
        weights = eviction_scenario_weights(
            machines, p,
            p99_count=binomial_quantile(machines, p, 0.999),
            catastrophic_size=catastrophic_size,
            catastrophic_prob=catastrophic_prob)
        policy = StandbyPolicy(daily_failure_prob=p, quantile=quantile)
        pool = policy.standby_count(machines)
        was = weighted_average_scheduling_time(
            ByteRobustRestart(standby_policy=policy), machines, weights)
        return {"pool_machines": pool, "was_s": was,
                "overflow_prob": sum(prob for k, prob in weights.items()
                                     if k > pool)}

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Table 1 / Table 2: incident census and root-cause attribution
# ----------------------------------------------------------------------

@register_scenario(
    "incident-census",
    params=[ParamSpec("samples", "int", 50_000,
                      "incidents drawn from the trace generator"),
            ParamSpec("seed", "int", 0, "RNG seed for sampling")],
    description="Sampled incident-symptom census vs the Table 1 "
                "distribution",
    tags=("table", "table1", "traces"))
def incident_census_scenario(samples: int, seed: int) -> AnalyticScenario:
    """Sample the trace generator's symptom mix."""
    from repro.cluster.faults import FaultCategory
    from repro.workloads.traces import IncidentTraceGenerator

    def compute() -> Dict[str, Any]:
        gen = IncidentTraceGenerator(RngStreams(seed))
        hist = gen.symptom_histogram(samples)
        total = sum(hist.values())
        by_cat = {c.value: 0 for c in FaultCategory}
        for symptom, count in hist.items():
            by_cat[symptom.category.value] += count
        return {
            "histogram": {s.value: c for s, c in hist.items()},
            "total": total,
            "category_shares": {c: n / total for c, n in by_cat.items()},
        }

    return AnalyticScenario(compute)


@register_scenario(
    "root-cause-mix",
    params=[ParamSpec("trials", "int", 2000,
                      "faults sampled per ambiguous symptom"),
            ParamSpec("machines", "int", 32, "victim pool size"),
            ParamSpec("seed", "int", 1, "RNG seed for sampling")],
    description="Infrastructure-vs-user-code attribution of the "
                "ambiguous symptoms (Table 2)",
    tags=("table", "table2", "traces"))
def root_cause_mix_scenario(trials: int, machines: int,
                            seed: int) -> AnalyticScenario:
    """Sample root-cause attribution for hangs, IMAs, and NaNs."""
    from repro.workloads.traces import IncidentTraceGenerator

    symptoms = {
        "job_hang": FaultSymptom.JOB_HANG,
        "illegal_memory_access": FaultSymptom.GPU_MEMORY_ERROR,
        "nan_value": FaultSymptom.NAN_VALUE,
    }

    def compute() -> Dict[str, Any]:
        gen = IncidentTraceGenerator(RngStreams(seed))
        mix: Dict[str, List[int]] = {}
        for label, symptom in symptoms.items():
            infra = 0
            for _ in range(trials):
                fault = gen.make_fault(symptom, list(range(machines)))
                infra += fault.root_cause is RootCause.INFRASTRUCTURE
            mix[label] = [infra, trials - infra]
        return {"mix": mix, "trials": trials}

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Table 3: detection latency per root cause
# ----------------------------------------------------------------------

#: case slug -> (root-cause detail, symptom, paper bound w/ inspection)
DETECTION_CASES = {
    "nic-crash": (RootCauseDetail.NIC_CRASH,
                  FaultSymptom.INFINIBAND_ERROR, 30.0),
    "port-flapping": (RootCauseDetail.PORT_FLAPPING,
                      FaultSymptom.INFINIBAND_ERROR, 30.0),
    "switch-down": (RootCauseDetail.SWITCH_DOWN,
                    FaultSymptom.INFINIBAND_ERROR, 60.0),
    "gpu-driver-hang": (RootCauseDetail.GPU_DRIVER_HANG,
                        FaultSymptom.GPU_UNAVAILABLE, 10.0),
    "gpu-high-temperature": (RootCauseDetail.GPU_HIGH_TEMPERATURE,
                             FaultSymptom.MFU_DECLINE, 10.0),
    "gpu-lost": (RootCauseDetail.GPU_LOST,
                 FaultSymptom.GPU_UNAVAILABLE, 10.0),
    "os-kernel-fault": (RootCauseDetail.OS_KERNEL_FAULT,
                        FaultSymptom.OS_KERNEL_PANIC, 2.0),
}


@register_scenario(
    "detection-latency",
    params=[ParamSpec("case", "str", "nic-crash",
                      "root-cause case (" + ", ".join(DETECTION_CASES)
                      + ")"),
            ParamSpec("inject_at", "float", 100.001,
                      "injection instant (off-grid = worst case)"),
            ParamSpec("machines", "int", 4, "monitored fleet size")],
    description="Proactive-inspection detection latency vs the "
                "timeout-only baseline, per root cause (Table 3)",
    tags=("table", "table3", "monitor"))
def detection_latency_scenario(case: str, inject_at: float,
                               machines: int) -> AnalyticScenario:
    """Inject one fault into a monitored cluster; time the alert."""
    from repro.baselines import TimeoutOnlyDetection
    from repro.monitor import InspectionEngine

    detail, symptom, paper_bound = DETECTION_CASES[case]

    def compute() -> Dict[str, Any]:
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=machines,
                                      machines_per_switch=machines))
        injector = FaultInjector(sim, cluster)
        engine = InspectionEngine(sim, cluster,
                                  lambda: list(range(machines)))
        events: List[Any] = []
        engine.add_listener(events.append)
        engine.start()
        switch_down = detail is RootCauseDetail.SWITCH_DOWN
        fault = Fault(symptom=symptom,
                      root_cause=RootCause.INFRASTRUCTURE,
                      detail=detail,
                      machine_ids=[] if switch_down else [1],
                      switch_id=0 if switch_down else None,
                      effect=JobEffect.NONE)
        sim.schedule_at(inject_at, lambda: injector.inject(fault))
        sim.run(until=inject_at + 700)
        if not events:
            raise RuntimeError(f"{case}: never detected")
        return {
            "detection_s": events[0].time - inject_at,
            "baseline_s": TimeoutOnlyDetection().detection_seconds(
                detail),
            "paper_bound_s": paper_bound,
        }

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Table 6: incident resolution cost per symptom
# ----------------------------------------------------------------------

def _table6_fault(symptom: FaultSymptom,
                  system: ByteRobustSystem) -> Fault:
    machines = system.job.machines
    if symptom is FaultSymptom.CUDA_ERROR:
        return Fault(symptom=symptom, root_cause=RootCause.INFRASTRUCTURE,
                     detail=RootCauseDetail.GPU_HBM_FAULT,
                     machine_ids=[machines[1]],
                     log_signature="CUDA error: device-side assert",
                     exit_code=134)
    if symptom is FaultSymptom.INFINIBAND_ERROR:
        return Fault(symptom=symptom, root_cause=RootCause.INFRASTRUCTURE,
                     detail=RootCauseDetail.NIC_CRASH,
                     machine_ids=[machines[2]],
                     log_signature="NCCL WARN Net: ib_send failed",
                     exit_code=1)
    if symptom is FaultSymptom.HDFS_ERROR:
        return Fault(symptom=symptom, root_cause=RootCause.INFRASTRUCTURE,
                     detail=RootCauseDetail.STORAGE_SERVICE_FAULT,
                     transient=True, auto_recover_after=120.0,
                     log_signature="HDFS write failed: DataStreamer",
                     exit_code=1)
    if symptom is FaultSymptom.OS_KERNEL_PANIC:
        return Fault(symptom=symptom, root_cause=RootCause.INFRASTRUCTURE,
                     detail=RootCauseDetail.OS_KERNEL_FAULT,
                     machine_ids=[machines[3]],
                     log_signature="kernel panic - not syncing",
                     exit_code=255)
    if symptom is FaultSymptom.GPU_MEMORY_ERROR:
        return Fault(symptom=symptom, root_cause=RootCause.INFRASTRUCTURE,
                     detail=RootCauseDetail.GPU_HBM_FAULT,
                     machine_ids=[machines[0]],
                     log_signature="CUDA error: an illegal memory access",
                     exit_code=134)
    if symptom is FaultSymptom.NAN_VALUE:
        return Fault(symptom=symptom, root_cause=RootCause.INFRASTRUCTURE,
                     detail=RootCauseDetail.GPU_SDC,
                     machine_ids=[machines[4]], effect=JobEffect.NAN,
                     reproduce_prob=0.9)
    if symptom is FaultSymptom.GPU_UNAVAILABLE:
        return Fault(symptom=symptom, root_cause=RootCause.INFRASTRUCTURE,
                     detail=RootCauseDetail.GPU_LOST,
                     machine_ids=[machines[1]],
                     log_signature="CUDA error: device unavailable",
                     exit_code=134)
    raise ValueError(symptom)


@register_scenario(
    "resolution-cost",
    params=[ParamSpec("symptom", "str", "cuda_error",
                      "incident symptom (FaultSymptom value; "
                      "code_data_adjustment = manual hot update)"),
            ParamSpec("seed", "int", 0, "RNG seed for the managed job"),
            ParamSpec("inject_at", "float", 500.0,
                      "simulated instant of the incident"),
            ParamSpec("duration_s", "float", 6 * 3600.0,
                      "simulated run length in seconds")],
    description="Localization-to-restart resolution time per symptom, "
                "vs the selective-stress-testing baseline (Table 6)",
    tags=("table", "table6", "recovery"))
def resolution_cost_scenario(symptom: str, seed: int, inject_at: float,
                             duration_s: float) -> AnalyticScenario:
    """Inject one symptom into a managed job; time its resolution."""
    from repro.baselines import SelectiveStressTesting
    from repro.controller.hotupdate import CodeUpdate

    sym = FaultSymptom(symptom)

    def compute() -> Dict[str, Any]:
        system = _compact_system(seed=seed)
        if sym is FaultSymptom.CODE_DATA_ADJUSTMENT:
            system.sim.schedule_at(
                inject_at,
                lambda s=system: s.controller.request_manual_update(
                    CodeUpdate(version="vX",
                               profile=CodeVersionProfile("vX", 0.4),
                               critical=True)))
        else:
            system.sim.schedule_at(
                inject_at, lambda s=system: s.injector.inject(
                    _table6_fault(sym, s)))
        system.run_until(duration_s)
        resolved = [i for i in system.incident_log.resolved()
                    if i.resolution_seconds is not None]
        if not resolved:
            raise RuntimeError(f"{symptom}: never resolved (seed {seed})")
        root = (RootCause.NONE
                if sym is FaultSymptom.CODE_DATA_ADJUSTMENT
                else RootCause.INFRASTRUCTURE)
        selective = SelectiveStressTesting().resolution_seconds(sym, root)
        return {
            "resolution_s": resolved[0].resolution_seconds,
            # JSON has no Infinity: None marks "baseline cannot see it"
            "selective_s": (None if math.isinf(selective)
                            else selective),
        }

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Table 7: requeue vs hot-update scheduling time
# ----------------------------------------------------------------------

@register_scenario(
    "scheduling-cost",
    params=[ParamSpec("machines", "int", 1024, "training machines"),
            ParamSpec("update_events", "int", 5,
                      "code-update events averaged over")],
    description="Scheduling time per code update: full requeue vs "
                "in-place hot update (Table 7)",
    tags=("table", "table7", "hotupdate", "analytic"))
def scheduling_cost_scenario(machines: int,
                             update_events: int) -> AnalyticScenario:
    """One scale's requeue-vs-hot-update cost comparison."""

    def compute() -> Dict[str, float]:
        times = ProvisioningTimes()
        requeue = sum(times.requeue_time(machines)
                      for _ in range(update_events)) / update_events
        hot = sum(times.hot_update_time(machines)
                  for _ in range(update_events)) / update_events
        return {"requeue_s": requeue, "hot_s": hot}

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Table 8: checkpoint strategy efficiency
# ----------------------------------------------------------------------

@register_scenario(
    "checkpoint-efficiency",
    params=[ParamSpec("model_params", "int", 70_000_000_000,
                      "model parameter count"),
            ParamSpec("tp", "int", 8, "tensor-parallel degree"),
            ParamSpec("pp", "int", 8, "pipeline-parallel degree"),
            ParamSpec("dp", "int", 32, "data-parallel degree"),
            ParamSpec("step_s", "float", 4.5, "healthy step seconds"),
            ParamSpec("gpus_per_machine", "int", 16, "GPUs per machine"),
            ParamSpec("gpu_tflops", "float", 119.0, "peak TFLOPs/GPU"),
            ParamSpec("pcie_gbps", "float", 30.0, "PCIe bandwidth"),
            ParamSpec("remote_fs_gbps", "float", 8.0,
                      "checkpoint-path remote FS bandwidth")],
    description="Per-step blocking time and relative MFU for Megatron "
                "save, Memory save, and ByteRobust save (Table 8)",
    tags=("table", "table8", "checkpoint", "analytic"))
def checkpoint_efficiency_scenario(model_params: int, tp: int, pp: int,
                                   dp: int, step_s: float,
                                   gpus_per_machine: int, gpu_tflops: float,
                                   pcie_gbps: float,
                                   remote_fs_gbps: float) -> AnalyticScenario:
    """One (model, parallelism) point across the three strategies."""
    from repro.checkpoint import (
        ByteRobustSave,
        CheckpointContext,
        MegatronSave,
        MemorySave,
        StorageTiers,
    )

    def compute() -> Dict[str, Any]:
        spec = MachineSpec(gpus_per_machine=gpus_per_machine,
                           gpu_peak_tflops=gpu_tflops,
                           pcie_bandwidth_gbps=pcie_gbps,
                           remote_fs_bandwidth_gbps=remote_fs_gbps)
        sizes = zero_shard_sizes(model_params, zero_stage=1,
                                 tp=tp, pp=pp, dp=dp)
        ctx = CheckpointContext(shard_sizes=sizes,
                                tiers=StorageTiers(machine_spec=spec),
                                base_step_s=step_s)
        return {
            "strategies": {
                s.name: {"blocking_s": s.blocking_seconds(ctx),
                         "relative_mfu_pct": 100.0 * s.relative_mfu(ctx)}
                for s in (MegatronSave(), MemorySave(), ByteRobustSave())
            },
        }

    return AnalyticScenario(compute)


# ----------------------------------------------------------------------
# Ablations: backup recovery, lazy hot update, eviction policy
# ----------------------------------------------------------------------

@register_scenario(
    "backup-recovery",
    params=[ParamSpec("placement", "str", "cross_group",
                      "backup placement (cross_group, neighbor, none)"),
            ParamSpec("remote_every_steps", "int", 50,
                      "steps between remote checkpoint uploads"),
            ParamSpec("steps_before_failure", "int", 60,
                      "committed steps before the PP-group eviction")],
    description="Recovery source and lost steps after a PP-group "
                "over-eviction, per backup placement (placement "
                "ablation)",
    tags=("ablation", "checkpoint", "backup"))
def backup_recovery_scenario(placement: str, remote_every_steps: int,
                             steps_before_failure: int) -> AnalyticScenario:
    """Run to a failure point, evict a PP group, plan recovery."""
    from repro.checkpoint import (
        BackupPlan,
        CheckpointManager,
        StorageTiers,
        plan_cross_group_backup,
    )

    def compute() -> Dict[str, Any]:
        sim = Simulator()
        job = TrainingJob(sim, TrainingJobConfig(
            model=ModelSpec("abl", 10**9, 10**9, 8, seq_len=2048),
            parallelism=ParallelismConfig(tp=2, pp=4, dp=2,
                                          gpus_per_machine=2),
            global_batch_size=64, gpu_peak_tflops=100.0))
        job.bind_machines(list(range(8)))
        sizes = zero_shard_sizes(10**9, tp=2, pp=4, dp=2, zero_stage=1)
        tiers = StorageTiers(machine_spec=MachineSpec(gpus_per_machine=2))
        manager = CheckpointManager(sim, job, sizes, tiers,
                                    remote_every_steps=remote_every_steps)
        if placement == "cross_group":
            manager.plan = plan_cross_group_backup(job.topology)
        elif placement == "neighbor":
            manager.plan = _neighbor_plan(job.topology)
        elif placement == "none":
            # backups are never durable: point every peer at the rank's
            # own machine so eviction always destroys "both" copies
            plan = BackupPlan(topology=job.topology)
            for rank in job.topology.iter_ranks():
                plan.peer_of[rank] = rank
            manager.plan = plan
        else:
            raise ValueError(f"unknown placement {placement!r}")
        job.start()
        sim.run(until=job.step_time() * steps_before_failure + 10)
        evicted = job.topology.machines_of_group(8, "pp")
        decision = manager.plan_recovery(evicted)
        return {
            "source": decision.source.value,
            "restart_step": decision.restart_step,
            "lost_steps": decision.lost_steps,
            "load_s": decision.load_seconds,
            "at_step": job.current_step,
        }

    return AnalyticScenario(compute)


@register_scenario(
    "hotupdate-policy",
    params=[ParamSpec("policy", "str", "lazy",
                      "update application policy (lazy or eager)"),
            ParamSpec("seed", "int", 0, "RNG seed for the managed job"),
            ParamSpec("duration_s", "float", 12 * 3600.0,
                      "simulated run length in seconds")],
    description="Lazy vs eager hot-update application under the "
                "natural failure cadence (lazy-update ablation)",
    tags=("ablation", "hotupdate"))
def hotupdate_policy_scenario(policy: str, seed: int,
                              duration_s: float) -> AnalyticScenario:
    """Same job + incident trace, lazy or eager update application."""
    from repro.controller.hotupdate import CodeUpdate

    if policy not in ("lazy", "eager"):
        raise ValueError(f"unknown policy {policy!r}")
    #: a failure every ~2 hours (the natural interruption cadence)
    failure_times = [7200.0 * (i + 1) for i in range(5)]
    #: five non-critical optimization updates requested between failures
    update_times = [3600.0 + 7200.0 * i for i in range(5)]

    def compute() -> Dict[str, Any]:
        system = _compact_system(seed=seed)
        for i, t in enumerate(update_times):
            mfu = 0.30 * (1.03 ** (i + 1))
            system.sim.schedule_at(
                t, lambda s=system, i=i, mfu=mfu:
                s.controller.request_manual_update(CodeUpdate(
                    version=f"v{i + 1}",
                    profile=CodeVersionProfile(f"v{i + 1}", mfu),
                    critical=(policy == "eager"))))
        for t in failure_times:
            system.sim.schedule_at(
                t, lambda s=system: s.injector.inject(Fault(
                    symptom=FaultSymptom.GPU_UNAVAILABLE,
                    root_cause=RootCause.INFRASTRUCTURE,
                    detail=RootCauseDetail.GPU_LOST,
                    machine_ids=[s.job.machines[0]],
                    log_signature="CUDA error: device unavailable",
                    exit_code=134)))
        system.run_until(duration_s)
        report = system.report().to_dict()
        # lazily-merged updates are bookkeeping incidents (detail
        # "lazy update ..."), not separate restarts
        report["restarts"] = len([
            i for i in report["incidents"]
            if i["recovered_at"] >= 0
            and not i["detail"].startswith("lazy update")])
        report["final_version"] = system.hotupdate.current.version
        report["updates_requested"] = len(update_times)
        return report

    return AnalyticScenario(compute)


@register_scenario(
    "eviction-policy",
    params=[ParamSpec("policy", "str", "over-eviction",
                      "isolation policy (over-eviction or precise)"),
            ParamSpec("num_machines", "int", 75, "machines in the job"),
            ParamSpec("gpus_per_machine", "int", 8, "GPUs per machine"),
            ParamSpec("pp_group_machines", "int", 8,
                      "machines per PP group (the eviction unit)"),
            ParamSpec("stress_test_s", "float", 1800.0,
                      "stress-battery wall time for precise "
                      "localization"),
            ParamSpec("aggregation_s", "float", 5.0,
                      "stack-aggregation localization time")],
    description="Over-eviction vs precise localization on a hang: "
                "downtime, false evictions, wasted GPU-time "
                "(eviction ablation)",
    tags=("ablation", "recovery", "analytic"))
def eviction_policy_scenario(policy: str, num_machines: int,
                             gpus_per_machine: int, pp_group_machines: int,
                             stress_test_s: float,
                             aggregation_s: float) -> AnalyticScenario:
    """Closed-form cost of one isolation policy on a hang incident."""

    def compute() -> Dict[str, float]:
        times = ProvisioningTimes()
        total_gpus = num_machines * gpus_per_machine
        if policy == "over-eviction":
            # evict the whole PP group now; falsely evicted healthy
            # machines idle until repaired, but the returned standbys
            # keep the job itself at full strength
            downtime = aggregation_s + times.standby_wake_time(
                pp_group_machines)
            false_evictions = pp_group_machines - 1
            waste = (downtime * total_gpus
                     + false_evictions * gpus_per_machine
                     * times.self_check_s)
        elif policy == "precise":
            # stress-test before evicting: every GPU idles through the
            # whole battery
            downtime = (aggregation_s + stress_test_s
                        + times.standby_wake_time(1))
            false_evictions = 0
            waste = downtime * total_gpus
        else:
            raise ValueError(f"unknown policy {policy!r}")
        return {"downtime_s": downtime,
                "false_evictions": false_evictions,
                "waste_gpu_s": waste}

    return AnalyticScenario(compute)
