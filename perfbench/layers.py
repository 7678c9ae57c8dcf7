"""Layer names, the module → layer table, and what each layer predicts.

A *layer* is a part of the program the traced run times from outside
(see :mod:`perfbench.trace`).  Scheduled callbacks and listeners are
attributed to the layer whose module defines them; the named entry
points the tracer wraps directly carry their layer explicitly.

:data:`PER_LAYER` is the single list of per-layer metrics a traced run
emits — ``BENCHMARK.json``'s ``per_layer`` section mirrors it (a test
pins the two together).  :data:`PREDICTIONS` records, before any
optimisation is measured, which end-to-end metric each layer metric
should move, on which workload, and on which workloads it should stay
unchanged.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: every layer a span can be attributed to; ``other`` collects callbacks
#: from modules no row of :data:`MODULE_LAYERS` names
LAYERS: Tuple[str, ...] = (
    "sim",
    "monitor.inspection",
    "monitor.collector",
    "monitor.detector",
    "training.step",
    "training.fault_delivery",
    "cluster.fault",
    "cluster.fault.clear_machine",
    "cluster.hazard",
    "cluster.pool",
    "cluster.scheduler.dispatch",
    "core.platform",
    "checkpoint",
    "controller",
    "controller.standby",
    "workloads.fleet",
    "experiments.expand",
    "experiments.cache.probe",
    "experiments.cache.put",
    "experiments.dispatch",
    "experiments.fold",
    "other",
)

#: (module prefix, layer) — first match wins, so longer prefixes first
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.monitor.inspections", "monitor.inspection"),
    ("repro.monitor.collectors", "monitor.collector"),
    ("repro.monitor.detectors", "monitor.detector"),
    ("repro.training", "training.step"),
    ("repro.cluster.faults", "cluster.fault"),
    ("repro.cluster.pool", "cluster.pool"),
    ("repro.cluster.scheduler", "cluster.scheduler.dispatch"),
    ("repro.core", "core.platform"),
    ("repro.checkpoint", "checkpoint"),
    ("repro.controller.standby", "controller.standby"),
    ("repro.controller", "controller"),
    ("repro.workloads.fleet", "workloads.fleet"),
)

#: qualified-name prefixes that override the module table: the hazard
#: substrate shares ``repro.cluster.faults`` with the fault injector
QUALNAME_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("MachineHazardProcess.", "cluster.hazard"),
)

FLEET = ("fleet-100k", "spot-tenancy")
SWEEP = ("sweep-fabric",)
ALL = FLEET + SWEEP

#: name -> (unit, better) of every per-layer metric, in output order
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.sim_s_per_wall_s": ("s/s", "higher"),
    "sim.late_over_early_wall": ("ratio", "lower"),
    "memory.rss_mib_per_sim_day": ("MiB/day", "lower"),
    "monitor.inspection.sweeps": ("count", "lower"),
    "monitor.inspection.self_s": ("s", "lower"),
    "monitor.inspection.hit_ratio": ("ratio", "higher"),
    "monitor.collector.polls": ("count", "lower"),
    "monitor.collector.self_s": ("s", "lower"),
    "monitor.detector.calls": ("count", "lower"),
    "monitor.detector.self_s": ("s", "lower"),
    "training.steps": ("count", "lower"),
    "training.step.self_s": ("s", "lower"),
    "training.fault_deliveries": ("count", "lower"),
    "training.fault_delivery.self_s": ("s", "lower"),
    "training.fault_delivery.useful_ratio": ("ratio", "higher"),
    "cluster.fault.injected": ("count", "lower"),
    "cluster.fault.self_s": ("s", "lower"),
    "cluster.fault.clear_machine.self_s": ("s", "lower"),
    "cluster.hazard.ticks": ("count", "lower"),
    "cluster.hazard.self_s": ("s", "lower"),
    "cluster.pool.calls": ("count", "lower"),
    "cluster.pool.self_s": ("s", "lower"),
    "cluster.scheduler.dispatch.calls": ("count", "lower"),
    "cluster.scheduler.dispatch.self_s": ("s", "lower"),
    "cluster.scheduler.dispatch.yield": ("ratio", "higher"),
    "core.platform.self_s": ("s", "lower"),
    "core.platform.preemptions": ("count", "lower"),
    "checkpoint.self_s": ("s", "lower"),
    "checkpoint.plan_recovery.calls": ("count", "lower"),
    "controller.self_s": ("s", "lower"),
    "controller.standby.self_s": ("s", "lower"),
    "workloads.fleet.self_s": ("s", "lower"),
    "other.self_s": ("s", "lower"),
    "experiments.expand.self_s": ("s", "lower"),
    "experiments.cache.probe.self_s": ("s", "lower"),
    "experiments.cache.put.self_s": ("s", "lower"),
    "experiments.cache.hit_ratio": ("ratio", "higher"),
    "experiments.dispatch.wait_s": ("s", "lower"),
    "experiments.fold.self_s": ("s", "lower"),
    "experiments.cold_cells_per_s": ("cells/s", "higher"),
    "experiments.warm_cells_per_s": ("cells/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "failed_frac": ("ratio", "lower"),
}

#: metric -> (end-to-end metric it should move, workloads where it
#: should move it, workloads predicted to show no change).  The fleet
#: workloads report simulated seconds per wall second as ``ops_per_s``,
#: ``sweep-fabric`` reports cells per second over its warm passes.
PREDICTIONS: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {
    "sim.events": ("ops_per_s", FLEET, SWEEP),
    "sim.self_s": ("ops_per_s", FLEET, SWEEP),
    "sim.sim_s_per_wall_s": ("ops_per_s", FLEET, SWEEP),
    # per-day cost grows with jobs ever submitted at fleet width only
    "sim.late_over_early_wall": ("ops_per_s", ("fleet-100k",),
                                 ("spot-tenancy",) + SWEEP),
    "memory.rss_mib_per_sim_day": ("peak_rss_mib", FLEET, SWEEP),
    # the fleet-quarter monitor path is vectorized; spot-tenancy's 24
    # machines sit below VECTORIZE_MIN_MACHINES, where it is small
    "monitor.inspection.sweeps": ("ops_per_s", ("fleet-100k",),
                                  ("spot-tenancy",) + SWEEP),
    "monitor.inspection.self_s": ("ops_per_s", ("fleet-100k",),
                                  ("spot-tenancy",) + SWEEP),
    "monitor.inspection.hit_ratio": ("ops_per_s", ("fleet-100k",),
                                     ("spot-tenancy",) + SWEEP),
    "monitor.collector.polls": ("ops_per_s", ("fleet-100k",),
                                ("spot-tenancy",) + SWEEP),
    "monitor.collector.self_s": ("ops_per_s", ("fleet-100k",),
                                 ("spot-tenancy",) + SWEEP),
    "monitor.detector.calls": ("ops_per_s", ("fleet-100k",),
                               ("spot-tenancy",) + SWEEP),
    "monitor.detector.self_s": ("ops_per_s", ("fleet-100k",),
                                ("spot-tenancy",) + SWEEP),
    "training.steps": ("ops_per_s", FLEET, SWEEP),
    "training.step.self_s": ("ops_per_s", FLEET, SWEEP),
    # the ownership-ledger group: fault fan-out to every job ever built
    "training.fault_deliveries": ("ops_per_s", ("fleet-100k",),
                                  ("spot-tenancy",) + SWEEP),
    "training.fault_delivery.self_s": ("ops_per_s", ("fleet-100k",),
                                       ("spot-tenancy",) + SWEEP),
    "training.fault_delivery.useful_ratio": ("ops_per_s",
                                             ("fleet-100k",),
                                             ("spot-tenancy",) + SWEEP),
    "cluster.fault.injected": ("ops_per_s", ("fleet-100k",),
                               ("spot-tenancy",) + SWEEP),
    "cluster.fault.self_s": ("ops_per_s", ("fleet-100k",),
                             ("spot-tenancy",) + SWEEP),
    "cluster.fault.clear_machine.self_s": ("ops_per_s", ("fleet-100k",),
                                           ("spot-tenancy",) + SWEEP),
    "cluster.hazard.ticks": ("ops_per_s", ("fleet-100k",),
                             ("spot-tenancy",) + SWEEP),
    "cluster.hazard.self_s": ("ops_per_s", ("fleet-100k",),
                              ("spot-tenancy",) + SWEEP),
    "cluster.pool.calls": ("ops_per_s", ("fleet-100k",),
                           ("spot-tenancy",) + SWEEP),
    "cluster.pool.self_s": ("ops_per_s", ("fleet-100k",),
                            ("spot-tenancy",) + SWEEP),
    # scheduler / preemption / checkpoint work lives on spot-tenancy;
    # checkpointing is off on fleet-100k
    "cluster.scheduler.dispatch.calls": ("ops_per_s", ("spot-tenancy",),
                                         SWEEP),
    "cluster.scheduler.dispatch.self_s": ("ops_per_s", ("spot-tenancy",),
                                          SWEEP),
    "cluster.scheduler.dispatch.yield": ("ops_per_s", ("spot-tenancy",),
                                         SWEEP),
    "core.platform.self_s": ("ops_per_s", ("spot-tenancy",), SWEEP),
    "core.platform.preemptions": ("ops_per_s", ("spot-tenancy",),
                                  ("fleet-100k",) + SWEEP),
    "checkpoint.self_s": ("ops_per_s", ("spot-tenancy",),
                          ("fleet-100k",) + SWEEP),
    "checkpoint.plan_recovery.calls": ("ops_per_s", ("spot-tenancy",),
                                       ("fleet-100k",) + SWEEP),
    "controller.self_s": ("ops_per_s", ("spot-tenancy",), SWEEP),
    "controller.standby.self_s": ("ops_per_s", ("spot-tenancy",), SWEEP),
    "workloads.fleet.self_s": ("ops_per_s", ("spot-tenancy",), SWEEP),
    "other.self_s": ("ops_per_s", FLEET, SWEEP),
    # the sweep fabric: the simulation layers do no work here
    "experiments.expand.self_s": ("ops_per_s", SWEEP, FLEET),
    "experiments.cache.probe.self_s": ("ops_per_s", SWEEP, FLEET),
    "experiments.cache.put.self_s": ("ops_per_s", SWEEP, FLEET),
    "experiments.cache.hit_ratio": ("ops_per_s", SWEEP, FLEET),
    "experiments.dispatch.wait_s": ("ops_per_s", SWEEP, FLEET),
    "experiments.fold.self_s": ("ops_per_s", SWEEP, FLEET),
    "experiments.cold_cells_per_s": ("ops_per_s", SWEEP, FLEET),
    "experiments.warm_cells_per_s": ("ops_per_s", SWEEP, FLEET),
    "trace.overhead_frac": ("ops_per_s", (), ALL),
    "trace.unattributed_frac": ("ops_per_s", (), ALL),
    "failed_frac": ("ops_per_s", (), ALL),
}


def layer_for(module: str, qualname: str) -> str:
    """The layer that owns code defined at ``module``.``qualname``."""
    for prefix, layer in QUALNAME_LAYERS:
        if qualname.startswith(prefix):
            return layer
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"
