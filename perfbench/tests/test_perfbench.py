"""Tests of the benchmark itself, on tiny windows.

They check that the outside-in tracer attributes callbacks to the right
layer, that tracing leaves payload bytes unchanged, that layer self
times add up to the traced wall time, and that ``BENCHMARK.json``
matches what the command emits.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, rep, run
from perfbench.trace import (Tracer, late_over_early_wall, layer_of,
                             rss_mib_per_sim_day)

ROOT = Path(__file__).resolve().parents[2]

SPOT = ("fleet-spot-churn", {"duration_s": 86400.0})
#: above VECTORIZE_MIN_MACHINES, so the hazard substrate and the
#: vectorized monitor path run
QUARTER = ("fleet-quarter", {"duration_s": 43200.0, "total_machines": 256,
                             "checkpoint_interval_s": 0.0})


@pytest.fixture(scope="module")
def spot_runs():
    return (rep.fleet_rep(*SPOT, "run", 3), rep.fleet_rep(*SPOT, "trace", 3))


@pytest.fixture(scope="module")
def quarter_runs():
    return (rep.fleet_rep(*QUARTER, "run", 5),
            rep.fleet_rep(*QUARTER, "trace", 5))


def test_callbacks_are_attributed_to_their_defining_module():
    from repro.cluster.faults import FaultInjector, MachineHazardProcess
    from repro.monitor.inspections import InspectionEngine
    from repro.sim.engine import Simulator
    from repro.training.job import TrainingJob

    assert layer_of(TrainingJob._complete_step) == "training.step"
    assert layer_of(InspectionEngine.add_listener) == "monitor.inspection"
    assert layer_of(FaultInjector.inject) == "cluster.fault"
    assert layer_of(MachineHazardProcess._tick) == "cluster.hazard"
    assert layer_of(functools.partial(Simulator.run)) == "sim"
    assert layer_of(lambda: None) == "other"

    tracer = Tracer().install()
    try:
        import numpy as np

        sim = Simulator()
        hits = []
        hazard = MachineHazardProcess(sim, np.random.default_rng(0),
                                      [0, 1, 2], mtbf_s=1e9, tick_s=10.0,
                                      on_hit=hits.append)
        hazard.start()
        sim.schedule(5.0, lambda: None)
        sim.run(until=35.0)
    finally:
        tracer.uninstall()
    assert tracer.spans["cluster.hazard"] == 3
    assert tracer.spans["other"] == 1
    assert tracer.spans["sim"] == 1
    assert tracer.counts["sim.events"] == 4
    # uninstall restored the originals: new callbacks are not wrapped
    before = dict(tracer.spans)
    hazard.stop()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert tracer.spans == before


def test_fault_delivery_is_useful_only_to_a_live_job_it_touches():
    from repro.cluster import Cluster, ClusterSpec, Fault, FaultInjector
    from repro.cluster.faults import FaultSymptom, RootCause, RootCauseDetail
    from repro.parallelism import ParallelismConfig
    from repro.sim import Simulator
    from repro.training import TrainingJob, TrainingJobConfig
    from repro.training.model import ModelSpec

    def fault(machine_id):
        return Fault(symptom=FaultSymptom.CUDA_ERROR,
                     root_cause=RootCause.INFRASTRUCTURE,
                     detail=RootCauseDetail.GPU_HBM_FAULT,
                     machine_ids=[machine_id])

    tracer = Tracer().install()
    try:
        sim = Simulator()
        injector = FaultInjector(sim, Cluster(ClusterSpec(
            num_machines=8, machines_per_switch=4)))
        job = TrainingJob(sim, TrainingJobConfig(
            model=ModelSpec("tiny", 10**9, 10**9, 4, seq_len=2048),
            parallelism=ParallelismConfig(tp=2, pp=2, dp=2,
                                          gpus_per_machine=2),
            global_batch_size=64, gpu_peak_tflops=100.0), injector=injector)
        job.bind_machines([0, 1, 2, 3])
        job.start()
        sim.run(until=job.step_time() * 2.5)
        job.suspend()
        # the stopped job's old machine faults: delivered, not useful
        injector.inject(fault(0))
        assert tracer.counts["training.fault_deliveries"] == 1
        assert tracer.counts["training.fault_deliveries.useful"] == 0
        job.start(at_step=job.current_step)
        injector.inject(fault(6))       # a machine the job does not use
        injector.inject(fault(2))
    finally:
        tracer.uninstall()
    assert tracer.counts["training.fault_deliveries"] == 3
    assert tracer.counts["training.fault_deliveries.useful"] == 1


def test_tracing_keeps_spot_payload_bytes(spot_runs):
    base, traced = spot_runs
    assert base["failures"] == traced["failures"] == []
    assert traced["digest"] == base["digest"]
    metrics = traced["layers"]
    assert metrics["cluster.hazard.ticks"] == 0
    assert metrics["checkpoint.self_s"] > 0
    assert metrics["cluster.scheduler.dispatch.calls"] > 0
    assert metrics["training.steps"] > 0


def test_tracing_keeps_quarter_payload_bytes(quarter_runs):
    base, traced = quarter_runs
    assert base["failures"] == traced["failures"] == []
    assert traced["digest"] == base["digest"]
    metrics = traced["layers"]
    assert metrics["cluster.hazard.ticks"] > 0
    assert metrics["checkpoint.plan_recovery.calls"] == 0
    assert metrics["training.fault_deliveries"] > 0
    assert 0 < metrics["training.fault_delivery.useful_ratio"] <= 1
    assert metrics["monitor.inspection.sweeps"] > 0


@pytest.mark.parametrize("runs", ["spot_runs", "quarter_runs"])
def test_self_times_add_up_to_traced_wall(runs, request):
    _base, traced = request.getfixturevalue(runs)
    metrics = traced["layers"]
    self_times = sum(value for name, value in metrics.items()
                     if name.endswith(".self_s")
                     or name == "experiments.dispatch.wait_s")
    wall = traced["run_s"]
    unattributed = metrics["trace.unattributed_frac"]
    assert abs(wall - self_times) / wall <= unattributed + 1e-9
    assert unattributed < 0.25


def test_sweep_passes_agree_and_leave_simulation_layers_idle(tmp_path):
    base = rep.sweep_rep("run", 7, str(tmp_path / "base"), cells=600,
                         warm_passes=1)
    traced = rep.sweep_rep("trace", 7, str(tmp_path / "traced"),
                           cells=600, warm_passes=1)
    assert base["failures"] == traced["failures"] == []
    assert rep.same_digest(base["digest"], traced["digest"])
    metrics = traced["layers"]
    assert metrics["experiments.cache.hit_ratio"] == 0.5
    assert metrics["experiments.cache.put.self_s"] > 0
    for name, value in metrics.items():
        if name.split(".")[0] in ("sim", "monitor", "training", "cluster"):
            assert value == 0, name


def test_sampler_metrics():
    # (wall, simulated time, RSS MiB): 1 s per simulated day early on,
    # 2 s per day at the end, RSS growing 10 MiB per simulated day
    day = 86400.0
    samples = [(float(w), d * day, 100.0 + 10.0 * d)
               for w, d in ((1, 1), (2, 2), (3, 3), (5, 4), (7, 5), (9, 6))]
    ratio = late_over_early_wall(samples, 0.0, 9.0, 6 * day)
    assert ratio == pytest.approx(2.0)
    assert rss_mib_per_sim_day(samples) == pytest.approx(10.0)
    assert rss_mib_per_sim_day(samples[:1]) == 0.0


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == layers.PER_LAYER
    assert set(layers.PREDICTIONS) == set(layers.PER_LAYER)
    for moves, on, unchanged in layers.PREDICTIONS.values():
        assert moves in run.END_TO_END
        assert set(on) | set(unchanged) <= set(run.WORKLOADS)
        assert not set(on) & set(unchanged)


def test_command_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spot-tenancy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
