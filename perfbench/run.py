"""The repository benchmark: one workload, one result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fleet-100k --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``fleet-100k`` — the registered ``fleet-quarter`` scenario (12.5k
  machines, 100k GPUs) on a two-week window;
- ``spot-tenancy`` — ``fleet-spot-churn`` (24 machines, spot reclaims,
  checkpoint-boundary preemption) on a ten-day window;
- ``sweep-fabric`` — a ``sweep-stress`` grid through the process-pool
  ``SweepRunner``: a cold pass into a fresh on-disk cache, then warm
  passes served from it.

Every repetition is a closed-loop batch job in a fresh process
(:mod:`perfbench.rep`), run one at a time.  ``--trace 0`` prints the
end-to-end metrics: ``setup_s`` (median over several set-ups of import
plus scenario build, or runner and cache set-up), ``ops_per_s``
(simulated seconds per wall second of ``FleetScenario.run()`` on the
fleet workloads, cells per second over the warm passes on
``sweep-fabric``) and ``peak_rss_mib``.  The cold pass's cells per
second is a per-layer metric only: its cost is dominated by creating
one file per cell, which on the reference VM varies tenfold from run to
run with the file system's state, far beyond any usable bound.  ``--trace 1`` runs one
untraced and one traced repetition on the same inputs and prints the
per-layer metrics of :data:`perfbench.layers.PER_LAYER`.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Operations are scenario
runs or sweep cells; a failed correctness check counts its operations
as failed.  The command exits non-zero without a result when it cannot
measure (no program source, a repetition that crashed or ran out of
time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.rep import FLEET_WORKLOADS, same_digest  # noqa: E402

WORKLOADS = tuple(FLEET_WORKLOADS) + ("sweep-fabric",)

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "peak_rss_mib": "MiB"}

#: set-up samples per run (their median is ``setup_s``)
SETUP_SAMPLES = 5
#: nominal seconds of one repetition per workload; ``--seconds`` buys
#: ``round(seconds / REP_SECONDS)`` repetitions (at least one), each on
#: its own derived seed, and the metrics are medians over them
REP_SECONDS = {"fleet-100k": 10.0, "spot-tenancy": 3.5,
               "sweep-fabric": 6.5}
#: wall-clock budget for the whole command
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure."""


def derive_seed(workload: str, seed: int, rep: int) -> int:
    """The scenario seed of repetition ``rep``: a function of the
    command's seed only, so the same seed gives the same inputs."""
    text = f"{workload}:{seed}:{rep}".encode()
    return int(hashlib.sha256(text).hexdigest()[:8], 16)


class Repetitions:
    """Starts one fresh process per repetition, one at a time."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.deadline = time.monotonic() + DEADLINE_S
        self._started = 0

    def run(self, mode: str, seed: int) -> Dict[str, Any]:
        self._started += 1
        tmp = ROOT / f".perfbench-tmp-{os.getpid()}-{self._started}"
        spec = json.dumps({"workload": self.workload, "mode": mode,
                           "seed": seed, "tmp": str(tmp)})
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                               str(ROOT)]),
                   PYTHONHASHSEED="0")
        remaining = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.rep", spec],
                cwd=str(ROOT), env=env, capture_output=True, text=True,
                timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {mode} repetition did not "
                             f"finish within {DEADLINE_S:.0f} s") from None
        finally:
            # cache cleanup is outside every timed region
            shutil.rmtree(tmp, ignore_errors=True)
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"{self.workload} {mode} repetition exited "
                             f"{proc.returncode}:\n{tail}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_wall(rep: Dict[str, Any]) -> float:
    if "run_s" in rep:
        return rep["run_s"]
    return rep["cold_s"] + sum(rep["warm_s"])


def _ops(rep: Dict[str, Any]) -> float:
    """Operations per wall second of one measured repetition: simulated
    seconds per second of a fleet run, or cells per second over all
    warm sweep passes."""
    if "run_s" in rep:
        return rep["sim_s"] / rep["run_s"]
    return rep["cells"] * len(rep["warm_s"]) / sum(rep["warm_s"])


def measure(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics."""
    reps = Repetitions(workload)
    count = max(1, round(seconds / REP_SECONDS[workload]))
    seeds = [derive_seed(workload, seed, i) for i in range(count)]
    setups = [reps.run("setup", seeds[i % count])["setup_s"]
              for i in range(max(0, SETUP_SAMPLES - count))]
    runs = [reps.run("run", s) for s in seeds]
    setups += [r["setup_s"] for r in runs]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(_ops(r) for r in runs),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
    }
    return result(runs, {name: (values[name], unit)
                         for name, unit in END_TO_END.items()})


def measure_layers(workload: str, seed: int) -> Dict[str, Any]:
    """The traced run: per-layer metrics of one traced repetition,
    checked against an untraced repetition on the same inputs."""
    reps = Repetitions(workload)
    scenario_seed = derive_seed(workload, seed, 0)
    base = reps.run("run", scenario_seed)
    traced = reps.run("trace", scenario_seed)
    layers = dict(traced["layers"])
    fleet = workload in FLEET_WORKLOADS
    if not (traced["digest"] == base["digest"] if fleet
            else same_digest(traced["digest"], base["digest"])):
        # tracing changed the program's output: every operation of the
        # traced repetition is suspect
        traced["failed"] = traced["attempted"]
        traced["failures"].append("the traced repetition's output digest "
                                  "differs from the untraced one's")
    layers.update({
        "trace.overhead_frac": _run_wall(traced) / _run_wall(base) - 1.0,
        "sim.sim_s_per_wall_s": _ops(base) if fleet else 0.0,
        "core.platform.preemptions": traced["preemptions"] if fleet else 0,
        "experiments.cold_cells_per_s":
            0.0 if fleet else base["cells"] / base["cold_s"],
        "experiments.warm_cells_per_s":
            0.0 if fleet else _ops(base),
    })
    if not fleet:
        layers["sim.late_over_early_wall"] = 0.0
        layers["memory.rss_mib_per_sim_day"] = 0.0
    runs = [base, traced]
    attempted = sum(r["attempted"] for r in runs)
    layers["failed_frac"] = sum(r["failed"] for r in runs) / attempted
    missing = set(PER_LAYER) - set(layers)
    if missing:
        raise BenchError(f"traced run produced no {sorted(missing)}")
    return result(runs, {name: (layers[name], unit)
                         for name, (unit, _better) in PER_LAYER.items()})


def result(runs: List[Dict[str, Any]],
           metrics: Dict[str, Any]) -> Dict[str, Any]:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for rep in runs:
        for failure in rep["failures"]:
            print(f"correctness check failed: {failure}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            out = measure_layers(args.workload, args.seed)
        else:
            out = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
