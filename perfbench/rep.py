"""One benchmark repetition, run in a fresh interpreter.

``python -m perfbench.rep '<json>'`` with ``{"workload", "mode", "seed",
"tmp"}``.  ``mode`` is ``setup`` (import + build only), ``run`` (build,
measured run, correctness checks) or ``trace`` (``run`` with the
outside-in tracer installed before the build and the simulated-time
sampler polling during the run).  The last line of standard output is
one JSON object; :mod:`perfbench.run` starts one process per
repetition, so no two repetitions share a memory high-water mark.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from typing import Any, Dict, List

#: workload -> (registered scenario, parameters besides the seed).
#: fleet-100k is fleet-quarter at full width on a two-week window with
#: checkpointing off; spot-tenancy is fleet-spot-churn on ten days, long
#: enough for ~120 spot re-draws on a fleet that stays full.
FLEET_WORKLOADS = {
    "fleet-100k": ("fleet-quarter", {"duration_s": 14 * 86400.0,
                                     "checkpoint_interval_s": 0.0}),
    "spot-tenancy": ("fleet-spot-churn", {"duration_s": 10 * 86400.0}),
}

#: sweep-fabric: sweep-stress cells per pass, warm passes after the cold
#: one, process-pool workers (a fixed count, so the workload does not
#: change with the host's cores) and cells per dispatch batch
SWEEP_CELLS = 10_000
SWEEP_WARM_PASSES = 20
SWEEP_WORKERS = 2
SWEEP_BATCH = 256


def peak_rss_mib() -> float:
    """Highest peak RSS of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def fleet_checks(payload: Dict[str, Any]) -> List[str]:
    """Invariants every fleet payload must satisfy."""
    failures = []
    util = payload["machine_utilization"]
    goodput = payload["goodput"]
    if not 0.0 <= goodput <= util <= 1.0:
        failures.append(f"goodput {goodput!r} <= utilization {util!r} "
                        "<= 1 does not hold")
    if json.loads(json.dumps(payload)) != payload:
        failures.append("payload changes under a JSON round-trip")
    return failures


def payload_sha256(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def sweep_digest(folded: Any) -> Dict[str, Any]:
    """The fold's digest without the cached/simulated split."""
    return {key: value for key, value in folded.digest().items()
            if key not in ("cached", "simulated")}


def same_digest(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Digests agree: counts, min and max exactly, means to 1e-9.

    Means are sums in completion order, which the process pool does
    not fix, so they may differ in the last bits between passes.
    """
    if {k: v for k, v in a.items() if k != "metrics"} != \
            {k: v for k, v in b.items() if k != "metrics"}:
        return False
    if a["metrics"].keys() != b["metrics"].keys():
        return False
    for name, stats in a["metrics"].items():
        other = b["metrics"][name]
        if (stats["count"], stats["min"], stats["max"]) != \
                (other["count"], other["min"], other["max"]):
            return False
        if not math.isclose(stats["mean"], other["mean"], rel_tol=1e-9):
            return False
    return True


def fleet_rep(scenario_name: str, params: Dict[str, Any], mode: str,
              seed: int) -> Dict[str, Any]:
    """Build (and unless ``mode`` is ``setup``, run and check) one
    registered fleet scenario with ``params`` and ``seed``."""
    start = time.perf_counter()
    from repro.experiments.registry import get_scenario
    from perfbench.trace import (Sampler, Tracer, late_over_early_wall,
                                 rss_mib_per_sim_day)

    tracer = Tracer().install() if mode == "trace" else None
    try:
        scenario = get_scenario(scenario_name).build(seed=seed, **params)
        out: Dict[str, Any] = {"setup_s": time.perf_counter() - start}
        if mode == "setup":
            return out
        if tracer is None:
            begin = time.perf_counter()
            report = scenario.run()
            end = time.perf_counter()
        else:
            sim = scenario.platform.sim
            with Sampler(lambda: sim.now) as sampler:
                begin = time.perf_counter()
                report = scenario.run()
                end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    horizon = scenario.duration_s
    if tracer is not None:
        layers = tracer.metrics(end - begin)
        layers["sim.late_over_early_wall"] = late_over_early_wall(
            sampler.samples, begin, end, horizon)
        layers["memory.rss_mib_per_sim_day"] = rss_mib_per_sim_day(
            sampler.samples)
        out["layers"] = layers
    payload = report.to_dict()
    failures = fleet_checks(payload)
    out.update({
        "run_s": end - begin,
        "sim_s": horizon,
        "peak_rss_mib": peak_rss_mib(),
        "digest": payload_sha256(payload),
        "preemptions": payload["preemptions_total"],
        "attempted": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
    })
    return out


def sweep_rep(mode: str, seed: int, tmp: str, cells: int = SWEEP_CELLS,
              warm_passes: int = SWEEP_WARM_PASSES) -> Dict[str, Any]:
    """A cold ``sweep-stress`` pass over ``cells`` cells into a fresh
    on-disk cache under ``tmp`` (which must not exist yet), then
    ``warm_passes`` passes served from that cache."""
    start = time.perf_counter()
    from repro.experiments import (ResultCache, SweepRequest, SweepRunner,
                                   SweepSpec)
    from perfbench.trace import Tracer

    tracer = Tracer().install() if mode == "trace" else None
    try:
        first = (seed % 1000) * cells
        request = SweepRequest(
            specs=SweepSpec("sweep-stress",
                            grid={"shard": range(first, first + cells)}),
            base_seed=seed)
        cold_cache = ResultCache(tmp)
        runner = SweepRunner(workers=SWEEP_WORKERS, cache=cold_cache,
                             batch_size=SWEEP_BATCH)
        out: Dict[str, Any] = {"setup_s": time.perf_counter() - start}
        if mode == "setup":
            return out
        begin = time.perf_counter()
        cold = runner.fold(request, keep_rows=False)
        cold_s = time.perf_counter() - begin
        warm = []
        for _ in range(warm_passes):
            # each warm pass probes what the cold pass wrote, through a
            # fresh cache object so its counters start at zero
            cache = ResultCache(tmp)
            runner = SweepRunner(workers=SWEEP_WORKERS, cache=cache,
                                 batch_size=SWEEP_BATCH)
            begin = time.perf_counter()
            folded = runner.fold(request, keep_rows=False)
            warm.append((time.perf_counter() - begin, folded, cache))
    finally:
        if tracer is not None:
            tracer.uninstall()
    warm_s = [seconds for seconds, _folded, _cache in warm]
    if tracer is not None:
        out["layers"] = tracer.metrics(cold_s + sum(warm_s))

    failures = []
    stats = cold_cache.stats()
    if (cold.cells, cold.simulated, stats["misses"], stats["writes"],
            stats["hits"]) != (cells, cells, cells, cells, 0):
        failures.append(f"cold pass folded {cold.cells} cells "
                        f"({cold.simulated} simulated), cache {stats}")
    digest = sweep_digest(cold)
    for _seconds, folded, cache in warm:
        stats = cache.stats()
        if (folded.cells, folded.cached, stats["hits"], stats["misses"],
                stats["writes"]) != (cells, cells, cells, 0, 0):
            failures.append(f"warm pass folded {folded.cells} cells "
                            f"({folded.cached} cached), cache {stats}")
        if not same_digest(digest, sweep_digest(folded)):
            failures.append("warm digest differs from the cold one")
    attempted = cells * (1 + warm_passes)
    out.update({
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cells": cells,
        "peak_rss_mib": peak_rss_mib(),
        "digest": digest,
        "attempted": attempted,
        # a failed check fails every cell of the repetition
        "failed": attempted if failures else 0,
        "failures": failures,
    })
    return out


def main(argv: List[str]) -> int:
    spec = json.loads(argv[0])
    workload, mode, seed = spec["workload"], spec["mode"], spec["seed"]
    if workload in FLEET_WORKLOADS:
        scenario_name, params = FLEET_WORKLOADS[workload]
        out = fleet_rep(scenario_name, params, mode, seed)
    else:
        out = sweep_rep(mode, seed, spec["tmp"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
