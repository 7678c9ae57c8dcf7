"""The benchmark suite behind ``BENCH_sim.json``.

Microbenchmarks exercise the raw engine (fast path vs the reference
seed engine); scenario benchmarks run registered scenarios end-to-end
through the sweep API, fast path vs :func:`~repro.perf.baseline.seed_baseline`.
All comparisons are expressed as *speedup ratios*, which transfer
across machines — CI gates on the ratios, not on absolute wall-clock.
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import __version__
from repro.experiments.executor import RemoteExecutor
from repro.experiments.net import run_worker
from repro.experiments.sweep import SweepRunner, SweepSpec
from repro.perf.baseline import seed_baseline
from repro.sim import Simulator
from repro.sim._reference import ReferenceSimulator

#: Bump when the payload layout changes (consumers: CI regression gate).
BENCH_SCHEMA_VERSION = 1


def _best_of(fn: Callable[[], float], repeat: int) -> float:
    """Minimum wall-clock over ``repeat`` runs (noise-robust)."""
    return min(fn() for _ in range(max(1, repeat)))


def _events_per_sec(workload: Callable[[Any], int], sim_cls: type,
                    repeat: int) -> Dict[str, float]:
    """Time the *whole* round trip: scheduling (and any cancellation
    the workload performs) plus draining the queue, so the ratio also
    covers schedule()/cancel() costs, not just the pop loop."""
    def once() -> float:
        sim = sim_cls()
        t0 = time.perf_counter()
        events = workload(sim)
        sim.run()
        elapsed = time.perf_counter() - t0
        if sim.pending_count():  # pragma: no cover - bench invariant
            raise RuntimeError("benchmark workload did not drain")
        once.events = events  # type: ignore[attr-defined]
        return elapsed
    seconds = _best_of(once, repeat)
    return {"events": once.events,  # type: ignore[attr-defined]
            "seconds": seconds,
            "events_per_sec": once.events / seconds}  # type: ignore


def _engine_pair(name: str, workload: Callable[[Any], int], repeat: int,
                 with_seed: bool = True) -> Dict[str, Any]:
    fast = _events_per_sec(workload, Simulator, repeat)
    entry = {"name": name, "events": fast["events"], "fast": fast}
    if with_seed:
        seed = _events_per_sec(workload, ReferenceSimulator, repeat)
        entry["seed"] = seed
        entry["speedup"] = (fast["events_per_sec"]
                            / seed["events_per_sec"])
    return entry


# ---------------------------------------------------------------------------
# microbenchmarks
# ---------------------------------------------------------------------------

def bench_oneshot_events(n: int = 200_000, repeat: int = 3,
                         with_seed: bool = True) -> Dict[str, Any]:
    """Bulk one-shot scheduling + draining: the raw heap round-trip."""
    def workload(sim: Any) -> int:
        def cb() -> None:
            pass
        for i in range(n):
            sim.schedule((i % 97) * 0.5 + 0.1, cb)
        return n
    return _engine_pair("oneshot_events", workload, repeat, with_seed)


def bench_cancellation(n: int = 100_000, repeat: int = 3,
                       with_seed: bool = True) -> Dict[str, Any]:
    """Cancel-heavy traffic: half the scheduled events never run.

    The timed region covers schedule + cancel + drain, so the ratio
    reflects the O(1) in-place cancellation, not just dead-entry pops.
    """
    def workload(sim: Any) -> int:
        def cb() -> None:
            pass
        handles = [sim.schedule(1.0 + (i % 13), cb) for i in range(n)]
        for h in handles[::2]:
            h.cancel()
        return n
    return _engine_pair("cancellation", workload, repeat, with_seed)


def bench_scheduler_ticks(tasks: int = 2_000, ticks: int = 50,
                          repeat: int = 3,
                          with_seed: bool = True) -> Dict[str, Any]:
    """The headline scheduler microbench: ``tasks`` same-cadence
    periodic callbacks over ``ticks`` firings.

    The fast path coalesces them into one :class:`TickGroup` heap entry
    (O(1) heap traffic per cadence); the seed engine pays one heap
    push/pop per task per tick.
    """
    interval = 10.0
    horizon = interval * ticks + 1.0

    def workload(sim: Any) -> int:
        count = [0]

        def cb() -> None:
            count[0] += 1
        for _ in range(tasks):
            sim.every_tick(interval, cb)
        # drain exactly the horizon: run(until=...) then stop the tasks
        t0 = time.perf_counter()
        sim.run(until=horizon)
        workload.elapsed = time.perf_counter() - t0  # type: ignore
        return count[0]

    def once(sim_cls: type) -> Dict[str, float]:
        def run_once() -> float:
            sim = sim_cls()
            once.events = workload(sim)  # type: ignore[attr-defined]
            return workload.elapsed  # type: ignore[attr-defined]
        seconds = _best_of(run_once, repeat)
        return {"events": once.events,  # type: ignore[attr-defined]
                "seconds": seconds,
                "events_per_sec": once.events / seconds}  # type: ignore

    fast = once(Simulator)
    entry: Dict[str, Any] = {
        "name": "scheduler_ticks",
        "tasks": tasks,
        "ticks": ticks,
        "events": fast["events"],
        "fast": fast,
    }
    if with_seed:
        seed = once(ReferenceSimulator)
        entry["seed"] = seed
        entry["speedup"] = (fast["events_per_sec"]
                            / seed["events_per_sec"])
    return entry


def _substrate_once(machines: int, iters: int, mode: str
                    ) -> Dict[str, float]:
    """One timed pass of hazard ticks + inspection sweeps in ``mode``."""
    import numpy as np

    from repro.cluster.faults import MachineHazardProcess
    from repro.cluster.health_index import force_substrate
    from repro.cluster.topology import Cluster, ClusterSpec
    from repro.monitor.inspections import InspectionEngine

    with force_substrate(mode):
        cluster = Cluster(ClusterSpec(num_machines=machines,
                                      machines_per_switch=32))
        sim = Simulator()
        ids = list(range(machines))
        engine = InspectionEngine(sim, cluster, lambda: ids)
        tick_s = 300.0

        def on_hit(mid: int) -> None:
            # a tracked write: the hit machine's GPU starts overheating,
            # so subsequent sweeps have a real unhealthy candidate
            cluster.machines[mid].gpus[0].temperature_c = 95.0

        hazard = MachineHazardProcess(
            sim, np.random.default_rng(11), ids,
            # ~4 expected hits per tick regardless of fleet size
            mtbf_s=tick_s * machines / 4.0, tick_s=tick_s, on_hit=on_hit)
        hosts = [m.host for m in cluster.machines]

        def round_(i: int) -> None:
            hazard._tick()
            # dirty one machine per pass so the version fast path can
            # never skip a sweep — the bench measures the scan, not the
            # skip
            hosts[i % machines].cpu_load_frac = 0.99 if i % 2 else 0.10
            engine._sweep_network()
            engine._sweep_gpu()
            engine._sweep_host()

        # warm-up: one-time setup (index build, rollup caches) is
        # scenario start-up cost, not per-tick substrate cost
        round_(0)
        t0 = time.perf_counter()
        for i in range(1, iters + 1):
            round_(i)
        seconds = time.perf_counter() - t0
    return {"seconds": seconds, "events": float(len(engine.events)),
            "hits": float(hazard.hits)}


def bench_fault_health_substrate(machines: int = 8_192, iters: int = 60,
                                 repeat: int = 3,
                                 with_seed: bool = True) -> Dict[str, Any]:
    """The fault/health substrate at fleet scale: loops vs numpy masks.

    Drives ``iters`` rounds of hazard sampling plus all three inspection
    sweeps over a ``machines``-wide fleet, once with the substrate
    pinned scalar (per-machine ``rng.random()`` and ``component_health``
    calls) and once vectorized (one batched ``Generator`` draw, one
    boolean-mask scan per sweep).  Both passes are byte-identical —
    same hit schedule, same emissions (asserted below) — so the ratio
    is a pure speed measurement.  ``events`` counts machine-scans
    (``machines × iters``), the unit of work the masks amortize.
    """
    scans = machines * iters

    def pass_in(mode: str) -> Dict[str, Any]:
        def once() -> float:
            res = _substrate_once(machines, iters, mode)
            once.res = res  # type: ignore[attr-defined]
            return res["seconds"]
        seconds = _best_of(once, repeat)
        res = once.res  # type: ignore[attr-defined]
        return {"events": scans, "seconds": seconds,
                "events_per_sec": scans / seconds,
                "emissions": res["events"], "hits": res["hits"]}

    fast = pass_in("vectorized")
    entry: Dict[str, Any] = {
        "name": "fault_health_substrate",
        "machines": machines,
        "iters": iters,
        "events": scans,
        "fast": fast,
    }
    if with_seed:
        seed = pass_in("scalar")
        if (seed["emissions"], seed["hits"]) != (fast["emissions"],
                                                 fast["hits"]):
            raise RuntimeError(  # pragma: no cover - bench invariant
                "substrate modes diverged: "
                f"scalar={seed['emissions']}/{seed['hits']} "
                f"vectorized={fast['emissions']}/{fast['hits']}")
        entry["seed"] = seed
        entry["speedup"] = (fast["events_per_sec"]
                            / seed["events_per_sec"])
    return entry


def bench_metrics_plane(steps: int = 200_000, repeat: int = 3,
                        with_seed: bool = True) -> Dict[str, Any]:
    """Per-step loss/grad-norm queries: cached blocks vs per-query draws.

    Walks ``steps`` consecutive steps querying loss and grad-norm at
    each (with a 32-step rollback replay every 10k steps, the restart
    pattern the determinism story exists for).  The fast side reads the
    :class:`LossCurve` block cache; the seed side re-derives and
    re-draws the whole block on every query
    (:func:`~repro.perf.baseline._seed_noise` — the pre-block cost
    model, modulo the one-generator-per-step construction it replaced).
    The seed side walks a strided sample of the same range — identical
    per-query cost, bounded wall-clock — and rates are compared
    per-query.  Both sides must agree bit-for-bit on a sample of steps
    (asserted), so the ratio is a pure speed measurement.
    """
    from repro.perf.baseline import _seed_grad_norm, _seed_noise
    from repro.training.metrics import LossCurve

    rollback = 32

    def walk(curve: Any, step_iter: Any) -> int:
        queries = 0
        sink = 0.0
        for s in step_iter:
            sink += curve.loss(s) + curve.grad_norm(s)
            queries += 2
            if s and s % 10_000 == 0:
                for r in range(s - rollback, s):
                    sink += curve.loss(r)
                    queries += 1
        walk.sink = sink  # type: ignore[attr-defined]
        return queries

    def fast_pass() -> Dict[str, float]:
        def once() -> float:
            curve = LossCurve(seed=1234)
            t0 = time.perf_counter()
            once.queries = walk(curve, range(steps))  # type: ignore
            return time.perf_counter() - t0
        seconds = _best_of(once, repeat)
        q = once.queries  # type: ignore[attr-defined]
        return {"events": q, "seconds": seconds,
                "events_per_sec": q / seconds}

    fast = fast_pass()
    entry: Dict[str, Any] = {
        "name": "metrics_plane",
        "steps": steps,
        "events": fast["events"],
        "fast": fast,
    }
    if with_seed:
        # strided sample: on the seed side every query redraws a full
        # block regardless of position, so the per-query rate is
        # representative at 1/64 of the steps
        sample = range(0, steps, 64)

        def seed_pass() -> Dict[str, float]:
            def once() -> float:
                curve = LossCurve(seed=1234)
                curve.noise = _seed_noise.__get__(curve)
                curve.grad_norm = _seed_grad_norm.__get__(curve)
                t0 = time.perf_counter()
                once.queries = walk(curve, sample)  # type: ignore
                return time.perf_counter() - t0
            seconds = _best_of(once, repeat)
            q = once.queries  # type: ignore[attr-defined]
            return {"events": q, "seconds": seconds,
                    "events_per_sec": q / seconds}

        seed = seed_pass()
        fast_curve = LossCurve(seed=1234)
        seed_curve = LossCurve(seed=1234)
        for s in list(sample)[:64]:
            pair = (fast_curve.loss(s), fast_curve.grad_norm(s))
            ref = (seed_curve.base(s) + _seed_noise(seed_curve, s),
                   _seed_grad_norm(seed_curve, s))
            if pair != ref:  # pragma: no cover - bench invariant
                raise RuntimeError(
                    f"metrics modes diverged at step {s}: "
                    f"fast={pair} seed={ref}")
        entry["seed"] = seed
        entry["speedup"] = (fast["events_per_sec"]
                            / seed["events_per_sec"])
    return entry


def bench_sweep_fabric(sizes: Sequence[int] = (10_000, 100_000,
                                               1_000_000),
                       workers: int = 2, batch_size: int = 256,
                       remote_cap: int = 100_000
                       ) -> List[Dict[str, Any]]:
    """Fabric throughput (cells/s) per backend at stress scale.

    Streams ``sweep-stress`` grids — microsecond closed-form cells —
    through each backend with ``cache=None`` and the digest-only fold,
    so the measured rate is pure fabric: lazy expansion, dispatch
    batching, streaming aggregation.  No disk is touched, which keeps
    the number comparable across runners with wildly different
    filesystems.

    ``remote`` runs two in-process loopback workers and is capped at
    ``remote_cap`` cells (loopback JSON framing at 10⁶ cells would
    dominate the whole perf run); the cap is recorded in the row.
    """
    def time_fold(size: int, runner_kwargs: Dict[str, Any]) -> float:
        spec = SweepSpec("sweep-stress", grid={"shard": range(size)})
        t0 = time.perf_counter()
        SweepRunner(cache=None, **runner_kwargs).fold(
            spec, keep_rows=False)
        return time.perf_counter() - t0

    def time_remote(size: int) -> float:
        import threading
        executor = RemoteExecutor(batch_size=batch_size)
        threads = [threading.Thread(target=run_worker,
                                    args=(executor.address,),
                                    daemon=True) for _ in range(2)]
        for t in threads:
            t.start()
        spec = SweepSpec("sweep-stress", grid={"shard": range(size)})
        t0 = time.perf_counter()
        with executor:
            SweepRunner(executor=executor, cache=None).fold(
                spec, keep_rows=False)
        elapsed = time.perf_counter() - t0
        for t in threads:
            t.join(timeout=5.0)
        return elapsed

    rows: List[Dict[str, Any]] = []
    for size in sizes:
        backends = [
            ("inline", lambda s=size: time_fold(s, {"workers": 1})),
            ("process", lambda s=size: time_fold(
                s, {"workers": workers, "batch_size": batch_size})),
        ]
        if size <= remote_cap:
            backends.append(("remote",
                             lambda s=size: time_remote(s)))
        for name, fn in backends:
            seconds = fn()
            rows.append({"name": f"sweep_fabric:{name}",
                         "backend": name, "cells": size,
                         "batch_size": (1 if name == "inline"
                                        else batch_size),
                         "seconds": seconds,
                         "cells_per_sec": size / seconds})
    return rows


# ---------------------------------------------------------------------------
# scenario wall-clock
# ---------------------------------------------------------------------------

def _time_sweep_cell(scenario: str, params: Dict[str, Any]) -> float:
    runner = SweepRunner(workers=1, cache=None)
    t0 = time.perf_counter()
    runner.run(SweepSpec(scenario=scenario, params=params))
    return time.perf_counter() - t0


def bench_scenario(scenario: str, params: Optional[Dict[str, Any]] = None,
                   repeat: int = 1, with_seed_baseline: bool = True
                   ) -> Dict[str, Any]:
    """End-to-end scenario wall-clock through the sweep API.

    With ``with_seed_baseline`` the same cell also runs in
    :func:`seed_baseline` mode and the entry carries the speedup ratio.
    """
    params = dict(params or {})
    fast_s = _best_of(lambda: _time_sweep_cell(scenario, params), repeat)
    entry: Dict[str, Any] = {
        "name": scenario,
        "params": params,
        "fast_seconds": fast_s,
    }
    if with_seed_baseline:
        def seeded() -> float:
            with seed_baseline():
                return _time_sweep_cell(scenario, params)
        seed_s = _best_of(seeded, repeat)
        entry["seed_seconds"] = seed_s
        entry["speedup"] = seed_s / fast_s
    return entry


#: Scenario cells benchmarked by default: (scenario, quick-mode params,
#: full-mode params, seed-baseline in quick mode?).  The production
#: scenarios keep their registered durations even in quick mode — the
#: seed baseline is only seconds there, and a full-length window is
#: what the ≥3x end-to-end target is defined over.
SCENARIO_CELLS = [
    ("dense", {}, {}, True),
    ("degraded-network", {}, {}, True),
    ("dense-xl", {"duration_s": 1800.0}, {}, False),
    # the flagship 100k-GPU fleet at full width, window shortened so
    # the scalar-substrate seed side stays in CI smoke budget; the
    # 90-day run is the scenario's own registered default
    ("fleet-quarter", {"duration_s": 86_400.0},
     {"duration_s": 7 * 86_400.0}, True),
    # checkpoint-boundary preemption + every-step checkpointing at the
    # registered 3-day window: the lifecycle machinery (pause/resume,
    # boundary listeners, wasted-work accounting) stays on the fast
    # path the substrate split bought
    ("fleet-preemption", {}, {}, True),
]


def run_benchmarks(quick: bool = False, include_xl: bool = True,
                   with_seed_baseline: bool = True,
                   repeat: Optional[int] = None) -> Dict[str, Any]:
    """Produce the full ``BENCH_sim.json`` payload.

    ``quick`` shrinks problem sizes for CI smoke runs (seconds, not
    minutes); microbenches stay best-of-3 so the gated ratios hold up
    on noisy shared runners.  ``include_xl`` adds the ~10k-GPU ``dense-xl``
    scenario (fast path only in quick mode: the seed baseline at that
    scale is exactly the cost this PR removed).
    """
    # best-of-3 on every microbench in both modes: a single sample per
    # side lets one GC pause on a loaded CI runner push a genuine ~2x
    # ratio under the regression floor; quick mode shrinks n instead
    micro_repeat = repeat if repeat is not None else 3
    scale = 0.2 if quick else 1.0
    micro = [
        bench_oneshot_events(int(200_000 * scale), micro_repeat,
                             with_seed=with_seed_baseline),
        bench_cancellation(int(100_000 * scale), micro_repeat,
                           with_seed=with_seed_baseline),
        bench_scheduler_ticks(int(2_000 * scale) or 100, ticks=50,
                              repeat=micro_repeat,
                              with_seed=with_seed_baseline),
        bench_fault_health_substrate(int(8_192 * scale) or 512,
                                     iters=20 if quick else 60,
                                     repeat=micro_repeat,
                                     with_seed=with_seed_baseline),
        bench_metrics_plane(int(200_000 * scale), micro_repeat,
                            with_seed=with_seed_baseline),
    ]
    # best-of-N on both sides of each scenario ratio: the production
    # cells are sub-2s, so repeats are cheap and kill scheduler noise
    scenario_repeat = 2 if quick else 3
    scenarios: List[Dict[str, Any]] = []
    for name, quick_params, full_params, seed_in_quick in SCENARIO_CELLS:
        if name == "dense-xl" and not include_xl:
            continue
        params = quick_params if quick else full_params
        baseline = with_seed_baseline and (seed_in_quick or not quick)
        scenarios.append(bench_scenario(name, params,
                                        repeat=scenario_repeat,
                                        with_seed_baseline=baseline))
    # fabric throughput at stress scale; quick mode shrinks the grid
    # sizes (CI smoke runs in seconds) but keeps all three backends so
    # the gated floors stay exercised on every PR
    fabric = bench_sweep_fabric(
        sizes=(2_000, 10_000) if quick else (10_000, 100_000,
                                             1_000_000))
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "version": __version__,
        "quick": quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "microbench": micro,
        "scenarios": scenarios,
        "sweep_fabric": fabric,
    }
