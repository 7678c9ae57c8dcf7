"""Outside-in tracing for the benchmark's traced runs.

:class:`Tracer` times every layer from outside the program.  Before a
scenario is built, :meth:`Tracer.install` replaces public functions on
the program's classes with wrappers; :meth:`Tracer.uninstall` puts the
originals back.  Three kinds of wrapper exist:

- registration APIs (``Simulator.schedule`` / ``schedule_at`` /
  ``every`` / ``every_tick`` and the listener hooks) wrap each callback
  they receive in a span attributed to the layer whose module defines
  the callback (:func:`perfbench.layers.layer_for`);
- named entry points (``FleetScheduler.dispatch``, the pool, the fault
  injector, ``CheckpointManager.plan_recovery``, the sweep fabric's
  cache / dispatch / fold calls) become spans of a fixed layer;
- generators (``expand_cells``, ``Executor.results_batched``) are timed
  per ``next()``, so a layer's time is the time the caller waited for
  the next item.

A span's *self time* is its duration minus the durations of the spans
it encloses, so the self times of all layers add up to the time spent
inside top-level spans.  Work the program routes through plain lists
(``TrainingJob.step_listeners``) cannot be seen from outside and stays
in the enclosing span's self time.

:class:`Sampler` is a thread that polls simulated time, wall time and
resident memory while a scenario runs; it schedules nothing on the
simulator.
"""

from __future__ import annotations

import collections
import functools
import os
import threading
import time
import weakref
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Tuple

from perfbench.layers import LAYERS, layer_for

_MARK = "_perfbench_layer"

#: seconds between two samples of :class:`Sampler`
SAMPLE_INTERVAL_S = 0.02


def layer_of(fn: Callable[..., Any]) -> str:
    """The layer of a callback: the module that defines its code."""
    target = fn
    while True:
        if isinstance(target, functools.partial):
            target = target.func
        elif hasattr(target, "__func__"):
            target = target.__func__
        else:
            break
    return layer_for(getattr(target, "__module__", None) or "",
                     getattr(target, "__qualname__", None) or "")


class Tracer:
    """Per-layer span accounting, installed by patching classes."""

    def __init__(self) -> None:
        #: layer -> summed self time (s) / number of spans
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.spans: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: named counts taken at span boundaries
        self.counts: "collections.Counter[str]" = collections.Counter()
        #: child-time accumulators of the open spans; the bottom entry
        #: sums the durations of top-level spans
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._inspection_engines: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @property
    def attributed_s(self) -> float:
        """Total duration of top-level spans (= sum of self times)."""
        return self._stack[0]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def span(self, fn: Callable[..., Any], layer: str,
             counter: Optional[str] = None,
             on_result: Optional[Callable[[Any], None]] = None
             ) -> Callable[..., Any]:
        """``fn`` wrapped in a span attributed to ``layer``.

        ``counter`` is counted once per call; ``on_result`` sees each
        return value, outside the span's time.
        """
        self_s = self.self_s
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count = self.count

        def traced(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                count(counter)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                spans[layer] += 1
            if on_result is not None:
                on_result(result)
            return result

        setattr(traced, _MARK, layer)
        return traced

    def callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A registered callback in a span of its defining layer."""
        if hasattr(fn, _MARK):
            return fn
        return self.span(fn, layer_of(fn))

    def timed_iter(self, iterable: Iterable[Any], layer: str
                   ) -> Iterator[Any]:
        """Iterate ``iterable``, timing each ``next()`` as a span.

        Closing the returned generator closes the wrapped one, so a
        consumer's early exit still reaches the program's own cleanup
        (worker pools shut down in ``results_batched``'s ``finally``).
        """
        it = iter(iterable)
        step = self.span(it.__next__, layer)
        try:
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str,
               make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched function."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def install(self) -> "Tracer":
        """Patch the program's classes; call before building anything."""
        from repro.checkpoint.manager import CheckpointManager
        from repro.cluster.faults import FaultInjector
        from repro.cluster.pool import MachinePool
        from repro.cluster.scheduler import FleetScheduler
        from repro.experiments import sweep as sweep_mod
        from repro.experiments.cache import ResultCache
        from repro.experiments.executor import Executor
        from repro.experiments.summary import StreamingSummary
        from repro.monitor.collectors import MetricsCollector
        from repro.monitor.detectors import AnomalyDetector
        from repro.monitor.inspections import InspectionEngine
        from repro.sim.engine import Simulator

        count = self.count

        def probed(payloads: List[Any]) -> None:
            count("experiments.cache.probes", len(payloads))
            count("experiments.cache.hits",
                  sum(p is not None for p in payloads))

        # (owner, name, layer, counter, on_result) of each entry point
        entry_points = (
            (Simulator, "run", "sim", None,
             lambda executed: count("sim.events", executed)),
            (FleetScheduler, "dispatch", "cluster.scheduler.dispatch",
             "cluster.scheduler.dispatch.calls",
             lambda started: count("cluster.scheduler.dispatch.started",
                                   started)),
            (MachinePool, "allocate_active", "cluster.pool",
             "cluster.pool.calls", None),
            (MachinePool, "release", "cluster.pool", "cluster.pool.calls",
             None),
            (MachinePool, "evict", "cluster.pool", "cluster.pool.calls",
             None),
            (FaultInjector, "inject", "cluster.fault",
             "cluster.fault.injected", None),
            (FaultInjector, "clear_machine", "cluster.fault.clear_machine",
             None, None),
            (CheckpointManager, "plan_recovery", "checkpoint",
             "checkpoint.plan_recovery.calls", None),
            (ResultCache, "get_many", "experiments.cache.probe", None,
             probed),
            (ResultCache, "put_many", "experiments.cache.put", None, None),
            (StreamingSummary, "add", "experiments.fold", None, None),
        )
        # generators, timed per next(); the runner resolves expand_cells
        # through its module globals
        generators = [(sweep_mod, "expand_cells", "experiments.expand")]
        generators += [(backend, "results_batched", "experiments.dispatch")
                       for backend in (Executor, *Executor.__subclasses__())
                       if "results_batched" in backend.__dict__]
        try:
            for owner, name in ((Simulator, "schedule"),
                                (Simulator, "schedule_at"),
                                (Simulator, "every"),
                                (Simulator, "every_tick")):
                self._patch(owner, name, self._registration)
            for owner, name in ((MetricsCollector, "on_step"),
                                (MetricsCollector, "on_gauge"),
                                (AnomalyDetector, "add_listener")):
                self._patch(owner, name, self._listener_hook)
            self._patch(InspectionEngine, "add_listener",
                        self._inspection_hook)
            self._patch(FaultInjector, "add_listener", self._fault_hook)
            for owner, name, layer, counter, on_result in entry_points:
                self._patch(owner, name, functools.partial(
                    self.span, layer=layer, counter=counter,
                    on_result=on_result))
            for owner, name, layer in generators:
                self._patch(owner, name, functools.partial(
                    self._generator, layer=layer))
        except BaseException:
            self.uninstall()
            raise
        return self

    def _registration(self, original: Callable[..., Any]
                      ) -> Callable[..., Any]:
        """``schedule(when, callback, ...)`` and its siblings."""
        @functools.wraps(original)
        def patched(sim, when, callback, *args, **kwargs):
            return original(sim, when, self.callback(callback), *args,
                            **kwargs)
        return patched

    def _listener_hook(self, original: Callable[..., Any]
                       ) -> Callable[..., Any]:
        @functools.wraps(original)
        def patched(owner, fn):
            return original(owner, self.callback(fn))
        return patched

    def _inspection_hook(self, original: Callable[..., Any]
                         ) -> Callable[..., Any]:
        """Like :meth:`_listener_hook`; the first listener of each
        engine also counts the events the engine emits."""
        @functools.wraps(original)
        def patched(engine, fn):
            listener = self.callback(fn)
            if engine not in self._inspection_engines:
                self._inspection_engines.add(engine)
                listener = self.span(
                    listener, layer_of(fn),
                    counter="monitor.inspection.emitted")
            return original(engine, listener)
        return patched

    def _fault_hook(self, original: Callable[..., Any]
                    ) -> Callable[..., Any]:
        """Fault listeners; deliveries to training jobs are their own
        layer.  A delivery is useful when the job acts on it: the job
        is running or hung (its own gate) and the fault touches one of
        its machines or switches.  The check runs inside the delivery
        span, where it repeats work the job is about to do, and inflates
        the span's self time a little."""
        from repro.training.job import JobState

        live = (JobState.RUNNING, JobState.HUNG)

        @functools.wraps(original)
        def patched(injector, fn):
            layer = layer_of(fn)
            if layer != "training.step":
                return original(injector, self.span(fn, layer))
            job = getattr(fn, "__self__", None)
            if not hasattr(job, "_fault_touches_job"):
                job = None

            def delivery(event, fault):
                if (job is not None and job.state in live
                        and job._fault_touches_job(fault)):
                    self.count("training.fault_deliveries.useful")
                return fn(event, fault)
            return original(injector, self.span(
                delivery, "training.fault_delivery",
                counter="training.fault_deliveries"))
        return patched

    def _generator(self, original: Callable[..., Any], layer: str
                   ) -> Callable[..., Any]:
        @functools.wraps(original)
        def patched(*args, **kwargs):
            return self.timed_iter(original(*args, **kwargs), layer)
        return patched

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of everything traced, against ``wall_s``.

        ``wall_s`` is the traced run's measured wall time; the share of
        it no span claims is ``trace.unattributed_frac``.
        """
        counts = self.counts
        self_s = self.self_s
        spans = self.spans

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: Dict[str, float] = {
            f"{layer}.self_s": self_s[layer] for layer in LAYERS
            if layer != "experiments.dispatch"}
        out["experiments.dispatch.wait_s"] = self_s["experiments.dispatch"]
        sweeps = spans["monitor.inspection"]
        deliveries = counts["training.fault_deliveries"]
        dispatches = counts["cluster.scheduler.dispatch.calls"]
        out.update({
            "sim.events": counts["sim.events"],
            "monitor.inspection.sweeps": sweeps,
            "monitor.inspection.hit_ratio": ratio(
                counts["monitor.inspection.emitted"], sweeps),
            "monitor.collector.polls": spans["monitor.collector"],
            "monitor.detector.calls": spans["monitor.detector"],
            "training.steps": spans["training.step"],
            "training.fault_deliveries": deliveries,
            "training.fault_delivery.useful_ratio": ratio(
                counts["training.fault_deliveries.useful"],
                deliveries),
            "cluster.fault.injected": counts["cluster.fault.injected"],
            "cluster.hazard.ticks": spans["cluster.hazard"],
            "cluster.pool.calls": counts["cluster.pool.calls"],
            "cluster.scheduler.dispatch.calls": dispatches,
            "cluster.scheduler.dispatch.yield": ratio(
                counts["cluster.scheduler.dispatch.started"],
                dispatches),
            "checkpoint.plan_recovery.calls":
                counts["checkpoint.plan_recovery.calls"],
            "experiments.cache.hit_ratio": ratio(
                counts["experiments.cache.hits"],
                counts["experiments.cache.probes"]),
            "trace.unattributed_frac": ratio(
                max(0.0, wall_s - self.attributed_s), wall_s),
        })
        return out


# ----------------------------------------------------------------------
# simulated-time sampler
# ----------------------------------------------------------------------

def current_rss_mib() -> float:
    """Resident set size of this process now, in MiB."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


class Sampler:
    """A thread polling ``(wall, simulated time, RSS MiB)`` triples.

    It only reads ``now()``; it never schedules on the simulator, so the
    simulated run is the same with or without it.
    """

    def __init__(self, now: Callable[[], float]):
        self._now = now
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples: List[Tuple[float, float, float]] = []

    def _poll(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append((time.perf_counter(), self._now(),
                                 current_rss_mib()))

    def __enter__(self) -> "Sampler":
        self._thread = threading.Thread(target=self._poll,
                                        name="perfbench-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


def late_over_early_wall(samples: List[Tuple[float, float, float]],
                         wall_start: float, wall_end: float,
                         horizon_s: float) -> float:
    """Wall time per simulated second, last third over first third.

    The first third runs from ``wall_start`` until simulated time first
    reaches ``horizon_s / 3``; the last third from when it first reaches
    ``2 * horizon_s / 3`` until ``wall_end``.
    """
    def wall_at(sim_t: float) -> float:
        for wall, now, _rss in samples:
            if now >= sim_t:
                return wall
        return wall_end

    early = wall_at(horizon_s / 3.0) - wall_start
    late = wall_end - wall_at(2.0 * horizon_s / 3.0)
    return late / early if early > 0 else 0.0


def rss_mib_per_sim_day(samples: List[Tuple[float, float, float]]
                        ) -> float:
    """Least-squares slope of RSS (MiB) against simulated days."""
    points = [(now / 86400.0, rss) for _wall, now, rss in samples
              if now > 0]
    if len(points) < 2:
        return 0.0
    n = float(len(points))
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / var
