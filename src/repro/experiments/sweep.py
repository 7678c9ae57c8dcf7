"""Parallel scenario sweeps: grid expansion, streaming fan-out,
deterministic collection.

A sweep takes one or more :class:`SweepSpec`s — a registered scenario
name, fixed parameter overrides, and a grid of per-parameter value
lists — expands the grid into :class:`SweepCell`s (cartesian product in
sorted-key order, so cell indices are stable), and runs every cell
through an :class:`~repro.experiments.executor.Executor` backend:
inline (``workers=1``), a :mod:`multiprocessing` pool, or a remote
work-queue fabric where socket-connected workers pull cells and push
results (``python -m repro worker``).

Execution is **streaming** regardless of backend: cells are submitted
once and results come back the moment each worker finishes — cached
cells first, then simulated cells in completion order.  Every
completed cell is written to the
:class:`~repro.experiments.cache.ResultCache` *immediately*, so a sweep
killed mid-run resumes from the partial cache and re-simulates only the
unfinished cells.  :meth:`SweepRunner.stream` exposes the raw arrival
order; :meth:`SweepRunner.run` drains the stream and materializes the
final :class:`SweepResult` in cell-index order, and
:meth:`SweepRunner.fold` aggregates it in constant memory.

Every entry point takes a :class:`SweepRequest` — specs, base-seed
override and progress callback in one value — or a bare
:class:`SweepSpec` (or a sequence of them) as shorthand for one.

Determinism is a contract, not an accident:

* cell order is fixed by the expansion, and the collected result is
  sorted into cell order regardless of which worker finishes first;
* each cell's RNG seed is either the explicit ``seed`` parameter or
  derived from ``(base_seed, cell_index)`` via a stable hash, so the
  same grid produces the same reports no matter the worker count *or
  the backend*;
* cells already present in the cache are served from disk and never
  re-simulated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.cache import cell_key
from repro.experiments.executor import (
    Executor,
    InlineExecutor,
    ProcessPoolExecutor,
)
from repro.experiments.registry import get_scenario

#: Anything with the ResultCache get_many/put_many/persist_stats surface —
#: a local directory cache or a :class:`~repro.experiments.cache_service.CacheClient`.
CacheLike = Any

#: The :class:`~repro.experiments.summary.StreamingSummary` return type
#: of :meth:`SweepRunner.fold` — typed loosely here to keep the import
#: edge pointing summary → sweep, not both ways.
StreamingSummaryLike = Any


class SweepError(RuntimeError):
    """A sweep cell failed.

    Carries the failing cell's full identity so parallel failures are
    diagnosable without re-running inline: :attr:`cell` (the
    :class:`SweepCell`), :attr:`params` (its fully-resolved
    parameters), and :attr:`traceback_text` (the worker-side traceback,
    captured in the worker process and shipped back verbatim).
    """

    def __init__(self, message: str, cell: Optional["SweepCell"] = None,
                 traceback_text: str = ""):
        super().__init__(message)
        self.cell = cell
        self.params = dict(cell.params) if cell is not None else {}
        self.traceback_text = traceback_text


@dataclass(frozen=True)
class SweepSpec:
    """One scenario plus the parameter grid to explore over it."""

    scenario: str
    #: fixed overrides applied to every cell
    params: Dict[str, Any] = field(default_factory=dict)
    #: param name -> list of values; cells = cartesian product
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    base_seed: int = 0


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved point of a sweep."""

    index: int
    scenario: str
    params: Dict[str, Any]
    seed: int
    key: str
    #: True when the seed came from (base_seed, cell_index) rather
    #: than an explicit ``seed`` parameter — the aggregator uses this
    #: to tell seed sweeps apart from incidental per-cell seeding
    seed_derived: bool = False


@dataclass
class CellResult:
    """A cell plus its (possibly cached) report payload."""

    cell: SweepCell
    report: Dict[str, Any]
    cached: bool


@dataclass(frozen=True)
class SweepProgress:
    """One completed cell, as seen by a live progress callback."""

    done: int
    total: int
    result: CellResult
    #: wall-clock seconds since the sweep started streaming
    elapsed_s: float


#: Progress callbacks receive one event per completed cell, in
#: completion order (cached cells first).
ProgressCallback = Callable[[SweepProgress], None]


@dataclass
class SweepRequest:
    """Everything one sweep invocation needs, in a single value.

    ``specs`` accepts a single :class:`SweepSpec` or a sequence (it is
    normalized to a tuple).  ``base_seed``, when set, overrides every
    spec's own ``base_seed`` — the common "same grids, new seed" knob
    without rebuilding specs.  ``progress`` is the streaming callback.
    """

    specs: Union[SweepSpec, Sequence[SweepSpec]]
    base_seed: Optional[int] = None
    progress: Optional[ProgressCallback] = None

    def __post_init__(self) -> None:
        if isinstance(self.specs, SweepSpec):
            self.specs = (self.specs,)
        else:
            self.specs = tuple(self.specs)
        if not all(isinstance(s, SweepSpec) for s in self.specs):
            raise TypeError("SweepRequest.specs must be SweepSpec "
                            "instances")

    def resolved_specs(self) -> Tuple[SweepSpec, ...]:
        """Specs with the request-level ``base_seed`` applied."""
        if self.base_seed is None:
            return tuple(self.specs)
        return tuple(dataclasses.replace(s, base_seed=self.base_seed)
                     for s in self.specs)

    @classmethod
    def coerce(cls, request: Union["SweepRequest", SweepSpec,
                                   Sequence[SweepSpec]]
               ) -> "SweepRequest":
        """A request passes through; specs are wrapped in one."""
        if isinstance(request, SweepRequest):
            return request
        return cls(specs=request)


@dataclass
class SweepResult:
    """All cell results, in cell-index order."""

    results: List[CellResult]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def simulated(self) -> int:
        """Cells that actually streamed out of the executor this run."""
        return sum(1 for r in self.results if not r.cached)

    def stats(self) -> Dict[str, int]:
        return {"cells": len(self.results), "cache_hits": self.cache_hits,
                "simulated": self.simulated}

    def reports(self) -> List[Dict[str, Any]]:
        return [r.report for r in self.results]

    def to_dict(self) -> dict:
        return {
            "cells": [
                {
                    "index": r.cell.index,
                    "scenario": r.cell.scenario,
                    "params": dict(r.cell.params),
                    "seed": r.cell.seed,
                    "key": r.cell.key,
                    "report": r.report,
                }
                for r in self.results
            ],
        }


def derive_cell_seed(base_seed: int, index: int) -> int:
    """A stable, well-mixed per-cell seed from ``(base_seed, index)``.

    ``base_seed + index`` would correlate neighbouring cells (numpy
    seeds close together share low-order state); hashing decorrelates
    them while staying reproducible across processes and platforms.
    """
    digest = hashlib.sha256(
        f"{base_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def _validate_grid(grid: Dict[str, Sequence[Any]]) -> None:
    """Reject grid axes that would silently expand to zero cells.

    ``itertools.product`` over an empty value list yields nothing, so a
    typo like ``grid={"machines": []}`` used to produce a zero-cell
    sweep that "succeeded" instantly.  Fail loudly instead, naming the
    offending key.
    """
    for key in sorted(grid):
        if len(grid[key]) == 0:
            raise ValueError(
                f"sweep grid key {key!r} has an empty value list — it "
                f"would expand to zero cells; drop the key or give it "
                f"values")


def expand_grid(grid: Dict[str, Sequence[Any]]
                ) -> Iterator[Dict[str, Any]]:
    """Cartesian product of a grid, in sorted-key order, lazily.

    ``{}`` expands to one empty combination (a single-cell sweep).
    Validation (no empty value lists) happens eagerly at call time;
    the combinations themselves stream one dict at a time so a
    million-cell grid never materializes a list up front.
    """
    _validate_grid(grid)
    return _iter_grid(grid)


def _iter_grid(grid: Dict[str, Sequence[Any]]
               ) -> Iterator[Dict[str, Any]]:
    if not grid:
        yield {}
        return
    keys = sorted(grid)
    for values in itertools.product(*(grid[k] for k in keys)):
        yield dict(zip(keys, values))


def count_cells(specs: Sequence[SweepSpec]) -> int:
    """Total cell count of ``specs`` without expanding any cell.

    O(axes), not O(cells): the companion to the lazy
    :func:`expand_cells` — use it wherever the old code took
    ``len(expand_cells(...))``.  Runs the same eager validation
    (scenario lookup, empty-axis rejection) as expansion.
    """
    total = 0
    for spec in specs:
        get_scenario(spec.scenario)
        _validate_grid(spec.grid)
        n = 1
        for values in spec.grid.values():
            n *= len(values)
        total += n
    return total


def expand_cells(specs: Sequence[SweepSpec]) -> Iterator[SweepCell]:
    """Expand specs into cells with global, stable indices, lazily.

    Seed derivation uses the *spec-local* cell position, not the
    global index: a spec's cells (and their cache keys) stay identical
    no matter which other specs share the sweep.

    Returns a streaming iterator — indices, derived seeds, and cache
    keys are bit-identical to the historical eager expansion, but a
    10⁶-cell grid costs O(1) memory until consumed.  Scenario lookup
    and grid validation still happen eagerly at call time so bad specs
    fail before any cell runs.
    """
    specs = list(specs)
    resolved = [(spec, get_scenario(spec.scenario)) for spec in specs]
    for spec, _ in resolved:
        _validate_grid(spec.grid)
    return _iter_cells(resolved)


def _iter_cells(resolved: Sequence[Tuple[SweepSpec, Any]]
                ) -> Iterator[SweepCell]:
    index = 0
    for spec, scenario in resolved:
        param_specs = scenario.params
        takes_seed = "seed" in param_specs
        grid_keys = sorted(spec.grid)
        # every cell of a spec overrides the same key set, so the
        # seed-derivation flag is a per-spec constant
        derived = (takes_seed and "seed" not in spec.params
                   and "seed" not in spec.grid)
        base_seed = spec.base_seed
        scen_name = spec.scenario
        # first cell resolves through the full validating path; later
        # cells reuse its resolved dict and re-coerce only the keys
        # that actually change (grid axes + the derived seed) — the
        # O(params) per-cell resolve cost is what separates a 1M-cell
        # warm resume from the 30 s budget
        base: Optional[Dict[str, Any]] = None
        grid_coerce: List[Tuple[str, Any]] = []
        seed_coerce: Any = None
        combos = itertools.product(*(spec.grid[k] for k in grid_keys))
        for local_index, values in enumerate(combos):
            if base is None:
                overrides = dict(spec.params)
                overrides.update(zip(grid_keys, values))
                if derived:
                    overrides["seed"] = derive_cell_seed(base_seed,
                                                         local_index)
                params = scenario.resolve(overrides)
                base = params
                grid_coerce = [(k, param_specs[k].coerce)
                               for k in grid_keys]
                if derived:
                    seed_coerce = param_specs["seed"].coerce
            else:
                params = dict(base)
                for (k, coerce), value in zip(grid_coerce, values):
                    params[k] = coerce(value)
                if derived:
                    params["seed"] = seed_coerce(
                        derive_cell_seed(base_seed, local_index))
            # analytic scenarios have no RNG; pin the recorded seed so
            # their cache key depends only on the parameters
            seed = int(params["seed"]) if takes_seed else 0
            # build the frozen cell through __dict__ directly: the
            # generated frozen-dataclass __init__ pays one
            # object.__setattr__ per field, which is the single
            # largest expansion cost at a million cells
            cell = SweepCell.__new__(SweepCell)
            object.__setattr__(cell, "__dict__", {
                "index": index, "scenario": scen_name,
                "params": params, "seed": seed,
                "key": cell_key(scen_name, params, seed),
                "seed_derived": derived})
            yield cell
            index += 1


def _chunked(iterable: Iterator[Any], size: int
             ) -> Iterator[List[Any]]:
    """Consume an iterator into lists of at most ``size`` items."""
    while True:
        chunk = list(itertools.islice(iterable, size))
        if not chunk:
            return
        yield chunk


class SweepRunner:
    """Expands, fans out, caches, and collects a sweep.

    The runner owns *what* runs (expansion, cache policy, collection
    order); an :class:`~repro.experiments.executor.Executor` owns
    *where* it runs.  With no injected executor, ``workers=1`` picks
    the inline backend (no pool, easiest to debug and to measure
    coverage on) and ``workers>1`` a process pool; pass ``executor=``
    (e.g. a :class:`~repro.experiments.executor.RemoteExecutor`) to
    fan out anywhere else.  Either way results *stream*: each cell
    lands in the cache (and hits the progress callback) the moment it
    completes, not when the whole batch does.
    """

    #: default keys per cache probe chunk: big enough to amortize a
    #: TCP round-trip through the cache service, small enough that a
    #: batch of payloads never strains memory
    DEFAULT_CACHE_BATCH = 512

    #: max cache misses held in memory before they are dispatched to an
    #: auto-built backend: bounds the runner's resident set by the
    #: segment (a few tens of MB of cells), not the grid, so a
    #: million-cell cold sweep through the process pool stays well
    #: under the stress RSS ceiling.  Injected executors are
    #: single-use and still receive the whole miss list in one submit.
    DISPATCH_SEGMENT = 65536

    def __init__(self, workers: int = 1,
                 cache: Optional[CacheLike] = None,
                 executor: Optional[Executor] = None,
                 cache_batch: int = DEFAULT_CACHE_BATCH,
                 batch_size: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if cache_batch < 1:
            raise ValueError(f"cache_batch must be >= 1: {cache_batch}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.workers = workers
        self.cache = cache
        self.executor = executor
        #: keys per get_many/put_many call when probing/writing the cache
        self.cache_batch = cache_batch
        #: cells per dispatch batch for the auto-built process backend
        #: (1: every cell is its own batch, persisted as it completes)
        self.batch_size = batch_size

    def run(self, request: Union[SweepRequest, SweepSpec,
                                 Sequence[SweepSpec]]) -> SweepResult:
        """Drain the stream and return results in cell-index order.

        The collector is deterministic at any worker count and under
        any backend: whatever order cells *complete* in, the
        materialized result is sorted by cell index and therefore
        byte-identical run to run.  :meth:`fold` is the O(1)-memory
        alternative that retains no report payload.
        """
        results = sorted(self.stream(request),
                         key=lambda r: r.cell.index)
        if self.cache is not None:
            self.cache.persist_stats()
        return SweepResult(results=results)

    def fold(self, request: Union[SweepRequest, SweepSpec,
                                  Sequence[SweepSpec]],
             keep_rows: bool = True) -> "StreamingSummaryLike":
        """Stream the sweep into a :class:`StreamingSummary`.

        The constant-memory collector: each completed cell is folded
        into the summary and its report payload dropped immediately, so
        a million-cell sweep's peak RSS is bounded by the in-flight
        cells, not the grid.  With ``keep_rows=True`` the returned
        summary can still render the exact table ``summarize()`` would
        have produced (per-cell *metric rows* are kept — tiny compared
        to report payloads); ``keep_rows=False`` keeps only the rolling
        digest for true O(1) aggregation at stress scale.
        """
        from repro.experiments.summary import StreamingSummary

        folded = StreamingSummary(keep_rows=keep_rows)
        for result in self.stream(request):
            folded.add(result)
        if self.cache is not None:
            self.cache.persist_stats()
        return folded

    def stream(self, request: Union[SweepRequest, SweepSpec,
                                    Sequence[SweepSpec]]
               ) -> Iterator[CellResult]:
        """Yield :class:`CellResult`s as they complete.

        Cells are probed against the cache in ``cache_batch``-sized
        ``get_many`` chunks; hits are served (and yielded) the moment
        they are probed, misses accumulate into dispatch *segments* of
        at most :attr:`DISPATCH_SEGMENT` cells that execute before
        probing resumes — so the runner's memory is bounded by the
        segment, never the grid.  (Grids smaller than a segment get
        the historical behavior exactly: every cached cell first, then
        the rest in completion order.  Injected executors are
        single-use, so they receive all misses as one segment.)  Each
        simulated result batch is written to the cache *before* any of
        its cells is yielded (one cell per batch for the inline backend
        and at the default ``batch_size=1``), so an interrupted
        consumer loses at most the in-flight cells — a restart
        re-simulates only what never finished.
        """
        request = SweepRequest.coerce(request)
        cache = self.cache
        progress = request.progress
        specs = request.resolved_specs()
        total = count_cells(specs)
        started = time.monotonic()
        done = 0

        chunks = _chunked(expand_cells(specs), self.cache_batch)
        seg_cap = (self.DISPATCH_SEGMENT if self.executor is None
                   else None)
        exhausted = False
        while not exhausted:
            # Phase 1 (per segment) — probe the cache in key batches
            # while the lazy expansion streams cells through: one
            # get_many per chunk instead of one open()/round-trip per
            # cell.  Hits yield immediately; misses accumulate into
            # the segment worklist (bounded by ``seg_cap``, not grid
            # size — it may overshoot by at most one probe chunk).
            segment: List[SweepCell] = []
            for chunk in chunks:
                if cache is None:
                    segment.extend(chunk)
                else:
                    payloads = cache.get_many(
                        [(cell.key, cell.scenario) for cell in chunk])
                    for cell, payload in zip(chunk, payloads):
                        if payload is None:
                            segment.append(cell)
                            continue
                        done += 1
                        result = CellResult(cell=cell, report=payload,
                                            cached=True)
                        if progress is not None:
                            progress(SweepProgress(
                                done=done, total=total, result=result,
                                elapsed_s=time.monotonic() - started))
                        yield result
                if seg_cap is not None and len(segment) >= seg_cap:
                    break
            else:
                exhausted = True

            # Phase 2 — execute the segment's misses.  Results arrive
            # in dispatch batches (one cell each for the inline
            # backend); each batch is written to the cache *before*
            # any of its cells is yielded, preserving the resume
            # contract at batch granularity.
            # The explicit close() in the finally propagates a
            # consumer's early abandonment (GeneratorExit) into the
            # executor generator immediately, so worker pools shut
            # down at close time, not at GC time.
            executing = self._execute(segment)
            try:
                for batch in executing:
                    completed: List[Tuple[SweepCell, str, Any]] = []
                    failed: Optional[Tuple[SweepCell, str, Any]] = None
                    for item in batch:
                        if item[1] != "ok":
                            failed = item
                            break
                        completed.append(item)
                    if cache is not None and completed:
                        cache.put_many(
                            [(cell.key, payload, cell.scenario)
                             for cell, _status, payload in completed])
                    for cell, _status, payload in completed:
                        done += 1
                        result = CellResult(cell=cell, report=payload,
                                            cached=False)
                        if progress is not None:
                            progress(SweepProgress(
                                done=done, total=total, result=result,
                                elapsed_s=time.monotonic() - started))
                        yield result
                    if failed is not None:
                        cell, _status, payload = failed
                        raise SweepError(
                            f"cell #{cell.index} ({cell.scenario} "
                            f"{cell.params}) failed:\n{payload}",
                            cell=cell, traceback_text=str(payload))
            finally:
                executing.close()

    # ------------------------------------------------------------------
    def _execute(self, cells: Sequence[SweepCell]
                 ) -> Iterator[List[Tuple[SweepCell, str,
                                          Union[Dict[str, Any], str]]]]:
        """Yield batches of ``(cell, status, payload)`` in completion
        order."""
        if not cells:
            return
        if self.executor is not None:
            # caller-owned backend (e.g. a listening RemoteExecutor):
            # drive it, but leave close() to whoever built it
            self.executor.submit_cells(cells)
            yield from self.executor.results_batched()
            return
        if self.workers == 1 or len(cells) == 1:
            backend: Executor = InlineExecutor()
        else:
            backend = ProcessPoolExecutor(workers=self.workers,
                                          batch_size=self.batch_size)
        with backend:
            backend.submit_cells(cells)
            yield from backend.results_batched()
