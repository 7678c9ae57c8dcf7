"""Pluggable sweep execution backends: the :class:`Executor` API.

:class:`~repro.experiments.sweep.SweepRunner` used to own a
:mod:`multiprocessing` pool directly; it now drives any backend that
implements this interface:

* :meth:`Executor.submit_cells` hands the backend every cell that
  needs simulating (cache hits never reach an executor);
* :meth:`Executor.results_batched` yields lists of ``(cell, status,
  payload)`` tuples, one list per dispatch batch, in *completion*
  order — streaming, one batch the moment a worker finishes it.  The
  runner writes each batch to the cache in one ``put_many`` and
  re-sorts by cell index afterwards, so completion order never leaks
  into a :class:`~repro.experiments.sweep.SweepResult` and every
  backend is byte-identical to every other at any worker count.

There is one dispatch path at every ``batch_size``: a batch of one is
a batch.  The process pool ships one pickled *list* of jobs per task
and the remote protocol one ``cells``/``results`` message pair per
batch; ``batch_size > 1`` only amortizes those per-task constants
across more cells, for cheap analytic grids.  Completion order,
heartbeats, dead-worker re-queue, and collected bytes are unchanged
at any batch size.

Backends:

* :class:`InlineExecutor` — runs cells in the calling process, one at
  a time (the ``workers=1`` path: easiest to debug, visible to
  coverage);
* :class:`ProcessPoolExecutor` — the historical ``multiprocessing``
  pool, forking where the platform allows it;
* :class:`RemoteExecutor` — a TCP work-queue server: remote workers
  (``python -m repro worker --connect host:port``) pull cell batches
  and push results back over length-delimited JSON, with per-worker
  heartbeats, dead-worker re-queue, and late-joining workers picked
  up as they connect.

Executors are **single-sweep** objects: one :meth:`submit_cells`, one
:meth:`results_batched` drain, then :meth:`close` (or use the instance
as a context manager).  The runner constructs one per ``_execute``
call when none is injected.
"""

from __future__ import annotations

import abc
import multiprocessing
import queue
import socket
import threading
import time
import traceback
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.experiments.net import MessageStream
from repro.experiments.registry import get_scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.sweep import SweepCell

#: What an executor yields per cell: ``(cell, "ok"|"error", payload)``
#: where the payload is the JSON-safe report on success or the
#: worker-side traceback text on failure.
CellOutcome = Tuple["SweepCell", str, Union[Dict[str, Any], str]]


def run_cell(args: Tuple[int, str, Dict[str, Any]]
             ) -> Tuple[int, str, Union[Dict[str, Any], str]]:
    """Build + run one cell, returning a JSON-safe payload.

    Must stay a module-level function (pickled by multiprocessing and
    imported by remote workers).  The leading slot index survives
    out-of-order completion, and exceptions are returned as traceback
    strings — raising inside a worker would lose the cell identity on
    the collecting side.
    """
    index, scenario_name, params = args
    try:
        scenario = get_scenario(scenario_name).build(**params)
        outcome = scenario.run()
        report = (outcome.to_dict() if hasattr(outcome, "to_dict")
                  else dict(outcome))
        return (index, "ok", report)
    except Exception:
        return (index, "error", traceback.format_exc())


def run_cell_batch(jobs: Sequence[Tuple[int, str, Dict[str, Any]]]
                   ) -> "list":
    """Run a batch of cells in one worker task.

    Module-level for the same pickling reason as :func:`run_cell`.
    One pool task per *batch* divides the per-task pickle/dispatch
    constant across ``len(jobs)`` cells — the difference between
    overhead-bound and compute-bound for microsecond analytic cells.
    """
    return [run_cell(job) for job in jobs]


class ExecutorError(RuntimeError):
    """An executor could not make progress (e.g. every worker died)."""


class Executor(abc.ABC):
    """One sweep's execution backend (see module docstring)."""

    #: registry name (``--backend`` on the CLI)
    name: str = ""

    def __init__(self) -> None:
        self._cells: Optional[Sequence["SweepCell"]] = None

    @abc.abstractmethod
    def submit_cells(self, cells: Sequence["SweepCell"]) -> None:
        """Hand the backend every cell to simulate (exactly once)."""

    @abc.abstractmethod
    def results_batched(self) -> Iterator[List[CellOutcome]]:
        """Yield one list of ``(cell, status, payload)`` outcomes per
        dispatch batch, in completion order, covering every submitted
        cell exactly once."""

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def _record_submit(self, cells: Sequence["SweepCell"]) -> None:
        if self._cells is not None:
            raise ExecutorError(
                f"{type(self).__name__} is single-use: submit_cells() "
                f"was already called")
        self._cells = list(cells)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class InlineExecutor(Executor):
    """Run cells in the calling process, one at a time."""

    name = "inline"

    def submit_cells(self, cells: Sequence["SweepCell"]) -> None:
        self._record_submit(cells)

    def results_batched(self) -> Iterator[List[CellOutcome]]:
        for slot, cell in enumerate(self._cells or ()):
            _slot, status, payload = run_cell(
                (slot, cell.scenario, cell.params))
            yield [(cell, status, payload)]


class ProcessPoolExecutor(Executor):
    """The historical ``multiprocessing`` pool backend.

    Forks where the platform allows it (spawn elsewhere), sizes the
    pool to ``min(workers, cells)``, and surfaces each result the
    moment its worker finishes via ``imap_unordered``.
    """

    name = "process"

    def __init__(self, workers: int = 2, batch_size: int = 1):
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.workers = workers
        self.batch_size = batch_size

    def results_batched(self) -> Iterator[List[CellOutcome]]:
        cells = self._cells or ()
        jobs = [(slot, c.scenario, c.params)
                for slot, c in enumerate(cells)]
        chunks = [jobs[i:i + self.batch_size]
                  for i in range(0, len(jobs), self.batch_size)]
        if self.workers == 1 or len(chunks) <= 1:
            for chunk in chunks:
                yield [(cells[slot], status, payload)
                       for slot, status, payload in run_cell_batch(chunk)]
            return
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        with ctx.Pool(processes=min(self.workers, len(chunks))) as pool:
            for outcomes in pool.imap_unordered(
                    run_cell_batch, chunks, chunksize=1):
                yield [(cells[slot], status, payload)
                       for slot, status, payload in outcomes]

    def submit_cells(self, cells: Sequence["SweepCell"]) -> None:
        self._record_submit(cells)


class RemoteExecutor(Executor):
    """A TCP work-queue server for socket-connected workers.

    The executor *listens*; workers connect (any time — before the
    sweep, mid-sweep, after another worker died) and loop pulling one
    batch of up to :attr:`batch_size` cells, running it, pushing the
    results.  While a worker is simulating it sends ``ping``
    heartbeats; a connection that goes silent for
    :attr:`heartbeat_timeout_s` (or drops) is declared dead and its
    in-flight batch goes back on the queue for the next worker.  A
    connection that replies for a slot outside its current assignment
    is treated the same way — nothing it sent is recorded.  Duplicate
    results from a worker that was declared dead but raced a late
    result are discarded — each cell completes exactly once.

    :meth:`results_batched` raises :class:`ExecutorError` if work is
    outstanding and no worker has been connected for
    :attr:`idle_timeout_s` (a sweep that would otherwise hang forever
    on a typo'd port now fails loudly).
    """

    name = "remote"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 heartbeat_timeout_s: float = 10.0,
                 idle_timeout_s: float = 60.0,
                 batch_size: int = 1):
        super().__init__()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.idle_timeout_s = idle_timeout_s
        #: most cells per ``cells`` assignment message
        self.batch_size = batch_size
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self._sock.settimeout(0.2)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._pending: "queue.Queue[int]" = queue.Queue()
        #: completed outcome batches, as ``(slot, status, payload)``
        self._results: "queue.Queue[list]" = queue.Queue()
        self._lock = threading.Lock()
        self._completed: set = set()
        self._closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: list = []
        self._active_workers = 0
        self._last_worker_seen = time.monotonic()
        #: observability for tests and the CLI summary line
        self.stats: Dict[str, int] = {
            "workers_connected": 0, "workers_lost": 0, "requeued": 0}

    # -- server side ---------------------------------------------------

    def submit_cells(self, cells: Sequence["SweepCell"]) -> None:
        self._record_submit(cells)
        for slot in range(len(self._cells or ())):
            self._pending.put(slot)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="remote-executor-accept",
            daemon=True)
        self._accept_thread.start()

    def results_batched(self) -> Iterator[List[CellOutcome]]:
        cells = self._cells
        if cells is None:
            raise ExecutorError("results_batched() before submit_cells()")
        produced = 0
        self._last_worker_seen = time.monotonic()
        while produced < len(cells):
            try:
                batch = self._results.get(timeout=0.25)
            except queue.Empty:
                with self._lock:
                    idle = (self._active_workers == 0)
                if idle and (time.monotonic() - self._last_worker_seen
                             > self.idle_timeout_s):
                    raise ExecutorError(
                        f"remote sweep stalled: {len(cells) - produced} "
                        f"cell(s) outstanding and no worker connected "
                        f"to {self.address[0]}:{self.address[1]} for "
                        f"{self.idle_timeout_s:.0f}s")
                continue
            produced += len(batch)
            yield [(cells[slot], status, payload)
                   for slot, status, payload in batch]

    def close(self) -> None:
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for handler in list(self._handlers):
            handler.join(timeout=2.0)

    # -- worker connections --------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            handler = threading.Thread(
                target=self._serve_worker, args=(conn,),
                name="remote-executor-worker", daemon=True)
            handler.start()
            self._handlers.append(handler)

    def _all_done(self) -> bool:
        with self._lock:
            return len(self._completed) >= len(self._cells or ())

    def _finish_batch(self, triples: "list") -> None:
        """Record a batch of results; duplicates (dead-worker races)
        are dropped."""
        fresh = []
        with self._lock:
            for slot, status, payload in triples:
                if slot in self._completed:
                    continue
                self._completed.add(slot)
                fresh.append((slot, status, payload))
        if fresh:
            self._results.put(fresh)

    def _take_batch(self) -> "list":
        """Pull up to ``batch_size`` pending slots (at least one, with
        a short wait), dropping any that completed while queued."""
        try:
            slot = self._pending.get(timeout=0.2)
        except queue.Empty:
            return []
        batch = [slot]
        while len(batch) < self.batch_size:
            try:
                batch.append(self._pending.get_nowait())
            except queue.Empty:
                break
        with self._lock:
            # re-queued twice, then raced a finish
            return [s for s in batch if s not in self._completed]

    def _serve_worker(self, conn: socket.socket) -> None:
        cells = self._cells or ()
        in_flight: "list" = []
        stream = MessageStream(conn)
        with self._lock:
            self._active_workers += 1
            self.stats["workers_connected"] += 1
            self._last_worker_seen = time.monotonic()
        try:
            conn.settimeout(self.heartbeat_timeout_s)
            hello = stream.recv()
            if not hello or hello.get("type") != "hello":
                return
            while not self._closed.is_set():
                if self._all_done():
                    stream.send({"type": "shutdown"})
                    return
                batch = self._take_batch()
                if not batch:
                    continue
                in_flight = list(batch)
                stream.send({"type": "cells", "cells": [
                    {"slot": slot,
                     "scenario": cells[slot].scenario,
                     "params": cells[slot].params}
                    for slot in batch]})
                outstanding = set(batch)
                while outstanding:
                    msg = stream.recv()
                    if msg is None:
                        raise ConnectionError("worker closed mid-batch")
                    mtype = msg.get("type")
                    if mtype == "ping":
                        continue
                    if mtype != "results":
                        raise ConnectionError(
                            f"unexpected worker message {mtype!r}")
                    triples = [(int(r["slot"]), str(r["status"]),
                                r["payload"])
                               for r in msg["results"]]
                    slots = {slot for slot, _status, _payload in triples}
                    # only slots this connection holds and has not yet
                    # answered: a forged or stray reply must never be
                    # recorded (or index past the cell list)
                    if not slots <= outstanding:
                        raise ConnectionError(
                            f"worker replied for unassigned slot(s) "
                            f"{sorted(slots - outstanding)}")
                    self._finish_batch(triples)
                    outstanding.difference_update(slots)
                in_flight = []
        except (OSError, ValueError, KeyError, TypeError):
            pass
        finally:
            if in_flight:
                with self._lock:
                    lost = [s for s in in_flight
                            if s not in self._completed]
                if lost:
                    self.stats["requeued"] += len(lost)
                    for slot in lost:
                        self._pending.put(slot)
                with self._lock:
                    self.stats["workers_lost"] += 1
            with self._lock:
                self._active_workers -= 1
                self._last_worker_seen = time.monotonic()
            stream.close()


#: ``--backend`` name -> factory (see :func:`make_executor`).
EXECUTOR_BACKENDS = ("inline", "process", "remote")


def make_executor(backend: str, workers: int = 1,
                  listen: Optional[Tuple[str, int]] = None,
                  heartbeat_timeout_s: float = 10.0,
                  idle_timeout_s: float = 60.0,
                  batch_size: int = 1) -> Executor:
    """Construct an executor by registry name.

    ``inline`` ignores ``workers``; ``process`` sizes its pool from
    it; ``remote`` listens on ``listen`` (default loopback, ephemeral
    port — read :attr:`RemoteExecutor.address` for the bound port).
    ``batch_size`` sets the dispatch batch for the batching backends
    (``inline`` is inherently one-at-a-time).
    """
    if backend == "inline":
        return InlineExecutor()
    if backend == "process":
        return ProcessPoolExecutor(workers=max(1, workers),
                                   batch_size=batch_size)
    if backend == "remote":
        host, port = listen if listen is not None else ("127.0.0.1", 0)
        return RemoteExecutor(host=host, port=port,
                              heartbeat_timeout_s=heartbeat_timeout_s,
                              idle_timeout_s=idle_timeout_s,
                              batch_size=batch_size)
    raise ValueError(
        f"unknown executor backend {backend!r} "
        f"(one of {', '.join(EXECUTOR_BACKENDS)})")
