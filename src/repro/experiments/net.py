"""Socket plumbing for the distributed sweep fabric.

One wire format everywhere: newline-delimited JSON (one message per
line, UTF-8).  Cell parameters and reports are already JSON-safe by
the cache layer's round-trip invariant, so the fabric never needs
pickling — a worker can be any Python that can import ``repro``.

* :class:`MessageStream` — a thread-safe framed reader/writer over one
  TCP socket (writes are locked so a heartbeat thread and a result
  send never interleave bytes);
* :func:`parse_address` — ``"host:port"`` CLI strings;
* :func:`connect_with_retry` — dial with backoff so workers may start
  before the sweep is listening (or vice versa);
* :func:`run_worker` — the ``python -m repro worker`` loop: connect to
  a :class:`~repro.experiments.executor.RemoteExecutor`, pull
  ``cells`` batches, push one ``results`` message per batch, heartbeat
  while simulating.

The worker protocol is ``hello`` from the worker, then repeated
``cells`` assignments (a list of ``{slot, scenario, params}``)
answered by ``results`` (a list of ``{slot, status, payload}``), with
``ping`` heartbeats in between and a final ``shutdown``.  A batch of
one cell is still a ``cells``/``results`` pair: there is no per-cell
message shape.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple


class MessageStream:
    """Newline-delimited JSON messages over one socket, thread-safe
    on the write side."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._rfile = sock.makefile("rb")
        self._wlock = threading.Lock()

    def send(self, obj: Dict[str, Any]) -> None:
        data = json.dumps(obj, separators=(",", ":"),
                          sort_keys=True).encode("utf-8") + b"\n"
        with self._wlock:
            self.sock.sendall(data)

    def recv(self) -> Optional[Dict[str, Any]]:
        """The next message, or None on orderly EOF.

        Raises ``socket.timeout`` / ``OSError`` on dead peers and
        ``ValueError`` on garbage — callers treat all three as a lost
        connection.
        """
        line = self._rfile.readline()
        if not line:
            return None
        msg = json.loads(line.decode("utf-8"))
        if not isinstance(msg, dict):
            raise ValueError(f"expected a JSON object, got {type(msg)}")
        return msg

    def close(self) -> None:
        try:
            self._rfile.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def parse_address(text: str, default_host: str = "127.0.0.1"
                  ) -> Tuple[str, int]:
    """``"host:port"`` (or bare ``"port"``) -> ``(host, port)``."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid address {text!r}: "
                         f"expected HOST:PORT") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid port in {text!r}")
    return (host or default_host, port)


def connect_with_retry(address: Tuple[str, int],
                       timeout_s: float = 30.0,
                       interval_s: float = 0.2) -> socket.socket:
    """Dial ``address``, retrying until ``timeout_s`` — so worker and
    sweep processes can be launched in either order."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return socket.create_connection(address, timeout=10.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(interval_s)


class _Heartbeat:
    """Background ``ping`` sender while a cell simulates."""

    def __init__(self, stream: MessageStream, interval_s: float):
        self._stream = stream
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="worker-heartbeat",
                                        daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._stream.send({"type": "ping"})
            except OSError:
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def run_worker(address: Tuple[str, int], heartbeat_s: float = 2.0,
               connect_timeout_s: float = 30.0,
               max_cells: Optional[int] = None,
               fail_after: Optional[int] = None,
               log=None) -> int:
    """Serve one sweep: pull cell batches, run them, push results back.

    Each ``cells`` assignment runs under one heartbeat and returns in
    one ``results`` message, so per-message JSON and syscall costs
    amortize across the batch.

    Returns the number of cells completed.  Exits when the executor
    says ``shutdown``, the connection closes, or ``max_cells`` is
    reached.  ``fail_after`` is a failure-injection hook for tests and
    the CI smoke job: after completing that many cells the worker
    drops the connection *on its next assignment, without replying* —
    from the executor's point of view, a worker killed mid-cell.
    """
    from repro.experiments.executor import run_cell_batch

    sock = connect_with_retry(address, timeout_s=connect_timeout_s)
    # a worker stuck in a simulation cannot notice a half-closed TCP
    # peer; keepalive bounds how long a dead executor pins a worker
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    sock.settimeout(None)
    stream = MessageStream(sock)
    completed = 0
    try:
        stream.send({"type": "hello", "proto": 1})
        while True:
            msg = stream.recv()
            if msg is None or msg.get("type") == "shutdown":
                break
            if msg.get("type") != "cells":
                continue
            if fail_after is not None and completed >= fail_after:
                # simulate a mid-batch crash: assignment accepted, no
                # results
                return completed
            jobs = msg["cells"]
            if log is not None:
                log(f"batch of {len(jobs)} cell(s) "
                    f"(first slot={jobs[0]['slot'] if jobs else '-'})")
            with _Heartbeat(stream, heartbeat_s):
                outcomes = run_cell_batch(
                    [(int(job["slot"]), job["scenario"], job["params"])
                     for job in jobs])
            completed += len(outcomes)
            stream.send({"type": "results", "results": [
                {"slot": slot, "status": status, "payload": payload}
                for slot, status, payload in outcomes]})
            if max_cells is not None and completed >= max_cells:
                break
    except (OSError, ValueError):
        pass      # executor went away; nothing left to serve
    finally:
        stream.close()
    return completed
