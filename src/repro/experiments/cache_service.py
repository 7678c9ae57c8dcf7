"""A shared :class:`~repro.experiments.cache.ResultCache` service.

``python -m repro cache-serve`` wraps one on-disk cache in a small
threaded TCP server so N sweep hosts share a single content-addressed
store: the first host to simulate a cell publishes it, every other
host gets a hit.  Because cell keys are host-independent content
hashes, the server needs no coordination beyond the cache's own
append-only segment logs — one lock serializes requests, and the
``stats`` op counts entries from the in-memory index, not the disk.

The wire format is the fabric's newline-delimited JSON
(:mod:`repro.experiments.net`), one request/response pair per line:

=============  ==================================  ====================
op             request fields                      response
=============  ==================================  ====================
``get_many``   ``items``: list of ``{key,          ``payloads`` (input
               scenario}``                         order, null on miss)
``put_many``   ``items``: list of ``{key,          —
               scenario, payload}``
``stats``      —                                   ``stats``,
                                                   ``entries``,
                                                   ``requests``
``lifetime``   —                                   ``stats``
``persist``    —                                   —
``ping``       —                                   —
=============  ==================================  ====================

Entry traffic is batched only — one entry is a list of one.  Probing
a million-cell grid one round-trip per cell would cost a network RTT
*per cell*; batched, the probe amortizes to one RTT per ~512 cells
(``SweepRunner.cache_batch``).

Every response carries ``ok``; failures (an unknown or malformed
``op``, missing fields) carry ``error`` instead of tearing the
connection down.  The cache's lifetime hit/miss/write counters become
*server* metrics: they accumulate across every connected client and
land in the on-disk sidecar via ``persist`` (also folded
automatically at server shutdown).

:class:`CacheClient` is the matching :class:`ResultCache`-compatible
proxy — ``get_many``/``put_many``/``stats``/``persist_stats``/
``__len__`` over one persistent connection — so
:class:`~repro.experiments.sweep.SweepRunner` never knows whether its
cache is a directory or a service.
"""

from __future__ import annotations

import socketserver
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache
from repro.experiments.net import MessageStream, connect_with_retry


class CacheServiceError(RuntimeError):
    """The cache service answered with an error (or not at all)."""


class _CacheRequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: "CacheServer" = self.server.cache_server  # type: ignore[attr-defined]
        stream = MessageStream(self.connection)
        while True:
            try:
                msg = stream.recv()
            except (OSError, ValueError):
                return
            if msg is None:
                return
            try:
                stream.send(service.handle_request(msg))
            except OSError:
                return


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class CacheServer:
    """Serve one :class:`ResultCache` directory over TCP.

    ``start()`` serves from a background thread (tests, embedded
    use); ``serve_forever()`` blocks (the CLI).  ``close()`` persists
    the accumulated lifetime counters before shutting the socket
    down, so a Ctrl-C'd service leaves accurate server metrics on
    disk.
    """

    def __init__(self, directory: Union[str, Path],
                 host: str = "127.0.0.1", port: int = 0):
        self.cache = ResultCache(directory)
        self._lock = threading.Lock()
        self.requests: Dict[str, int] = {}
        self._server = _ThreadedTCPServer((host, port),
                                          _CacheRequestHandler)
        # socketserver dispatches to the handler class, which calls
        # back into this service through the server object
        self._server.cache_server = self  # type: ignore[attr-defined]
        self.address: Tuple[str, int] = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    # -- request dispatch ----------------------------------------------

    def handle_request(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        op = msg.get("op")
        with self._lock:
            try:
                if not isinstance(op, str):
                    raise TypeError(f"op must be a string, got {op!r}")
                self.requests[op] = self.requests.get(op, 0) + 1
                if op == "get_many":
                    payloads = self.cache.get_many(
                        [(str(item["key"]), item.get("scenario"))
                         for item in msg["items"]])
                    return {"ok": True, "payloads": payloads}
                if op == "put_many":
                    self.cache.put_many(
                        [(str(item["key"]), item["payload"],
                          item.get("scenario"))
                         for item in msg["items"]])
                    return {"ok": True}
                if op == "stats":
                    return {"ok": True, "stats": self.cache.stats(),
                            "entries": len(self.cache),
                            "requests": dict(self.requests)}
                if op == "lifetime":
                    return {"ok": True,
                            "stats": self.cache.lifetime_stats()}
                if op == "persist":
                    self.cache.persist_stats()
                    return {"ok": True}
                if op == "ping":
                    return {"ok": True}
                return {"ok": False, "error": f"unknown op {op!r}"}
            except (KeyError, TypeError, OSError, ValueError) as exc:
                return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "CacheServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="cache-server", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            self.cache.persist_stats()

    def __enter__(self) -> "CacheServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class CacheClient:
    """A :class:`ResultCache`-shaped proxy over one TCP connection.

    Mirrors the cache surface the sweep layer uses — ``get_many``/
    ``put_many``/``stats``/``lifetime_stats``/``persist_stats``/
    ``__len__`` — and keeps its *own* hit/miss/write counters for this
    client's traffic (the server's counters aggregate every client).  One reconnect is
    attempted per request, so a bounced server costs a retry, not a
    sweep.
    """

    def __init__(self, address: Tuple[str, int],
                 timeout_s: float = 30.0,
                 connect_timeout_s: float = 10.0):
        self.address = address
        self.timeout_s = timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._lock = threading.Lock()
        self._stream: Optional[MessageStream] = None

    # -- wire ----------------------------------------------------------

    def _connect(self) -> MessageStream:
        sock = connect_with_retry(self.address,
                                  timeout_s=self.connect_timeout_s)
        sock.settimeout(self.timeout_s)
        return MessageStream(sock)

    def _request(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            for attempt in (0, 1):
                if self._stream is None:
                    self._stream = self._connect()
                try:
                    self._stream.send(msg)
                    reply = self._stream.recv()
                    if reply is None:
                        raise ConnectionError("server closed connection")
                    break
                except (OSError, ValueError, ConnectionError):
                    self._stream.close()
                    self._stream = None
                    if attempt:
                        raise CacheServiceError(
                            f"cache service at "
                            f"{self.address[0]}:{self.address[1]} "
                            f"unreachable") from None
        if not reply.get("ok"):
            raise CacheServiceError(
                reply.get("error", "cache service error"))
        return reply

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self) -> "CacheClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- ResultCache surface -------------------------------------------

    def get_many(self, items: Sequence[Tuple[str, Optional[str]]]
                 ) -> List[Optional[Dict[str, Any]]]:
        """Batch probe: one round-trip for a whole chunk of keys."""
        if not items:
            return []
        payloads = self._request(
            {"op": "get_many",
             "items": [{"key": key, "scenario": scenario}
                       for key, scenario in items]})["payloads"]
        for payload in payloads:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        return payloads

    def put_many(self, items: Sequence[Tuple[str, Dict[str, Any],
                                             Optional[str]]]) -> None:
        """Batch publish: one round-trip for a whole result batch."""
        if not items:
            return
        self.writes += len(items)
        self._request(
            {"op": "put_many",
             "items": [{"key": key, "scenario": scenario,
                        "payload": payload}
                       for key, payload, scenario in items]})

    def stats(self) -> Dict[str, int]:
        """This client's traffic (mirrors ``ResultCache.stats``)."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}

    def server_stats(self) -> Dict[str, Any]:
        """The server's aggregate view: counters across every client,
        entry count, and per-op request totals."""
        reply = self._request({"op": "stats"})
        return {"stats": reply["stats"], "entries": reply["entries"],
                "requests": reply["requests"]}

    def lifetime_stats(self) -> Dict[str, int]:
        return self._request({"op": "lifetime"})["stats"]

    def persist_stats(self) -> None:
        self._request({"op": "persist"})

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"})["ok"])

    def __len__(self) -> int:
        return int(self._request({"op": "stats"})["entries"])
