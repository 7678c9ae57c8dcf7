"""On-disk result cache for sweep cells.

A cell is identified by a *stable* content hash of everything that
determines its output: scenario name, fully-resolved parameters, seed,
the package version, and a schema version bumped whenever the report
format changes.  Cache entries are single JSON files named by that
hash, written atomically (tmp + rename) so concurrent workers sharing
one cache directory never observe torn files.

Entries are grouped into one subdirectory per scenario
(``<dir>/<scenario>/<cell_key>.json``) so maintenance commands can
enumerate or prune a scenario's cells without parsing payloads; the
legacy flat layout (``<dir>/<cell_key>.json``) is still used when an
item's scenario is ``None``.

All traffic is batched: :meth:`ResultCache.get_many` probes and
:meth:`ResultCache.put_many` writes a list of entries per call (a
single entry is a list of one), which is also the only shape the
cache service puts on the wire.

The key is **configuration-addressed, not code-addressed**: the
package version covers releases, but uncommitted edits to the
simulator change results without changing keys.  When hacking on
simulation code, pass ``--no-cache`` (or clear the cache directory)
to avoid being served stale numbers.

Because keys embed the package/schema versions, entries written under
an older version can never hit again; they still show up in
``repro cache`` entry counts and bytes until removed.  Run
``repro cache --clear`` after upgrading to reclaim the space (the
next sweep re-simulates and repopulates).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import __version__

#: Bump when RunReport.to_dict() or cell payload layout changes — or
#: when the *values* inside reports change, e.g. any bump of
#: ``repro.training.metrics.METRICS_SCHEMA_VERSION`` (the drawn-value
#: schema): the two must move together so a stale cache can never
#: serve a report computed under the old draws.
#: 2: reports carry ``mfu_series`` + per-incident ``resolution_s``;
#:    entries live in per-scenario subdirectories.
#: 3: loss/grad-norm noise is drawn in 4096-step blocks
#:    (METRICS_SCHEMA_VERSION 2) — drawn values changed.
#: 4: fleet job payloads carry lifecycle fields (``lifecycle_state``,
#:    ``preemptions``, ``resumes``, ``resize_events``,
#:    ``wasted_machine_seconds``) and the scheduler stats block grew
#:    preemption/resize counters.
CACHE_SCHEMA_VERSION = 4

#: Sidecar file holding lifetime traffic counters (hits/misses/writes
#: accumulated across sweeps via :meth:`ResultCache.persist_stats`).
STATS_FILENAME = "_stats.json"


#: One preconstructed encoder for cell_key: ``json.dumps`` with
#: keyword arguments builds a fresh ``JSONEncoder`` per call, which a
#: million-key expansion pays dearly for.  Byte-identical output.
_KEY_ENCODE = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str).encode

#: Strings the JSON encoder emits verbatim between quotes: printable
#: ASCII with no ``"`` or ``\`` — anything else takes the encoder
#: fallback below.
_PLAIN_STR = re.compile(r'^[ !#-\[\]-~]*$').match

_INF = float("inf")


def _key_scalar(value: Any) -> Optional[str]:
    """``value`` as JSON-encoder-identical text, or None to punt.

    Covers exactly the scalar cases whose encoding is trivially
    byte-stable (ints, finite floats, plain ASCII strings, bools,
    None); every other value — containers, NaN/inf, exotic strings,
    non-JSON types hitting ``default=str`` — falls back to the real
    encoder so fast-path keys can never drift from it.
    """
    t = type(value)
    if t is int:
        return repr(value)
    if t is float:
        if value != value or value == _INF or value == -_INF:
            return None
        return repr(value)
    if t is str:
        if _PLAIN_STR(value):
            return f'"{value}"'
        return None
    if t is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return None


#: Constant fragments of every key blob, around the two per-cell holes
#: (sorted key order is params, scenario, schema, seed, version — the
#: schema/version pieces never vary within a process); None disables
#: the fast path entirely if the version string itself would need
#: escaping.
_KEY_MID = f'","schema":{CACHE_SCHEMA_VERSION},"seed":'
_KEY_END = (f',"version":"{__version__}"}}'
            if _PLAIN_STR(__version__) else None)


def cell_key(scenario: str, params: Dict[str, Any], seed: int) -> str:
    """Stable hex digest identifying one sweep cell's configuration."""
    # hand-assemble the canonical blob for the plain-scalar case —
    # ~3x cheaper than a JSONEncoder call, and grid expansion computes
    # one key per cell.  Output is byte-identical to the encoder
    # (property-tested); any value outside the fast scalar set punts
    # to the encoder itself.
    if _KEY_END is not None and type(seed) is int:
        parts = []
        for name in sorted(params):
            if not _PLAIN_STR(name):
                parts = None
                break
            text = _key_scalar(params[name])
            if text is None:
                parts = None
                break
            parts.append(f'"{name}":{text}')
        if parts is not None and _PLAIN_STR(scenario):
            blob = (f'{{"params":{{{",".join(parts)}}},'
                    f'"scenario":"{scenario}{_KEY_MID}{seed}'
                    f'{_KEY_END}')
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()
    blob = _KEY_ENCODE(
        {"scenario": scenario, "params": params, "seed": seed,
         "schema": CACHE_SCHEMA_VERSION, "version": __version__})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``<scenario>/<cell_key>.json`` payloads.

    The instance counts its own traffic (:attr:`hits`, :attr:`misses`,
    :attr:`writes`) so sweep drivers can report cache effectiveness —
    a silent cache that never hits is indistinguishable from no cache
    in wall-clock terms, but not in a CI log that prints the counters.
    :meth:`persist_stats` folds the instance counters into an on-disk
    sidecar, giving ``repro cache`` lifetime numbers across processes.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = os.fspath(directory)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: unreadable entries quarantined to ``<name>.corrupt`` by
        #: get_many()
        self.corrupt = 0
        self._persisted = {"hits": 0, "misses": 0, "writes": 0,
                           "corrupt": 0}
        self._made_dirs: set = set()

    def _path(self, key: str, scenario: Optional[str] = None) -> str:
        if scenario:
            return os.path.join(self.directory, scenario, f"{key}.json")
        return os.path.join(self.directory, f"{key}.json")

    def stats(self) -> Dict[str, int]:
        """Traffic counters since construction (for logs/CI summaries)."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "corrupt": self.corrupt}

    def _quarantine(self, path: str) -> None:
        """Move an unreadable entry aside as ``<name>.corrupt``.

        Renaming (rather than deleting) preserves the torn bytes for
        post-mortem while guaranteeing the entry is only ever counted
        once: subsequent probes see a plain miss and the next write
        lands a fresh entry.  ``.corrupt`` files are invisible to
        ``_iter_entries`` so they never pollute entry counts.
        """
        self.corrupt += 1
        try:
            os.replace(path, path[:-len(".json")] + ".corrupt")
        except OSError:
            pass

    def get_many(self, items: Sequence[Tuple[str, Optional[str]]]
                 ) -> List[Optional[Dict[str, Any]]]:
        """Payloads for ``(key, scenario)`` pairs, in input order
        (``None`` on a miss).

        The batch probe used by ``SweepRunner.stream()``: one call per
        chunk of cells.  Locally it is a tight loop (few Python frames
        per probe, batched counter updates); over the cache service the
        same surface collapses a chunk into a single round-trip.  An
        entry that exists but does not parse is quarantined to
        ``<name>.corrupt`` (counted in ``stats()["corrupt"]``) instead
        of being silently re-missed forever.
        """
        out: List[Optional[Dict[str, Any]]] = []
        append = out.append
        hits = misses = 0
        directory = self.directory
        loads = json.loads
        # chunks are near-always single-scenario: cache the joined
        # directory prefix instead of paying os.path.join per key (the
        # trailing-"" join yields the same separator normalization)
        last_scenario: Any = False
        prefix = directory
        for key, scenario in items:
            if scenario != last_scenario:
                last_scenario = scenario
                prefix = (os.path.join(directory, scenario, "")
                          if scenario else os.path.join(directory, ""))
            path = prefix + key + ".json"
            # raw os.open/os.read instead of the io stack: a warm
            # million-cell resume probes every cell, and a buffered
            # file object costs more than the payload read itself
            try:
                fd = os.open(path, os.O_RDONLY)
            except OSError:
                misses += 1
                append(None)
                continue
            try:
                buf = os.read(fd, 1 << 18)
                if len(buf) == 1 << 18:
                    # regular files only short-read at EOF, so a full
                    # first read is the one case needing a loop
                    parts = [buf]
                    while parts[-1]:
                        parts.append(os.read(fd, 1 << 18))
                    buf = b"".join(parts)
            finally:
                os.close(fd)
            try:
                # decode before loads: json.loads on bytes pays a
                # detect_encoding call per entry (we always write UTF-8)
                append(loads(buf.decode("utf-8")))
            except ValueError:
                self._quarantine(path)
                misses += 1
                append(None)
                continue
            hits += 1
        self.hits += hits
        self.misses += misses
        return out

    def put_many(self, items: Sequence[Tuple[str, Dict[str, Any],
                                             Optional[str]]]) -> None:
        """Write ``(key, payload, scenario)`` triples in order.

        Entries stay individually atomic (tmp + rename per entry);
        batching exists so the dispatch layer can hand a whole result
        batch over in one call — and so the cache service can absorb
        it in one round-trip.
        """
        # unique-per-writer tmp name + atomic rename: same torn-file
        # guarantee as mkstemp, without the extra open/close/fstat of
        # creating a securely-named file we immediately rename away.
        # Raw os.open/os.write keeps a cold million-cell sweep's write
        # path at open+write+close+rename — no buffered-IO object per
        # entry.
        tmp_suffix = f".{os.getpid()}.{threading.get_ident()}.tmp"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        for key, payload, scenario in items:
            self.writes += 1
            target = self._path(key, scenario)
            parent = os.path.dirname(target)
            if parent not in self._made_dirs:
                os.makedirs(parent, exist_ok=True)
                self._made_dirs.add(parent)
            tmp = target + tmp_suffix
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            try:
                try:
                    fd = os.open(tmp, flags, 0o666)
                except FileNotFoundError:
                    # the memoized parent was removed behind our back
                    # (clear()/prune() mid-run) — recreate, retry once
                    os.makedirs(parent, exist_ok=True)
                    fd = os.open(tmp, flags, 0o666)
                try:
                    os.write(fd, data)
                finally:
                    os.close(fd)
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    # -- maintenance (the `repro cache` subcommand) --------------------

    def _iter_entries(self):
        """Yield ``(scenario_or_None, path)`` for every cache entry."""
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return
        for name in names:
            path = os.path.join(self.directory, name)
            if os.path.isdir(path):
                try:
                    children = sorted(os.listdir(path))
                except OSError:
                    continue
                for child in children:
                    if child.endswith(".json"):
                        yield name, os.path.join(path, child)
            elif name.endswith(".json") and name != STATS_FILENAME:
                yield None, path

    def entries_by_scenario(self) -> Dict[str, int]:
        """Entry counts keyed by scenario (flat entries under ``""``)."""
        counts: Dict[str, int] = {}
        for scenario, _path in self._iter_entries():
            label = scenario or ""
            counts[label] = counts.get(label, 0) + 1
        return counts

    def total_bytes(self) -> int:
        """Bytes of payload currently on disk."""
        total = 0
        for _scenario, path in self._iter_entries():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def prune(self, scenario: str) -> int:
        """Remove every entry of one scenario; returns entries removed.

        Only names that actually appear as scenario subdirectories are
        eligible — anything else (including path fragments like ``..``
        or absolute paths) is a no-op, never an rmtree outside the
        cache directory.
        """
        removed = sum(1 for s, _ in self._iter_entries() if s == scenario)
        if removed:
            shutil.rmtree(os.path.join(self.directory, scenario),
                          ignore_errors=True)
        return removed

    def clear(self) -> int:
        """Remove every entry (and the stats sidecar).

        Deletes only cache-shaped content — ``*.json`` entries, the
        scenario subdirectories that held them, and the stats sidecar.
        A mistyped ``--cache-dir`` pointed at a real directory loses
        no unrelated files, and the directory itself is left in place.
        """
        removed = 0
        scenario_dirs = set()
        for scenario, path in list(self._iter_entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
            if scenario:
                scenario_dirs.add(os.path.join(self.directory, scenario))
        # quarantined entries are cache-shaped too; sweep them out so
        # the scenario subdirectories actually empty (not counted in
        # ``removed`` — they were never live entries)
        for q_dir in [self.directory, *scenario_dirs]:
            try:
                names = os.listdir(q_dir)
            except OSError:
                continue
            for name in names:
                if name.endswith(".corrupt"):
                    try:
                        os.unlink(os.path.join(q_dir, name))
                    except OSError:
                        pass
        for subdir in scenario_dirs:
            try:
                os.rmdir(subdir)       # only if nothing else lives there
            except OSError:
                pass
        try:
            os.unlink(self._stats_path())
        except OSError:
            pass
        return removed

    # -- lifetime counters ---------------------------------------------

    def _stats_path(self) -> str:
        return os.path.join(self.directory, STATS_FILENAME)

    def lifetime_stats(self) -> Dict[str, int]:
        """Counters accumulated across sweeps (on-disk sidecar + this
        instance's not-yet-persisted traffic)."""
        stats = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0}
        try:
            with open(self._stats_path(), "r", encoding="utf-8") as fh:
                on_disk = json.load(fh)
            # older sidecars predate the "corrupt" counter; .get
            # defaults them to zero rather than failing the read
            for k in stats:
                stats[k] = int(on_disk.get(k, 0))
        except (OSError, ValueError):
            pass
        for k in stats:
            stats[k] += getattr(self, k) - self._persisted[k]
        return stats

    def persist_stats(self) -> None:
        """Fold this instance's traffic into the on-disk sidecar.

        Last-writer-wins under concurrency — acceptable for advisory
        counters; the entries themselves stay atomic regardless.
        """
        merged = self.lifetime_stats()
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(merged, fh)
            os.replace(tmp, self._stats_path())
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._persisted = {"hits": self.hits, "misses": self.misses,
                           "writes": self.writes,
                           "corrupt": self.corrupt}

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_entries())
