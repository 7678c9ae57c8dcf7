"""On-disk result cache for sweep cells.

A cell is identified by a *stable* content hash of everything that
determines its output: scenario name, fully-resolved parameters, seed,
the package version, and a schema version bumped whenever the report
format changes.  :func:`key_template` assembles that hash's canonical
JSON blob once per family of cells, with a hole for each value that
varies; :func:`cell_key` is the template of one cell.

Entries live in append-only segment logs, one set per scenario, after
Bitcask (Sheehy & Smith, 2010)::

    <dir>/<scenario>/<writer-id>.log    entries of one scenario
    <dir>/<writer-id>.log               entries whose scenario is None

A record is one line: the cell key, a tab, the payload exactly as
``json.dumps(payload, sort_keys=True)`` writes it, and a newline.  The
writer id (``<pid>-<12 hex digits>``) is unique to each process, so
two processes never append to the same file, and each
:meth:`ResultCache.put_many` is one ``O_APPEND`` write per scenario.
Nothing is fsynced: a killed process loses at most the batch it was
writing, and an operating-system crash whatever the page cache had
not yet written back.

Probes are dict lookups in an in-memory index from key to record,
and a hit decodes its record with one pass of the json module's
scanner (``json.loads`` takes over for any record the scanner does not
consume whole, so every record decodes, or fails to, exactly as
``json.loads`` would have it).
Each process keeps one index per (directory, scenario), shared by
every :class:`ResultCache` over that directory and guarded by a lock.
It is built by one scan of the segments and revalidated on every
:meth:`~ResultCache.get_many` with one ``listdir`` and one ``stat`` per
segment: appended bytes are read, and a segment that shrank, vanished
or was replaced forces a rebuild.  So a probe sees other writers'
appends and never serves an entry after :meth:`~ResultCache.clear`.

Bytes after a segment's last newline (a torn tail left by a killed
writer) are skipped; the next append to that segment ends them with
a newline first.  A record that does not decode is a miss: it is
counted once in ``stats()["corrupt"]`` and dropped from the index,
and the next write of its key supersedes it (the last record of a
key wins).

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
``repro cache`` entry counts and bytes until removed.  Entries of the
older one-file-per-cell layout (``<key>.json``) are never read.  Run
``repro cache --clear`` after upgrading to reclaim the space of both
(the next sweep re-simulates and repopulates).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import weakref
from hashlib import sha256
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

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


#: One preconstructed encoder for the key blob: ``json.dumps`` with
#: keyword arguments builds a fresh ``JSONEncoder`` per call, which a
#: million-key expansion pays dearly for.  Byte-identical output.
_KEY_ENCODE = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str).encode

#: Strings the JSON encoder emits verbatim between quotes: printable
#: ASCII with no ``"`` or ``\`` — anything else takes the encoder.
_PLAIN_STR = re.compile(r'^[ !#-\[\]-~]*$').match

_INF = float("inf")


def _key_text(value: Any) -> str:
    """``value`` exactly as the key encoder writes it.

    The scalars whose encoding is trivially byte-stable (ints, finite
    floats, plain ASCII strings, bools, None) are written by hand —
    several times cheaper than an encoder call; every other value
    (containers, NaN/inf, exotic strings, non-JSON types hitting
    ``default=str``) goes through the encoder itself, so the text can
    never drift from it.
    """
    t = type(value)
    if t is int:
        return repr(value)
    if t is float:
        if value == value and value != _INF and value != -_INF:
            return repr(value)
    elif t is str:
        if _PLAIN_STR(value):
            return f'"{value}"'
    elif t is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    return _KEY_ENCODE(value)


def _key_field(name: Any) -> str:
    """``"name":`` as the encoder writes a dict key."""
    return _KEY_ENCODE({name: None})[1:-len("null}")]


def key_template(scenario: str, params: Dict[str, Any],
                 holes: Sequence[str] = ()
                 ) -> Callable[[Dict[str, Any], Any], str]:
    """The key function of a family of cells: ``key(params, seed)``.

    A cell's key is the sha256 of ``{"params":{...},"scenario":...,
    "schema":...,"seed":...,"version":...}`` as the key encoder writes
    it (sorted keys, no spaces).  Cells of one sweep spec differ only
    in the values of their grid axes and seed, so the blob is built
    once, from ``params``, as a ``%``-format string: the fixed fields
    are written out, and each name in ``holes`` and the seed leave a
    ``%s`` hole.  Per cell, ``key`` fills the holes with
    :func:`_key_text` and hashes.  ``params`` passed to ``key`` must
    hold the same fixed values as the ones the template was built from.
    """
    names = sorted(params)
    hole_names = [name for name in names if name in holes]
    # the blob's pieces, None marking a hole
    pieces: List[Optional[str]] = ['{"params":{']
    for i, name in enumerate(names):
        pieces.append(("," if i else "") + _key_field(name))
        pieces.append(None if name in holes else _key_text(params[name]))
    pieces += ['},"scenario":' + _KEY_ENCODE(scenario)
               + f',"schema":{CACHE_SCHEMA_VERSION},"seed":', None,
               ',"version":' + _KEY_ENCODE(__version__) + "}"]
    fmt = "".join("%s" if piece is None else piece.replace("%", "%%")
                  for piece in pieces)

    def key(params: Dict[str, Any], seed: Any) -> str:
        texts = []
        for name in hole_names:
            texts.append(_key_text(params[name]))
        texts.append(_key_text(seed))
        return sha256((fmt % tuple(texts)).encode("utf-8")).hexdigest()

    return key


def cell_key(scenario: str, params: Dict[str, Any], seed: int) -> str:
    """Stable hex digest identifying one sweep cell's configuration."""
    return key_template(scenario, params)(params, seed)


#: The json module's scanner (its C implementation where there is
#: one): ``scan(text, 0)`` decodes the JSON value at the start of
#: ``text`` and returns it with the offset where it ends.
_SCAN = json.JSONDecoder().scan_once

#: A segment log's file name: ``<pid>-<12 hex digits>.log``.
_SEGMENT_NAME = re.compile(r"\d+-[0-9a-f]{12}\.log\Z").match

#: Bytes read per step while indexing a segment, so catching up with a
#: million-record log never holds the whole file in memory.
_READ_CHUNK = 1 << 22

_APPEND_FLAGS = os.O_RDWR | os.O_APPEND | os.O_CREAT

#: (pid, segment name) of this process's writer; a forked child sees a
#: foreign pid and draws its own name.
_writer: Tuple[int, str] = (-1, "")


def _segment_name() -> str:
    """This process's segment file name."""
    global _writer
    pid = os.getpid()
    if _writer[0] != pid:
        _writer = (pid, f"{pid}-{os.urandom(6).hex()}.log")
    return _writer[1]


def _is_cache_file(name: str) -> bool:
    """Segments, plus the ``*.json`` entries and ``*.corrupt``
    quarantine files of the one-file-per-cell layout (removed by
    ``clear``/``prune``, never read)."""
    return name != STATS_FILENAME and (
        _SEGMENT_NAME(name) is not None
        or name.endswith((".json", ".corrupt")))


def _index_records(records: Dict[str, str], blob: bytes) -> None:
    """Add the newline-terminated records in ``blob`` to ``records``."""
    try:
        lines = blob.decode("utf-8").split("\n")
        lines.pop()
        records.update(line.split("\t", 1) for line in lines)
    except ValueError:
        # a record that is not UTF-8, or a line without a tab: go line
        # by line, keeping every addressable record; a payload that
        # does not decode is indexed as "" so its probe is a miss
        for raw in blob.split(b"\n")[:-1]:
            key, sep, payload = raw.partition(b"\t")
            if sep:
                try:
                    text = payload.decode("utf-8")
                except UnicodeDecodeError:
                    text = ""
                records[key.decode("utf-8", "replace")] = text


class _SegmentIndex:
    """One directory's segment logs, as this process has read them.

    ``records`` maps key to payload text; ``seen`` maps segment name
    to ``(inode, bytes indexed, bytes read)`` — the two differ by a
    torn tail.  ``lock`` guards both and this process's appends.
    """

    def __init__(self, path: str):
        self.path = path
        self.lock = threading.Lock()
        self.records: Dict[str, str] = {}
        self.seen: Dict[str, Tuple[int, int, int]] = {}

    def remove_files(self) -> None:
        """Delete the cache-shaped files here and forget them."""
        with self.lock:
            try:
                names = os.listdir(self.path)
            except OSError:
                names = []
            for name in names:
                if _is_cache_file(name):
                    try:
                        os.unlink(os.path.join(self.path, name))
                    except OSError:
                        pass
            self.records = {}
            self.seen = {}

    def refresh(self) -> Dict[str, str]:
        """Catch up with the segments on disk; returns the records."""
        with self.lock:
            try:
                names = [name for name in os.listdir(self.path)
                         if _SEGMENT_NAME(name)]
            except OSError:
                names = []
            current = {}
            for name in names:
                try:
                    current[name] = os.stat(os.path.join(self.path, name))
                except OSError:
                    pass
            seen = self.seen
            for name, (ino, _done, size) in seen.items():
                st = current.get(name)
                if st is None or st.st_ino != ino or st.st_size < size:
                    # shrank, vanished or replaced: start over
                    self.records = {}
                    self.seen = seen = {}
                    break
            for name, st in current.items():
                ino, done, size = seen.get(name, (st.st_ino, 0, 0))
                if st.st_size != size:
                    try:
                        seen[name] = (ino, *self._read(name, done))
                    except OSError:
                        pass
            return self.records

    def _read(self, name: str, start: int) -> Tuple[int, int]:
        """Index one segment's complete records from ``start``; returns
        the offsets after its last newline and at its end."""
        done = start
        tail = b""
        with open(os.path.join(self.path, name), "rb", buffering=0) as fh:
            fh.seek(start)
            while True:
                chunk = fh.read(_READ_CHUNK)
                if not chunk:
                    break
                blob = tail + chunk
                cut = blob.rfind(b"\n") + 1
                _index_records(self.records, blob[:cut])
                tail = blob[cut:]
                done += cut
        return done, done + len(tail)

    def append(self, records: List[Tuple[str, str]]) -> None:
        """Append ``(key, payload text)`` records to this process's
        segment in one write."""
        name = _segment_name()
        path = os.path.join(self.path, name)
        data = "".join([f"{key}\t{text}\n"
                        for key, text in records]).encode("utf-8")
        with self.lock:
            try:
                fd = os.open(path, _APPEND_FLAGS, 0o666)
            except FileNotFoundError:
                os.makedirs(self.path, exist_ok=True)
                fd = os.open(path, _APPEND_FLAGS, 0o666)
            try:
                st = os.fstat(fd)
                start = st.st_size
                torn = bool(start) and os.pread(fd, 1, start - 1) != b"\n"
                if torn:
                    # end the torn tail first, so it cannot swallow the
                    # first new record
                    data = b"\n" + data
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            if not torn and self.seen.get(name, (st.st_ino, 0, 0)) == \
                    (st.st_ino, start, start):
                self.records.update(records)
                end = start + len(data)
                self.seen[name] = (st.st_ino, end, end)
            else:
                # the segment changed behind the index (a torn tail, or
                # cleared by another process): rebuild on the next probe
                self.records = {}
                self.seen = {}


#: (directory, scenario label) -> index, shared by every ResultCache of
#: this process, so a driver holding one cache per sweep pass over one
#: directory holds one copy of the records; an index lives as long as
#: some cache holds it.
_INDEXES: "weakref.WeakValueDictionary[Tuple[str, str], _SegmentIndex]" = \
    weakref.WeakValueDictionary()
_INDEXES_LOCK = threading.Lock()


class ResultCache:
    """A directory of per-scenario segment logs of cell payloads.

    The instance counts its own traffic (:attr:`hits`, :attr:`misses`,
    :attr:`writes`) so sweep drivers can report cache effectiveness —
    a silent cache that never hits is indistinguishable from no cache
    in wall-clock terms, but not in a CI log that prints the counters.
    :meth:`persist_stats` folds the instance counters into an on-disk
    sidecar, giving ``repro cache`` lifetime numbers across processes.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = os.fspath(directory)
        self._root = os.path.abspath(self.directory)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: undecodable records met (and dropped from the index) by
        #: get_many()
        self.corrupt = 0
        self._persisted = {"hits": 0, "misses": 0, "writes": 0,
                           "corrupt": 0}
        #: scenario label -> shared index (holding it keeps it alive)
        self._indexes: Dict[str, _SegmentIndex] = {}

    def _index(self, scenario: Optional[str]) -> _SegmentIndex:
        label = scenario or ""
        index = self._indexes.get(label)
        if index is None:
            if label in (".", "..") or os.sep in label or (
                    os.altsep and os.altsep in label):
                raise ValueError(f"scenario {scenario!r} is not a "
                                 f"plain directory name")
            with _INDEXES_LOCK:
                index = _INDEXES.get((self._root, label))
                if index is None:
                    index = _SegmentIndex(os.path.join(self._root, label))
                    _INDEXES[(self._root, label)] = index
            self._indexes[label] = index
        return index

    def stats(self) -> Dict[str, int]:
        """Traffic counters since construction (for logs/CI summaries)."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "corrupt": self.corrupt}

    def get_many(self, items: Sequence[Tuple[str, Optional[str]]]
                 ) -> List[Optional[Dict[str, Any]]]:
        """Payloads for ``(key, scenario)`` pairs, in input order
        (``None`` on a miss).

        The batch probe used by ``SweepRunner.stream()``: one call per
        chunk of cells.  Each scenario's index is revalidated once per
        call, then every probe is a dict lookup and one pass of the
        json module's C scanner over the record (``json.loads`` takes
        over for any text the scanner does not consume whole, so a
        record decodes exactly as ``json.loads`` would decode it).  A
        record that does not decode is a miss, counted in
        ``stats()["corrupt"]`` and dropped from the index.
        """
        out: List[Optional[Dict[str, Any]]] = []
        append = out.append
        hits = misses = 0
        scan = _SCAN
        # chunks are near-always single-scenario
        fresh: Dict[Optional[str], Dict[str, str]] = {}
        last_scenario: Any = False
        records: Dict[str, str] = {}
        for key, scenario in items:
            if scenario != last_scenario:
                last_scenario = scenario
                records = fresh.get(scenario)
                if records is None:
                    records = fresh[scenario] = \
                        self._index(scenario).refresh()
            text = records.get(key)
            if text is not None:
                try:
                    # a record put_many wrote is one JSON value from
                    # its first byte to its last: the scanner decodes
                    # it without json.loads's per-call checks; any
                    # other text takes json.loads, which accepts or
                    # rejects it as it always has
                    try:
                        payload, end = scan(text, 0)
                        if end != len(text):
                            payload = json.loads(text)
                    except StopIteration:
                        payload = json.loads(text)
                    append(payload)
                    hits += 1
                    continue
                except ValueError:
                    with self._index(scenario).lock:
                        if records.get(key) is text:
                            del records[key]
                            self.corrupt += 1
            misses += 1
            append(None)
        self.hits += hits
        self.misses += misses
        return out

    def put_many(self, items: Sequence[Tuple[str, Dict[str, Any],
                                             Optional[str]]]) -> None:
        """Write ``(key, payload, scenario)`` triples in order.

        One append per scenario: the dispatch layer hands a whole
        result batch over in one call — and the cache service absorbs
        it in one round-trip.
        """
        dumps = json.dumps
        batches: Dict[Optional[str], List[Tuple[str, str]]] = {}
        for key, payload, scenario in items:
            if "\t" in key or "\n" in key:
                raise ValueError(f"cache key {key!r} holds a tab or "
                                 f"newline")
            batch = batches.get(scenario)
            if batch is None:
                batch = batches[scenario] = []
            batch.append((key, dumps(payload, sort_keys=True)))
        for scenario, batch in batches.items():
            self._index(scenario).append(batch)
            self.writes += len(batch)

    # -- maintenance (the `repro cache` subcommand) --------------------

    def _scenario_dirs(self) -> List[str]:
        try:
            names = sorted(os.listdir(self._root))
        except OSError:
            return []
        return [name for name in names
                if os.path.isdir(os.path.join(self._root, name))]

    def _indexes_on_disk(self) -> Iterator[Tuple[str, _SegmentIndex]]:
        """``(label, index)`` for the flat segments (label ``""``) and
        every scenario subdirectory, each revalidated."""
        for label in ["", *self._scenario_dirs()]:
            index = self._index(label)
            index.refresh()
            yield label, index

    def entries_by_scenario(self) -> Dict[str, int]:
        """Entry counts keyed by scenario (flat entries under ``""``)."""
        return {label: len(index.records)
                for label, index in self._indexes_on_disk()
                if index.records}

    def total_bytes(self) -> int:
        """Bytes of segment logs currently on disk."""
        return sum(size for _label, index in self._indexes_on_disk()
                   for _ino, _done, size in list(index.seen.values()))

    def prune(self, scenario: str) -> int:
        """Remove every entry of one scenario; returns entries removed.

        Only names that actually appear as scenario subdirectories are
        eligible — anything else (including path fragments like ``..``
        or absolute paths) is a no-op.  Only cache-shaped files go; the
        subdirectory itself goes only once it is empty.
        """
        if scenario not in self._scenario_dirs():
            return 0
        index = self._index(scenario)
        removed = len(index.refresh())
        index.remove_files()
        try:
            os.rmdir(index.path)
        except OSError:
            pass
        return removed

    def clear(self) -> int:
        """Remove every entry (and the stats sidecar).

        Deletes only cache-shaped content — segment logs, the old
        layout's ``*.json`` entries and ``*.corrupt`` files, the
        scenario subdirectories that held them, and the stats sidecar.
        A mistyped ``--cache-dir`` pointed at a real directory loses
        no unrelated files, and the directory itself is left in place.
        """
        removed = 0
        for label, index in list(self._indexes_on_disk()):
            removed += len(index.records)
            index.remove_files()
            if label:
                try:
                    os.rmdir(index.path)   # only if nothing else lives there
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
        counters; the entries themselves are unaffected.
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
        return sum(len(index.records)
                   for _label, index in self._indexes_on_disk())
