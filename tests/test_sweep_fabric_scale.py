"""Tests for the stress-scale sweep fabric (million-cell throughput).

Covers the batched/lazy layers added for stress-scale grids:

* lazy expansion — ``expand_grid``/``expand_cells`` stream cells and
  ``count_cells`` sizes a grid in O(1), so a million-cell (or
  trillion-cell) sweep never materializes its cell list;
* empty-grid validation — a grid key with zero values fails fast with
  the key named, instead of silently expanding to nothing;
* batched cache traffic — ``get_many``/``put_many`` on the local
  cache and over the cache-service wire protocol (the only cache
  surface: a single entry is a batch of one);
* corrupt records — an undecodable record is a miss, counted once,
  surfaced by ``repro cache`` and removed by ``clear()``;
* the segment-log layout — a torn tail costs only its own cell, and
  two writer processes never interleave and see each other's appends;
* batched dispatch — every backend reproduces pinned golden bytes at
  any ``batch_size``, 1 included;
* deterministic teardown — abandoning a ``stream()`` mid-sweep closes
  the executor the runner created;
* ``StreamingSummary`` — folding results in *any* completion order,
  at any cached/simulated mix, over multiple specs, reproduces
  ``summarize()`` exactly; ``keep_rows=False`` keeps the digest
  available at O(1) memory;
* the ``sweep-stress`` scenario family, ``A..B`` grid spans and
  ``sweep --live`` in the CLI.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _parse_assignments, main
from repro.experiments import (
    CacheClient,
    CacheServer,
    RemoteExecutor,
    ResultCache,
    StreamingSummary,
    SweepRunner,
    SweepSpec,
    count_cells,
    expand_cells,
    expand_grid,
    get_scenario,
    run_worker,
    summarize,
)

SETTINGS = dict(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

STRESS_SPEC = SweepSpec("sweep-stress", grid={"shard": range(6)})
ANALYTIC_SPEC = SweepSpec("standby-sizing",
                          grid={"machines": [64, 128, 256],
                                "quantile": [0.9, 0.99]})

#: pinned sha256 of ``canonical(SweepRunner(...).run(spec))``: every
#: backend at every batch size must reproduce these bytes, cell keys
#: included, so cached entries written by earlier runs keep hitting
GOLDEN_DIGESTS = (
    (ANALYTIC_SPEC,
     "e7e415a727b4b8a8cb573f15e4d6dfe3e4a275d43a4c72d0b488b440b695fd8e"),
    (SweepSpec("sweep-stress", grid={"shard": range(0, 64)}, base_seed=7),
     "d4c91092640853d50b48d4b8393af8737ae8809177288f4300fc85e0851c805c"),
)


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def start_workers(address, count, **kwargs):
    threads = [threading.Thread(target=run_worker, args=(address,),
                                kwargs=kwargs, daemon=True)
               for _ in range(count)]
    for t in threads:
        t.start()
    return threads


class TestLazyExpansion:
    def test_expansion_streams_instead_of_materializing(self):
        grid = expand_grid({"a": [1, 2]})
        assert not isinstance(grid, (list, tuple))
        assert list(grid) == [{"a": 1}, {"a": 2}]
        cells = expand_cells([STRESS_SPEC])
        assert not isinstance(cells, (list, tuple))
        assert [c.index for c in cells] == list(range(6))

    def test_count_cells_matches_expansion(self):
        specs = [STRESS_SPEC, ANALYTIC_SPEC]
        assert count_cells(specs) == len(list(expand_cells(specs)))

    def test_trillion_cell_grid_sizes_in_constant_time(self):
        # a grid far too large to materialize: expansion must return
        # (and count) without building any cell list
        spec = SweepSpec("sweep-stress",
                         grid={"shard": range(10**6),
                               "machines": range(10**6)})
        assert count_cells([spec]) == 10**12
        stream = expand_cells([spec])
        first = next(stream)
        assert first.index == 0 and first.params["shard"] == 0
        stream.close()

    def test_validation_stays_eager(self):
        # errors must surface at call time, not first iteration
        with pytest.raises(Exception):
            expand_cells([SweepSpec("no-such-scenario")])

    def test_fast_expansion_matches_validating_resolve(self):
        # the per-spec fast path (first cell resolves, later cells
        # re-coerce only the changing keys) must reproduce the
        # historical per-cell resolve() exactly — params, seeds, keys
        from repro.experiments.cache import cell_key
        from repro.experiments.registry import get_scenario
        from repro.experiments.sweep import derive_cell_seed

        specs = [
            SweepSpec(
                "standby-sizing", params={"daily_failure_prob": 0.03},
                grid={"machines": [64, 128], "quantile": [0.9, 0.99]},
                base_seed=5),
            # a seeded scenario exercises the derived-seed re-coerce
            SweepSpec("dense-small",
                      grid={"num_machines": [64, 128],
                            "mtbf_scale": [0.005, 0.01]},
                      base_seed=11),
        ]
        import itertools

        cells = iter(expand_cells(specs))
        for spec in specs:
            keys = sorted(spec.grid)
            combos = [dict(zip(keys, values)) for values in
                      itertools.product(*(spec.grid[k]
                                          for k in keys))]
            scenario = get_scenario(spec.scenario)
            takes_seed = "seed" in scenario.params
            for local_index, combo in enumerate(combos):
                cell = next(cells)
                overrides = dict(spec.params)
                overrides.update(combo)
                derived = takes_seed and "seed" not in overrides
                if derived:
                    overrides["seed"] = derive_cell_seed(
                        spec.base_seed, local_index)
                expected = scenario.resolve(overrides)
                assert cell.params == expected
                assert list(cell.params) == list(expected)
                seed = int(expected["seed"]) if takes_seed else 0
                assert cell.seed == seed
                assert cell.key == cell_key(spec.scenario, expected,
                                            seed)
                assert cell.seed_derived == derived

    def test_cell_key_fast_path_matches_encoder(self):
        # hand-assembled blobs must hash identically to the reference
        # json.dumps encoding for scalars AND punt correctly for
        # everything else (containers, NaN, exotic strings, ...)
        import hashlib
        from repro import __version__
        from repro.experiments.cache import (CACHE_SCHEMA_VERSION,
                                             cell_key)

        def reference(scenario, params, seed):
            blob = json.dumps(
                {"scenario": scenario, "params": params, "seed": seed,
                 "schema": CACHE_SCHEMA_VERSION,
                 "version": __version__},
                sort_keys=True, separators=(",", ":"), default=str)
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()

        cases = [
            ("sweep-stress", {"shard": 0, "machines": 256,
                              "mtbf_hours": 40.0,
                              "base_checkpoint_s": 20}, 0),
            ("s", {}, 7),
            ("s", {"a": True, "b": False, "c": None, "d": "text",
                   "e": -1.5e-7, "f": -0.0}, 123456789),
            ("s", {"a": float("nan")}, 0),
            ("s", {"a": float("inf")}, 0),
            ("s", {"a": [1, 2]}, 0),
            ("s", {"a": {"x": 1}}, 0),
            ("s", {'quote"key': 1}, 0),
            ("s", {"a": 'va"lue\\'}, 0),
            ("s", {"a": "unié"}, 0),
            ("unié-scenario", {"a": 1}, 0),
            ("s", {"a": 10**30}, 0),
            ("s", {"a": 1e16, "b": 2.5e-308}, 0),
            ("s", {"tab": "a\tb"}, 0),
            ("s", {"a": range(3)}, 0),      # default=str territory
        ]
        for scenario, params, seed in cases:
            assert cell_key(scenario, params, seed) == reference(
                scenario, params, seed), (scenario, params, seed)

    @given(params=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.booleans(), st.none(),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(max_size=12)),
        max_size=5), seed=st.integers(0, 2**32))
    @settings(**SETTINGS)
    def test_cell_key_fast_path_property(self, params, seed):
        import hashlib
        from repro import __version__
        from repro.experiments.cache import (CACHE_SCHEMA_VERSION,
                                             cell_key)
        blob = json.dumps(
            {"scenario": "sweep-stress", "params": params,
             "seed": seed, "schema": CACHE_SCHEMA_VERSION,
             "version": __version__},
            sort_keys=True, separators=(",", ":"), default=str)
        expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert cell_key("sweep-stress", params, seed) == expected

    def test_cells_stay_frozen_and_pickle(self):
        # cells are built through __dict__ for speed; the frozen
        # contract and multiprocessing pickling must survive that
        import dataclasses
        import pickle

        cell = next(iter(expand_cells([STRESS_SPEC])))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.index = 99
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell


class TestEmptyGridValidation:
    def test_empty_value_list_names_the_key(self):
        with pytest.raises(ValueError, match="'quantile'"):
            expand_grid({"machines": [64], "quantile": []})

    def test_raises_through_every_entry_point(self):
        spec = SweepSpec("sweep-stress", grid={"shard": []})
        with pytest.raises(ValueError, match="'shard'"):
            expand_cells([spec])
        with pytest.raises(ValueError, match="'shard'"):
            count_cells([spec])
        with pytest.raises(ValueError, match="'shard'"):
            SweepRunner(workers=1).run(spec)


class TestBatchedCache:
    def test_get_many_put_many_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        items = [(f"k{i}", "s") for i in range(5)]
        cache.put_many([(key, {"v": i}, scenario)
                        for i, (key, scenario) in enumerate(items)])
        assert cache.get_many(items) == [{"v": i} for i in range(5)]
        assert cache.get_many([("missing", "s"), ("k0", "s")]) \
            == [None, {"v": 0}]
        stats = cache.stats()
        assert stats["writes"] == 5
        assert stats["hits"] == 6 and stats["misses"] == 1

    def test_service_batches_match_singles(self, tmp_path):
        with CacheServer(tmp_path).start() as server:
            with CacheClient(server.address) as client:
                client.put_many([("a", {"v": 1}, "s"),
                                 ("b", {"v": 2}, "s")])
                assert client.get_many(
                    [("a", "s"), ("missing", "s"), ("b", "s")]) \
                    == [{"v": 1}, None, {"v": 2}]
                assert client.get_many([]) == []
                assert client.stats() == {"hits": 2, "misses": 1,
                                          "writes": 2}
                view = client.server_stats()
        assert view["requests"]["get_many"] == 1
        assert view["requests"]["put_many"] == 1

    def test_cache_batch_size_is_invisible_in_results(self, tmp_path):
        reference = canonical(SweepRunner(workers=1).run(ANALYTIC_SPEC))
        for cache_batch in (1, 2, 512):
            cache = ResultCache(tmp_path / f"b{cache_batch}")
            runner = SweepRunner(workers=1, cache=cache,
                                 cache_batch=cache_batch)
            assert canonical(runner.run(ANALYTIC_SPEC)) == reference
            warm = runner.run(ANALYTIC_SPEC)
            assert canonical(warm) == reference
            assert warm.cache_hits == len(warm.results)


#: a segment log name of the shape the cache writes and reads
SEGMENT = "1-0123456789ab.log"


def segments(directory):
    """Every segment log under a cache directory."""
    return sorted(os.path.join(root, name)
                  for root, _dirs, names in os.walk(str(directory))
                  for name in names if name.endswith(".log"))


class TestQuarantine:
    def corrupt(self, tmp_path, key="bad"):
        path = os.path.join(str(tmp_path), SEGMENT)
        with open(path, "a") as fh:
            fh.write(f"{key}\t{{not json\n")
        return path

    def test_corrupt_entry_quarantined_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.corrupt(tmp_path)
        assert len(cache) == 1                # indexed, not yet decoded
        assert cache.get_many([("bad", None)]) == [None]
        assert cache.get_many([("bad", None)]) == [None]  # plain miss
        # another instance in this process shares the index: the
        # dropped record stays dropped, and is not counted again
        other = ResultCache(tmp_path)
        assert other.get_many([("bad", None)]) == [None]
        assert other.stats()["corrupt"] == 0
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 2
        assert len(cache) == 0                # dropped ≠ entry
        # the next write of the key supersedes the bad record
        cache.put_many([("bad", {"x": 1}, None)])
        assert ResultCache(tmp_path).get_many([("bad", None)]) == \
            [{"x": 1}]

    def test_undecodable_bytes_and_stray_lines(self, tmp_path):
        with open(os.path.join(str(tmp_path), SEGMENT), "wb") as fh:
            fh.write(b'good\t{"x": 1}\nno tab here\n'
                     b'bad\t{"x": "\xff"}\n\nlast\t{"x": 2}\n')
        cache = ResultCache(tmp_path)
        assert cache.get_many([("good", None), ("bad", None),
                               ("last", None)]) == [{"x": 1}, None,
                                                    {"x": 2}]
        assert cache.stats()["corrupt"] == 1
        assert len(cache) == 2

    def test_quarantine_persists_and_clears(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.corrupt(tmp_path)
        cache.get_many([("bad", None)])
        cache.persist_stats()
        assert ResultCache(tmp_path).lifetime_stats()["corrupt"] == 1
        cache.clear()
        assert segments(tmp_path) == []

    def test_cli_surfaces_corrupt_count(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        self.corrupt(tmp_path)
        cache.get_many([("bad", None)])
        cache.persist_stats()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 corrupt records dropped" in out


#: run in a child process: append ``batches`` batches of records keyed
#: ``<tag>-<batch>-<i>`` to the cache directory
WRITER = """
import sys
from repro.experiments import ResultCache
directory, tag, batches = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache(directory)
for b in range(batches):
    cache.put_many([(f"{tag}-{b}-{i}", {"tag": tag, "pad": "x" * 300,
                                        "i": i}, "dense")
                    for i in range(50)])
"""


def run_python(code, *argv):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env)


class TestSegmentLog:
    def test_torn_tail_resumes_only_the_torn_cell(self, tmp_path):
        reference = canonical(SweepRunner(workers=1).run(STRESS_SPEC))
        cache = ResultCache(tmp_path)
        SweepRunner(workers=1, cache=cache).run(STRESS_SPEC)
        [segment] = segments(tmp_path)
        with open(segment, "rb") as fh:
            data = fh.read()
        # cut the last record mid-payload, as a killed write leaves it
        torn_key = data.splitlines()[-1].split(b"\t")[0].decode()
        with open(segment, "r+b") as fh:
            fh.truncate(len(data) - 20)
        fresh = ResultCache(tmp_path)
        keys = [(cell.key, cell.scenario)
                for cell in expand_cells([STRESS_SPEC])]
        payloads = fresh.get_many(keys)
        assert [key for (key, _s), p in zip(keys, payloads)
                if p is None] == [torn_key]
        assert fresh.stats()["corrupt"] == 0  # a torn tail is skipped
        resumed = SweepRunner(workers=1, cache=fresh).run(STRESS_SPEC)
        assert (resumed.cache_hits, resumed.simulated) == \
            (len(keys) - 1, 1)
        assert canonical(resumed) == reference
        # the re-simulated record landed after the torn bytes intact
        warm = SweepRunner(workers=1, cache=ResultCache(tmp_path)).run(
            STRESS_SPEC)
        assert warm.cache_hits == len(keys)
        assert canonical(warm) == reference

    def test_two_writer_processes(self, tmp_path):
        early = ResultCache(tmp_path)
        assert early.get_many([("a-0-0", "dense")]) == [None]
        writers = [run_python(WRITER, str(tmp_path), tag, "40")
                   for tag in ("a", "b")]
        assert [proc.wait(timeout=60) for proc in writers] == [0, 0]
        logs = segments(tmp_path)
        assert len(logs) == 2                 # one segment per writer
        for path in logs:
            with open(path) as fh:
                lines = fh.read().split("\n")
            assert lines.pop() == ""
            tags = set()
            for line in lines:                # whole, unmixed records
                key, payload = line.split("\t")
                record = json.loads(payload)
                assert key.startswith(record["tag"] + "-")
                tags.add(record["tag"])
            assert len(tags) == 1
        keys = [(f"{tag}-{b}-{i}", "dense") for tag in ("a", "b")
                for b in range(40) for i in range(50)]
        # the instance that probed before the writes sees their appends
        payloads = early.get_many(keys)
        assert all(p is not None for p in payloads)
        assert [p["tag"] for p in payloads] == [k[0][0] for k in keys]
        assert len(early) == len(keys)
        early.put_many([("mine", {"x": 0}, "solo")])
        # a clear() by an instance in another process empties this
        # one, even where this one appends again before its next probe
        clearer = run_python(
            "import sys\nfrom repro.experiments import ResultCache\n"
            "ResultCache(sys.argv[1]).clear()", str(tmp_path))
        assert clearer.wait(timeout=60) == 0
        early.put_many([("after", {"x": 2}, "solo")])
        assert early.get_many([keys[0], ("mine", "solo"),
                               ("after", "solo")]) == [None, None,
                                                       {"x": 2}]
        # ... and so does one in this process
        early.put_many([("a-0-0", {"x": 1}, "dense")])
        assert early.get_many(keys[:1]) == [{"x": 1}]
        ResultCache(tmp_path).clear()
        assert early.get_many(keys[:1]) == [None]


    def test_threads_share_one_index(self, tmp_path):
        """Caches on several threads share this process's index and
        segment: no append or index update is lost."""
        unread = []

        def work(tag):
            cache = ResultCache(tmp_path)
            for b in range(30):
                cache.put_many([(f"{tag}-{b}-{i}", {"i": i}, "dense")
                                for i in range(10)])
                if cache.get_many([(f"{tag}-{b}-9", "dense")]) != \
                        [{"i": 9}]:
                    unread.append((tag, b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(f"t{n}",))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert unread == []          # every thread reads its writes
        finally:
            sys.setswitchinterval(interval)
        keys = [(f"t{n}-{b}-{i}", "dense") for n in range(8)
                for b in range(30) for i in range(10)]
        assert len(ResultCache(tmp_path)) == len(keys)
        assert None not in ResultCache(tmp_path).get_many(keys)
        [segment] = segments(tmp_path)
        with open(segment) as fh:
            assert len(fh.read().splitlines()) == len(keys)


class TestBatchedDispatch:
    def test_process_pool_batches_are_byte_identical(self):
        reference = canonical(SweepRunner(workers=1).run(STRESS_SPEC))
        for batch_size in (1, 3, 16):
            runner = SweepRunner(workers=2, batch_size=batch_size)
            assert canonical(runner.run(STRESS_SPEC)) == reference

    def test_remote_batches_are_byte_identical(self, tmp_path):
        reference = canonical(SweepRunner(workers=1).run(STRESS_SPEC))
        for batch_size in (2, 4):
            ex = RemoteExecutor(batch_size=batch_size)
            start_workers(ex.address, 2)
            cache = ResultCache(tmp_path / f"b{batch_size}")
            with ex:
                got = SweepRunner(executor=ex,
                                  cache=cache).run(STRESS_SPEC)
            assert canonical(got) == reference
            # every simulated batch landed in the cache
            warm = SweepRunner(cache=cache).run(STRESS_SPEC)
            assert warm.cache_hits == len(warm.results)
            assert canonical(warm) == reference

    @pytest.mark.parametrize("batch_size", (1, 5))
    @pytest.mark.parametrize("backend", ("inline", "process", "remote"))
    def test_golden_bytes_on_every_backend(self, backend, batch_size):
        for spec, digest in GOLDEN_DIGESTS:
            if backend == "remote":
                ex = RemoteExecutor(batch_size=batch_size)
                start_workers(ex.address, 2)
                with ex:
                    got = SweepRunner(executor=ex).run(spec)
            else:
                workers = 1 if backend == "inline" else 2
                got = SweepRunner(workers=workers,
                                  batch_size=batch_size).run(spec)
            assert hashlib.sha256(canonical(got).encode()).hexdigest() \
                == digest, (backend, batch_size, spec.scenario)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            SweepRunner(batch_size=0)
        with pytest.raises(ValueError, match="cache_batch"):
            SweepRunner(cache_batch=0)

    def test_segmented_dispatch_is_byte_identical(self, tmp_path,
                                                  monkeypatch):
        # DISPATCH_SEGMENT bounds the in-memory miss list; shrinking it
        # to less than the grid forces multiple dispatch segments (and
        # multiple pool lifetimes) which must not change a single byte
        spec = SweepSpec("standby-sizing",
                         grid={"machines": [64, 128, 256, 512],
                               "quantile": [0.9, 0.95, 0.99]})
        reference = canonical(SweepRunner(workers=1).run(spec))
        monkeypatch.setattr(SweepRunner, "DISPATCH_SEGMENT", 3)
        cache = ResultCache(tmp_path / "seg")
        runner = SweepRunner(workers=2, cache=cache, batch_size=2,
                             cache_batch=2)
        assert canonical(runner.run(spec)) == reference
        # a second pass over the now-warm cache serves every segment
        # from disk and still reproduces the same bytes
        warm = SweepRunner(workers=2, cache=ResultCache(tmp_path / "seg"),
                           batch_size=2, cache_batch=2).run(spec)
        assert warm.cache_hits == 12 and warm.simulated == 0
        assert canonical(warm) == reference


class TestDeterministicTeardown:
    def test_abandoned_stream_closes_runner_owned_executor(
            self, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        closed = []

        class Recording(sweep_mod.ProcessPoolExecutor):
            def close(self):
                closed.append(True)
                super().close()

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", Recording)
        runner = SweepRunner(workers=2, batch_size=2)
        stream = runner.stream(STRESS_SPEC)
        next(stream)
        assert not closed            # still mid-sweep
        stream.close()               # consumer walks away
        assert closed == [True]


class TestStreamingSummaryEquivalence:
    def fold(self, results, keep_rows=True):
        folded = StreamingSummary(keep_rows=keep_rows)
        for result in results:
            folded.add(result)
        return folded

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_any_completion_order_matches_summarize(self, data):
        result = SweepRunner(workers=1).run(ANALYTIC_SPEC)
        shuffled = data.draw(st.permutations(result.results))
        folded = self.fold(shuffled)
        assert folded.summary().to_dict() \
            == summarize(result).to_dict()

    def test_cached_simulated_mix_matches(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = SweepSpec("standby-sizing",
                         grid={"machines": [64, 128, 256, 512]})
        # warm half the grid, then sweep the full one: the stream
        # mixes cache hits with fresh simulations
        SweepRunner(workers=1, cache=cache).run(
            SweepSpec("standby-sizing", grid={"machines": [64, 128]}))
        result = SweepRunner(workers=1, cache=cache).run(spec)
        assert result.cache_hits == 2 and result.simulated == 2
        folded = self.fold(result.results)
        assert folded.summary().to_dict() == summarize(result).to_dict()
        assert folded.cached == 2 and folded.simulated == 2

    def test_multi_spec_sweep_matches(self):
        specs = [STRESS_SPEC, ANALYTIC_SPEC]
        result = SweepRunner(workers=1).run(specs)
        folded = self.fold(result.results)
        assert folded.summary().to_dict() == summarize(result).to_dict()
        digest = folded.digest()
        assert digest["scenarios"] == {"standby-sizing": 6,
                                       "sweep-stress": 6}
        assert digest["cells"] == count_cells(specs)

    def test_fold_entry_point_and_digest_only_mode(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = SweepRunner(workers=1, cache=cache)
        runner.run(ANALYTIC_SPEC)            # warm the cache
        # all-warm reference so the fold sees the same cached flags
        reference = summarize(runner.run(ANALYTIC_SPEC)).to_dict()
        folded = runner.fold(ANALYTIC_SPEC)
        assert folded.summary().to_dict() == reference
        assert isinstance(folded, StreamingSummary)
        slim = runner.fold(ANALYTIC_SPEC, keep_rows=False)
        assert slim.digest() == folded.digest()
        with pytest.raises(ValueError, match="keep_rows"):
            slim.summary()

    def test_digest_metric_stats(self):
        folded = SweepRunner(workers=1, cache=None).fold(STRESS_SPEC)
        metrics = folded.digest()["metrics"]
        shard = metrics["shard"]
        assert shard == {"count": 6, "mean": 2.5, "min": 0, "max": 5}


class TestStressScenarios:
    def test_sweep_stress_is_registered_and_analytic(self):
        spec = get_scenario("sweep-stress")
        assert "stress" in spec.tags
        report = spec.build(shard=3).run()
        assert report["checkpoint_s"] == 23.0
        assert report["goodput_frac"] < 1.0
        # closed form: deterministic, no RNG
        assert spec.build(shard=3).run() == report

    def test_sweep_stress_compute_checksum_deterministic(self):
        spec = get_scenario("sweep-stress-compute")
        a = spec.build(shard=7, work_iters=500).run()
        b = spec.build(shard=7, work_iters=500).run()
        assert a == b and a["checksum"] == b["checksum"]
        assert a["checksum"] != spec.build(
            shard=8, work_iters=500).run()["checksum"]


class TestCliScale:
    def test_grid_range_span(self):
        parsed = _parse_assignments(["shard=0..4"], split_values=True)
        assert parsed == {"shard": range(0, 5)}
        assert _parse_assignments(["x=-2..1"], split_values=True) \
            == {"x": range(-2, 2)}
        # non-span values keep the comma-list behavior
        assert _parse_assignments(["x=1,2"], split_values=True) \
            == {"x": ["1", "2"]}
        with pytest.raises(SystemExit, match="empty span"):
            _parse_assignments(["x=5..2"], split_values=True)

    def test_sweep_live_digest(self, tmp_path, capsys):
        out_json = str(tmp_path / "digest.json")
        code = main(["sweep", "--scenario", "sweep-stress",
                     "--grid", "shard=0..9", "--live", "--no-cache",
                     "--quiet", "--output", out_json])
        assert code == 0
        out = capsys.readouterr().out
        assert "live digest" in out
        assert "10 cells folded (0 cached, 10 simulated)" in out
        assert "10 cells, 0 served from cache, 10 streamed" in out
        with open(out_json) as fh:
            digest = json.load(fh)["digest"]
        assert digest["cells"] == 10
        assert digest["varied"] == ["shard"]

    def test_sweep_live_warm_resume(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--scenario", "sweep-stress",
                "--grid", "shard=0..9", "--cache-dir", cache_dir,
                "--quiet"]
        assert main(argv + ["--batch-size", "4", "--workers", "2"]) == 0
        capsys.readouterr()
        assert main(argv + ["--live"]) == 0
        assert "10 served from cache, 0 streamed" \
            in capsys.readouterr().out

