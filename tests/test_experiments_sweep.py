"""Tests for the scenario-sweep subsystem (:mod:`repro.experiments`):
registry typing, grid expansion, deterministic seeding, worker-count
invariance, the streaming executor (progress callbacks, mid-run
resume), the on-disk result cache and its maintenance surface, the
aggregator/report layers, and the O(1) pending-event counter the
sweeps lean on."""

import json
import os

import pytest

from repro.experiments import (
    ParamSpec,
    ResultCache,
    ScenarioError,
    SweepError,
    SweepRequest,
    SweepRunner,
    SweepSpec,
    Table,
    cell_key,
    derive_cell_seed,
    expand_cells,
    expand_grid,
    get_scenario,
    list_scenarios,
    summarize,
    table_from_summary,
)
from repro.cli import main
from repro.sim import Simulator

#: A grid small enough for CI but with enough fault pressure that the
#: reports actually differ across cells.
SMALL_SPEC = SweepSpec(
    "dense-small",
    params={"duration_s": 4 * 3600.0},
    grid={"mtbf_scale": [0.001, 0.002]},
    base_seed=7)


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = list_scenarios()
        for expected in ("dense", "moe", "staged", "dense-small",
                         "dense-large", "degraded-network",
                         "aggressive-checkpoint", "standby-sizing"):
            assert expected in names

    def test_unknown_scenario_and_param_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("nope")
        with pytest.raises(ScenarioError, match="no parameter"):
            get_scenario("dense").resolve({"not_a_param": 1})

    def test_param_coercion(self):
        spec = ParamSpec("x", "int", 3)
        assert spec.coerce("42") == 42
        assert spec.coerce(7.0) == 7
        with pytest.raises(ScenarioError):
            spec.coerce("forty-two")
        with pytest.raises(ScenarioError):
            ParamSpec("y", "complex", 0)

    def test_int_coercion_refuses_to_truncate(self):
        spec = ParamSpec("x", "int", 3)
        assert spec.coerce(7.0) == 7
        for bad in (7.9, "7.9", float("inf"), float("nan"), None):
            with pytest.raises(ScenarioError, match="cannot coerce"):
                spec.coerce(bad)

    def test_bool_coercion_accepts_only_boolean_words(self):
        spec = ParamSpec("flag", "bool", False)
        for word in ("1", "true", "yes", "on", "TRUE", "Yes", "On"):
            assert spec.coerce(word) is True
        for word in ("0", "false", "no", "off", "FALSE", "No", "Off"):
            assert spec.coerce(word) is False
        assert spec.coerce(True) is True and spec.coerce(0) is False
        for bad in ("flase", "", "2", 2, 0.5, None):
            with pytest.raises(ScenarioError, match="cannot coerce"):
                spec.coerce(bad)

    def test_resolve_applies_defaults_and_coerces(self):
        params = get_scenario("dense").resolve(
            {"num_machines": "4", "mtbf_scale": "0.5"})
        assert params["num_machines"] == 4
        assert params["mtbf_scale"] == 0.5
        assert params["duration_s"] == 24 * 3600.0

    def test_analytic_scenario_runs_to_dict(self):
        report = get_scenario("standby-sizing").build(
            machines=1024).run()
        assert report["p99_standby_machines"] == 4


class TestExpansion:
    def test_grid_expansion_order_is_stable(self):
        combos = list(expand_grid({"b": [1, 2], "a": ["x"]}))
        assert combos == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]
        assert list(expand_grid({})) == [{}]

    def test_cell_seeds_derived_and_stable(self):
        cells = list(expand_cells([SMALL_SPEC]))
        assert [c.index for c in cells] == [0, 1]
        for cell in cells:
            assert cell.seed == derive_cell_seed(7, cell.index)
            assert cell.params["seed"] == cell.seed
        # distinct, decorrelated seeds
        assert cells[0].seed != cells[1].seed

    def test_seeds_independent_of_sweep_composition(self):
        # a spec's cells (and cache keys) must not change when other
        # specs share the sweep — seeds derive from spec-local indices
        alone = list(expand_cells([SweepSpec("moe", base_seed=5)]))
        together = list(expand_cells([
            SweepSpec("dense", grid={"mtbf_scale": [0.5, 1.0]}),
            SweepSpec("moe", base_seed=5)]))
        assert together[-1].seed == alone[0].seed
        assert together[-1].key == alone[0].key

    def test_explicit_seed_wins_over_derivation(self):
        cells = expand_cells([SweepSpec(
            "dense-small", params={"seed": 123},
            grid={"mtbf_scale": [0.01, 0.02]})])
        assert [c.seed for c in cells] == [123, 123]

    def test_analytic_cells_pin_seed_to_zero(self):
        cells = expand_cells([SweepSpec(
            "standby-sizing", grid={"machines": [128, 256]})])
        assert [c.seed for c in cells] == [0, 0]

    def test_cell_key_stable_hash(self):
        params = {"a": 1, "b": 2.0}
        assert cell_key("s", params, 3) == cell_key(
            "s", {"b": 2.0, "a": 1}, 3)
        assert cell_key("s", params, 3) != cell_key("s", params, 4)


class TestSweepDeterminism:
    def test_worker_count_does_not_change_results(self):
        serial = SweepRunner(workers=1).run(SMALL_SPEC)
        pooled = SweepRunner(workers=4).run(SMALL_SPEC)
        assert canonical(serial) == canonical(pooled)
        # the cells genuinely simulate different fault histories
        reports = serial.reports()
        assert reports[0] != reports[1]

    def test_second_run_served_entirely_from_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = SweepRunner(workers=2, cache=cache).run(SMALL_SPEC)
        second = SweepRunner(workers=2, cache=cache).run(SMALL_SPEC)
        assert first.cache_hits == 0
        assert second.cache_hits == len(second.results) == 2
        assert all(r.cached for r in second.results)
        assert canonical(first) == canonical(second)

    def test_failing_cell_raises_with_identity(self):
        bad = SweepSpec("dense-small", params={"duration_s": -1.0})
        with pytest.raises(Exception, match="cell #0"):
            SweepRunner(workers=1).run(bad)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)


#: A fast four-cell analytic sweep for streaming/caching tests.
ANALYTIC_SPEC = SweepSpec(
    "standby-sizing",
    params={"gpus_per_machine": 16},
    grid={"machines": [128, 256, 512, 1024]})


class TestStreaming:
    def test_progress_callback_sees_every_cell(self):
        events = []
        result = SweepRunner(workers=1).run(
            SweepRequest(specs=ANALYTIC_SPEC, progress=events.append))
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert [e.result.cell.index for e in events] == [0, 1, 2, 3]
        assert not any(e.result.cached for e in events)
        assert all(e.elapsed_s >= 0 for e in events)
        assert len(result.results) == 4

    def test_progress_distinguishes_cached_cells(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        events = []
        SweepRunner(workers=1, cache=cache).run(
            SweepRequest(specs=ANALYTIC_SPEC, progress=events.append))
        assert [e.result.cached for e in events] == [True] * 4

    def test_stream_yields_incrementally(self):
        stream = SweepRunner(workers=1).stream(ANALYTIC_SPEC)
        first = next(stream)
        assert first.cell.index == 0
        rest = list(stream)
        assert [r.cell.index for r in rest] == [1, 2, 3]

    def test_stream_caches_each_cell_as_it_completes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        stream = SweepRunner(workers=1, cache=cache).stream(
            ANALYTIC_SPEC)
        next(stream)
        next(stream)
        assert len(cache) == 2          # on disk before the sweep ends
        list(stream)
        assert len(cache) == 4

    def test_killed_sweep_resumes_from_partial_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        stream = SweepRunner(workers=1, cache=cache).stream(
            ANALYTIC_SPEC)
        next(stream)
        next(stream)
        stream.close()                  # "kill" the sweep mid-run

        resumed_cache = ResultCache(str(tmp_path / "c"))
        result = SweepRunner(workers=1, cache=resumed_cache).run(
            ANALYTIC_SPEC)
        # only the two unfinished cells re-simulate
        assert result.cache_hits == 2
        assert result.simulated == 2
        assert [r.cached for r in result.results] == [
            True, True, False, False]

    def test_streaming_pool_matches_inline(self, tmp_path):
        inline = SweepRunner(workers=1).run(ANALYTIC_SPEC)
        pooled = SweepRunner(workers=3).run(ANALYTIC_SPEC)
        assert canonical(inline) == canonical(pooled)

    def test_result_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        first = SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        assert first.stats() == {"cells": 4, "cache_hits": 0,
                                 "simulated": 4}
        second = SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        assert second.stats() == {"cells": 4, "cache_hits": 4,
                                  "simulated": 0}


class TestSweepErrorPayload:
    def test_error_carries_cell_params_and_traceback(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        bad = SweepSpec("dense-small",
                        params={"seed": 3},
                        grid={"duration_s": [1800.0, -1.0]})
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(workers=1, cache=cache).run(bad)
        err = excinfo.value
        assert err.cell is not None
        assert err.cell.index == 1
        assert err.params["duration_s"] == -1.0
        assert err.params["seed"] == 3
        assert "Traceback" in err.traceback_text
        # the healthy cell completed (and was cached) before the
        # failure — the partial sweep is resumable
        assert len(cache) == 1
        rerun = SweepRunner(workers=1, cache=ResultCache(
            str(tmp_path / "c"))).run(SweepSpec(
                "dense-small", params={"seed": 3,
                                       "duration_s": 1800.0}))
        assert rerun.cache_hits == 1


class TestRegistrySuggestions:
    def test_unknown_scenario_suggests_nearest(self):
        with pytest.raises(ScenarioError,
                           match="did you mean 'dense-small'"):
            get_scenario("dense-smal")

    def test_unknown_param_suggests_nearest(self):
        with pytest.raises(ScenarioError,
                           match="did you mean 'mtbf_scale'"):
            get_scenario("dense").resolve({"mtbf_scal": 1.0})

    def test_no_suggestion_for_nonsense(self):
        with pytest.raises(ScenarioError) as excinfo:
            get_scenario("xqzw")
        assert "did you mean" not in str(excinfo.value)


class TestCacheMaintenance:
    def test_entries_grouped_by_scenario(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        cache.put_many([("flatkey", {"x": 1}, None)])
        counts = cache.entries_by_scenario()
        assert counts == {"standby-sizing": 4, "": 1}
        assert len(cache) == 5
        assert cache.total_bytes() > 0

    def test_prune_one_scenario(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        SweepRunner(workers=1, cache=cache).run(SweepSpec(
            "scheduling-cost", grid={"machines": [128, 256]}))
        assert cache.prune("standby-sizing") == 4
        assert cache.entries_by_scenario() == {"scheduling-cost": 2}
        # pruned cells re-simulate; the survivor still hits
        result = SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        assert result.cache_hits == 0

    def test_prune_rejects_path_fragments(self, tmp_path):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "keep.json").write_text("{}")
        cache = ResultCache(str(tmp_path / "c"))
        SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        # traversal fragments never match a scenario subdirectory —
        # they remove nothing and touch nothing outside the cache
        assert cache.prune("..") == 0
        assert cache.prune("../outside") == 0
        assert cache.prune(str(outside)) == 0
        assert (outside / "keep.json").exists()
        assert len(cache) == 4

    def test_prune_spares_unrelated_files(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        notes = tmp_path / "c" / "standby-sizing" / "notes.txt"
        notes.write_text("keep me")
        assert cache.prune("standby-sizing") == 4
        assert notes.read_text() == "keep me"
        assert cache.entries_by_scenario() == {}
        notes.unlink()
        SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        cache.prune("standby-sizing")  # an emptied directory goes too
        assert not notes.parent.exists()

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        assert cache.clear() == 4
        assert len(cache) == 0
        assert cache.total_bytes() == 0

    def test_clear_spares_unrelated_files(self, tmp_path):
        # a mistyped --cache-dir pointed at a real directory must not
        # destroy anything that is not a cache entry
        (tmp_path / "notes.txt").write_text("keep me")
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "model.bin").write_text("keep me too")
        cache = ResultCache(str(tmp_path))
        cache.put_many([("deadbeef", {"x": 1}, "dense")])
        assert cache.clear() == 1
        assert (tmp_path / "notes.txt").exists()
        assert (tmp_path / "data" / "model.bin").exists()
        assert tmp_path.exists()

    def test_lifetime_stats_survive_instances(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        SweepRunner(workers=1, cache=cache).run(ANALYTIC_SPEC)
        fresh = ResultCache(str(tmp_path / "c"))
        assert fresh.lifetime_stats() == {"hits": 0, "misses": 4,
                                          "writes": 4, "corrupt": 0}
        SweepRunner(workers=1, cache=fresh).run(ANALYTIC_SPEC)
        again = ResultCache(str(tmp_path / "c"))
        assert again.lifetime_stats() == {"hits": 4, "misses": 4,
                                          "writes": 4, "corrupt": 0}


class TestReportLayer:
    def test_table_renders_three_formats(self):
        table = Table(headers=["a", "b"], rows=[[1, 2.5], ["x", None]],
                      title="t")
        text = table.to_text()
        assert text.startswith("=== t ===")
        md = table.to_markdown()
        assert "| a | b |" in md and "|---|---|" in md
        assert "| 1 | 2.5000 |" in md
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == "a,b"
        with pytest.raises(ValueError, match="unknown table format"):
            table.render("pdf")

    def test_summary_renders_markdown_and_csv(self):
        result = SweepRunner(workers=1).run(ANALYTIC_SPEC)
        summary = summarize(result)
        md = summary.render("markdown", title="sizes")
        assert md.startswith("### sizes")
        assert "| standby-sizing |" in md
        csv_text = summary.render("csv")
        assert csv_text.splitlines()[0].startswith(
            "scenario,machines")
        table = table_from_summary(summary)
        assert table.headers[0] == "scenario"
        assert len(table.rows) == 4

    def test_markdown_escapes_pipes(self):
        md = Table(headers=["h"], rows=[["a|b"]]).to_markdown()
        assert "a\\|b" in md


class TestResultCache:
    def test_round_trip_and_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.get_many([("deadbeef", None)]) == [None]
        cache.put_many([("deadbeef", {"x": 1}, None)])
        assert cache.get_many([("deadbeef", None)]) == [{"x": 1}]
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = os.path.join(str(tmp_path), "1-0123456789ab.log")
        with open(path, "w") as fh:
            fh.write("abc\t{not json\n")
        assert cache.get_many([("abc", None)]) == [None]

    def test_rejects_keys_and_scenarios_that_escape_the_layout(
            self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        for key in ("a\tb", "a\nb"):
            with pytest.raises(ValueError, match="tab or newline"):
                cache.put_many([(key, {"x": 1}, "dense")])
        for scenario in ("..", "../outside", str(tmp_path)):
            with pytest.raises(ValueError, match="plain directory"):
                cache.put_many([("k", {"x": 1}, scenario)])
            with pytest.raises(ValueError, match="plain directory"):
                cache.get_many([("k", scenario)])
        assert os.listdir(str(tmp_path)) == []

    def test_traffic_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.stats() == {"hits": 0, "misses": 0, "writes": 0,
                                 "corrupt": 0}
        cache.get_many([("nope", None)])                 # miss
        cache.put_many([("key", {"x": 1}, None)])        # write
        cache.get_many([("key", None), ("key", None)])   # two hits
        assert cache.stats() == {"hits": 2, "misses": 1, "writes": 1,
                                 "corrupt": 0}

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with open(os.path.join(str(tmp_path), "1-0123456789ab.log"),
                  "w") as fh:
            fh.write("bad\t{not json\n")
        cache.get_many([("bad", None)])
        assert cache.stats()["misses"] == 1
        assert cache.stats()["corrupt"] == 1

    def test_old_per_file_entries_are_ignored(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        os.mkdir(tmp_path / "dense")
        (tmp_path / "dense" / "abc.json").write_text('{"x": 1}')
        assert cache.get_many([("abc", "dense")]) == [None]
        assert len(cache) == 0
        cache.clear()                  # ... but --clear reclaims them
        assert not (tmp_path / "dense").exists()


class TestSummary:
    def test_summary_rows_and_varied(self):
        result = SweepRunner(workers=1).run(SMALL_SPEC)
        summary = summarize(result)
        assert summary.varied == ["mtbf_scale"]
        assert len(summary.rows) == 2
        for row in summary.rows:
            assert row["scenario"] == "dense-small"
            assert 0.0 <= row["cumulative_ettr"] <= 1.0
            assert row["incidents"] >= row["resolved"] >= 0
        table = summary.table("t")
        assert "mtbf_scale" in table and "cumulative_ettr" in table
        best = summary.best("cumulative_ettr")
        assert best["cumulative_ettr"] == max(
            r["cumulative_ettr"] for r in summary.rows)

    def test_explicit_seed_grid_is_a_varied_column(self):
        result = SweepRunner().run(SweepSpec(
            "dense-small", params={"duration_s": 1800.0},
            grid={"seed": [1, 2]}))
        summary = summarize(result)
        assert summary.varied == ["seed"]
        assert "seed" in summary.table()

    def test_undeclared_params_not_marked_varied(self):
        # ib_error_factor exists only on degraded-network; fixed at its
        # default it must not appear as a varied column
        result = SweepRunner().run([
            SweepSpec("dense-small", params={"duration_s": 1800.0}),
            SweepSpec("degraded-network",
                      params={"duration_s": 1800.0, "num_machines": 4,
                              "mtbf_scale": 0.05})])
        summary = summarize(result)
        assert summary.varied == []

    def test_analytic_summary(self):
        result = SweepRunner().run(SweepSpec(
            "standby-sizing", grid={"machines": [128, 1024]}))
        summary = summarize(result)
        rows = {r["machines"]: r for r in summary.rows}
        assert rows[128]["p99_standby_machines"] == 2
        assert rows[1024]["p99_standby_machines"] == 4


class TestSweepCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "dense-small" in out and "mtbf_scale" in out

    def test_sweep_command_with_cache_and_output(self, tmp_path,
                                                 capsys):
        out_file = tmp_path / "sweep.json"
        argv = ["sweep", "--scenario", "dense-small",
                "--grid", "mtbf_scale=0.01,0.03",
                "--set", "duration_s=7200",
                "--workers", "2", "--base-seed", "7",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(out_file)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 served from cache" in first
        data = json.loads(out_file.read_text())
        assert len(data["sweep"]["cells"]) == 2
        assert data["summary"]["varied"] == ["mtbf_scale"]

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 served from cache" in second
        # the CLI surfaces cache traffic so CI logs show effectiveness
        assert "2 hits, 0 misses, 0 writes this sweep" in second
        assert "2 misses, 2 writes this sweep" in first

    def test_sweep_streams_progress_to_stderr(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "standby-sizing",
                     "--grid", "machines=128,256",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert lines[0].startswith("[1/2] standby-sizing")
        assert lines[1].startswith("[2/2] standby-sizing")
        assert "(sim)" in lines[0]
        # a cached re-run reports its provenance on the same line
        assert main(["sweep", "--scenario", "standby-sizing",
                     "--grid", "machines=128,256",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        rerun = capsys.readouterr()
        assert "(cache)" in rerun.err
        assert "2 served from cache" in rerun.out

    def test_sweep_quiet_suppresses_progress(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "standby-sizing",
                     "--grid", "machines=128,256", "--quiet",
                     "--no-cache"]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_markdown_format(self, capsys):
        assert main(["sweep", "--scenario", "standby-sizing",
                     "--no-cache", "--quiet",
                     "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| standby-sizing |" in out

    def test_report_command_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        assert main(["sweep", "--scenario", "standby-sizing",
                     "--grid", "machines=128,1024", "--quiet",
                     "--cache-dir", str(tmp_path / "c"),
                     "--output", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["report", str(out_file),
                     "--format", "markdown", "--title", "t5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("### t5")
        assert "| standby-sizing | 128 |" in out

        md_file = tmp_path / "t.md"
        assert main(["report", str(out_file), "--format", "csv",
                     "--output", str(md_file)]) == 0
        assert md_file.read_text().startswith("scenario,machines")

    def test_report_rejects_bad_input(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["report", str(bad)]) == 2
        assert "does not look like" in capsys.readouterr().err
        # a non-object top level must get the same clean error
        bad.write_text("[1, 2, 3]")
        assert main(["report", str(bad)]) == 2
        assert "does not look like" in capsys.readouterr().err

    def test_cache_command_stats_prune_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert main(["sweep", "--scenario", "standby-sizing",
                     "--grid", "machines=128,256", "--quiet",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:  2" in out
        assert "standby-sizing" in out
        assert "0 hits, 2 misses, 2 writes" in out

        assert main(["cache", "--cache-dir", cache_dir,
                     "--prune", "standby-sizing"]) == 0
        assert "2 entries removed" in capsys.readouterr().out

        assert main(["cache", "--cache-dir", cache_dir,
                     "--clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "entries:  0" in capsys.readouterr().out

    def test_list_scenarios_markdown_matches_catalog(self, capsys):
        from repro.experiments import scenario_catalog_markdown

        assert main(["list-scenarios", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip("\n") == scenario_catalog_markdown()

    def test_sweep_rejects_bad_grid_syntax(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "dense-small",
                  "--grid", "mtbf_scale"])

    def test_set_rejects_multiple_values(self):
        with pytest.raises(SystemExit, match="single value"):
            main(["sweep", "--scenario", "dense-small",
                  "--set", "mtbf_scale=0.5,1.0"])

    def test_sweep_unknown_scenario_clean_error(self, capsys):
        assert main(["sweep", "--scenario", "nope",
                     "--no-cache"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_failing_cell_clean_error(self, capsys):
        assert main(["sweep", "--scenario", "dense-small",
                     "--set", "duration_s=-1", "--no-cache"]) == 2
        assert "cell #0" in capsys.readouterr().err


class TestPendingCountO1:
    def test_cancel_keeps_counter_accurate(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1.0, lambda: None)
                   for i in range(3)]
        assert sim.pending_count() == 3
        handles[1].cancel()
        assert sim.pending_count() == 2
        handles[1].cancel()          # double-cancel is a no-op
        assert sim.pending_count() == 2
        sim.run()
        assert sim.pending_count() == 0

    def test_cancel_after_execution_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert sim.pending_count() == 1
        handle.cancel()              # already ran; must not underflow
        assert sim.pending_count() == 1

    def test_counter_matches_queue_scan(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None)
                   for i in range(50)]
        for h in handles[::3]:
            h.cancel()
        # the heap holds [time, priority, seq, callback] entries; a
        # cancelled entry has its callback slot cleared in place
        scan = sum(1 for entry in sim._queue if entry[3] is not None)
        assert sim.pending_count() == scan
