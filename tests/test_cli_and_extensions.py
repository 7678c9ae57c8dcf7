"""Tests for the CLI, loss-spike mitigation, flight-recorder
corroboration, JSON report export, and the staged-recipe scenario."""

import json

import pytest

from repro.cli import main
from repro.cluster.faults import (
    Fault,
    FaultSymptom,
    JobEffect,
    RootCause,
    RootCauseDetail,
)
from repro.workloads.scenarios import staged_pretrain_scenario
from tests.test_system_integration import inject_at, make_system


class TestCli:
    def test_standby_size(self, capsys):
        assert main(["standby-size", "--machines", "1024"]) == 0
        out = capsys.readouterr().out
        assert "4 machines" in out

    def test_replay_success_exit_code(self, capsys):
        assert main(["replay", "--faulty", "13"]) == 0
        assert "[13]" in capsys.readouterr().out

    def test_replay_failure_exit_code(self, capsys):
        # a defect that essentially never reproduces cannot be located
        code = main(["replay", "--faulty", "5",
                     "--reproduce-prob", "0.000001", "--seed", "1"])
        assert code == 1

    def test_was_table(self, capsys):
        assert main(["was", "--scales", "128", "512"]) == 0
        out = capsys.readouterr().out
        assert "requeue" in out and "byterobust" in out

    def test_run_dense_with_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["run", "dense", "--set", "num_machines=4",
                     "--set", "duration_s=7200",
                     "--set", "mtbf_scale=0.01",
                     "--output", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert 0.0 <= data["cumulative_ettr"] <= 1.0
        assert "ettr_curve" in data
        assert isinstance(data["incidents"], list)

    def test_run_routes_through_registry(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["run", "standby-sizing", "--set", "machines=128",
                     "--output", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["machines"] == 128
        assert data["p99_standby_machines"] >= 1

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_rejects_unknown_parameter(self, capsys):
        assert main(["run", "standby-sizing",
                     "--set", "warp_factor=9"]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_legacy_aliases_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "cache-serve" in out and "worker" in out


class TestLossSpikeMitigation:
    def test_spike_handled_without_restart(self):
        s = make_system()
        s.run_until(s.job.step_time() * 12)
        s.job.loss_spike_factor = 9.0
        before_step = s.job.current_step
        s.run_until(s.sim.now + s.job.step_time() * 4)
        skips = [i for i in s.incident_log.resolved()
                 if i.mechanism == "BatchSkip"]
        assert skips
        assert s.job.loss_spike_factor == 1.0       # batches skipped
        # no downtime: the job kept stepping through mitigation
        assert skips[0].total_unproductive_seconds == 0.0
        assert s.job.current_step > before_step


class TestFlightRecorderCorroboration:
    def test_hang_incident_records_recorder_verdict(self):
        s = make_system(hang_window=120.0)
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.DEFECTIVE_CUDA_CORES,
            machine_ids=[s.job.machines[5]], effect=JobEffect.HANG))
        s.run_until(3000)
        inc = s.incident_log.resolved()[0]
        recorder_notes = [a for a in inc.actions
                          if a.startswith("flight_recorder:")]
        assert recorder_notes == ["flight_recorder:corroborates"]

    def test_recorder_snapshot_marks_stalled_ranks(self):
        s = make_system(hang_window=120.0)
        inject_at(s, 600, Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.DEFECTIVE_CUDA_CORES,
            machine_ids=[s.job.machines[5]], effect=JobEffect.HANG))
        s.run_until(900)     # hang active, before recovery
        s.tracer.capture()
        rec = s.tracer.flight_recorder
        assert rec.incomplete_ranks() == s.job.stalled_ranks


class TestReportExport:
    def test_to_dict_round_trips_through_json(self):
        s = make_system()
        inject_at(s, 500, Fault(
            symptom=FaultSymptom.GPU_UNAVAILABLE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_LOST,
            machine_ids=[s.job.machines[0]],
            log_signature="CUDA error: device unavailable",
            exit_code=134))
        s.run_until(2000)
        data = json.loads(json.dumps(s.report().to_dict()))
        assert data["final_step"] > 0
        assert len(data["incidents"]) == 1
        inc = data["incidents"][0]
        assert inc["symptom"] == "gpu_unavailable"
        assert inc["mechanism"] == "AutoFT-ER"
        assert inc["evicted_machines"] == [0]
        curve = data["ettr_curve"]
        assert len(curve["times"]) == len(curve["cumulative"])


class TestStagedScenario:
    def test_recipe_driven_updates_and_ettr(self):
        scenario = staged_pretrain_scenario(
            num_machines=4, duration_s=2 * 86400, seed=9,
            mtbf_scale=0.01)
        report = scenario.run()
        assert report.cumulative_ettr > 0.9
        versions = scenario.system.hotupdate.versions_applied()
        # stage names flow into version labels
        assert any(v.startswith(("warmup", "general", "enhance",
                                 "long_context", "anneal"))
                   for v in versions[1:])

    def test_churny_stages_produce_more_updates(self):
        """Warmup churns ~8x faster than anneal; over many seeds the
        early-stage update count dominates."""
        early = late = 0
        scenario = staged_pretrain_scenario(
            num_machines=4, duration_s=4 * 86400, seed=13,
            mtbf_scale=1.0)   # effectively no faults, updates only
        for event in scenario.events:
            if not event.is_manual:
                continue
            if event.update.version.startswith(("warmup", "general")):
                early += 1
            elif event.update.version.startswith("anneal"):
                late += 1
        assert early > late
