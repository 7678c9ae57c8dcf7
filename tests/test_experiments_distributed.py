"""Tests for the distributed sweep fabric: the pluggable
:class:`~repro.experiments.executor.Executor` API, the remote
work-queue backend, and the shared cache service.

The load-bearing properties:

* every backend (inline, process pool, remote sockets) produces a
  byte-identical :class:`~repro.experiments.sweep.SweepResult` for the
  same specs, at any worker count;
* a worker killed mid-sweep costs nothing but a re-queue — the sweep
  completes on the survivors and a warm-cache rerun serves every cell
  from disk;
* the cache service is observationally identical to a local
  :class:`~repro.experiments.cache.ResultCache`, with the lifetime
  counters aggregating server-side across clients.
"""

import inspect
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import (
    CacheClient,
    CacheServer,
    CacheServiceError,
    ExecutorError,
    InlineExecutor,
    ProcessPoolExecutor,
    RemoteExecutor,
    ResultCache,
    SweepError,
    SweepRequest,
    SweepRunner,
    SweepSpec,
    expand_cells,
    make_executor,
    run_worker,
)
from repro.experiments.net import MessageStream

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SPEC = SweepSpec("standby-sizing",
                 grid={"machines": [64, 128, 256],
                       "quantile": [0.9, 0.99]})


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def start_workers(address, count, **kwargs):
    threads = [threading.Thread(target=run_worker, args=(address,),
                                kwargs=kwargs, daemon=True)
               for _ in range(count)]
    for t in threads:
        t.start()
    return threads


def rogue_reply(address, forged_slot):
    """Connect as a worker, take one assignment, and answer it for
    ``forged_slot`` instead.  Returns the assignment and the
    executor's next message (None once it hangs up)."""
    stream = MessageStream(socket.create_connection(address, timeout=10))
    try:
        stream.send({"type": "hello", "proto": 1})
        assignment = stream.recv()
        stream.send({"type": "results", "results": [
            {"slot": forged_slot, "status": "ok",
             "payload": {"forged": True}}]})
        try:
            return assignment, stream.recv()
        except OSError:
            return assignment, None
    finally:
        stream.close()


class TestExecutorApi:
    def test_inline_executor_runs_all_cells(self):
        cells = list(expand_cells([SPEC]))
        with InlineExecutor() as ex:
            ex.submit_cells(cells)
            batches = list(ex.results_batched())
        # the inline backend dispatches every cell as a batch of one
        assert [len(batch) for batch in batches] == [1] * len(cells)
        outcomes = [outcome for batch in batches for outcome in batch]
        assert [c.index for c, _s, _p in outcomes] \
            == [c.index for c in cells]
        assert all(status == "ok" for _c, status, _p in outcomes)

    @pytest.mark.parametrize("backend", ("inline", "process"))
    def test_empty_submission_yields_no_batches(self, backend):
        with make_executor(backend, workers=2) as ex:
            ex.submit_cells([])
            assert list(ex.results_batched()) == []

    def test_executors_are_single_use(self):
        ex = InlineExecutor()
        ex.submit_cells(expand_cells([SPEC]))
        with pytest.raises(ExecutorError, match="single-use"):
            ex.submit_cells(expand_cells([SPEC]))

    def test_make_executor_registry(self):
        assert isinstance(make_executor("inline"), InlineExecutor)
        assert isinstance(make_executor("process", workers=3),
                          ProcessPoolExecutor)
        remote = make_executor("remote")
        try:
            assert isinstance(remote, RemoteExecutor)
        finally:
            remote.close()
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("carrier-pigeon")

    def test_process_pool_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(workers=0)


class TestRemoteExecutor:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machines=st.lists(st.sampled_from([64, 128, 256, 512, 1024]),
                             min_size=1, max_size=3, unique=True),
           base_seed=st.integers(0, 2**16))
    def test_remote_matches_process_pool_byte_identical(self, machines,
                                                        base_seed):
        """The ISSUE's headline property: process-pool and remote
        backends produce byte-identical SweepResults for any grid."""
        spec = SweepSpec("standby-sizing",
                         grid={"machines": machines,
                               "quantile": [0.9, 0.99]},
                         base_seed=base_seed)
        reference = canonical(SweepRunner(workers=2).run(spec))
        ex = RemoteExecutor()
        start_workers(ex.address, 2)
        with ex:
            remote = canonical(SweepRunner(executor=ex).run(spec))
        assert remote == reference

    @pytest.mark.parametrize("worker_count", (1, 2, 3))
    def test_any_worker_count_is_deterministic(self, worker_count):
        reference = canonical(SweepRunner(workers=1).run(SPEC))
        ex = RemoteExecutor()
        start_workers(ex.address, worker_count)
        with ex:
            got = canonical(SweepRunner(executor=ex).run(SPEC))
        assert got == reference

    def test_late_joining_worker_is_picked_up(self):
        reference = canonical(SweepRunner(workers=1).run(SPEC))
        ex = RemoteExecutor()
        with ex:
            runner = SweepRunner(executor=ex)
            # worker connects well after the cells are queued
            timer = threading.Timer(
                0.3, lambda: start_workers(ex.address, 1))
            timer.start()
            got = canonical(runner.run(SPEC))
            timer.join()
        assert got == reference

    def test_dead_worker_cells_requeue_and_cache_resumes(self, tmp_path):
        """Kill a worker mid-sweep: its in-flight cell is re-queued to
        the survivor, the sweep completes byte-identically, and a
        rerun over the same cache serves every cell warm."""
        reference = canonical(SweepRunner(workers=1).run(SPEC))
        ex = RemoteExecutor(heartbeat_timeout_s=5.0)
        # fail_after=0: dies on its FIRST assignment without replying —
        # from the executor's view, a worker killed mid-cell
        start_workers(ex.address, 1, fail_after=0)
        time.sleep(0.1)      # let the doomed worker take a cell first
        start_workers(ex.address, 1)
        cache = ResultCache(tmp_path / "c")
        with ex:
            got = SweepRunner(executor=ex, cache=cache).run(SPEC)
        assert canonical(got) == reference
        assert ex.stats["workers_lost"] >= 1
        assert ex.stats["requeued"] >= 1

        # warm-cache resume: no executor, no workers, all hits
        warm = SweepRunner(workers=1,
                           cache=ResultCache(tmp_path / "c")).run(SPEC)
        assert canonical(warm) == reference
        assert warm.cache_hits == len(warm.results)
        assert warm.simulated == 0

    @pytest.mark.parametrize("forged_slot", (2, 7))
    def test_reply_for_unassigned_slot_is_a_lost_worker(self, tmp_path,
                                                        forged_slot):
        """A connection assigned slot 0 that replies for another slot
        (one held by nobody, or past the end of the sweep) is dropped
        like a dead worker: nothing it sent is recorded or cached."""
        spec = SweepSpec("standby-sizing",
                         grid={"machines": [64, 128, 256]})
        reference = canonical(SweepRunner(workers=1).run(spec))
        ex = RemoteExecutor(heartbeat_timeout_s=5.0)
        seen = []

        def rogue_then_worker():
            seen.append(rogue_reply(ex.address, forged_slot))
            start_workers(ex.address, 1)

        rogue = threading.Thread(target=rogue_then_worker, daemon=True)
        rogue.start()
        with ex:
            got = SweepRunner(executor=ex,
                              cache=ResultCache(tmp_path / "c")).run(spec)
        rogue.join(timeout=10)
        assert not rogue.is_alive()
        assignment, reply = seen[0]
        assert [c["slot"] for c in assignment["cells"]] == [0]
        assert reply is None              # the executor hung up on it
        assert canonical(got) == reference
        assert ex.stats["workers_lost"] == 1
        assert ex.stats["requeued"] == 1
        warm = SweepRunner(cache=ResultCache(tmp_path / "c")).run(spec)
        assert warm.cache_hits == 3
        assert canonical(warm) == reference

    def test_idle_timeout_fails_loudly_without_workers(self):
        ex = RemoteExecutor(idle_timeout_s=0.3)
        with ex:
            with pytest.raises((ExecutorError, SweepError),
                               match="no worker"):
                SweepRunner(executor=ex).run(SPEC)

    def test_worker_side_failure_raises_sweep_error(self):
        # quantile=2.0 fails inside the cell; the worker ships the
        # traceback back and the parent raises a diagnosable SweepError
        bad = SweepSpec("standby-sizing", grid={"quantile": [2.0]})
        ex = RemoteExecutor()
        start_workers(ex.address, 1)
        with ex:
            with pytest.raises(SweepError) as excinfo:
                SweepRunner(executor=ex).run(bad)
        assert excinfo.value.params.get("quantile") == 2.0
        assert excinfo.value.traceback_text

    def test_cli_worker_subprocess_end_to_end(self, tmp_path):
        """Real `python -m repro worker` subprocesses against a live
        executor — one dies mid-sweep (SIGKILL semantics), the other
        finishes everything."""
        reference = canonical(SweepRunner(workers=1).run(SPEC))
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        ex = RemoteExecutor(heartbeat_timeout_s=5.0)
        addr = f"{ex.address[0]}:{ex.address[1]}"
        doomed = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect", addr,
             "--fail-after", "0", "--quiet"], env=env)
        healthy = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect", addr,
             "--quiet"], env=env)
        try:
            with ex:
                got = canonical(SweepRunner(executor=ex).run(SPEC))
            assert got == reference
            assert ex.stats["requeued"] >= 1
        finally:
            for proc in (doomed, healthy):
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=5)


class TestCacheService:
    def test_get_put_stats_roundtrip(self, tmp_path):
        with CacheServer(tmp_path).start() as server:
            with CacheClient(server.address) as client:
                assert client.ping()
                assert client.get_many([("k1", "scen")]) == [None]
                client.put_many([("k1", {"x": 1}, "scen")])
                assert client.get_many([("k1", "scen")]) == [{"x": 1}]
                assert len(client) == 1
                assert client.stats() == {"hits": 1, "misses": 1,
                                          "writes": 1}
        # entries live on disk under the scenario subdirectory
        assert ResultCache(tmp_path).get_many([("k1", "scen")]) \
            == [{"x": 1}]

    def test_sweep_through_service_matches_local_cache(self, tmp_path):
        local = SweepRunner(workers=1,
                            cache=ResultCache(tmp_path / "local")
                            ).run(SPEC)
        with CacheServer(tmp_path / "served").start() as server:
            with CacheClient(server.address) as client:
                cold = SweepRunner(workers=1, cache=client).run(SPEC)
                warm = SweepRunner(workers=1, cache=client).run(SPEC)
        assert canonical(cold) == canonical(local)
        assert canonical(warm) == canonical(local)
        assert warm.cache_hits == len(warm.results)

    def test_counters_are_server_metrics_across_clients(self, tmp_path):
        with CacheServer(tmp_path).start() as server:
            with CacheClient(server.address) as a, \
                    CacheClient(server.address) as b:
                a.put_many([("k", {"v": 1}, "s")])
                assert b.get_many([("k", "s")]) == [{"v": 1}]
                assert b.get_many([("missing", "s")]) == [None]
                view = a.server_stats()
        # one write (a) + one hit and one miss (b), aggregated
        assert view["stats"] == {"hits": 1, "misses": 1, "writes": 1,
                                 "corrupt": 0}
        assert view["entries"] == 1
        assert view["requests"]["get_many"] == 2
        assert view["requests"]["put_many"] == 1

    def test_lifetime_counters_persist_to_sidecar(self, tmp_path):
        with CacheServer(tmp_path).start() as server:
            with CacheClient(server.address) as client:
                client.put_many([("k", {"v": 1}, "s")])
                client.get_many([("k", "s")])
                client.persist_stats()
                assert client.lifetime_stats()["writes"] == 1
        # server close also persists; a fresh local cache sees them
        stats = ResultCache(tmp_path).lifetime_stats()
        assert stats["hits"] == 1 and stats["writes"] == 1

    def test_unknown_op_is_an_error_not_a_hangup(self, tmp_path):
        with CacheServer(tmp_path).start() as server:
            with CacheClient(server.address) as client:
                with pytest.raises(CacheServiceError, match="unknown op"):
                    client._request({"op": "frobnicate"})
                assert client.ping()      # connection still serviceable

    @pytest.mark.parametrize("op", (["get"], {"op": 1}, None, 7))
    def test_malformed_op_is_an_error_not_a_hangup(self, tmp_path, op):
        with CacheServer(tmp_path).start() as server:
            with CacheClient(server.address) as client:
                assert client.ping()
                stream = client._stream
                with pytest.raises(CacheServiceError,
                                   match="op must be a string"):
                    client._request({"op": op})
                # same connection, no reconnect: the handler survived
                assert client.ping()
                assert client._stream is stream

    def test_per_cell_ops_are_gone(self, tmp_path):
        with CacheServer(tmp_path).start() as server:
            with CacheClient(server.address) as client:
                for op in ("get", "put"):
                    with pytest.raises(CacheServiceError,
                                       match="unknown op"):
                        client._request({"op": op, "key": "k",
                                         "scenario": "s",
                                         "payload": {}})

    def test_client_reconnects_after_server_bounce(self, tmp_path):
        server = CacheServer(tmp_path).start()
        host, port = server.address
        client = CacheClient((host, port))
        client.put_many([("k", {"v": 1}, "s")])
        server.close()
        bounced = CacheServer(tmp_path, host=host, port=port).start()
        try:
            assert client.get_many([("k", "s")]) == [{"v": 1}]
        finally:
            client.close()
            bounced.close()

    def test_unreachable_service_raises(self, tmp_path):
        client = CacheClient(("127.0.0.1", 1), connect_timeout_s=0.2)
        with pytest.raises((CacheServiceError, OSError)):
            client.get_many([("k", "s")])


class TestSweepRequestShims:
    def test_legacy_shapes_still_work(self):
        reference = canonical(SweepRunner(workers=1).run(SPEC))
        runner = SweepRunner(workers=1)
        assert canonical(runner.run([SPEC])) == reference
        assert canonical(runner.run(SweepRequest(specs=SPEC))) \
            == reference
        assert canonical(runner.run(SweepRequest(specs=(SPEC,)))) \
            == reference

    def test_runner_methods_take_no_intake_twins(self):
        # progress lives on the request; fold() is the only
        # non-materializing collector
        for name, method in inspect.getmembers(SweepRunner,
                                               inspect.isfunction):
            params = inspect.signature(method).parameters
            assert "progress" not in params, name
            assert "collect" not in params, name

    def test_request_base_seed_overrides_specs(self):
        spec = SweepSpec("dense-small",
                         params={"duration_s": 600.0},
                         grid={"mtbf_scale": [0.01, 0.05]},
                         base_seed=3)
        via_request = SweepRunner(workers=1).run(
            SweepRequest(specs=spec, base_seed=99))
        import dataclasses
        via_spec = SweepRunner(workers=1).run(
            dataclasses.replace(spec, base_seed=99))
        assert canonical(via_request) == canonical(via_spec)
        # and it genuinely changed the derived seeds
        assert canonical(via_request) \
            != canonical(SweepRunner(workers=1).run(spec))

    def test_result_cache_accepts_pathlib_path(self, tmp_path):
        cache = ResultCache(Path(tmp_path) / "p")
        cache.put_many([("k", {"v": 1}, "s")])
        assert cache.get_many([("k", "s")]) == [{"v": 1}]
        assert isinstance(cache.directory, str)

    def test_specs_are_validated(self):
        with pytest.raises(TypeError):
            SweepRequest(specs=["not-a-spec"])
