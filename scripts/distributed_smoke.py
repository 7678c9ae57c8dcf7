#!/usr/bin/env python
"""End-to-end smoke test for the distributed sweep fabric (CI job
``distributed-smoke``).

Orchestrates real CLI subprocesses, exactly as a user would run them
across hosts (here: loopback):

1. ``repro cache-serve`` — one shared cache service;
2. a reference ``repro sweep --backend process`` run (no cache);
3. ``repro sweep --backend remote`` against the cache service, served
   by two ``repro worker`` processes — one started with the hidden
   ``--fail-after 0`` failure-injection flag so it dies on its first
   assignment and its cell is re-queued to the survivor;
4. a warm rerun through the cache service with no workers at all —
   every cell must be a cache hit.

Gates (exit 1 on any failure):

* the remote sweep's ``"sweep"`` payload is byte-identical to the
  process-backend reference;
* the remote run survived the killed worker;
* the warm rerun equals the reference and simulated nothing.

``--stress`` runs the stress-scale phase instead (CI job step
``sweep-stress-smoke``): a ~50k-cell ``sweep-stress`` grid through
``--live`` digest-only aggregation — inline, then the remote backend
with two workers and ``--batch-size 256``, then a warm resume from
the populated cache, then a cold cached sweep SIGKILLed once its cache
holds records and resumed — gated on per-phase wall-clock ceilings, a
peak-child-RSS ceiling, digest equality across all four runs, the
warm resume serving every cell from cache, and the killed sweep's
resume serving some.
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

GRID = ["--scenario", "fleet-week",
        "--set", "duration_s=21600", "--set", "total_machines=48",
        "--grid", "arrival_mean_s=1800,2700,3600"]
READY_RE = re.compile(r"listening on ([\d.]+):(\d+)")
TIMEOUT_S = 240


def repro(*argv):
    return [sys.executable, "-m", "repro", *argv]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_ready(proc: subprocess.Popen) -> str:
    """Parse the cache service's readiness line for its bound address."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        sys.stderr.write(f"[cache-serve] {line}")
        match = READY_RE.search(line)
        if match:
            return f"{match.group(1)}:{match.group(2)}"
    raise RuntimeError("cache service never became ready")


def sweep_payload(path: str) -> str:
    with open(path) as fh:
        return json.dumps(json.load(fh)["sweep"], sort_keys=True)


def run_checked(argv, **kwargs) -> str:
    result = subprocess.run(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            timeout=TIMEOUT_S, **kwargs)
    sys.stderr.write(result.stdout)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[2:4])} exited "
                           f"{result.returncode}")
    return result.stdout


def reap(children) -> None:
    for proc in children:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


STRESS_CELLS = 50_000
STRESS_GRID = ["--scenario", "sweep-stress",
               "--grid", f"shard=0..{STRESS_CELLS - 1}"]
#: Generous per-phase wall ceilings — the gate exists to catch the
#: fabric falling off a throughput cliff (per-cell round-trips or
#: pickles reintroduced), not to benchmark CI runners.
STRESS_WALL_S = {"inline": 120.0, "remote": 180.0, "warm": 60.0,
                 "resume": 120.0}
STRESS_RSS_BYTES = 1 << 30       # 1 GiB peak for any child process


def digest_payload(path: str, ignore_provenance: bool = False) -> str:
    """The ``--live --output`` digest, canonicalized for comparison.

    ``ignore_provenance`` drops the cached/simulated counters so a
    warm all-from-cache resume can be compared against a cold run.
    """
    with open(path) as fh:
        digest = json.load(fh)["digest"]
    if ignore_provenance:
        digest = {k: v for k, v in digest.items()
                  if k not in ("cached", "simulated")}
    return json.dumps(digest, sort_keys=True)


SERVED_RE = re.compile(r"(\d+) cells, (\d+) served from cache")


def cache_holds_records(cache_dir: str) -> bool:
    """Whether any segment log under ``cache_dir`` holds a record."""
    for root, _dirs, names in os.walk(cache_dir):
        for name in names:
            if name.endswith(".log"):
                try:
                    if os.path.getsize(os.path.join(root, name)):
                        return True
                except OSError:
                    pass
    return False


def killed_and_resumed(cache_dir: str, out_json: str, children) -> str:
    """SIGKILL a cold cached inline sweep once its cache holds
    records, then rerun it to completion; returns the rerun's output."""
    argv = repro("sweep", *STRESS_GRID, "--live", "--cache-dir",
                 cache_dir, "--quiet", "--output", out_json)
    victim = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    children.append(victim)
    deadline = time.monotonic() + 60.0
    while not cache_holds_records(cache_dir):
        if victim.poll() is not None:
            raise RuntimeError("the sweep to be killed exited "
                               f"{victim.returncode} first")
        if time.monotonic() > deadline:
            raise RuntimeError("the sweep to be killed wrote no "
                               "cache records in 60s")
        time.sleep(0.01)
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    if victim.returncode != -signal.SIGKILL:
        raise RuntimeError("the sweep to be killed finished first "
                           f"(exit {victim.returncode})")
    return timed("resume", lambda: run_checked(argv))


def timed(label: str, fn):
    started = time.monotonic()
    out = fn()
    elapsed = time.monotonic() - started
    ceiling = STRESS_WALL_S[label]
    print(f"[stress] {label}: {STRESS_CELLS} cells in {elapsed:.1f}s "
          f"({STRESS_CELLS / elapsed:,.0f} cells/s; "
          f"ceiling {ceiling:.0f}s)", file=sys.stderr)
    if elapsed > ceiling:
        raise RuntimeError(f"stress phase {label!r} took "
                           f"{elapsed:.1f}s > {ceiling:.0f}s ceiling")
    return out


def stress() -> int:
    import resource

    tmp = tempfile.mkdtemp(prefix="sweep-stress-smoke-")
    inline_json = os.path.join(tmp, "inline.json")
    remote_json = os.path.join(tmp, "remote.json")
    warm_json = os.path.join(tmp, "warm.json")
    cache_dir = os.path.join(tmp, "cache")
    children = []
    try:
        print(f"== stress: {STRESS_CELLS} cells, inline, digest-only",
              file=sys.stderr)
        timed("inline", lambda: run_checked(
            repro("sweep", *STRESS_GRID, "--live", "--no-cache",
                  "--quiet", "--output", inline_json)))

        print("== stress: remote backend, 2 workers, --batch-size 256",
              file=sys.stderr)
        port = free_port()

        def remote_run() -> str:
            sweep = subprocess.Popen(
                repro("sweep", *STRESS_GRID, "--live",
                      "--backend", "remote",
                      "--listen", f"127.0.0.1:{port}",
                      "--batch-size", "256",
                      "--cache-dir", cache_dir,
                      "--quiet", "--output", remote_json),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            children.append(sweep)
            addr = f"127.0.0.1:{port}"
            for _ in range(2):
                children.append(subprocess.Popen(
                    repro("worker", "--connect", addr, "--quiet")))
            out, _ = sweep.communicate(timeout=TIMEOUT_S)
            sys.stderr.write(out)
            if sweep.returncode != 0:
                raise RuntimeError(
                    f"stress remote sweep exited {sweep.returncode}")
            return out

        timed("remote", remote_run)

        print("== stress: warm resume from the populated cache",
              file=sys.stderr)
        warm_out = timed("warm", lambda: run_checked(
            repro("sweep", *STRESS_GRID, "--live",
                  "--cache-dir", cache_dir, "--quiet",
                  "--output", warm_json)))
        if f"{STRESS_CELLS} served from cache, 0 streamed" \
                not in warm_out:
            raise RuntimeError("stress warm resume re-simulated cells "
                               "that should have been cache hits")

        print("== stress: SIGKILL a cold cached sweep, then resume",
              file=sys.stderr)
        resume_json = os.path.join(tmp, "resume.json")
        resume_out = killed_and_resumed(
            os.path.join(tmp, "killed-cache"), resume_json, children)
        served = SERVED_RE.search(resume_out)
        if served is None or int(served.group(2)) == 0:
            raise RuntimeError("the killed sweep's resume served no "
                               "cells from its cache")
        print(f"[stress] resume after SIGKILL: {served.group(2)} of "
              f"{served.group(1)} cells served from cache",
              file=sys.stderr)
        if digest_payload(resume_json, ignore_provenance=True) != \
                digest_payload(inline_json, ignore_provenance=True):
            raise RuntimeError("stress resume-after-kill digest "
                               "differs from inline")

        if digest_payload(remote_json) != digest_payload(inline_json):
            raise RuntimeError("stress remote digest differs from "
                               "inline")
        if digest_payload(warm_json, ignore_provenance=True) != \
                digest_payload(inline_json, ignore_provenance=True):
            raise RuntimeError("stress warm-resume digest differs "
                               "from inline")

        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss *= 1024          # Linux reports KiB
        print(f"[stress] peak child RSS {rss / (1 << 20):,.0f} MiB "
              f"(ceiling {STRESS_RSS_BYTES / (1 << 20):,.0f} MiB)",
              file=sys.stderr)
        if rss > STRESS_RSS_BYTES:
            raise RuntimeError(
                f"stress peak child RSS {rss / (1 << 20):,.0f} MiB "
                f"exceeds {STRESS_RSS_BYTES / (1 << 20):,.0f} MiB")
        print(f"sweep-stress smoke OK: {STRESS_CELLS} cells, "
              f"inline == remote == warm resume == resume after "
              f"SIGKILL, RSS and wall ceilings held")
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"sweep-stress smoke FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        reap(children)


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="distributed-smoke-")
    ref_json = os.path.join(tmp, "reference.json")
    remote_json = os.path.join(tmp, "remote.json")
    warm_json = os.path.join(tmp, "warm.json")
    cache_dir = os.path.join(tmp, "cache")
    children = []
    try:
        service = subprocess.Popen(
            repro("cache-serve", "--listen", "127.0.0.1:0",
                  "--cache-dir", cache_dir),
            stdout=subprocess.PIPE, text=True)
        children.append(service)
        cache_addr = wait_ready(service)

        print("== reference: process backend, no cache", file=sys.stderr)
        run_checked(repro("sweep", *GRID, "--workers", "2",
                          "--backend", "process", "--no-cache",
                          "--quiet", "--output", ref_json))

        print("== remote backend: 2 workers, one killed mid-sweep",
              file=sys.stderr)
        port = free_port()
        sweep = subprocess.Popen(
            repro("sweep", *GRID, "--backend", "remote",
                  "--listen", f"127.0.0.1:{port}",
                  "--cache-addr", cache_addr,
                  "--quiet", "--output", remote_json),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        children.append(sweep)
        addr = f"127.0.0.1:{port}"
        # the doomed worker accepts its first cell, then drops the
        # connection without replying — the executor must re-queue it
        children.append(subprocess.Popen(
            repro("worker", "--connect", addr, "--fail-after", "0")))
        children.append(subprocess.Popen(
            repro("worker", "--connect", addr)))
        out, _ = sweep.communicate(timeout=TIMEOUT_S)
        sys.stderr.write(out)
        if sweep.returncode != 0:
            raise RuntimeError(f"remote sweep exited {sweep.returncode}")
        if "1 lost, 1 cells re-queued" not in out:
            raise RuntimeError("remote sweep did not report the killed "
                               "worker's cell being re-queued")

        print("== warm rerun: cache service only, no workers",
              file=sys.stderr)
        warm_out = run_checked(
            repro("sweep", *GRID, "--cache-addr", cache_addr,
                  "--quiet", "--output", warm_json))
        if "3 served from cache, 0 streamed" not in warm_out:
            raise RuntimeError("warm rerun simulated cells that should "
                               "have been cache hits")

        reference = sweep_payload(ref_json)
        if sweep_payload(remote_json) != reference:
            raise RuntimeError("remote backend result differs from "
                               "process backend")
        if sweep_payload(warm_json) != reference:
            raise RuntimeError("warm cache-service rerun differs from "
                               "process backend")
        print("distributed smoke OK: remote == process == warm resume, "
              "killed worker re-queued")
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"distributed smoke FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        reap(children)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stress", action="store_true",
                        help="run the stress-scale digest smoke "
                             "instead of the fabric smoke")
    sys.exit(stress() if parser.parse_args().stress else main())
