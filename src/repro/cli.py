"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Run any registered scenario once and print (or save) its report:
    ``repro run dense --set mtbf_scale=0.01``.  Every entry point
    resolves through the scenario registry.

``list-scenarios``
    Print every scenario in the registry
    (:mod:`repro.experiments.registry`) with its typed parameters.
    Scenario names are lowercase and dash-separated; variants share
    their base scenario's prefix (``dense``, ``dense-small``,
    ``dense-large``).

``sweep``
    Expand a parameter grid over a registered scenario and run every
    cell through :class:`~repro.experiments.sweep.SweepRunner` —
    across an execution backend (``--backend inline|process|remote``)
    and backed by an on-disk result cache (``--cache-dir``) or a
    shared cache service (``--cache-addr``) that skips
    already-simulated cells.  Results *stream*: each cell lands in the
    cache (and on the live progress line) the moment its worker
    finishes, so a killed sweep resumes from the partial cache.  Cell
    seeds derive deterministically from ``(--base-seed, cell index)``,
    so the same grid yields byte-identical results at any worker
    count on any backend.  Grid values accept integer spans
    (``--grid shard=0..999999``), ``--batch-size`` groups cells per
    dispatch for cheap-cell grids, and ``--live`` folds results into
    a constant-memory rolling digest instead of collecting every
    report.  Examples::

        python -m repro sweep --scenario dense \\
            --grid mtbf_scale=0.5,1.0,2.0 --workers 4

        # distributed: workers pull cells over TCP
        python -m repro sweep --scenario fleet-week \\
            --grid arrival_mean_s=1800,3600 \\
            --backend remote --listen 0.0.0.0:7077

        # stress scale: a million analytic cells, digest-only
        python -m repro sweep --scenario sweep-stress \\
            --grid shard=0..999999 --live --no-cache --quiet

``worker``
    Serve a ``--backend remote`` sweep: connect to its listening
    address, pull cells, run them, push results back (with heartbeats
    while simulating).  Start any number, on any host that can import
    ``repro``; a killed worker's in-flight cell is re-queued to the
    survivors::

        python -m repro worker --connect sweephost:7077

``cache-serve``
    Serve one result-cache directory over TCP so N sweep hosts share
    a single content-addressed store (point sweeps at it with
    ``--cache-addr``).  The cache's hit/miss/write counters become
    server metrics aggregated across every client::

        python -m repro cache-serve --listen 0.0.0.0:7070 \\
            --cache-dir /shared/sweep-cache

``report``
    Render a saved sweep (the JSON written by ``sweep --output``) as a
    paper-style table — plain text, markdown, or CSV::

        python -m repro report sweep.json --format markdown

``cache``
    Inspect or maintain a sweep result cache: entry counts per
    scenario, payload bytes, lifetime hit/miss/write counters, plus
    ``--prune <scenario>`` and ``--clear``.

``perf``
    Run one registered scenario under cProfile and print the hotspot
    table (top functions by cumulative time); ``--output`` saves the
    JSON payload.  Performance is measured by ``perfbench/run.py``::

        python -m repro perf --profile fleet-quarter --top 40

``standby-size``
    Print the P99 standby pool size for a fleet (Table 5's math).

``replay``
    Run a dual-phase replay localization demo (Algorithm 1).

``was``
    Print the Fig. 12 weighted-average scheduling time comparison.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Dict, List, Optional, Sequence


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import ScenarioError, get_scenario

    overrides = _parse_assignments(args.set, split_values=False)
    try:
        scenario = get_scenario(args.scenario).build(**overrides)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = scenario.run()
    payload = (report.to_dict() if hasattr(report, "to_dict")
               else dict(report))
    if hasattr(report, "summary"):
        print(report.summary())
    else:      # analytic scenarios return plain JSON-safe dicts
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nfull report written to {args.output}")
    return 0


#: ``--grid key=A..B`` integer spans (inclusive), e.g. ``shard=0..999``.
_GRID_RANGE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_assignments(pairs: Sequence[str], split_values: bool
                       ) -> Dict[str, object]:
    """Parse ``key=value`` (or ``key=v1,v2,...``) CLI fragments.

    Grid values (``split_values=True``) additionally accept integer
    spans ``A..B`` (inclusive) so stress-scale grids don't require a
    million-entry comma list: ``--grid shard=0..999999``.  Spans
    expand to ``range`` objects — O(1) argv and O(1) resident until
    the sweep's lazy expansion consumes them.
    """
    out: Dict[str, object] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(
                f"error: expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if split_values:
            span = _GRID_RANGE.match(raw.strip())
            if span is not None:
                lo, hi = int(span.group(1)), int(span.group(2))
                if hi < lo:
                    raise SystemExit(
                        f"error: empty span in {pair!r} ({hi} < {lo})")
                out[key] = range(lo, hi + 1)
                continue
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise SystemExit(f"error: no values in {pair!r}")
        if split_values:
            out[key] = values
        else:
            if len(values) > 1:
                raise SystemExit(
                    f"error: --set takes a single value, got {pair!r} "
                    f"(use --grid to sweep over several)")
            out[key] = values[0]
    return out


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    from repro.experiments import iter_scenarios, scenario_catalog_markdown

    if args.markdown:
        # the README "Scenario catalog" section is this exact output;
        # tests/test_scenario_catalog.py pins the two together
        print(scenario_catalog_markdown())
        return 0
    for spec in iter_scenarios():
        tags = f"  [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"{spec.name}{tags}")
        print(f"    {spec.description}")
        for p in spec.params.values():
            # passed as `--set name=value` / `--grid name=v1,v2,...`
            print(f"    {p.name:<24} {p.type:<6} "
                  f"default={p.default!r}  {p.help}")
    return 0


def _progress_printer():
    """A live progress-line callback for streaming sweeps.

    On a TTY the line rewrites in place (``\\r``); piped/captured
    output gets one line per completed cell, so CI logs still show the
    arrival order and per-cell cache/simulate provenance.
    """
    is_tty = sys.stderr.isatty()

    def on_progress(event) -> None:
        cell = event.result.cell
        source = "cache" if event.result.cached else "sim"
        line = (f"[{event.done}/{event.total}] "
                f"{cell.scenario} #{cell.index} ({source}) "
                f"{event.elapsed_s:.1f}s")
        if is_tty:
            end = "\n" if event.done == event.total else ""
            print(f"\r\x1b[2K{line}", end=end, file=sys.stderr,
                  flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    return on_progress


def _live_progress_printer(interval_s: float = 0.5):
    """A throttled progress callback for ``sweep --live``.

    Stress-scale sweeps complete tens of thousands of cells per
    second; a per-cell progress line would dominate the run.  This
    printer emits at most one line per ``interval_s`` (plus the final
    cell), showing cumulative throughput instead of per-cell
    provenance.
    """
    is_tty = sys.stderr.isatty()
    last = [float("-inf")]

    def on_progress(event) -> None:
        final = event.done == event.total
        if not final and event.elapsed_s - last[0] < interval_s:
            return
        last[0] = event.elapsed_s
        rate = (event.done / event.elapsed_s
                if event.elapsed_s > 0 else 0.0)
        line = (f"[{event.done}/{event.total}] "
                f"{rate:,.0f} cells/s  {event.elapsed_s:.1f}s")
        if is_tty:
            end = "\n" if final else ""
            print(f"\r\x1b[2K{line}", end=end, file=sys.stderr,
                  flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    return on_progress


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import (
        CacheClient,
        CacheServiceError,
        ExecutorError,
        ResultCache,
        ScenarioError,
        SweepError,
        SweepRequest,
        SweepRunner,
        SweepSpec,
        make_executor,
        parse_address,
        summarize,
    )

    grid = _parse_assignments(args.grid, split_values=True)
    fixed = _parse_assignments(args.set, split_values=False)
    spec = SweepSpec(scenario=args.scenario, params=fixed, grid=grid,
                     base_seed=args.base_seed)
    if args.no_cache:
        cache = None
    elif args.cache_addr:
        cache = CacheClient(parse_address(args.cache_addr))
    else:
        cache = ResultCache(args.cache_dir)
    backend = args.backend or ("inline" if args.workers == 1
                               else "process")
    progress = None if args.quiet else (
        _live_progress_printer() if args.live else _progress_printer())
    executor = None
    try:
        if backend == "remote":
            executor = make_executor(
                "remote", listen=parse_address(args.listen),
                heartbeat_timeout_s=args.heartbeat_timeout,
                idle_timeout_s=args.idle_timeout,
                batch_size=args.batch_size)
            print(f"remote backend listening on "
                  f"{executor.address[0]}:{executor.address[1]} — "
                  f"start workers with `python -m repro worker "
                  f"--connect {executor.address[0]}:"
                  f"{executor.address[1]}`",
                  file=sys.stderr, flush=True)
        runner = SweepRunner(workers=args.workers, cache=cache,
                             executor=executor,
                             cache_batch=args.cache_batch,
                             batch_size=args.batch_size)
        request = SweepRequest(specs=spec, progress=progress)
        if args.live:
            folded = runner.fold(request, keep_rows=False)
            result = None
        else:
            result = runner.run(request)
    except (ScenarioError, SweepError, ExecutorError,
            CacheServiceError, ValueError, OSError) as exc:
        if progress is not None and sys.stderr.isatty():
            # terminate the \r-rewritten progress line so the error
            # does not render appended to stale progress text
            print(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if executor is not None:
            executor.close()
    grid_desc = ", ".join(
        f"{k}={v[0]}..{v[-1]}" if isinstance(v, range)
        else f"{k}={','.join(map(str, v))}"
        for k, v in sorted(grid.items())) or "(single cell)"
    if args.live:
        summary = None
        cells = folded.cells
        cache_hits, simulated = folded.cached, folded.simulated
        print(f"sweep: {args.scenario} over {grid_desc} (live digest)")
        print(folded.describe())
    else:
        summary = summarize(result)
        cells = len(result.results)
        cache_hits, simulated = result.cache_hits, result.simulated
        print(summary.render(
            args.format,
            title=f"sweep: {args.scenario} over {grid_desc}"))
    if backend == "remote":
        stats = executor.stats
        print(f"\n{cells} cells, {cache_hits} served from cache, "
              f"{simulated} streamed from remote workers "
              f"({stats['workers_connected']} connected, "
              f"{stats['workers_lost']} lost, "
              f"{stats['requeued']} cells re-queued)")
    else:
        print(f"\n{cells} cells, {cache_hits} served from cache, "
              f"{simulated} streamed from workers "
              f"({backend} backend, {args.workers} "
              f"worker{'s' if args.workers != 1 else ''})")
    if cache is not None:
        stats = cache.stats()
        where = (f"{args.cache_addr} (service)" if args.cache_addr
                 else args.cache_dir)
        print(f"cache: {where} ({len(cache)} entries; "
              f"{stats['hits']} hits, {stats['misses']} misses, "
              f"{stats['writes']} writes this sweep)")
    if args.output:
        payload = ({"digest": folded.digest()} if args.live
                   else {"summary": summary.to_dict(),
                         "sweep": result.to_dict()})
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"full sweep written to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.summary import SweepSummary

    try:
        with open(args.sweep_json, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.sweep_json}: {exc}",
              file=sys.stderr)
        return 2
    summary_dict = (payload.get("summary", payload)
                    if isinstance(payload, dict) else {})
    if not isinstance(summary_dict, dict) \
            or "rows" not in summary_dict or "varied" not in summary_dict:
        print(f"error: {args.sweep_json} does not look like "
              f"`repro sweep --output` JSON (no summary rows)",
              file=sys.stderr)
        return 2
    summary = SweepSummary(rows=summary_dict["rows"],
                           varied=summary_dict["varied"])
    rendered = summary.render(args.format, title=args.title)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"report written to {args.output}")
    else:
        print(rendered)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {args.cache_dir}: {removed} entries removed")
        return 0
    if args.prune:
        removed = cache.prune(args.prune)
        print(f"pruned scenario {args.prune!r}: "
              f"{removed} entries removed")
        return 0
    by_scenario = cache.entries_by_scenario()
    total = sum(by_scenario.values())
    stats = cache.lifetime_stats()
    print(f"cache: {args.cache_dir}")
    print(f"entries:  {total} ({cache.total_bytes()} bytes)")
    for scenario in sorted(by_scenario):
        label = scenario or "(unscoped)"
        print(f"  {label:<24} {by_scenario[scenario]:>6}")
    print(f"lifetime: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['writes']} writes, "
          f"{stats.get('corrupt', 0)} corrupt quarantined")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.experiments import parse_address, run_worker

    try:
        address = parse_address(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log = None
    if not args.quiet:
        def log(message: str) -> None:
            print(f"worker: {message}", file=sys.stderr, flush=True)
    try:
        completed = run_worker(
            address, heartbeat_s=args.heartbeat_s,
            connect_timeout_s=args.connect_timeout,
            max_cells=args.max_cells, fail_after=args.fail_after,
            log=log)
    except OSError as exc:
        print(f"error: cannot reach sweep at "
              f"{address[0]}:{address[1]}: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"worker done: {completed} cell(s) completed",
              file=sys.stderr)
    return 0


def _cmd_cache_serve(args: argparse.Namespace) -> int:
    from repro.experiments import CacheServer, parse_address

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = CacheServer(args.cache_dir, host=host, port=port)
    # machine-parseable readiness line: scripts (and the CI smoke job)
    # wait for it, then read the bound port from it
    print(f"cache service: {args.cache_dir} listening on "
          f"{server.address[0]}:{server.address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        stats = server.cache.stats()
        print(f"cache service stopped: {stats['hits']} hits, "
              f"{stats['misses']} misses, {stats['writes']} writes "
              f"served", flush=True)
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.experiments import ScenarioError
    from repro.perf.profile import format_profile, profile_scenario

    try:
        payload = profile_scenario(args.profile, top=args.top)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_profile(payload))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nprofile payload written to {args.output}")
    return 0


def _cmd_standby_size(args: argparse.Namespace) -> int:
    from repro.controller import StandbyPolicy

    policy = StandbyPolicy(daily_failure_prob=args.daily_failure_prob,
                           quantile=args.quantile)
    row = policy.table5_row(args.machines, args.gpus_per_machine)
    print(f"fleet:              {args.machines} machines x "
          f"{args.gpus_per_machine} GPUs")
    print(f"failure prob/day:   {args.daily_failure_prob:.4%} per machine")
    print(f"quantile:           P{args.quantile * 100:g}")
    print(f"standby pool:       {row['p99_standby_machines']} machines "
          f"({row['p99_standby_gpus']} GPUs)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.cluster import Cluster, ClusterSpec, Fault, FaultInjector
    from repro.cluster.faults import (
        FaultSymptom,
        JobEffect,
        RootCause,
        RootCauseDetail,
    )
    from repro.diagnosis import DualPhaseReplay
    from repro.sim import RngStreams, Simulator

    sim = Simulator()
    cluster = Cluster(ClusterSpec(num_machines=args.machines,
                                  machines_per_switch=args.machines))
    injector = FaultInjector(sim, cluster)
    injector.inject(Fault(
        symptom=FaultSymptom.NAN_VALUE,
        root_cause=RootCause.INFRASTRUCTURE,
        detail=RootCauseDetail.GPU_SDC, machine_ids=[args.faulty],
        effect=JobEffect.NAN, reproduce_prob=args.reproduce_prob))
    replay = DualPhaseReplay(cluster, RngStreams(args.seed))
    result = replay.locate_faulty_machines(
        list(range(args.machines)), m=args.group_size)
    print(f"machines: {args.machines}, m={args.group_size}, n={result.n}")
    print(f"failed horizontal groups: {result.failed_horizontal}")
    print(f"failed vertical groups:   {result.failed_vertical}")
    print(f"isolated suspects:        {result.suspects}")
    print(f"wall time:                {result.duration_s:.0f} s")
    return 0 if result.suspects == [args.faulty] else 1


def _cmd_was(args: argparse.Namespace) -> int:
    from repro.baselines import (
        ByteRobustRestart,
        OracleRestart,
        RequeueRestart,
        RescheduleRestart,
        weighted_average_scheduling_time,
    )
    from repro.baselines.restart import eviction_scenario_weights
    from repro.controller import StandbyPolicy

    policy = StandbyPolicy()
    strategies = [RequeueRestart(), RescheduleRestart(), OracleRestart(),
                  ByteRobustRestart(standby_policy=policy)]
    print(f"{'scale':>8}  " + "  ".join(f"{s.name:>11}"
                                        for s in strategies))
    for n in args.scales:
        p99 = policy.standby_count(n)
        weights = eviction_scenario_weights(
            n, policy.daily_failure_prob, p99_count=p99,
            catastrophic_size=args.catastrophic)
        cells = [weighted_average_scheduling_time(s, n, weights)
                 for s in strategies]
        print(f"{n:>8}  " + "  ".join(f"{c:>10.0f}s" for c in cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ByteRobust reproduction — simulated robust LLM "
                    "training infrastructure")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("run",
                       help="run one registered scenario and print "
                            "its report")
    p.add_argument("scenario", type=str,
                   help="registered scenario name (see list-scenarios)")
    p.add_argument("--set", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override a scenario parameter (repeatable)")
    p.add_argument("--output", type=str, default=None,
                   help="write the full JSON report here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("list-scenarios",
                       help="list registered scenarios and their "
                            "parameters")
    p.add_argument("--markdown", action="store_true",
                   help="emit the scenario catalog as a markdown table "
                        "(the README section is generated from this)")
    p.set_defaults(func=_cmd_list_scenarios)

    p = sub.add_parser("sweep",
                       help="run a parameter grid over a registered "
                            "scenario, in parallel, with caching")
    p.add_argument("--scenario", type=str, required=True,
                   help="registered scenario name (see list-scenarios)")
    p.add_argument("--grid", action="append", default=[],
                   metavar="KEY=V1,V2,...",
                   help="sweep this parameter over the listed values "
                        "(repeatable; cells = cartesian product)")
    p.add_argument("--set", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="fix this parameter for every cell (repeatable)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for cell fan-out")
    p.add_argument("--backend", choices=("inline", "process", "remote"),
                   default=None,
                   help="execution backend (default: inline for "
                        "--workers 1, process otherwise; remote serves "
                        "cells to `repro worker` processes over TCP)")
    p.add_argument("--listen", type=str, default="127.0.0.1:0",
                   metavar="HOST:PORT",
                   help="remote backend: address workers connect to "
                        "(default: loopback, ephemeral port)")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   help="remote backend: seconds of worker silence "
                        "before its in-flight cell is re-queued")
    p.add_argument("--idle-timeout", type=float, default=60.0,
                   help="remote backend: fail the sweep after this "
                        "long with outstanding cells and no workers")
    p.add_argument("--batch-size", type=int, default=1,
                   help="cells per dispatch batch for the process and "
                        "remote backends; each batch is cached as it "
                        "completes (default 1: a killed sweep resumes "
                        "per cell, for slow cells; raise to ~256 for "
                        "stress-scale grids of cheap cells)")
    p.add_argument("--cache-batch", type=int, default=512,
                   help="cells per batched cache probe/write "
                        "(default 512)")
    p.add_argument("--base-seed", type=int, default=0,
                   help="seeds derive from (base_seed, cell_index)")
    p.add_argument("--cache-dir", type=str,
                   default=".repro-sweep-cache",
                   help="on-disk result cache directory")
    p.add_argument("--cache-addr", type=str, default=None,
                   metavar="HOST:PORT",
                   help="use a shared `repro cache-serve` service "
                        "instead of a local --cache-dir")
    p.add_argument("--no-cache", action="store_true",
                   help="always re-simulate, never read/write the cache")
    p.add_argument("--format", choices=("text", "markdown", "csv"),
                   default="text",
                   help="summary table format (default: text)")
    p.add_argument("--live", action="store_true",
                   help="stream cells into a constant-memory rolling "
                        "digest instead of collecting every report: "
                        "prints throttled throughput progress and a "
                        "per-metric mean/min/max digest (for "
                        "stress-scale grids; --output writes the "
                        "digest JSON)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the live per-cell progress line")
    p.add_argument("--output", type=str, default=None,
                   help="write the summary + all cell reports as JSON")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report",
                       help="render a saved sweep (sweep --output "
                            "JSON) as a text/markdown/CSV table")
    p.add_argument("sweep_json", type=str,
                   help="JSON file written by `repro sweep --output`")
    p.add_argument("--format", choices=("text", "markdown", "csv"),
                   default="text",
                   help="output format (default: text)")
    p.add_argument("--title", type=str, default=None,
                   help="table title")
    p.add_argument("--output", type=str, default=None,
                   help="write the rendered table here instead of "
                        "stdout")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("cache",
                       help="inspect or maintain a sweep result cache")
    p.add_argument("--cache-dir", type=str,
                   default=".repro-sweep-cache",
                   help="cache directory (default: .repro-sweep-cache)")
    p.add_argument("--clear", action="store_true",
                   help="remove every cache entry (only cache-shaped "
                        "files; also reclaims entries orphaned by "
                        "package/schema upgrades)")
    p.add_argument("--prune", type=str, default=None,
                   metavar="SCENARIO",
                   help="remove one scenario's cache entries")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("worker",
                       help="serve a `sweep --backend remote` run: "
                            "pull cells over TCP, push results back")
    p.add_argument("--connect", type=str, required=True,
                   metavar="HOST:PORT",
                   help="the sweep's --listen address")
    p.add_argument("--heartbeat-s", type=float, default=2.0,
                   help="seconds between heartbeats while simulating")
    p.add_argument("--connect-timeout", type=float, default=30.0,
                   help="keep retrying the connection this long "
                        "(workers may start before the sweep)")
    p.add_argument("--max-cells", type=int, default=None,
                   help="exit after completing this many cells")
    p.add_argument("--fail-after", type=int, default=None,
                   help=argparse.SUPPRESS)   # failure injection (tests/CI)
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress on stderr")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("cache-serve",
                       help="serve a result-cache directory over TCP "
                            "(point sweeps at it with --cache-addr)")
    p.add_argument("--listen", type=str, default="127.0.0.1:0",
                   metavar="HOST:PORT",
                   help="address to listen on (default: loopback, "
                        "ephemeral port, printed at startup)")
    p.add_argument("--cache-dir", type=str,
                   default=".repro-sweep-cache",
                   help="cache directory to serve")
    p.set_defaults(func=_cmd_cache_serve)

    p = sub.add_parser("perf",
                       help="profile one scenario run under cProfile "
                            "(hotspot table)")
    p.add_argument("--profile", type=str, required=True,
                   metavar="SCENARIO",
                   help="run SCENARIO once under cProfile and print the "
                        "hotspot table")
    p.add_argument("--top", type=int, default=25,
                   help="rows in the hotspot table (default: 25)")
    p.add_argument("--output", type=str, default=None,
                   help="write the JSON profile payload here")
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser("standby-size", help="P99 standby pool sizing")
    p.add_argument("--machines", type=int, default=1024)
    p.add_argument("--gpus-per-machine", type=int, default=16)
    p.add_argument("--daily-failure-prob", type=float, default=0.0012)
    p.add_argument("--quantile", type=float, default=0.99)
    p.set_defaults(func=_cmd_standby_size)

    p = sub.add_parser("replay", help="dual-phase replay localization")
    p.add_argument("--machines", type=int, default=24)
    p.add_argument("--group-size", type=int, default=4)
    p.add_argument("--faulty", type=int, default=13)
    p.add_argument("--reproduce-prob", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("was", help="Fig. 12 WAS time comparison")
    p.add_argument("--scales", type=int, nargs="+",
                   default=[128, 256, 512, 1024])
    p.add_argument("--catastrophic", type=int, default=32)
    p.set_defaults(func=_cmd_was)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away mid-print; exit
        # quietly instead of dumping a traceback.  Detach stdout so
        # interpreter shutdown doesn't re-raise on flush.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
