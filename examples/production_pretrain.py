#!/usr/bin/env python3
"""A production-style pretraining sweep: dense vs MoE (the Sec. 8.1
jobs) across fault-rate regimes.

Drives the scenario-sweep subsystem (:mod:`repro.experiments`): the
dense and MoE production scenarios each expand over a small
``mtbf_scale`` grid, the cells *stream* out of a worker pool with
deterministic per-cell seeds (a live progress callback shows each
arrival), and the aggregator reduces everything to one comparison
table (Fig. 10 / Fig. 11 shape) rendered through the shared report
layer.  Re-running the same grid against the result cache is then
served entirely from disk (the demo uses a temporary cache directory;
point ``ResultCache`` at a persistent path — e.g.
``.repro-sweep-cache`` — to carry results across invocations).

Run:  python examples/production_pretrain.py
"""

import tempfile

from repro.experiments import (
    ResultCache,
    SweepRequest,
    SweepRunner,
    SweepSpec,
    summarize,
)

#: Compressed scales for a demo that finishes in seconds; the paper's
#: jobs run 9,600 GPUs for one to three months.
NUM_MACHINES = 8
DURATION_S = 2 * 86400        # two simulated days
#: the production cadence and a 2x-flakier regime
MTBF_GRID = [0.004, 0.002]

_COMMON = {"num_machines": NUM_MACHINES, "duration_s": DURATION_S}


def describe(name: str, report: dict) -> None:
    print(f"=== {name} ===")
    mech = report["mechanism_distribution"]
    total = sum(sum(row.values()) for row in mech.values()) or 1
    print("mechanism mix:")
    for mechanism, row in sorted(mech.items()):
        count = sum(row.values())
        print(f"  {mechanism:<12} {count:>4.0f}  ({count / total:5.1%})")
    print(f"cumulative ETTR: {report['cumulative_ettr']:.4f}   "
          f"min sliding-window ETTR: {report['min_sliding_ettr']:.3f}")
    print()


def _report(ev) -> None:
    """Progress callback: one line per completed cell."""
    print(f"  [{ev.done}/{ev.total}] {ev.result.cell.scenario} "
          f"mtbf_scale={ev.result.cell.params['mtbf_scale']} "
          f"{'(cache)' if ev.result.cached else '(streamed)'} "
          f"after {ev.elapsed_s:.1f}s")


def main() -> None:
    specs = [
        SweepSpec("dense", params=dict(_COMMON, seed=11),
                  grid={"mtbf_scale": MTBF_GRID}),
        SweepSpec("moe", params=dict(_COMMON, seed=12),
                  grid={"mtbf_scale": MTBF_GRID}),
    ]
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SweepRunner(workers=2, cache=ResultCache(cache_dir))
        result = runner.run(SweepRequest(specs=specs, progress=_report))
        print()

        print(summarize(result).render(
            "text", title="dense vs MoE across fault-rate regimes"))
        print()

        # the production-cadence cells in detail (Table 4 shape)
        for res in result.results:
            if res.cell.params["mtbf_scale"] == MTBF_GRID[0]:
                describe(f"{res.cell.scenario} pretraining "
                         f"(mtbf_scale={MTBF_GRID[0]})", res.report)

        rerun = runner.run(specs)
        print(f"re-running the same grid: {rerun.cache_hits}/"
              f"{len(rerun.results)} cells served from cache, "
              f"{len(rerun.results) - rerun.cache_hits} re-simulated")

    print("note: MoE jobs integrate more custom optimizations, so they "
          "see more manual restarts\nand rollbacks — the paper's "
          "explanation for MoE's slightly lower ETTR (Fig. 10).")


if __name__ == "__main__":
    main()
