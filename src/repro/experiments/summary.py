"""Sweep aggregation: reduce a grid of runs to paper-style tables.

:func:`summarize` turns a :class:`~repro.experiments.sweep.SweepResult`
into one row per cell carrying the headline metrics every benchmark
table needs — ETTR (cumulative + min sliding), incident counts, the
Fig. 3 unproductive-time breakdown, and mean MFU.  Analytic scenarios
(whose reports are flat dicts rather than RunReports) contribute their
scalar fields verbatim, so standby-sizing sweeps tabulate just as well
as simulation sweeps.

:class:`StreamingSummary` is the same reduction as an incremental
fold: each :class:`~repro.experiments.sweep.CellResult` is consumed
(and its report payload dropped) the moment it arrives, so a
million-cell sweep aggregates in memory bounded by *rows*, not
*reports* — or, with ``keep_rows=False``, in O(1) via the rolling
digest.  ``summarize()`` is now literally a fold over the terminal
result, which is what makes the equivalence property
(`fold(stream) == summarize(collect(stream))` for any completion
order) testable rather than aspirational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.sweep import CellResult, SweepResult

#: Sim-report metrics, in table order.
_SIM_METRICS = ("cumulative_ettr", "min_sliding_ettr", "incidents",
                "resolved", "unproductive_s", "recompute_s", "mean_mfu")


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Plain-text aligned table (same shape the benchmarks print)."""
    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    materialized = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for cells in materialized:
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    line = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [line.format(*headers),
           "  ".join("-" * w for w in widths)]
    out += [line.format(*cells) for cells in materialized]
    return "\n".join(out)


@dataclass
class SweepSummary:
    """One row of metrics per sweep cell, plus what varied."""

    rows: List[Dict[str, Any]]
    varied: List[str]

    def metric_columns(self) -> List[str]:
        fixed = {"scenario", "seed", "cached"} | set(self.varied)
        ordered = [m for m in _SIM_METRICS
                   if any(m in row for row in self.rows)]
        extra = sorted({k for row in self.rows for k in row}
                       - fixed - set(ordered))
        return ordered + extra

    def table(self, title: Optional[str] = None) -> str:
        return self.render("text", title=title)

    def render(self, fmt: str = "text",
               title: Optional[str] = None) -> str:
        """Render via the report layer (``text``/``markdown``/``csv``)."""
        from repro.experiments.report import render_summary
        return render_summary(self, fmt=fmt, title=title)

    def best(self, metric: str = "cumulative_ettr",
             maximize: bool = True) -> Dict[str, Any]:
        """The row with the best value of ``metric``."""
        candidates = [r for r in self.rows if metric in r]
        if not candidates:
            raise KeyError(f"no row carries metric {metric!r}")
        return (max if maximize else min)(
            candidates, key=lambda r: r[metric])

    def to_dict(self) -> dict:
        return {"varied": list(self.varied),
                "rows": [dict(row) for row in self.rows]}


def _sim_row(report: Dict[str, Any]) -> Dict[str, Any]:
    breakdown = report.get("unproductive_breakdown", {})
    incidents = report.get("incidents", [])
    row = {
        "cumulative_ettr": report.get("cumulative_ettr"),
        "min_sliding_ettr": report.get("min_sliding_ettr"),
        "incidents": len(incidents),
        "resolved": sum(1 for i in incidents
                        if i.get("recovered_at", -1) >= 0),
        "unproductive_s": breakdown.get("total_s"),
        "recompute_s": breakdown.get("recompute_s"),
    }
    if "mean_mfu" in report:
        row["mean_mfu"] = report["mean_mfu"]
    return row


def _analytic_row(report: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in report.items()
            if isinstance(v, (int, float, str, bool))}


class StreamingSummary:
    """Fold :class:`CellResult`s into summary state incrementally.

    The constant-memory aggregation behind ``repro sweep --live`` and
    ``SweepRunner.fold()``: :meth:`add` extracts a cell's metric row
    immediately and drops the report payload, tracking varied
    parameters and the seed-incidentality flag with O(params) state.
    :meth:`summary` then rebuilds exactly what :func:`summarize` would
    have produced from the fully-collected result — any completion
    order folds to the same table because rows are emitted in
    cell-index order.

    ``keep_rows=False`` drops even the per-cell metric rows: only the
    rolling :meth:`digest` (counts plus per-metric running
    mean/min/max) survives, bounding memory at O(metrics) for
    million-cell stress sweeps.  The digest's floating-point means are
    accumulation-order-dependent and therefore *advisory* — the
    byte-stable artifact is always :meth:`summary`.
    """

    def __init__(self, keep_rows: bool = True):
        self.keep_rows = keep_rows
        #: (index, scenario, params, metrics, seed, cached) per cell
        self._entries: List[Tuple[int, str, Dict[str, Any],
                                  Dict[str, Any], int, bool]] = []
        self._first_repr: Dict[str, str] = {}
        #: first *object* seen per param — ``is`` against it short-
        #: circuits the repr comparison (grid cells share the very
        #: value objects from the grid lists, so the common unvaried
        #: case never pays a repr per cell)
        self._first_value: Dict[str, Any] = {}
        self._varies: Set[str] = set()
        self._seed_is_incidental = True
        # rolling digest state
        self.cells = 0
        self.cached = 0
        self.simulated = 0
        self._scenario_counts: Dict[str, int] = {}
        #: metric -> [count, total, min, max]
        self._metric_stats: Dict[str, List[float]] = {}

    def add(self, result: CellResult) -> None:
        """Fold one completed cell; the report payload is not kept."""
        cell = result.cell
        report = result.report
        if "cumulative_ettr" in report:
            metrics = _sim_row(report)
        elif self.keep_rows:
            metrics = _analytic_row(report)
        else:
            # no row to keep: the rolling stats below read only the
            # numeric fields, and the analytic row holds every one of
            # them in report order, so fold the report itself
            metrics = report
        varies = self._varies
        first_value = self._first_value
        first_repr = self._first_repr
        for name, value in cell.params.items():
            if name in varies:
                continue                 # already known to vary
            if name in first_value:
                if value is first_value[name]:
                    continue             # same object, same repr
                if repr(value) != first_repr[name]:
                    varies.add(name)
            else:
                first_value[name] = value
                first_repr[name] = repr(value)
        # derived per-cell seeds always differ, so they would pollute
        # the varied-parameter columns — but a seed the user
        # explicitly grids over IS the comparison axis and must stay
        # visible (same rule summarize() always applied)
        if "seed" in cell.params and not cell.seed_derived:
            self._seed_is_incidental = False
        self.cells += 1
        if result.cached:
            self.cached += 1
        else:
            self.simulated += 1
        self._scenario_counts[cell.scenario] = (
            self._scenario_counts.get(cell.scenario, 0) + 1)
        metric_stats = self._metric_stats
        for name, value in metrics.items():
            tv = type(value)
            if tv is not float and tv is not int:
                # slow path keeps the exact historical semantics for
                # int/float subclasses while exact types skip it
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
            try:
                stats = metric_stats[name]
            except KeyError:
                metric_stats[name] = [1, value, value, value]
                continue
            stats[0] += 1
            stats[1] += value
            if value < stats[2]:
                stats[2] = value
            if value > stats[3]:
                stats[3] = value
        if self.keep_rows:
            self._entries.append((cell.index, cell.scenario,
                                  cell.params, metrics, cell.seed,
                                  result.cached))

    def varied(self) -> List[str]:
        """Parameters that took more than one value so far."""
        return sorted(
            name for name in self._varies
            if not (name == "seed" and self._seed_is_incidental))

    def summary(self, sort: bool = True) -> SweepSummary:
        """Materialize the :class:`SweepSummary` of everything folded.

        Requires ``keep_rows=True``.  ``sort=True`` (the default)
        orders rows by cell index — the deterministic artifact no
        matter what order cells completed in; ``sort=False`` preserves
        fold order (what :func:`summarize` uses, since its input is
        already index-sorted).
        """
        if not self.keep_rows:
            raise ValueError(
                "summary() needs per-cell rows; this StreamingSummary "
                "was built with keep_rows=False (digest-only)")
        varied = self.varied()
        entries = (sorted(self._entries, key=lambda e: e[0])
                   if sort else self._entries)
        rows: List[Dict[str, Any]] = []
        for _index, scenario, params, metrics, seed, cached in entries:
            row: Dict[str, Any] = {"scenario": scenario}
            for name in varied:
                row[name] = params.get(name)
            row.update(metrics)
            row["seed"] = seed
            row["cached"] = cached
            rows.append(row)
        return SweepSummary(rows=rows, varied=varied)

    def digest(self) -> Dict[str, Any]:
        """The rolling aggregate: counts and per-metric running
        mean/min/max.  Available at any ``keep_rows`` setting."""
        metrics = {
            name: {"count": int(count), "mean": total / count,
                   "min": lo, "max": hi}
            for name, (count, total, lo, hi)
            in sorted(self._metric_stats.items())}
        return {"cells": self.cells, "cached": self.cached,
                "simulated": self.simulated,
                "scenarios": dict(sorted(
                    self._scenario_counts.items())),
                "varied": self.varied(), "metrics": metrics}

    def describe(self) -> str:
        """Plain-text digest rendering (the ``--live`` terminal view)."""
        lines = [f"{self.cells} cells folded "
                 f"({self.cached} cached, {self.simulated} simulated)"]
        varied = self.varied()
        if varied:
            lines.append(f"varied: {', '.join(varied)}")
        if self._metric_stats:
            rows = [[name, stats["mean"], stats["min"], stats["max"]]
                    for name, stats in self.digest()["metrics"].items()]
            lines.append(format_table(
                ["metric", "mean", "min", "max"], rows))
        return "\n".join(lines)


def summarize(result: SweepResult) -> SweepSummary:
    """Reduce a sweep into a comparison table (one row per cell).

    Implemented as a :class:`StreamingSummary` fold over the collected
    results — the streaming and terminal aggregations cannot drift
    because they are the same code.  Fold order is preserved
    (``SweepResult`` is already in cell-index order).
    """
    folded = StreamingSummary(keep_rows=True)
    for res in result.results:
        folded.add(res)
    return folded.summary(sort=False)
