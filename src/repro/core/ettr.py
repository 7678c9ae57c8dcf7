"""ETTR accounting (Sec. 8.1.3) and the Fig. 3 unproductive breakdown.

ETTR — effective training time ratio — is productive training seconds
over wall-clock seconds.  Productive time is the wall time spent
executing steps that ultimately *persist*: steps rolled back by a
checkpoint restart count as waste (the "recompute" slice of Fig. 3),
exactly like the paper's definition.

Two views:

* **cumulative ETTR** — productive(0, t) / t, the headline 97% metric;
* **sliding-window ETTR** — productive(t - w, t) / w with a one-hour
  window, which exposes the transient dips every incident causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.training.job import StepRun


@dataclass
class EttrSeries:
    """Sampled ETTR curves ready for plotting / table output."""

    times: List[float]
    cumulative: List[float]
    sliding: List[float]
    window_s: float

    def final_cumulative(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0

    def min_sliding(self) -> float:
        return min(self.sliding) if self.sliding else 0.0


@dataclass
class UnproductiveBreakdown:
    """Fig. 3 slices, aggregated over a run (seconds)."""

    detection: float = 0.0
    localization: float = 0.0
    failover: float = 0.0
    recompute: float = 0.0

    @property
    def total(self) -> float:
        return (self.detection + self.localization + self.failover
                + self.recompute)

    def as_dict(self) -> dict:
        return {
            "detection_s": self.detection,
            "localization_s": self.localization,
            "failover_s": self.failover,
            "recompute_s": self.recompute,
            "total_s": self.total,
        }


class EttrTracker:
    """Computes ETTR curves from a job's step history."""

    def __init__(self, window_s: float = 3600.0):
        self.window_s = window_s

    # ------------------------------------------------------------------
    def productive_intervals(self, runs: Iterable[StepRun]
                             ) -> List[Tuple[float, float]]:
        """Committed step execution intervals, sorted and disjoint.  The
        steps of a run share their boundaries exactly, so merging runs
        gives what merging their steps would (a step record is a run of
        one step)."""
        intervals = sorted((r.start, r.end) for r in runs if r.committed)
        merged: List[Tuple[float, float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1] + 1e-12:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    @staticmethod
    def _productive_before(intervals: List[Tuple[float, float]],
                           t: float) -> float:
        total = 0.0
        for start, end in intervals:
            if start >= t:
                break
            total += min(end, t) - start
        return total

    def series(self, runs: Iterable[StepRun], run_end: float,
               samples: int = 200, run_start: float = 0.0) -> EttrSeries:
        """Sample cumulative + sliding ETTR over [run_start, run_end]."""
        if run_end <= run_start:
            raise ValueError("run_end must exceed run_start")
        if samples < 2:
            raise ValueError("need at least 2 samples")
        intervals = self.productive_intervals(runs)
        times, cumulative, sliding = [], [], []
        span = run_end - run_start
        for i in range(samples):
            t = run_start + span * (i + 1) / samples
            prod_t = self._productive_before(intervals, t)
            elapsed = t - run_start
            cumulative.append(prod_t / elapsed if elapsed > 0 else 0.0)
            w0 = max(run_start, t - self.window_s)
            width = t - w0
            prod_w = prod_t - self._productive_before(intervals, w0)
            sliding.append(prod_w / width if width > 0 else 0.0)
            times.append(t)
        return EttrSeries(times=times, cumulative=cumulative,
                          sliding=sliding, window_s=self.window_s)

    def cumulative_at(self, runs: Iterable[StepRun],
                      t: float, run_start: float = 0.0) -> float:
        intervals = self.productive_intervals(runs)
        elapsed = t - run_start
        if elapsed <= 0:
            return 0.0
        return self._productive_before(intervals, t) / elapsed

    # ------------------------------------------------------------------
    @staticmethod
    def breakdown(incidents, recompute_seconds: float = 0.0
                  ) -> UnproductiveBreakdown:
        """Aggregate Fig. 3 slices over resolved incidents.

        ``recompute_seconds`` comes from the job's uncommitted step time
        (re-executing rolled-back steps).
        """
        out = UnproductiveBreakdown(recompute=recompute_seconds)
        for incident in incidents:
            if incident.detection_seconds is not None:
                out.detection += incident.detection_seconds
            if incident.localization_seconds is not None:
                out.localization += incident.localization_seconds
            if incident.failover_seconds is not None:
                out.failover += incident.failover_seconds
        return out
