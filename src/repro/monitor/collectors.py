"""Workload metric / gauge / log collection (Sec. 4.1, "Metrics
collection").

The collector subscribes to the training job's step completions (the
wandb-style continuously observable metrics), polls its RDMA-traffic and
TensorCore-utilization gauges (the event-derived system performance
metrics), and tails its log events.  Detectors consume these streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.sim import Simulator
from repro.sim.columnar import ColumnarRing
from repro.training.job import LogEvent, TrainingJob
from repro.training.metrics import StepMetrics


@dataclass
class GaugeSample:
    time: float
    rdma_traffic_frac: float
    tensorcore_util_frac: float


#: Column layouts for the struct-of-arrays histories.  Field order must
#: match the dataclass constructors — rows are rebuilt positionally.
_STEP_COLUMNS = (
    ("step", np.int64), ("time", np.float64), ("duration_s", np.float64),
    ("loss", np.float64), ("grad_norm", np.float64),
    ("mfu", np.float64), ("tokens", np.int64),
)
_GAUGE_COLUMNS = (
    ("time", np.float64), ("rdma_traffic_frac", np.float64),
    ("tensorcore_util_frac", np.float64),
)


@dataclass(frozen=True)
class CollectorConfig:
    #: Gauge poll cadence (RDMA counters / DCGM utilization).
    gauge_interval_s: float = 10.0
    #: Log tail cadence — bounds explicit-failure detection latency
    #: (the paper reports ~60 s detection via log indicators).
    log_interval_s: float = 30.0
    #: History retention (samples); the rings drop the oldest
    #: sample once full, so month-long windows stay bounded.
    max_samples: int = 100_000


class MetricsCollector:
    """Gathers step metrics, gauges, and logs from one training job."""

    def __init__(self, sim: Simulator, job: TrainingJob,
                 config: Optional[CollectorConfig] = None):
        self.sim = sim
        self.job = job
        self.config = config or CollectorConfig()
        cap = self.config.max_samples
        # Typed numpy columns instead of one dataclass per row: the
        # default cap retains ~a month of steps.
        self.steps = ColumnarRing(
            cap, [f for f, _ in _STEP_COLUMNS],
            [d for _, d in _STEP_COLUMNS], StepMetrics)
        self.gauges = ColumnarRing(
            cap, [f for f, _ in _GAUGE_COLUMNS],
            [d for _, d in _GAUGE_COLUMNS], GaugeSample)
        self._log_cursor = 0
        self._step_listeners: List[Callable[[StepMetrics], None]] = []
        self._gauge_listeners: List[Callable[[GaugeSample], None]] = []
        self._log_listeners: List[Callable[[LogEvent], None]] = []
        self._tasks: list = []
        job.step_listeners.append(self._on_step)

    # ------------------------------------------------------------------
    def on_step(self, fn: Callable[[StepMetrics], None]) -> None:
        self._step_listeners.append(fn)

    def on_gauge(self, fn: Callable[[GaugeSample], None]) -> None:
        self._gauge_listeners.append(fn)

    def on_log(self, fn: Callable[[LogEvent], None]) -> None:
        self._log_listeners.append(fn)

    def start(self) -> None:
        if self._tasks:
            return
        # Re-attach after a stop(); the fresh-construction attach stays
        # in __init__ so listener ordering (pinned by the equivalence
        # suite) is unchanged for the common build-then-start flow.
        if self._on_step not in self.job.step_listeners:
            self.job.step_listeners.append(self._on_step)
        # Coalesced ticks: the gauge poll shares a TickGroup (one heap
        # entry per cadence) with any other same-interval task, e.g.
        # the inspection engine's GPU sweep.
        self._tasks = [
            self.sim.every_tick(self.config.gauge_interval_s,
                                self._poll_gauges,
                                first_delay=self.config.gauge_interval_s),
            self.sim.every_tick(self.config.log_interval_s, self._poll_logs,
                                first_delay=self.config.log_interval_s),
        ]

    def stop(self) -> None:
        """Stop polling and detach from the job.

        Detaching the step subscription matters beyond hygiene: a
        stopped collector that stays subscribed keeps appending every
        later step to its history — and keeps the collector (and its
        buffers) alive for as long as the job object lives, a leak per
        stack teardown at fleet scale.
        """
        for task in self._tasks:
            task.stop()
        self._tasks = []
        try:
            self.job.step_listeners.remove(self._on_step)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # The dispatch loops copy the listener list (a listener may attach
    # or detach another mid-dispatch) but only when there is someone to
    # call: at fleet scale most collectors poll with no listeners at
    # all, and the per-poll allocation is pure overhead.
    def _on_step(self, metrics: StepMetrics) -> None:
        self.steps.append(metrics)
        if self._step_listeners:
            for fn in tuple(self._step_listeners):
                fn(metrics)

    def _poll_gauges(self) -> None:
        sample = GaugeSample(
            time=self.sim.now,
            rdma_traffic_frac=self.job.rdma_traffic_frac(),
            tensorcore_util_frac=self.job.tensorcore_util_frac())
        self.gauges.append(sample)
        if self._gauge_listeners:
            for fn in tuple(self._gauge_listeners):
                fn(sample)

    def _poll_logs(self) -> None:
        while self._log_cursor < len(self.job.log_events):
            event = self.job.log_events[self._log_cursor]
            self._log_cursor += 1
            if self._log_listeners:
                for fn in tuple(self._log_listeners):
                    fn(event)

    # ------------------------------------------------------------------
    def gauge_window(self, window_s: float) -> List[GaugeSample]:
        # samples are appended in time order, so the window is a suffix:
        # scan from the newest backwards, O(window) not O(history)
        cutoff = self.sim.now - window_s
        return self.gauges.tail_while(lambda g: g.time >= cutoff)
