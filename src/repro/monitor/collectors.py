"""Workload metric / gauge / log collection (Sec. 4.1, "Metrics
collection").

The collector subscribes to the training job's step completions (the
wandb-style continuously observable metrics), polls its RDMA-traffic and
TensorCore-utilization gauges (the event-derived system performance
metrics), and tails its log events.  Detectors consume these streams.

Both polls sleep on their ticks while polling again could not matter,
and the job's change hook wakes them: the log poll once it has read
every log event, the gauge poll while the job is ``RUNNING`` and every
gauge listener returned a truthy "settled" for the last sample (the
listener's state would not move on a repeat of it, and a running job's
gauges only move with its MFU model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.sim import Simulator, TickMember
from repro.training.job import (
    JobState,
    LogEvent,
    SegmentListener,
    StepListener,
    StepRun,
    StepSegment,
    TrainingJob,
    deliver_steps,
    first_acting_step,
)
from repro.training.metrics import StepMetrics


@dataclass
class GaugeSample:
    time: float
    rdma_traffic_frac: float
    tensorcore_util_frac: float


@dataclass(frozen=True)
class CollectorConfig:
    #: Gauge poll cadence (RDMA counters / DCGM utilization).
    gauge_interval_s: float = 10.0
    #: Log tail cadence — bounds explicit-failure detection latency
    #: (the paper reports ~60 s detection via log indicators).
    log_interval_s: float = 30.0


class MetricsCollector(SegmentListener):
    """Gathers step metrics, gauges, and logs from one training job.

    On the job it is one segment listener fanning steps out to its own
    subscribers: it acts where the earliest of them acts, so a plain
    :meth:`on_step` callable makes every step an acting step.
    """

    def __init__(self, sim: Simulator, job: TrainingJob,
                 config: Optional[CollectorConfig] = None):
        self.sim = sim
        self.job = job
        self.config = config or CollectorConfig()
        self._log_cursor = 0
        self._step_listeners: List[StepListener] = []
        self._gauge_listeners: List[Callable[[GaugeSample], Any]] = []
        self._log_listeners: List[Callable[[LogEvent], None]] = []
        #: [gauge poll, log poll] tick members, while started
        self._tasks: List[TickMember] = []
        job.add_step_listener(self)
        job.change_listeners.append(self._wake)

    # ------------------------------------------------------------------
    def on_step(self, fn: Callable[[StepMetrics], None]) -> None:
        """Subscribe ``fn`` to every step, at its completion time."""
        self.add_step_listener(fn)

    def add_step_listener(self, listener: StepListener) -> None:
        """Subscribe a plain callable or a :class:`SegmentListener`."""
        self.job.materialize()
        self._step_listeners.append(listener)
        self.job.replan()

    def on_gauge(self, fn: Callable[[GaugeSample], Any]) -> None:
        """Subscribe to gauge samples.  A listener returns a truthy
        "settled" when another sample equal to this one would change
        nothing it holds; while all do, a running job's poll sleeps."""
        self._gauge_listeners.append(fn)
        self._wake()

    def on_log(self, fn: Callable[[LogEvent], None]) -> None:
        self._log_listeners.append(fn)

    def start(self) -> None:
        if self._tasks:
            return
        # Re-attach after a stop(); the fresh-construction attach stays
        # in __init__ so listener ordering (pinned by the equivalence
        # suite) is unchanged for the common build-then-start flow.
        job = self.job
        if self not in job.step_listeners:
            job.add_step_listener(self)
        if self._wake not in job.change_listeners:
            job.change_listeners.append(self._wake)
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
        stopped collector that stays subscribed keeps dispatching every
        later step to its detector — which may raise anomalies for a
        retired job — and keeps the collector and its listeners alive
        for as long as the job object lives, a leak per stack teardown
        at fleet scale.
        """
        for task in self._tasks:
            task.stop()
        self._tasks = []
        job = self.job
        if self in job.step_listeners:
            job.remove_step_listener(self)
        if self._wake in job.change_listeners:
            job.change_listeners.remove(self._wake)

    def _wake(self) -> None:
        for task in self._tasks:
            task.wake()

    # ------------------------------------------------------------------
    # The dispatch loops copy the listener list (a listener may attach
    # or detach another mid-dispatch) but only when there is someone to
    # call: at fleet scale most collectors poll with no listeners at
    # all, and the per-poll allocation is pure overhead.
    def first_acting_step(self, segment: StepSegment) -> Optional[int]:
        return first_acting_step(self._step_listeners, segment)

    def on_steps(self, segment: StepSegment, run: StepRun) -> None:
        if self._step_listeners:
            for listener in tuple(self._step_listeners):
                deliver_steps(listener, segment, run)

    def __call__(self, metrics: StepMetrics) -> None:
        if self._step_listeners:
            for fn in tuple(self._step_listeners):
                fn(metrics)

    def _poll_gauges(self) -> None:
        job = self.job
        sample = GaugeSample(
            time=self.sim.now,
            rdma_traffic_frac=job.rdma_traffic_frac(),
            tensorcore_util_frac=job.tensorcore_util_frac())
        settled = True
        if self._gauge_listeners:
            for fn in tuple(self._gauge_listeners):
                if not fn(sample):
                    settled = False
        # read the state after the dispatch: a listener may have moved it
        if settled and job.state is JobState.RUNNING and self._tasks:
            self._tasks[0].sleep()

    def _poll_logs(self) -> None:
        events = self.job.log_events
        while self._log_cursor < len(events):
            event = events[self._log_cursor]
            self._log_cursor += 1
            if self._log_listeners:
                for fn in tuple(self._log_listeners):
                    fn(event)
        if self._tasks:
            self._tasks[1].sleep()
