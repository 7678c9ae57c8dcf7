"""Anomaly rules over collected metrics (Sec. 4.1).

Detectors turn raw streams into actionable anomalies:

* ``NAN_METRIC``   — loss or gradient norm is NaN;
* ``LOSS_SPIKE``   — loss (or grad norm) jumped ≥ 5x the trailing median;
* ``HANG_SUSPECT`` — RDMA traffic has been ~zero for a sustained window
  while the job should be communicating (the MegaScale-style signal the
  paper adopts, with a 10-minute production default);
* ``MFU_DECLINE``  — TensorCore utilization / MFU sagged well below the
  recent baseline for a sustained window;
* ``USER_SPACE_ERROR`` / ``CRASH_NO_CULPRIT`` — log-derived crash
  classification: recognizably user-space tracebacks trigger rollback,
  anything else goes to stop-time checks (Fig. 5 steps 2/3).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.monitor.collectors import GaugeSample, MetricsCollector
from repro.sim import Simulator
from repro.training.job import (
    LogEvent,
    SegmentListener,
    StepRun,
    StepSegment,
)
from repro.training.metrics import BLOCK_STEPS, StepMetrics

#: relative slack on the no-spike bound, far above float rounding
_BOUND_SLACK = 1e-9

#: Log substrings that identify user-space (rollback-able) errors.
USER_SPACE_SIGNATURES = (
    "TypeError", "IndexError", "KeyError", "AttributeError",
    "ValueError", "AssertionError", "size mismatch",
)


class AnomalyKind(enum.Enum):
    NAN_METRIC = "nan_metric"
    LOSS_SPIKE = "loss_spike"
    HANG_SUSPECT = "hang_suspect"
    MFU_DECLINE = "mfu_decline"
    USER_SPACE_ERROR = "user_space_error"
    CRASH_NO_CULPRIT = "crash_no_culprit"
    CRASH_WITH_MACHINES = "crash_with_machines"


@dataclass
class AnomalyEvent:
    time: float
    kind: AnomalyKind
    detail: str = ""
    machine_ids: List[int] = field(default_factory=list)
    log_event: Optional[LogEvent] = None


@dataclass(frozen=True)
class DetectorConfig:
    #: Spike threshold relative to trailing median (paper: 5x).
    spike_factor: float = 5.0
    #: Steps of history used for the trailing median.
    spike_history: int = 32
    #: RDMA ≈ 0 for this long ⇒ hang suspicion (paper default 600 s;
    #: kept configurable so simulations can tighten it).
    hang_zero_rdma_s: float = 600.0
    #: Gauge level treated as "zero" traffic.
    zero_traffic_frac: float = 0.02
    #: Sustained utilization below this fraction of baseline ⇒ decline.
    mfu_decline_frac: float = 0.75
    #: Window the decline must persist for.
    mfu_decline_window_s: float = 120.0


def _median(window: List[float]) -> float:
    """``statistics.median`` of an already sorted list."""
    n = len(window)
    i = n // 2
    if n % 2:
        return window[i]
    return (window[i - 1] + window[i]) / 2


class AnomalyDetector(SegmentListener):
    """Subscribes to a collector and emits :class:`AnomalyEvent`s.

    Steps reach it as a segment listener: it acts on time only at a NaN
    step or at a step whose loss reaches ``spike_factor`` times the
    trailing median, and takes every other step in bulk.
    """

    def __init__(self, sim: Simulator, collector: MetricsCollector,
                 config: Optional[DetectorConfig] = None):
        self.sim = sim
        self.collector = collector
        self.config = config or DetectorConfig()
        self._listeners: List[Callable[[AnomalyEvent], None]] = []
        #: trailing losses, trimmed by ``spike_history`` once longer
        #: than four times it; ``_window`` is its last ``spike_history``
        #: values, sorted
        self._loss_history: List[float] = []
        self._window: List[float] = []
        self._zero_rdma_since: Optional[float] = None
        self._low_mfu_since: Optional[float] = None
        self._hang_reported = False
        self._decline_reported = False
        collector.add_step_listener(self)
        collector.on_gauge(self._on_gauge)
        collector.on_log(self._on_log)

    def add_listener(self, fn: Callable[[AnomalyEvent], None]) -> None:
        self._listeners.append(fn)

    def reset_episode(self) -> None:
        """Forget hang/decline latches after a recovery."""
        self._zero_rdma_since = None
        self._low_mfu_since = None
        self._hang_reported = False
        self._decline_reported = False

    def _emit(self, kind: AnomalyKind, detail: str = "",
              machine_ids: Optional[List[int]] = None,
              log_event: Optional[LogEvent] = None) -> None:
        event = AnomalyEvent(time=self.sim.now, kind=kind, detail=detail,
                             machine_ids=machine_ids or [],
                             log_event=log_event)
        for fn in list(self._listeners):
            fn(event)

    # ------------------------------------------------------------------
    def __call__(self, metrics: StepMetrics) -> None:
        if math.isnan(metrics.loss) or math.isnan(metrics.grad_norm):
            self._emit(AnomalyKind.NAN_METRIC,
                       detail=f"NaN at step {metrics.step}")
            return
        if len(self._loss_history) >= 8:
            baseline = _median(self._window)
            if metrics.loss >= self.config.spike_factor * baseline:
                self._emit(AnomalyKind.LOSS_SPIKE,
                           detail=(f"loss {metrics.loss:.3f} vs median "
                                   f"{baseline:.3f} at step {metrics.step}"))
        self._push(metrics.loss)

    def _push(self, loss: float) -> None:
        history = self._loss_history
        window = self._window
        keep = self.config.spike_history
        history.append(loss)
        if len(history) > keep:
            del window[bisect_left(window, history[-keep - 1])]
        insort(window, loss)
        if len(history) > 4 * keep:
            del history[:keep]

    def _trimmed_length(self, appended: int) -> int:
        """History length after ``appended`` more losses."""
        keep = self.config.spike_history
        total = len(self._loss_history) + appended
        if total <= 4 * keep:
            return total
        return 3 * keep + 1 + (total - 4 * keep - 1) % keep

    def first_acting_step(self, segment: StepSegment) -> Optional[int]:
        if segment.nan:
            return segment.first
        factor = self.config.spike_factor
        scale = segment.spike_factor
        curve = segment.loss_curve
        if factor > 0 and scale > 0 and curve.alpha >= 0 and curve.s0 > 0:
            low, high = curve.noise_bounds(segment.first // BLOCK_STEPS)
            # the base loss never rises with the step, so no loss of the
            # segment exceeds the first step's base plus the block's top
            # noise, and the trailing median never drops below the
            # smallest loss it may hold
            peak = (curve.base(segment.first) + high) * scale
            floor = (curve.base(segment.last) + low) * scale
            if self._window:
                floor = min(floor, self._window[0])
            if floor > 0 and (peak * (1 + _BOUND_SLACK)
                              < factor * floor * (1 - _BOUND_SLACK)):
                return None
        # the bound fails (a rollback to step 0, a spike factor): replay
        # the segment's losses against a copy of the trailing window
        history = list(self._loss_history[-self.config.spike_history:])
        window = list(self._window)
        length = len(self._loss_history)
        keep = self.config.spike_history
        for step in range(segment.first, segment.last + 1):
            loss = segment.loss(step)
            if length >= 8 and loss >= factor * _median(window):
                return step
            history.append(loss)
            if len(history) > keep:
                del window[bisect_left(window, history.pop(0))]
            insort(window, loss)
            length += 1
            if length > 4 * keep:
                length -= keep
        return None

    def on_steps(self, segment: StepSegment, run: StepRun) -> None:
        """No step here is NaN or a spike: only the losses the trimmed
        history ends up holding are computed, as one block slice."""
        final = self._trimmed_length(run.count)
        fresh = min(final, run.count)
        kept = self._loss_history[len(self._loss_history)
                                  - (final - fresh):] if final > fresh else []
        history = kept + segment.loss_curve.losses(
            run.last + 1 - fresh, run.last, nan=segment.nan,
            spike_factor=segment.spike_factor)
        self._loss_history = history
        self._window = sorted(history[-self.config.spike_history:])

    def _on_gauge(self, sample: GaugeSample) -> bool:
        """Advance the hang and fail-slow latches; True ("settled") when
        the sample is above both thresholds, which leaves all four
        latches clear, so a repeat of it would change nothing."""
        cfg = self.config
        # hang: traffic pinned at ~zero
        if sample.rdma_traffic_frac <= cfg.zero_traffic_frac:
            if self._zero_rdma_since is None:
                self._zero_rdma_since = sample.time
            elif (not self._hang_reported
                  and sample.time - self._zero_rdma_since
                  >= cfg.hang_zero_rdma_s):
                self._hang_reported = True
                self._emit(AnomalyKind.HANG_SUSPECT,
                           detail=(f"zero RDMA traffic for "
                                   f"{sample.time - self._zero_rdma_since:.0f}s"))
        else:
            self._zero_rdma_since = None
            self._hang_reported = False
        # fail-slow: utilization sagging but not zero
        low = (cfg.zero_traffic_frac < sample.tensorcore_util_frac
               < cfg.mfu_decline_frac)
        if low:
            if self._low_mfu_since is None:
                self._low_mfu_since = sample.time
            elif (not self._decline_reported
                  and sample.time - self._low_mfu_since
                  >= cfg.mfu_decline_window_s):
                self._decline_reported = True
                self._emit(AnomalyKind.MFU_DECLINE,
                           detail=(f"tensorcore util "
                                   f"{sample.tensorcore_util_frac:.2f}"))
        else:
            self._low_mfu_since = None
            self._decline_reported = False
        return (sample.rdma_traffic_frac > cfg.zero_traffic_frac
                and sample.tensorcore_util_frac >= cfg.mfu_decline_frac)

    def _on_log(self, event: LogEvent) -> None:
        if event.level != "error":
            return
        if any(sig in event.message for sig in USER_SPACE_SIGNATURES):
            self._emit(AnomalyKind.USER_SPACE_ERROR, detail=event.message,
                       log_event=event)
        elif event.machine_ids:
            self._emit(AnomalyKind.CRASH_WITH_MACHINES,
                       detail=event.message,
                       machine_ids=list(event.machine_ids),
                       log_event=event)
        else:
            self._emit(AnomalyKind.CRASH_NO_CULPRIT, detail=event.message,
                       log_event=event)
