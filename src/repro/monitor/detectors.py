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
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, List, Optional

from repro.monitor.collectors import GaugeSample, MetricsCollector
from repro.sim import Simulator
from repro.training.job import LogEvent
from repro.training.metrics import StepMetrics

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


class AnomalyDetector:
    """Subscribes to a collector and emits :class:`AnomalyEvent`s."""

    def __init__(self, sim: Simulator, collector: MetricsCollector,
                 config: Optional[DetectorConfig] = None):
        self.sim = sim
        self.collector = collector
        self.config = config or DetectorConfig()
        self._listeners: List[Callable[[AnomalyEvent], None]] = []
        self._loss_history: List[float] = []
        self._zero_rdma_since: Optional[float] = None
        self._low_mfu_since: Optional[float] = None
        self._hang_reported = False
        self._decline_reported = False
        collector.on_step(self._on_step)
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
    def _on_step(self, metrics: StepMetrics) -> None:
        if math.isnan(metrics.loss) or math.isnan(metrics.grad_norm):
            self._emit(AnomalyKind.NAN_METRIC,
                       detail=f"NaN at step {metrics.step}")
            return
        if len(self._loss_history) >= 8:
            baseline = median(self._loss_history[-self.config.spike_history:])
            if metrics.loss >= self.config.spike_factor * baseline:
                self._emit(AnomalyKind.LOSS_SPIKE,
                           detail=(f"loss {metrics.loss:.3f} vs median "
                                   f"{baseline:.3f} at step {metrics.step}"))
        self._loss_history.append(metrics.loss)
        if len(self._loss_history) > 4 * self.config.spike_history:
            del self._loss_history[:self.config.spike_history]

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
