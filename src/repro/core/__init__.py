"""ByteRobust's top-level API.

* :mod:`repro.core.incidents` — incident records and the incident log
  (symptom, mechanism, timeline, evicted machines);
* :mod:`repro.core.ettr` — ETTR accounting: cumulative and
  sliding-window effective-training-time ratio, plus the unproductive-
  time breakdown of Fig. 3 (detection / localization / failover /
  recompute);
* :mod:`repro.core.byterobust` — the :class:`ByteRobustSystem` facade,
  a one-job :class:`TrainingPlatform`, and the :class:`RunReport`
  produced by a simulated production run;
* :mod:`repro.core.platform` — the multi-job
  :class:`TrainingPlatform`: jobs enter as a typed :class:`JobSpec`
  and come back as a live :class:`JobHandle` whose
  :class:`HandleState` walks QUEUED → RUNNING (→ PREEMPTED /
  RESIZING) → DONE.
"""

from repro.core.incidents import Incident, IncidentLog, IncidentPhase
from repro.core.ettr import EttrSeries, EttrTracker, UnproductiveBreakdown
from repro.core.byterobust import (
    ByteRobustSystem,
    RunReport,
    SystemConfig,
)
from repro.core.platform import (
    HandleState,
    JobHandle,
    JobSpec,
    PlatformConfig,
    TrainingPlatform,
)

__all__ = [
    "ByteRobustSystem",
    "EttrSeries",
    "EttrTracker",
    "HandleState",
    "Incident",
    "IncidentLog",
    "IncidentPhase",
    "JobHandle",
    "JobSpec",
    "PlatformConfig",
    "RunReport",
    "SystemConfig",
    "TrainingPlatform",
    "UnproductiveBreakdown",
]
