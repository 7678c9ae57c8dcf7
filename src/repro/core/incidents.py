"""Incident records: what happened, how it was resolved, and when.

An :class:`Incident` tracks the full unproductive-time timeline of
Fig. 3: occurrence → detection → localization → recovery, plus the
mechanism that resolved it (the Table 4 categories) and the machines
evicted along the way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.faults import FaultCategory, FaultSymptom


class IncidentPhase(enum.Enum):
    DETECTED = "detected"
    LOCALIZING = "localizing"
    RECOVERING = "recovering"
    RESOLVED = "resolved"
    ESCALATED = "escalated"


@dataclass
class Incident:
    """One training incident from occurrence to resolution."""

    incident_id: int
    symptom: FaultSymptom
    #: When the underlying fault actually struck (ground truth; -1 when
    #: unknown, e.g. manual restarts have no fault behind them).
    occurred_at: float = -1.0
    detected_at: float = -1.0
    localized_at: float = -1.0
    recovered_at: float = -1.0
    phase: IncidentPhase = IncidentPhase.DETECTED
    #: Resolution mechanism label (Table 4: AutoFT-ER, AutoFT-HU,
    #: Analyzer-ER, Rollback; plus Reattempt / Replay-ER / Escalated).
    mechanism: str = ""
    evicted_machines: List[int] = field(default_factory=list)
    #: Actions taken along the Fig. 5 ladder, in order.
    actions: List[str] = field(default_factory=list)
    #: Ground-truth fault id, when one exists.
    fault_id: Optional[int] = None
    detail: str = ""

    # ------------------------------------------------------------------
    @property
    def detection_seconds(self) -> Optional[float]:
        if self.occurred_at < 0 or self.detected_at < 0:
            return None
        return self.detected_at - self.occurred_at

    @property
    def localization_seconds(self) -> Optional[float]:
        if self.detected_at < 0 or self.localized_at < 0:
            return None
        return self.localized_at - self.detected_at

    @property
    def failover_seconds(self) -> Optional[float]:
        if self.localized_at < 0 or self.recovered_at < 0:
            return None
        return self.recovered_at - self.localized_at

    @property
    def total_unproductive_seconds(self) -> Optional[float]:
        start = self.occurred_at if self.occurred_at >= 0 else self.detected_at
        if start < 0 or self.recovered_at < 0:
            return None
        return self.recovered_at - start

    @property
    def resolution_seconds(self) -> Optional[float]:
        """Localization → successful restart (the Table 6 metric)."""
        if self.localized_at < 0 or self.recovered_at < 0:
            return None
        return self.recovered_at - self.localized_at

    @property
    def category(self) -> FaultCategory:
        return self.symptom.category


class IncidentLog:
    """Append-only incident history with summary queries."""

    def __init__(self) -> None:
        self.incidents: List[Incident] = []
        self._next_id = 0

    def open(self, symptom: FaultSymptom, detected_at: float,
             occurred_at: float = -1.0, detail: str = "",
             fault_id: Optional[int] = None) -> Incident:
        incident = Incident(
            incident_id=self._next_id, symptom=symptom,
            occurred_at=occurred_at, detected_at=detected_at,
            detail=detail, fault_id=fault_id)
        self._next_id += 1
        self.incidents.append(incident)
        return incident

    # ------------------------------------------------------------------
    def resolved(self) -> List[Incident]:
        return [i for i in self.incidents
                if i.phase is IncidentPhase.RESOLVED]

    def by_symptom(self) -> Dict[FaultSymptom, List[Incident]]:
        out: Dict[FaultSymptom, List[Incident]] = {}
        for incident in self.incidents:
            out.setdefault(incident.symptom, []).append(incident)
        return out

    def mechanism_distribution(self) -> Dict[str, Dict[str, float]]:
        """Table 4 rows: mechanism → {explicit, implicit, manual} counts."""
        out: Dict[str, Dict[str, float]] = {}
        for incident in self.resolved():
            row = out.setdefault(incident.mechanism, {
                "explicit": 0, "implicit": 0, "manual": 0})
            row[incident.category.value] += 1
        return out

    def __len__(self) -> int:
        return len(self.incidents)

    def __bool__(self) -> bool:
        """Always truthy: an empty log is still a log.

        Without this, ``__len__`` makes a fresh log falsy, and every
        ``incident_log or IncidentLog()``-style call site silently
        swaps in a new log and loses the caller's history.
        """
        return True
