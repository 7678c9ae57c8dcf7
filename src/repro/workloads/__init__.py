"""Workload and fault-trace generators.

* :mod:`repro.workloads.failure_model` — fleet failure-rate math
  (MTBF scaling with GPU count);
* :mod:`repro.workloads.traces` — incident trace generation matching
  the Table 1 symptom mix and Table 2 root-cause mix, plus fault
  construction for every symptom;
* :mod:`repro.workloads.scenarios` — ready-made production scenarios:
  the dense / MoE pretraining jobs of Sec. 8.1 with Poisson fault
  arrivals and periodic code updates climbing the MFU ladder;
* :mod:`repro.workloads.fleet` — fleet-scale churn: Poisson job
  arrivals from the Table 1 size/duration mix over the dynamic
  multi-job platform, with a fleet-wide fault process.

Scenarios are built by name only:
``repro.experiments.get_scenario(name).build(**overrides)``.  Each
parameter is declared once, as a ``ParamSpec`` in the registration,
so the builder functions are not exported here.
"""

from repro.workloads.failure_model import mtbf_seconds
from repro.workloads.traces import (
    TABLE1_COUNTS,
    TABLE2_ROOT_CAUSES,
    IncidentTraceGenerator,
    TraceEvent,
)
from repro.workloads.fleet import (
    FLEET_SIZE_MIX,
    FleetJobSpec,
    FleetReport,
    FleetScenario,
    FleetTraceGenerator,
    fleet_job_config,
)
from repro.workloads.scenarios import AnalyticScenario, ProductionScenario

__all__ = [
    "AnalyticScenario",
    "FLEET_SIZE_MIX",
    "FleetJobSpec",
    "FleetReport",
    "FleetScenario",
    "FleetTraceGenerator",
    "IncidentTraceGenerator",
    "ProductionScenario",
    "TABLE1_COUNTS",
    "TABLE2_ROOT_CAUSES",
    "TraceEvent",
    "fleet_job_config",
    "mtbf_seconds",
]
