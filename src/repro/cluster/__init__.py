"""Simulated GPU cluster substrate.

The paper's substrate is a production fleet of 8/16-GPU machines joined
by RDMA networking.  This package models the pieces of that fleet that
ByteRobust's detection and recovery logic actually observes:

* :mod:`repro.cluster.components` — machines, GPUs, NICs and their
  health state (DCGM status, Xid events, temperature, link state, ...);
* :mod:`repro.cluster.topology` — a two-level switch fabric so switch
  failures take out machine groups;
* :mod:`repro.cluster.faults` — the full Table 1 fault taxonomy, fault
  descriptors, and the injector that mutates component state and
  schedules auto-recovery of transient faults;
* :mod:`repro.cluster.pool` — the machine pool: active / warm-standby /
  free machines, provisioning delays, eviction and blacklisting;
* :mod:`repro.cluster.placement` — topology-aware placement policies
  (pack / spread / any-free) picking from the pool's per-switch index;
* :mod:`repro.cluster.scheduler` — fleet-level admission, priority
  dispatch and EASY backfill over the pool.
"""

from repro.cluster.components import (
    Gpu,
    HostState,
    Machine,
    Nic,
)
from repro.cluster.topology import Cluster, ClusterSpec, Switch
from repro.cluster.faults import (
    Fault,
    FaultInjector,
    FaultSymptom,
    RootCause,
)
from repro.cluster.healthcheck import (
    CheckItem,
    SelfCheckResult,
    SelfCheckRunner,
    default_check_battery,
)
from repro.cluster.placement import (
    AnyFreePolicy,
    PackPolicy,
    PlacementError,
    PlacementPolicy,
    SpreadPolicy,
    make_placement_policy,
    placement_policy_names,
)
from repro.cluster.pool import MachinePool, ProvisioningTimes
from repro.cluster.scheduler import (
    AdmissionError,
    FleetScheduler,
    JobRequest,
)

__all__ = [
    "AdmissionError",
    "AnyFreePolicy",
    "CheckItem",
    "Cluster",
    "ClusterSpec",
    "Fault",
    "FaultInjector",
    "FaultSymptom",
    "FleetScheduler",
    "Gpu",
    "HostState",
    "JobRequest",
    "Machine",
    "MachinePool",
    "Nic",
    "PackPolicy",
    "PlacementError",
    "PlacementPolicy",
    "ProvisioningTimes",
    "RootCause",
    "SelfCheckResult",
    "SelfCheckRunner",
    "SpreadPolicy",
    "Switch",
    "default_check_battery",
    "make_placement_policy",
    "placement_policy_names",
]
