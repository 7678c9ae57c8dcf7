"""Machine self-checks: the pre-delivery validation of standby machines.

The warm-standby design (Sec. 6.2) only works if delivered machines are
actually healthy — a degraded replacement re-introduces the fault it
was meant to cure (the paper's "uncertainty of failover").  Standby
provisioning therefore runs a battery of self-checks before a machine
may enter the pool: GPU presence and DCGM status, HBM row-remap
pressure, PCIe bandwidth, NIC link state and loopback, disk and
filesystem health, and container runtime sanity.

Each item reports pass/fail plus a duration; the battery short-circuits
on the first failure (no point bandwidth-testing a machine whose GPU is
missing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cluster.components import (ComponentStore, Gpu, HostState,
                                      Machine, Nic)


@dataclass(frozen=True)
class CheckItem:
    """One self-check: a predicate over a machine's store row (read
    through its columns, as :meth:`Gpu.row_ok` does) plus a cost."""

    name: str
    duration_s: float
    passes: Callable[[ComponentStore, int], bool]


def default_check_battery() -> List[CheckItem]:
    """The standard pre-delivery battery, cheapest checks first."""
    return [
        CheckItem("container_runtime", 2.0,
                  lambda s, r: s.host["container_healthy"][r]),
        CheckItem("filesystem_mounts", 3.0,
                  lambda s, r: s.host["fs_mounted"][r]
                  and not s.host["disk_faulty"][r]
                  and s.host["disk_free_gb"][r] > HostState.DISK_MIN_FREE_GB),
        CheckItem("kernel_health", 2.0,
                  lambda s, r: not s.host["kernel_panic"][r]),
        CheckItem("gpu_presence", 5.0,
                  lambda s, r: s.gpu["available"][r].all()),
        CheckItem("dcgm_status", 8.0,
                  lambda s, r: (s.gpu["dcgm_healthy"][r]
                                & ~s.gpu["driver_hung"][r]).all()),
        CheckItem("hbm_row_remaps", 10.0,
                  lambda s, r: (~s.gpu["hbm_faulty"][r]
                                & (s.gpu["pending_row_remaps"][r] < 8)).all()),
        CheckItem("gpu_thermals", 5.0,
                  lambda s, r: not (s.gpu["temperature_c"][r]
                                    >= Gpu.THROTTLE_TEMP_C).any()),
        CheckItem("pcie_bandwidth", 25.0,
                  lambda s, r: (s.gpu["pcie_bandwidth_frac"][r]
                                >= 0.8).all()),
        CheckItem("nic_link_state", 10.0,
                  lambda s, r: (s.nic["up"][r]
                                & ~s.nic["flapping"][r]).all()),
        CheckItem("nic_loopback", 20.0,
                  lambda s, r: (s.nic["packet_loss_rate"][r]
                                < Nic.FLAP_LOSS_THRESHOLD).all()),
    ]


@dataclass
class SelfCheckResult:
    """Outcome of running the battery on one machine."""

    machine_id: int
    passed: bool
    duration_s: float
    items_run: List[str] = field(default_factory=list)
    failed_item: Optional[str] = None


class SelfCheckRunner:
    """Runs the battery, short-circuiting on first failure."""

    def __init__(self, battery: Optional[List[CheckItem]] = None):
        self.battery = (battery if battery is not None
                        else default_check_battery())
        if not self.battery:
            raise ValueError("battery must not be empty")

    def run(self, machine: Machine) -> SelfCheckResult:
        store, row = machine._store, machine._row
        duration = 0.0
        items_run: List[str] = []
        for item in self.battery:
            duration += item.duration_s
            items_run.append(item.name)
            if not item.passes(store, row):
                return SelfCheckResult(
                    machine_id=machine.id, passed=False,
                    duration_s=duration, items_run=items_run,
                    failed_item=item.name)
        return SelfCheckResult(machine_id=machine.id, passed=True,
                               duration_s=duration, items_run=items_run)

    def full_duration(self) -> float:
        """Cost of a clean pass over the whole battery."""
        return sum(item.duration_s for item in self.battery)
