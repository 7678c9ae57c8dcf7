"""Periodic system inspections (Sec. 4.1, Table 3).

Inspection threads run at per-category intervals — network items every
30 s, GPU items every 10 s, host items every 2 s — and are free for the
GPUs (they query NIC counters, DCGM, and dmesg, not the training job).
Some items need corroboration before alerting: a switch must be
unresponsive on **two consecutive** sweeps (switches often flap and
recover), matching the paper's ``30·2`` detection time for switch-down
events.

Every anomaly becomes an :class:`InspectionEvent` with a *confidence*:

* ``HIGH``    — points at a specific machine with certainty (GPU lost,
  disk fault): the controller evicts immediately, skipping stop-time
  diagnostics;
* ``NETWORK`` — network-class events that may self-heal: the controller
  tolerates a couple within a window before evicting;
* ``WARN``    — suggestive but not damning (high temperature): used to
  corroborate MFU-decline diagnosis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.topology import Cluster
from repro.sim import Simulator


class SignalConfidence(enum.Enum):
    HIGH = "high"
    NETWORK = "network"
    WARN = "warn"


@dataclass
class InspectionEvent:
    """One anomaly surfaced by an inspection sweep."""

    time: float
    item: str                       # e.g. "gpu_lost", "switch_down"
    category: str                   # "network" | "gpu" | "host"
    confidence: SignalConfidence
    machine_ids: List[int] = field(default_factory=list)
    switch_id: Optional[int] = None

    def key(self) -> Tuple[str, Tuple[int, ...]]:
        return (self.item, tuple(self.machine_ids))


@dataclass(frozen=True)
class InspectionConfig:
    """Sweep intervals and corroboration thresholds (Table 3)."""

    network_interval_s: float = 30.0
    gpu_interval_s: float = 10.0
    host_interval_s: float = 2.0
    #: Consecutive unresponsive sweeps before a switch alert.
    switch_consecutive: int = 2
    #: Suppress duplicate events for the same (item, machines) pair for
    #: this long, so a persistent fault raises one alert, not a stream.
    dedup_window_s: float = 300.0

    def network_interval_for(self, category: str) -> float:
        """Sweep interval for a category (used by re-emit spacing)."""
        return {"network": self.network_interval_s,
                "gpu": self.gpu_interval_s,
                "host": self.host_interval_s}[category]


class InspectionEngine:
    """Runs the three inspection loops over a set of machines."""

    def __init__(self, sim: Simulator, cluster: Cluster,
                 machine_ids: Callable[[], List[int]],
                 config: Optional[InspectionConfig] = None):
        self.sim = sim
        self.cluster = cluster
        #: callable returning the machines currently worth inspecting
        #: (the job's active machines; it changes across recoveries)
        self._machine_ids = machine_ids
        self.config = config or InspectionConfig()
        self.events: List[InspectionEvent] = []
        self._listeners: List[Callable[[InspectionEvent], None]] = []
        self._switch_strikes: Dict[int, int] = {}
        self._last_emit: Dict[Tuple[str, Tuple[int, ...]], float] = {}
        self._tasks: list = []
        self._started = False
        #: category -> (cluster version, inspected ids) of the last
        #: *clean* sweep; see the fast-path note above the sweeps.
        self._clean_state: Dict[str, Tuple[int, List[int]]] = {}
        #: the cluster's columnar component store: sweeps pull their
        #: unhealthy candidates from its rollup masks
        self._store = cluster.store

    def _skip_unchanged(self, category: str, ids: List[int]
                        ) -> Optional[int]:
        """Cluster version if this sweep must run, None to skip it.

        A sweep may be skipped only when the previous sweep over the
        *same machines* found every inspected component healthy and the
        cluster-wide change counter proves nothing was written since:
        a clean sweep is a pure read, so re-running it cannot emit,
        strike, or dedup anything.
        """
        ver = self.cluster.health_version()
        state = self._clean_state.get(category)
        if state is not None and state[0] == ver and state[1] == ids:
            return None
        return ver

    def _mark_clean(self, category: str, ver: int, ids: List[int],
                    clean: bool) -> None:
        if clean:
            self._clean_state[category] = (ver, list(ids))
        else:
            self._clean_state.pop(category, None)

    def add_listener(self, fn: Callable[[InspectionEvent], None]) -> None:
        self._listeners.append(fn)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        cfg = self.config
        # Coalesced ticks: each sweep joins the TickGroup for its
        # cadence, sharing one heap entry with every other task on the
        # same interval (e.g. the collector's gauge poll).
        self._tasks = [
            self.sim.every_tick(cfg.network_interval_s, self._sweep_network,
                                first_delay=cfg.network_interval_s),
            self.sim.every_tick(cfg.gpu_interval_s, self._sweep_gpu,
                                first_delay=cfg.gpu_interval_s),
            self.sim.every_tick(cfg.host_interval_s, self._sweep_host,
                                first_delay=cfg.host_interval_s),
        ]

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks = []
        self._started = False

    # ------------------------------------------------------------------
    def _emit(self, item: str, category: str, confidence: SignalConfidence,
              machine_ids: List[int],
              switch_id: Optional[int] = None) -> None:
        key = (item, tuple(sorted(machine_ids)))
        last = self._last_emit.get(key)
        # Network events are NOT deduplicated: the controller's
        # tolerance policy counts repeated alerts within its own window
        # (two flaps in five minutes ⇒ evict, Sec. 4.1), which requires
        # seeing each one.  But only re-emit after the component was
        # observed healthy in between — a *continuously* down NIC is one
        # event, a re-flap is a new one — approximated by requiring at
        # least one clean sweep between emissions.
        if confidence is SignalConfidence.NETWORK:
            if (last is not None and self.sim.now - last
                    < 2 * self.config.network_interval_for(category)):
                return
        elif (last is not None
              and self.sim.now - last < self.config.dedup_window_s):
            return
        self._last_emit[key] = self.sim.now
        event = InspectionEvent(
            time=self.sim.now, item=item, category=category,
            confidence=confidence, machine_ids=sorted(machine_ids),
            switch_id=switch_id)
        self.events.append(event)
        for fn in list(self._listeners):
            fn(event)

    # ------------------------------------------------------------------
    # Sweeps find their unhealthy candidates through the store's
    # per-machine rollup masks and only walk the per-component checks
    # on machines whose subsystem is actually unhealthy — a healthy
    # machine's sweep is a pure read, so skipping it cannot change any
    # emission.  Unhealthy machines take the exact seed code path, so
    # event content, deduplication, and ordering are byte-identical to
    # the seed sweeps.
    def _sweep_network(self) -> None:
        ids = self._machine_ids()
        ver = self._skip_unchanged("network", ids)
        if ver is None:
            return
        machines = self.cluster.machines
        unhealthy = self._store.unhealthy(ids, "nics_ok")
        clean = not unhealthy
        for mid in unhealthy:
            machine = machines[mid]
            if any(not nic.up for nic in machine.nics):
                self._emit("nic_crash", "network",
                           SignalConfidence.NETWORK, [mid])
            if any(nic.flapping or nic.packet_loss_rate
                   >= nic.FLAP_LOSS_THRESHOLD for nic in machine.nics):
                self._emit("port_flapping", "network",
                           SignalConfidence.NETWORK, [mid])
        switches_seen = self._store.switches_first_seen(ids)
        if any(not up for _, up in switches_seen):
            clean = False
        self._mark_clean("network", ver, ids, clean)
        for sw_id, up in switches_seen:
            if up:
                self._switch_strikes.pop(sw_id, None)
                continue
            strikes = self._switch_strikes.get(sw_id, 0) + 1
            self._switch_strikes[sw_id] = strikes
            if strikes >= self.config.switch_consecutive:
                # the job's machines are re-read per down switch: an
                # emitted event may have made the controller move them
                active = set(self._machine_ids())
                affected = [mid for mid in self.cluster.switches[sw_id]
                            .machine_ids if mid in active]
                self._emit("switch_down", "network",
                           SignalConfidence.NETWORK, affected,
                           switch_id=sw_id)

    def _sweep_gpu(self) -> None:
        ids = self._machine_ids()
        ver = self._skip_unchanged("gpu", ids)
        if ver is None:
            return
        machines = self.cluster.machines
        unhealthy = self._store.unhealthy(ids, "gpus_ok")
        clean = not unhealthy
        for mid in unhealthy:
            machine = machines[mid]
            for gpu in machine.gpus:
                if not gpu.available:
                    self._emit("gpu_lost", "gpu", SignalConfidence.HIGH,
                               [mid])
                elif gpu.driver_hung:
                    self._emit("gpu_driver_hang", "gpu",
                               SignalConfidence.HIGH, [mid])
                elif not gpu.dcgm_healthy:
                    self._emit("dcgm_unhealthy", "gpu",
                               SignalConfidence.HIGH, [mid])
                elif gpu.hbm_faulty or gpu.pending_row_remaps >= 8:
                    self._emit("gpu_memory_error", "gpu",
                               SignalConfidence.HIGH, [mid])
                elif gpu.overheating:
                    self._emit("gpu_high_temperature", "gpu",
                               SignalConfidence.WARN, [mid])
                elif gpu.pcie_bandwidth_frac < 0.8:
                    self._emit("pcie_degraded", "gpu",
                               SignalConfidence.WARN, [mid])
        self._mark_clean("gpu", ver, ids, clean)

    def _sweep_host(self) -> None:
        ids = self._machine_ids()
        ver = self._skip_unchanged("host", ids)
        if ver is None:
            return
        machines = self.cluster.machines
        unhealthy = self._store.unhealthy(ids, "host_ok")
        clean = not unhealthy
        for mid in unhealthy:
            host = machines[mid].host
            if host.kernel_panic:
                self._emit("os_kernel_fault", "host", SignalConfidence.HIGH,
                           [mid])
            elif host.disk_faulty:
                self._emit("disk_fault", "host", SignalConfidence.HIGH,
                           [mid])
            elif not host.fs_mounted:
                self._emit("filesystem_mount", "host",
                           SignalConfidence.HIGH, [mid])
            elif not host.container_healthy:
                self._emit("container_error", "host",
                           SignalConfidence.HIGH, [mid])
            elif host.disk_free_gb <= host.DISK_MIN_FREE_GB:
                self._emit("insufficient_disk_space", "host",
                           SignalConfidence.HIGH, [mid])
            elif host.mem_used_frac >= host.MEM_OOM_FRAC:
                self._emit("cpu_oom", "host", SignalConfidence.HIGH, [mid])
            elif host.cpu_load_frac >= host.CPU_OVERLOAD_FRAC:
                self._emit("cpu_overload", "host", SignalConfidence.WARN,
                           [mid])
        self._mark_clean("host", ver, ids, clean)
