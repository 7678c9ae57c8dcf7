"""Machines, GPUs and NICs with the health state ByteRobust inspects.

Each component exposes exactly the signals the paper's real-time checks
read (Sec. 4.1): DCGM service status, PCIe bandwidth, row-remapping
pressure, temperature and Xid events on the GPU side; link state,
flapping and packet loss on the NIC side; kernel events, CPU load,
memory and disk pressure on the host side.  Faults mutate these fields;
inspections read them.

The fields live in one columnar :class:`ComponentStore` per fleet;
:class:`Gpu`, :class:`Nic` and :class:`HostState` are flyweight views
onto it, created on access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Collection, Dict, List, NamedTuple, Optional,
                    Tuple)

import numpy as np


class ComponentHealth(NamedTuple):
    """Per-subsystem health rollup of one machine.

    A plain tuple subclass so every existing ``(host, gpus, nics)``
    unpacking keeps working, but consumers address slots by name — the
    vectorized inspection sweeps index whole arrays of these flags and
    a silent slot swap would corrupt every mask at once.
    """

    host_ok: bool
    gpus_ok: bool
    nics_ok: bool


class _Field:
    """A view attribute backed by one store column.

    The default's Python type fixes the column dtype, and reads return
    that Python type (``ndarray.item``), never a numpy scalar.
    """

    def __init__(self, default) -> None:
        self.default = default

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, view, owner=None):
        if view is None:
            return self
        return view._cols[self.name].item(view._key)

    def __set__(self, view, value) -> None:
        view._cols[self.name][view._key] = value
        view._store._changed(type(view), view._cols, view._row)


class _View:
    """Flyweight view onto one component of a machine's store row."""

    __slots__ = ("_store", "_row", "_cols", "_key", "index")
    #: store attributes holding this kind's columns and rollup mask
    TABLE = MASK = ""

    def __init__(self, store: "ComponentStore", row: int,
                 index: Optional[int] = None):
        self._store, self._row, self.index = store, row, index
        self._cols = getattr(store, self.TABLE)
        self._key = row if index is None else (row, index)

    def __init_subclass__(cls) -> None:
        #: field name -> default, in declaration order
        cls.FIELDS = {name: f.default for name, f in vars(cls).items()
                      if isinstance(f, _Field)}

    @classmethod
    def columns(cls, *shape: int) -> Dict[str, np.ndarray]:
        return {name: np.full(shape, d) for name, d in cls.FIELDS.items()}


class Gpu(_View):
    """One GPU's inspectable health state."""

    __slots__ = ()
    TABLE, MASK = "gpu", "gpus_ok"

    #: DCGM service reachable and healthy.
    dcgm_healthy = _Field(True)
    #: Device visible to the driver (False == "GPU lost").
    available = _Field(True)
    #: Measured PCIe bandwidth as a fraction of spec (1.0 == nominal).
    pcie_bandwidth_frac = _Field(1.0)
    #: Pending HBM row remaps (row-remapping pressure; high == failing HBM).
    pending_row_remaps = _Field(0)
    #: Core temperature, Celsius.
    temperature_c = _Field(55.0)
    #: Driver wedged (kernel launches never return).
    driver_hung = _Field(False)
    #: Broken HBM cell → illegal-memory-access class errors.
    hbm_faulty = _Field(False)
    #: Silent-data-corruption defect (wrong arithmetic, no error signal).
    sdc_defective = _Field(False)
    #: Probability a single training step on this GPU reproduces the SDC.
    sdc_reproduce_prob = _Field(1.0)
    #: Thermal-throttling active (downclocked).
    throttled = _Field(False)

    THROTTLE_TEMP_C = 88.0

    @property
    def xid_events(self) -> List[int]:
        """Xid codes observed in dmesg since last drain."""
        return self._store.xid_events.setdefault(self._key, [])

    @property
    def overheating(self) -> bool:
        return self.temperature_c >= self.THROTTLE_TEMP_C

    def healthy(self) -> bool:
        """True when no inspectable defect is present (SDC is *not*
        inspectable — that is the whole problem with it)."""
        return (self.dcgm_healthy and self.available
                and not self.driver_hung and not self.hbm_faulty
                and not self.overheating
                and self.pcie_bandwidth_frac >= 0.8
                and self.pending_row_remaps < 8)

    @classmethod
    def row_ok(cls, c: Dict[str, np.ndarray], r: int) -> bool:
        return (c["dcgm_healthy"][r] & c["available"][r]
                & ~c["driver_hung"][r] & ~c["hbm_faulty"][r]
                & (c["temperature_c"][r] < cls.THROTTLE_TEMP_C)
                & (c["pcie_bandwidth_frac"][r] >= 0.8)
                & (c["pending_row_remaps"][r] < 8)).all()


class Nic(_View):
    """One RDMA NIC's inspectable state."""

    __slots__ = ()
    TABLE, MASK = "nic", "nics_ok"

    up = _Field(True)
    flapping = _Field(False)
    packet_loss_rate = _Field(0.0)

    FLAP_LOSS_THRESHOLD = 0.01

    def healthy(self) -> bool:
        return (self.up and not self.flapping
                and self.packet_loss_rate < self.FLAP_LOSS_THRESHOLD)

    @classmethod
    def row_ok(cls, c: Dict[str, np.ndarray], r: int) -> bool:
        return (c["up"][r] & ~c["flapping"][r]
                & (c["packet_loss_rate"][r] < cls.FLAP_LOSS_THRESHOLD)).all()


class HostState(_View):
    """Host-side (non-GPU) inspectable state."""

    __slots__ = ()
    TABLE, MASK = "host", "host_ok"

    kernel_panic = _Field(False)
    cpu_load_frac = _Field(0.3)       # 1.0 == all cores saturated
    mem_used_frac = _Field(0.4)
    disk_free_gb = _Field(500.0)
    disk_faulty = _Field(False)
    fs_mounted = _Field(True)
    container_healthy = _Field(True)

    CPU_OVERLOAD_FRAC = 0.95
    MEM_OOM_FRAC = 0.98
    DISK_MIN_FREE_GB = 5.0

    @property
    def dmesg_xids(self) -> List[int]:
        """Xid-bearing kernel events visible in dmesg."""
        return self._store.dmesg_xids.setdefault(self._row, [])

    def healthy(self) -> bool:
        return (not self.kernel_panic and not self.disk_faulty
                and self.fs_mounted and self.container_healthy
                and self.cpu_load_frac < self.CPU_OVERLOAD_FRAC
                and self.mem_used_frac < self.MEM_OOM_FRAC
                and self.disk_free_gb > self.DISK_MIN_FREE_GB)

    @classmethod
    def row_ok(cls, c: Dict[str, np.ndarray], r: int) -> bool:
        return (~c["kernel_panic"][r] & ~c["disk_faulty"][r]
                & c["fs_mounted"][r] & c["container_healthy"][r]
                & (c["cpu_load_frac"][r] < cls.CPU_OVERLOAD_FRAC)
                & (c["mem_used_frac"][r] < cls.MEM_OOM_FRAC)
                & (c["disk_free_gb"][r] > cls.DISK_MIN_FREE_GB))


@dataclass
class MachineSpec:
    """Hardware parameters shared by a homogeneous fleet."""

    gpus_per_machine: int = 8
    nics_per_machine: int = 8
    #: Per-GPU dense peak, TFLOPs (bf16).  Hopper ~989; L20 ~119.
    gpu_peak_tflops: float = 989.0
    #: GPU HBM capacity, GB.
    gpu_memory_gb: float = 80.0
    #: Host DRAM, GB (paper: 2 TB).
    host_memory_gb: float = 2048.0
    #: D2H PCIe bandwidth per GPU, GB/s (paper's L20 fleet: 30 GB/s).
    pcie_bandwidth_gbps: float = 30.0
    #: Per-NIC RDMA bandwidth, GB/s (8 x 400 Gbps links).
    rdma_bandwidth_gbps: float = 50.0
    #: Local SSD write bandwidth, GB/s.
    ssd_bandwidth_gbps: float = 3.0
    #: Remote (frontend network) storage bandwidth per machine, GB/s.
    remote_fs_bandwidth_gbps: float = 0.5


class ComponentStore:
    """Columnar component health of a fleet: the single source of truth.

    Every write goes through a view (or :meth:`reset_row` /
    :meth:`set_switch`), which re-derives the written machine's rollup
    mask from its columns and then calls the watchers of the written
    row or switch (:meth:`watch`).  The masks can be read at any time
    without a sync.
    """

    def __init__(self, machines: int, spec: MachineSpec,
                 machine_switch: Optional[np.ndarray] = None):
        self.gpu = Gpu.columns(machines, spec.gpus_per_machine)
        self.nic = Nic.columns(machines, spec.nics_per_machine)
        self.host = HostState.columns(machines)
        self.host_ok = np.ones(machines, dtype=bool)
        self.gpus_ok = np.ones(machines, dtype=bool)
        self.nics_ok = np.ones(machines, dtype=bool)
        #: sparse event logs: (row, gpu index) -> Xid codes, row -> codes
        self.xid_events: Dict[Tuple[int, int], List[int]] = {}
        self.dmesg_xids: Dict[int, List[int]] = {}
        #: machine row -> leaf switch id (static cabling; -1 == none)
        #: and switch id -> up
        self.machine_switch = (np.full(machines, -1, dtype=np.intp)
                               if machine_switch is None else machine_switch)
        self.switch_up = np.ones(
            int(self.machine_switch.max(initial=-1)) + 1, dtype=bool)
        #: machine row / switch id -> its watchers (see :meth:`watch`)
        self.row_watchers: Dict[int, Tuple[Callable, ...]] = {}
        self.switch_watchers: Dict[int, Tuple[Callable, ...]] = {}

    # ------------------------------------------------------------------
    def watch(self, fn: Callable[[Optional[str]], None],
              rows: Collection[int], switches: Collection[int]) -> None:
        """Call ``fn(table)`` after every write to one of ``rows`` or
        ``switches`` (each free of repeats) until :meth:`unwatch`:
        ``table`` names what was written (``"gpu"``, ``"nic"``,
        ``"host"`` or ``"switch"``), ``None`` for a reset of the whole
        row.  ``fn`` must not (un)watch from the call."""
        for table, keys in ((self.row_watchers, rows),
                            (self.switch_watchers, switches)):
            # a job's view is hundreds of rows: register them in bulk,
            # then append to the few that were watched already
            shared = {key: table[key] for key in table.keys() & keys}
            table.update(dict.fromkeys(keys, (fn,)))
            for key, fns in shared.items():
                table[key] = fns + (fn,)

    def unwatch(self, fn: Callable[[Optional[str]], None],
                rows: Collection[int], switches: Collection[int]) -> None:
        """Undo :meth:`watch` of ``fn`` for ``rows`` and ``switches``."""
        for table, keys in ((self.row_watchers, rows),
                            (self.switch_watchers, switches)):
            popped = list(map(table.pop, keys))
            if max(map(len, popped), default=1) > 1:
                for key, fns in zip(keys, popped):
                    rest = tuple(f for f in fns if f != fn)
                    if rest:
                        table[key] = rest

    def _changed(self, kind, cols: Dict[str, np.ndarray], row: int) -> None:
        """A ``kind`` column of ``row`` was written: re-derive the row's
        rollup from the columns (not through the views' scalar
        predicates, which the equivalence tests use as the oracle)."""
        getattr(self, kind.MASK)[row] = kind.row_ok(cols, row)
        for fn in self.row_watchers.get(row, ()):
            fn(kind.TABLE)

    def reset_row(self, row: int) -> None:
        """Restore one machine's components to nominal (a row fill)."""
        for kind in (Gpu, Nic, HostState):
            cols = getattr(self, kind.TABLE)
            for name, default in kind.FIELDS.items():
                cols[name][row] = default
            getattr(self, kind.MASK)[row] = True
        for index in range(self.gpu["available"].shape[1]):
            self.xid_events.pop((row, index), None)
        self.dmesg_xids.pop(row, None)
        for fn in self.row_watchers.get(row, ()):
            fn(None)

    def set_switch(self, switch_id: int, up: bool) -> None:
        self.switch_up[switch_id] = up
        for fn in self.switch_watchers.get(switch_id, ()):
            fn("switch")

    # ------------------------------------------------------------------
    def unhealthy(self, ids: np.ndarray, subsystem: str) -> List[int]:
        """Ids of the intp array ``ids`` (in its order) whose
        ``subsystem`` rollup — a :class:`ComponentHealth` field name —
        is unhealthy."""
        mask: np.ndarray = getattr(self, subsystem)
        return ids[~mask[ids]].tolist()


class Machine:
    """A training machine: GPUs + NICs + host (its pool lifecycle is
    the :class:`~repro.cluster.pool.MachinePool`'s record).

    A machine is a shell over its row of a :class:`ComponentStore`:
    a cluster's machines share the cluster's store (row == id); a
    standalone machine gets a one-row store of its own.
    """

    def __init__(self, machine_id: int, spec: Optional[MachineSpec] = None,
                 store: Optional[ComponentStore] = None):
        self.id = machine_id
        self.spec = spec or MachineSpec()
        if store is None:
            store, self._row = ComponentStore(1, self.spec), 0
        else:
            self._row = machine_id
        self._store = store
        #: Identifier of the leaf switch this machine hangs off.
        self.switch_id: Optional[int] = None
        #: Ids of the faults active on this machine, in injection
        #: order (the injector adds and drops them).
        self.active_fault_ids: List[int] = []

    @property
    def gpus(self) -> List[Gpu]:
        store, row = self._store, self._row
        return [Gpu(store, row, i) for i in range(self.spec.gpus_per_machine)]

    @property
    def nics(self) -> List[Nic]:
        store, row = self._store, self._row
        return [Nic(store, row, i) for i in range(self.spec.nics_per_machine)]

    @property
    def host(self) -> HostState:
        return HostState(self._store, self._row)

    # ------------------------------------------------------------------
    def component_health(self) -> ComponentHealth:
        """:class:`ComponentHealth`: three mask reads, always current."""
        store, row = self._store, self._row
        return ComponentHealth(store.host_ok.item(row),
                               store.gpus_ok.item(row),
                               store.nics_ok.item(row))

    def healthy(self) -> bool:
        """All inspectable components healthy (SDC excluded by design)."""
        host_ok, gpus_ok, nics_ok = self.component_health()
        return host_ok and gpus_ok and nics_ok

    def has_sdc_defect(self) -> bool:
        return bool(self._store.gpu["sdc_defective"][self._row].any())

    def reset_health(self) -> None:
        """Restore all components to nominal (used after repair).
        ``active_fault_ids`` is the injector's: it drops an id when it
        clears that fault."""
        self._store.reset_row(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Machine {self.id} "
                f"{'ok' if self.healthy() else 'UNHEALTHY'}>")
