"""Fault taxonomy (Table 1 / Table 2 / Table 3) and the fault injector.

A :class:`Fault` couples three things the rest of the system keeps
separate on purpose:

* the **symptom** — what the incident looks like from the outside
  (Table 1's rows: CUDA error, job hang, NaN value, ...);
* the **root cause** — infrastructure vs user code vs data (Table 2),
  refined by a :class:`RootCauseDetail` (Table 3's rows: NIC crash,
  switch down, GPU driver hang, ...);
* the **job effect** — how the running training job manifests it
  (crash / hang / slowdown / NaN loss / nothing).

ByteRobust never gets to see the root cause directly; it observes the
symptom through inspections, metrics, and logs, and must infer enough
to isolate the faulty machines.  The injector is therefore the keeper
of ground truth: diagnostics query it only through the narrow,
recall-limited test interfaces in :mod:`repro.diagnosis`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Cluster
    from repro.sim import Simulator


class FaultCategory(enum.Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    MANUAL = "manual"


class FaultSymptom(enum.Enum):
    """Incident symptoms, 1:1 with Table 1."""

    CUDA_ERROR = "cuda_error"
    CPU_OVERLOAD = "cpu_overload"
    CPU_OOM = "cpu_oom"
    DISK_SPACE = "insufficient_disk_space"
    INFINIBAND_ERROR = "infiniband_error"
    FILESYSTEM_MOUNT = "filesystem_mount"
    HDFS_ERROR = "hdfs_error"
    CONTAINER_ERROR = "container_error"
    OS_KERNEL_PANIC = "os_kernel_panic"
    GPU_MEMORY_ERROR = "gpu_memory_error"
    EXTERNAL_SERVICE_ERROR = "external_service_error"
    GPU_UNAVAILABLE = "gpu_unavailable"
    DISK_FAULT = "disk_fault"
    JOB_HANG = "job_hang"
    MFU_DECLINE = "mfu_decline"
    NAN_VALUE = "nan_value"
    CODE_DATA_ADJUSTMENT = "code_data_adjustment"

    @property
    def category(self) -> FaultCategory:
        return _SYMPTOM_CATEGORY[self]


_EXPLICIT = (
    FaultSymptom.CUDA_ERROR, FaultSymptom.CPU_OVERLOAD, FaultSymptom.CPU_OOM,
    FaultSymptom.DISK_SPACE, FaultSymptom.INFINIBAND_ERROR,
    FaultSymptom.FILESYSTEM_MOUNT, FaultSymptom.HDFS_ERROR,
    FaultSymptom.CONTAINER_ERROR, FaultSymptom.OS_KERNEL_PANIC,
    FaultSymptom.GPU_MEMORY_ERROR, FaultSymptom.EXTERNAL_SERVICE_ERROR,
    FaultSymptom.GPU_UNAVAILABLE, FaultSymptom.DISK_FAULT,
)
_IMPLICIT = (FaultSymptom.JOB_HANG, FaultSymptom.MFU_DECLINE,
             FaultSymptom.NAN_VALUE)

_SYMPTOM_CATEGORY: Dict[FaultSymptom, FaultCategory] = {}
for _s in _EXPLICIT:
    _SYMPTOM_CATEGORY[_s] = FaultCategory.EXPLICIT
for _s in _IMPLICIT:
    _SYMPTOM_CATEGORY[_s] = FaultCategory.IMPLICIT
_SYMPTOM_CATEGORY[FaultSymptom.CODE_DATA_ADJUSTMENT] = FaultCategory.MANUAL


class RootCause(enum.Enum):
    """Coarse root-cause classes per Table 2."""

    INFRASTRUCTURE = "infrastructure"
    USER_CODE = "user_code"
    DATA = "data"
    NONE = "none"  # manual restarts have no fault behind them


class RootCauseDetail(enum.Enum):
    """Fine-grained root causes (Table 3 rows plus paper case studies)."""

    NIC_CRASH = "nic_crash"
    PORT_FLAPPING = "port_flapping"
    SWITCH_DOWN = "switch_down"
    UFM_FAULT = "ufm_fault"
    GPU_DRIVER_HANG = "gpu_driver_hang"
    GPU_HIGH_TEMPERATURE = "gpu_high_temperature"
    GPU_LOST = "gpu_lost"
    GPU_HBM_FAULT = "gpu_hbm_fault"
    GPU_SDC = "gpu_sdc"
    DEFECTIVE_CUDA_CORES = "defective_cuda_cores"
    PCIE_DEGRADED = "pcie_degraded"
    OS_KERNEL_FAULT = "os_kernel_fault"
    HOST_RESOURCE_EXHAUSTION = "host_resource_exhaustion"
    DISK_HW_FAULT = "disk_hw_fault"
    STORAGE_SERVICE_FAULT = "storage_service_fault"
    EXTERNAL_SERVICE_FAULT = "external_service_fault"
    USER_CODE_BUG = "user_code_bug"
    CKPT_RESHARD_MISCONFIG = "ckpt_reshard_misconfig"
    KERNEL_IMPL_BUG = "kernel_impl_bug"
    BAD_TRAINING_DATA = "bad_training_data"
    MANUAL_REQUEST = "manual_request"


class JobEffect(enum.Enum):
    """How a fault manifests on the running job."""

    CRASH = "crash"     # fail-stop with logs / exit code
    HANG = "hang"       # no progress, no logs
    SLOW = "slow"       # fail-slow: MFU declines
    NAN = "nan"         # loss / gradients go NaN
    NONE = "none"       # tolerated (e.g. recovered flap)


@dataclass
class Fault:
    """One injected fault instance (ground truth)."""

    symptom: FaultSymptom
    root_cause: RootCause
    detail: RootCauseDetail
    machine_ids: List[int] = field(default_factory=list)
    gpu_index: int = 0
    switch_id: Optional[int] = None
    effect: JobEffect = JobEffect.CRASH
    #: Transient faults clear themselves after ``auto_recover_after`` s.
    transient: bool = False
    auto_recover_after: float = 120.0
    #: For SDC-class faults: probability one replay step reproduces it.
    reproduce_prob: float = 1.0
    #: Emitted into stdout/stderr when the job crashes from this fault.
    log_signature: str = ""
    #: Process exit code on crash (0 = not applicable).
    exit_code: int = 0
    #: Code version that introduced the bug (user-code faults only).
    code_version: Optional[str] = None
    # -- bookkeeping filled by the injector --
    fault_id: int = -1
    injected_at: float = -1.0
    cleared_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.injected_at >= 0 and self.cleared_at is None

    def describe(self) -> str:
        where = (f"machines={self.machine_ids}" if self.machine_ids
                 else f"switch={self.switch_id}" if self.switch_id is not None
                 else "service-level")
        return (f"{self.symptom.value} [{self.detail.value}, "
                f"{self.root_cause.value}] {where}")


# ---------------------------------------------------------------------------
# component mutations per root-cause detail
# ---------------------------------------------------------------------------

def _apply_detail(cluster: "Cluster", fault: Fault) -> None:
    d = fault.detail
    machines = [cluster.machine(i) for i in fault.machine_ids]
    if d is RootCauseDetail.NIC_CRASH:
        for m in machines:
            m.nics[0].up = False
    elif d is RootCauseDetail.PORT_FLAPPING:
        for m in machines:
            m.nics[0].flapping = True
            m.nics[0].packet_loss_rate = 0.05
    elif d is RootCauseDetail.SWITCH_DOWN:
        assert fault.switch_id is not None
        cluster.switches[fault.switch_id].up = False
    elif d is RootCauseDetail.GPU_DRIVER_HANG:
        for m in machines:
            m.gpus[fault.gpu_index].driver_hung = True
    elif d is RootCauseDetail.GPU_HIGH_TEMPERATURE:
        for m in machines:
            gpu = m.gpus[fault.gpu_index]
            gpu.temperature_c = 92.0
            gpu.throttled = True
    elif d is RootCauseDetail.GPU_LOST:
        for m in machines:
            m.gpus[fault.gpu_index].available = False
            m.gpus[fault.gpu_index].xid_events.append(79)
    elif d is RootCauseDetail.GPU_HBM_FAULT:
        for m in machines:
            m.gpus[fault.gpu_index].hbm_faulty = True
            m.gpus[fault.gpu_index].xid_events.append(63)
            m.gpus[fault.gpu_index].pending_row_remaps += 16
    elif d in (RootCauseDetail.GPU_SDC, RootCauseDetail.DEFECTIVE_CUDA_CORES):
        for m in machines:
            gpu = m.gpus[fault.gpu_index]
            gpu.sdc_defective = True
            gpu.sdc_reproduce_prob = fault.reproduce_prob
    elif d is RootCauseDetail.PCIE_DEGRADED:
        for m in machines:
            m.gpus[fault.gpu_index].pcie_bandwidth_frac = 0.4
    elif d is RootCauseDetail.OS_KERNEL_FAULT:
        for m in machines:
            m.host.kernel_panic = True
            m.host.dmesg_xids.append(119)
    elif d is RootCauseDetail.HOST_RESOURCE_EXHAUSTION:
        for m in machines:
            if fault.symptom is FaultSymptom.CPU_OOM:
                m.host.mem_used_frac = 0.99
            elif fault.symptom is FaultSymptom.DISK_SPACE:
                m.host.disk_free_gb = 1.0
            else:
                m.host.cpu_load_frac = 0.99
    elif d is RootCauseDetail.DISK_HW_FAULT:
        for m in machines:
            m.host.disk_faulty = True
    elif d in (RootCauseDetail.STORAGE_SERVICE_FAULT,
               RootCauseDetail.EXTERNAL_SERVICE_FAULT,
               RootCauseDetail.UFM_FAULT):
        pass  # service-level: no machine component changes
    elif d in (RootCauseDetail.USER_CODE_BUG,
               RootCauseDetail.CKPT_RESHARD_MISCONFIG,
               RootCauseDetail.KERNEL_IMPL_BUG,
               RootCauseDetail.BAD_TRAINING_DATA,
               RootCauseDetail.MANUAL_REQUEST):
        pass  # software faults leave hardware state untouched
    else:  # pragma: no cover - exhaustiveness guard
        raise ValueError(f"unhandled detail {d}")
    if fault.symptom is FaultSymptom.FILESYSTEM_MOUNT:
        for m in machines:
            m.host.fs_mounted = False
    if fault.symptom is FaultSymptom.CONTAINER_ERROR:
        for m in machines:
            m.host.container_healthy = False


def _clear_detail(cluster: "Cluster", fault: Fault) -> None:
    """Undo the component mutation (transient recovery or repair)."""
    if fault.detail is RootCauseDetail.SWITCH_DOWN:
        assert fault.switch_id is not None
        cluster.switches[fault.switch_id].up = True
        return
    for mid in fault.machine_ids:
        cluster.machine(mid).reset_health()


class FaultInjector:
    """Applies faults to the cluster and tracks ground truth.

    Listeners (the training job, the monitor's event feed) are notified
    on injection and clearance.  Transient faults self-clear after their
    recovery delay, mirroring NIC flaps and switch reboots that
    ByteRobust deliberately tolerates (Sec. 4.1).
    """

    def __init__(self, sim: "Simulator", cluster: "Cluster"):
        self._sim = sim
        self._cluster = cluster
        self._ids = itertools.count()
        self.active_faults: Dict[int, Fault] = {}
        self.history: List[Fault] = []
        self._listeners: Dict[object, Callable[[str, Fault], None]] = {}

    def add_listener(self, fn: Callable[[str, Fault], None]
                     ) -> Callable[[], None]:
        """``fn(event, fault)`` with event in {"inject", "clear"};
        returns the call that unsubscribes ``fn``."""
        token = object()
        self._listeners[token] = fn
        return lambda: self._listeners.pop(token, None)

    # ------------------------------------------------------------------
    def inject(self, fault: Fault) -> Fault:
        fault.fault_id = next(self._ids)
        fault.injected_at = self._sim.now
        _apply_detail(self._cluster, fault)
        for mid in fault.machine_ids:
            self._cluster.machine(mid).active_fault_ids.append(fault.fault_id)
        self.active_faults[fault.fault_id] = fault
        self.history.append(fault)
        self._notify("inject", fault)
        if fault.transient:
            self._sim.schedule(fault.auto_recover_after,
                               lambda: self.clear(fault))
        return fault

    def clear(self, fault: Fault) -> None:
        if fault.cleared_at is not None:
            return
        fault.cleared_at = self._sim.now
        _clear_detail(self._cluster, fault)
        for mid in fault.machine_ids:
            ids = self._cluster.machine(mid).active_fault_ids
            if fault.fault_id in ids:
                ids.remove(fault.fault_id)
        self.active_faults.pop(fault.fault_id, None)
        self._notify("clear", fault)

    def clear_machine(self, machine_id: int) -> None:
        """Clear every active fault touching a machine (repair)."""
        for fault in self.machine_faults(machine_id):
            self.clear(fault)

    def _notify(self, event: str, fault: Fault) -> None:
        for fn in list(self._listeners.values()):
            fn(event, fault)

    # ------------------------------------------------------------------
    # ground-truth queries (used by diagnosis *models*, never directly
    # by control-plane policy)
    # ------------------------------------------------------------------
    def faulty_machines(self) -> List[int]:
        out = set()
        for fault in self.active_faults.values():
            if fault.root_cause is RootCause.INFRASTRUCTURE:
                out.update(fault.machine_ids)
        return sorted(out)

    def machine_faults(self, machine_id: int) -> List[Fault]:
        """Active faults touching a machine, in injection order."""
        return [self.active_faults[fid] for fid in
                self._cluster.machine(machine_id).active_fault_ids]

    def active_by_symptom(self, symptom: FaultSymptom) -> List[Fault]:
        return [f for f in self.active_faults.values()
                if f.symptom is symptom]

    def has_active_user_code_fault(self) -> bool:
        return any(f.root_cause is RootCause.USER_CODE
                   for f in self.active_faults.values())


# ---------------------------------------------------------------------------
# per-machine fault arrivals as batched tick work
# ---------------------------------------------------------------------------

class MachineHazardProcess:
    """Per-machine Bernoulli fault arrivals, sampled once per tick.

    The fleet-scale substrate for hardware fault injection: instead of
    one exponential heap event per arrival (fine for a handful of jobs,
    hopeless for drawing per-machine arrivals across 12.5k machines),
    every machine is a hazard with mean time between faults ``mtbf_s``,
    discretized to the tick as ``p = 1 - exp(-tick_s / mtbf_s)``.  Each
    tick draws one uniform per machine and fires ``on_hit(machine_id)``
    for every hit, in machine-id order — so fault arrivals ride the
    engine's coalesced tick path and the event heap stays reserved for
    control-plane events.

    The per-tick draw is one ``rng.random(n)`` ``Generator`` call.
    numpy's PCG64 yields the same stream as ``n`` scalar
    ``rng.random()`` calls, so the hit schedule is the one a
    per-machine loop would produce (the substrate suite pins it
    against that loop).
    """

    def __init__(self, sim: "Simulator", rng, machine_ids: List[int],
                 mtbf_s: float, tick_s: float,
                 on_hit: Callable[[int], None]):
        import math

        if mtbf_s <= 0 or tick_s <= 0:
            raise ValueError("mtbf_s and tick_s must be positive")
        self._sim = sim
        self._rng = rng
        self._ids = np.array(machine_ids, dtype=np.intp)
        self.tick_s = tick_s
        self.mtbf_s = mtbf_s
        #: per-tick hit probability from the exponential hazard
        self.p_hit = -math.expm1(-tick_s / mtbf_s)
        self._on_hit = on_hit
        self._task = None
        #: total arrivals fired (observability / reports)
        self.hits = 0

    def start(self) -> None:
        if self._task is None:
            self._task = self._sim.every_tick(self.tick_s, self._tick,
                                              first_delay=self.tick_s)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        draws = self._rng.random(len(self._ids))
        for mid in self._ids[draws < self.p_hit].tolist():
            self.hits += 1
            self._on_hit(mid)
