"""Seed-mode baseline: run scenarios the way the pre-fast-path code did.

:func:`seed_baseline` is a context manager that temporarily restores
the seed behavior of every hot path the fast path optimized:

* the event engine — :class:`~repro.sim._reference.ReferenceSimulator`
  (object handles on the heap, ``step()`` per event, one heap push per
  periodic tick) is swapped in at the one place a simulator is
  built, :class:`~repro.core.platform.TrainingPlatform` — which every
  :class:`~repro.core.byterobust.ByteRobustSystem` runs on;
* the inspection sweeps — the seed per-component scans below (no O(1)
  health rollup, ``cluster.machine()`` lookups per machine) replace the
  fast-path sweeps;
* the loss model — the per-step noise/grad-norm block is re-derived
  and re-drawn on every query instead of cached (same block streams as
  the fast path, so values stay bit-identical; see
  ``METRICS_SCHEMA_VERSION`` in :mod:`repro.training.metrics`).

It is a test oracle: ``tests/test_sim_equivalence.py`` asserts that
both modes produce byte-identical reports,
``tests/test_metrics_plane.py`` checks the cached loss blocks against
:func:`_seed_noise` / :func:`_seed_grad_norm`, and
``tests/test_substrate_equivalence.py`` checks the live sweeps'
emission stream against the seed sweeps.  Everything else (hazard
draws, the metrics collector, placement, scenario wiring) runs
unpatched, which keeps the patch surface small and the oracle
trustworthy.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator

import numpy as np

import repro.core.platform as _platform
from repro.monitor.inspections import InspectionEngine, SignalConfidence
from repro.sim._reference import ReferenceSimulator
from repro.sim.rng import derive_seed
from repro.training.job import TrainingJob
from repro.training.metrics import BLOCK_STEPS, LossCurve


# ---------------------------------------------------------------------------
# seed implementations, verbatim from the pre-PR tree
# ---------------------------------------------------------------------------

def _seed_sweep_network(self) -> None:
    switches_seen: Dict[int, bool] = {}
    for mid in self._machine_ids():
        machine = self.cluster.machine(mid)
        if any(not nic.up for nic in machine.nics):
            self._emit("nic_crash", "network", SignalConfidence.NETWORK,
                       [mid])
        if any(nic.flapping or nic.packet_loss_rate
               >= nic.FLAP_LOSS_THRESHOLD for nic in machine.nics):
            self._emit("port_flapping", "network",
                       SignalConfidence.NETWORK, [mid])
        sw = self.cluster.switch_of(mid)
        switches_seen.setdefault(sw.id, sw.up)
    for sw_id, up in switches_seen.items():
        if up:
            self._switch_strikes.pop(sw_id, None)
            continue
        strikes = self._switch_strikes.get(sw_id, 0) + 1
        self._switch_strikes[sw_id] = strikes
        if strikes >= self.config.switch_consecutive:
            affected = [m.id for m in
                        self.cluster.machines_on_switch(sw_id)
                        if m.id in set(self._machine_ids())]
            self._emit("switch_down", "network",
                       SignalConfidence.NETWORK, affected,
                       switch_id=sw_id)


def _seed_sweep_gpu(self) -> None:
    for mid in self._machine_ids():
        machine = self.cluster.machine(mid)
        for gpu in machine.gpus:
            if not gpu.available:
                self._emit("gpu_lost", "gpu", SignalConfidence.HIGH, [mid])
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


def _seed_sweep_host(self) -> None:
    for mid in self._machine_ids():
        host = self.cluster.machine(mid).host
        if host.kernel_panic:
            self._emit("os_kernel_fault", "host", SignalConfidence.HIGH,
                       [mid])
        elif host.disk_faulty:
            self._emit("disk_fault", "host", SignalConfidence.HIGH, [mid])
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


@property
def _seed_machines(self) -> list:
    """Physical machine ids by slot order (rebuilt on every query)."""
    return [self.slot_to_machine[s] for s in range(self.num_machines)]


def _seed_noise(self, step: int) -> float:
    """Unmemoized noise: re-derive and re-draw the whole block per
    query.  Same stream names, same draw call, same element as the
    fast path's cached blocks — bit-identical values, none of the
    amortization."""
    rng = np.random.default_rng(
        derive_seed(self.seed, f"loss-block:{step // BLOCK_STEPS}"))
    block = rng.normal(0.0, self.noise_scale, BLOCK_STEPS)
    return float(block[step % BLOCK_STEPS])


def _seed_grad_norm(self, step: int, nan: bool = False,
                    spike_factor: float = 1.0) -> float:
    if nan:
        return float("nan")
    rng = np.random.default_rng(
        derive_seed(self.seed, f"gnorm-block:{step // BLOCK_STEPS}"))
    eps = float(rng.normal(0.0, 0.05, BLOCK_STEPS)[step % BLOCK_STEPS])
    return 0.4 * self.base(step) * (1.0 + eps) * spike_factor


@contextlib.contextmanager
def seed_baseline() -> Iterator[None]:
    """Temporarily restore the seed hot paths (engine, sweeps, loss).

    Systems *built* inside the context run on the reference engine and
    the seed sweep/loss implementations; on exit every patch is
    reverted.  Not reentrant, not thread-safe — it is a test oracle,
    not an execution mode.
    """
    saved = (
        _platform.Simulator,
        InspectionEngine._sweep_network,
        InspectionEngine._sweep_gpu,
        InspectionEngine._sweep_host,
        LossCurve.noise,
        LossCurve.grad_norm,
        TrainingJob.machines,
    )
    _platform.Simulator = ReferenceSimulator
    InspectionEngine._sweep_network = _seed_sweep_network
    InspectionEngine._sweep_gpu = _seed_sweep_gpu
    InspectionEngine._sweep_host = _seed_sweep_host
    LossCurve.noise = _seed_noise
    LossCurve.grad_norm = _seed_grad_norm
    TrainingJob.machines = _seed_machines
    try:
        yield
    finally:
        (_platform.Simulator,
         InspectionEngine._sweep_network,
         InspectionEngine._sweep_gpu,
         InspectionEngine._sweep_host,
         LossCurve.noise,
         LossCurve.grad_norm,
         TrainingJob.machines) = saved
