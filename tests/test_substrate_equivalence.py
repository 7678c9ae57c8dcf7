"""Scalar vs vectorized fault/health substrate equivalence.

The struct-of-arrays substrate (:mod:`repro.cluster.health_index`,
:class:`~repro.cluster.faults.MachineHazardProcess`) claims to be
*byte-identical* to the scalar reference path — same hazard hit
schedules, same inspection emissions, same end-to-end scenario
payloads — differing only in wall-clock.  These tests pin that claim:

* property tests drive both modes over random fleet shapes, seeds and
  write sequences and assert identical results;
* the columnar :class:`~repro.cluster.components.ComponentStore`'s
  rollup masks are checked against the per-view scalar predicates
  after arbitrary write sequences;
* scripted sweep runs assert identical emission streams (content,
  order, dedup, switch strikes);
* whole registered scenarios (``fleet-week``, a shrunken
  ``fleet-quarter``) produce identical report payloads under
  :func:`force_substrate` either way.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.components import Machine, MachineSpec
from repro.cluster.faults import MachineHazardProcess
from repro.cluster.health_index import (
    VECTORIZE_MIN_MACHINES,
    force_substrate,
    substrate_mode,
    use_vectorized,
)
from repro.experiments.registry import get_scenario
from repro.monitor.inspections import InspectionEngine
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# mode switch
# ---------------------------------------------------------------------------

def test_substrate_mode_switch():
    assert substrate_mode() == "auto"
    assert not use_vectorized(VECTORIZE_MIN_MACHINES - 1)
    assert use_vectorized(VECTORIZE_MIN_MACHINES)
    with force_substrate("scalar"):
        assert substrate_mode() == "scalar"
        assert not use_vectorized(10_000)
    with force_substrate("vectorized"):
        assert use_vectorized(1)
    assert substrate_mode() == "auto"
    with pytest.raises(ValueError):
        with force_substrate("simd"):
            pass  # pragma: no cover


def test_component_health_named_fields():
    machine = Machine(0, MachineSpec())
    health = machine.component_health()
    assert health.host_ok and health.gpus_ok and health.nics_ok
    # NamedTuple stays tuple-compatible for existing unpacking callers
    assert tuple(health) == (True, True, True)
    machine.gpus[0].temperature_c = 95.0
    assert not machine.component_health().gpus_ok
    machine.host.kernel_panic = True
    after = machine.component_health()
    assert not after.host_ok and after.nics_ok


# ---------------------------------------------------------------------------
# hazard hit schedules
# ---------------------------------------------------------------------------

def _hazard_schedule(mode: str, machines: int, seed: int,
                     ticks: int) -> list:
    """(tick, machine_id) hit schedule after ``ticks`` rounds."""
    with force_substrate(mode):
        hits = []
        tick_no = [0]
        proc = MachineHazardProcess(
            Simulator(), np.random.default_rng(seed),
            list(range(machines)), mtbf_s=5000.0, tick_s=300.0,
            on_hit=lambda mid: hits.append((tick_no[0], mid)))
        for t in range(ticks):
            tick_no[0] = t
            proc._tick()
        assert proc.hits == len(hits)
        return hits


@given(machines=st.integers(1, 200), seed=st.integers(0, 2**31 - 1),
       ticks=st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_hazard_hit_schedule_mode_invariant(machines, seed, ticks):
    """One batched Generator draw ≡ the per-machine scalar loop."""
    scalar = _hazard_schedule("scalar", machines, seed, ticks)
    vectorized = _hazard_schedule("vectorized", machines, seed, ticks)
    assert scalar == vectorized


def test_hazard_rejects_bad_rates():
    sim = Simulator()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MachineHazardProcess(sim, rng, [0], mtbf_s=0.0, tick_s=1.0,
                             on_hit=lambda mid: None)
    with pytest.raises(ValueError):
        MachineHazardProcess(sim, rng, [0], mtbf_s=1.0, tick_s=-1.0,
                             on_hit=lambda mid: None)


# ---------------------------------------------------------------------------
# component store masks vs per-view predicates
# ---------------------------------------------------------------------------

_WRITE_OPS = ("gpu_temp", "gpu_lost", "nic_down", "nic_flap",
              "host_panic", "host_load", "disk_fault", "heal")


def _apply_op(cluster: Cluster, midx: int, op: str) -> None:
    machine = cluster.machines[midx % len(cluster.machines)]
    if op == "gpu_temp":
        machine.gpus[0].temperature_c = 95.0
    elif op == "gpu_lost":
        machine.gpus[-1].available = False
    elif op == "nic_down":
        machine.nics[0].up = False
    elif op == "nic_flap":
        machine.nics[0].flapping = True
    elif op == "host_panic":
        machine.host.kernel_panic = True
    elif op == "host_load":
        machine.host.cpu_load_frac = 0.99
    elif op == "disk_fault":
        machine.host.disk_faulty = True
    elif op == "heal":
        machine.reset_health()


#: one arbitrary write per view field: (kind, field, unhealthy-ish value)
_FIELD_WRITES = (
    [("gpu", name, value) for name, value in (
        ("dcgm_healthy", False), ("available", False),
        ("pcie_bandwidth_frac", 0.5), ("pcie_bandwidth_frac", 0.8),
        ("pending_row_remaps", 8), ("pending_row_remaps", 7),
        ("temperature_c", 88.0), ("temperature_c", 87.9),
        ("driver_hung", True), ("hbm_faulty", True),
        ("sdc_defective", True), ("sdc_reproduce_prob", 0.25),
        ("throttled", True))]
    + [("nic", name, value) for name, value in (
        ("up", False), ("flapping", True), ("packet_loss_rate", 0.01),
        ("packet_loss_rate", 0.0099))]
    + [("host", name, value) for name, value in (
        ("kernel_panic", True), ("cpu_load_frac", 0.95),
        ("cpu_load_frac", 0.9499), ("mem_used_frac", 0.98),
        ("disk_free_gb", 5.0), ("disk_free_gb", 5.01),
        ("disk_faulty", True), ("fs_mounted", False),
        ("container_healthy", False))])

_store_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 10**6), st.integers(0, 7),
              st.sampled_from(_FIELD_WRITES)),
    st.tuples(st.just("reset"), st.integers(0, 10**6)),
    st.tuples(st.just("switch"), st.integers(0, 10**6), st.booleans()))


def _assert_store_matches_views(cluster: Cluster) -> None:
    store = cluster.store
    for machine in cluster.machines:
        mid = machine.id
        assert store.host_ok[mid] == machine.host.healthy()
        assert store.gpus_ok[mid] == all(g.healthy() for g in machine.gpus)
        assert store.nics_ok[mid] == all(n.healthy() for n in machine.nics)
        assert machine.healthy() == (
            machine.host.healthy()
            and all(g.healthy() for g in machine.gpus)
            and all(n.healthy() for n in machine.nics))
    expected = [m.id for m in cluster.machines
                if not (m.host.healthy()
                        and all(g.healthy() for g in m.gpus)
                        and all(n.healthy() for n in m.nics))
                or not cluster.network_reachable(m.id)]
    assert cluster.unhealthy_machines() == expected
    assert store.switch_up.tolist() == [sw.up for sw in cluster.switches]


@given(
    machines=st.integers(4, 40),
    per_switch=st.sampled_from([2, 4, 8]),
    ops=st.lists(_store_ops, max_size=40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_health_index_matches_scalar_rollups(machines, per_switch, ops,
                                             seed):
    """The store's rollup masks are an oracle-checked cache: after any
    sequence of view writes, ``reset_health`` calls and switch flips
    they equal the per-view ``healthy()`` predicates and
    ``Cluster.network_reachable``, and a view held across a reset reads
    the reset values."""
    cluster = Cluster(ClusterSpec(num_machines=machines,
                                  machines_per_switch=per_switch))
    held_gpu = cluster.machines[0].gpus[3]
    held_host = cluster.machines[0].host
    version = cluster.health_version()
    for op in ops:
        if op[0] == "write":
            _, midx, index, (kind, name, value) = op
            machine = cluster.machines[midx % machines]
            view = {"gpu": machine.gpus, "nic": machine.nics}.get(kind)
            setattr(machine.host if view is None else view[index],
                    name, value)
        elif op[0] == "reset":
            cluster.machines[op[1] % machines].reset_health()
        else:
            cluster.switches[op[1] % len(cluster.switches)].up = op[2]
        assert cluster.health_version() > version
        version = cluster.health_version()
        _assert_store_matches_views(cluster)

    cluster.machines[0].reset_health()
    assert held_gpu.healthy() and held_gpu.temperature_c == 55.0
    assert held_host.healthy() and held_host.dmesg_xids == []
    _assert_store_matches_views(cluster)

    # mask queries agree with the views for full, shuffled and subset
    # id lists
    rng = np.random.default_rng(seed)
    full = list(range(machines))
    shuffled = rng.permutation(machines).tolist()
    subset = sorted(rng.choice(machines, size=max(1, machines // 2),
                               replace=False).tolist())
    store = cluster.store
    for ids in (full, shuffled, subset):
        for subsystem in ("host_ok", "gpus_ok", "nics_ok"):
            assert store.unhealthy(ids, subsystem) == [
                mid for mid in ids
                if not getattr(cluster.machines[mid].component_health(),
                               subsystem)]
        seen = {}
        for mid in ids:
            sw = cluster.switch_of(mid)
            seen.setdefault(sw.id, sw.up)
        assert store.switches_first_seen(ids) == list(seen.items())


def test_store_masks_track_every_field_write():
    """Each field write alone — boundary values included — flips the
    store's masks exactly as the per-view predicates say, and a reset
    restores them."""
    cluster = Cluster(ClusterSpec(num_machines=3, machines_per_switch=2))
    machine = cluster.machines[1]
    for kind, name, value in _FIELD_WRITES:
        view = {"gpu": machine.gpus[5], "nic": machine.nics[2],
                "host": machine.host}[kind]
        setattr(view, name, value)
        assert getattr(view, name) == value
        _assert_store_matches_views(cluster)
        machine.reset_health()
        assert machine.healthy()
        _assert_store_matches_views(cluster)


def test_ids_array_cache_guards_in_place_mutation():
    """Mutating the caller's id list in place must not serve a stale
    cached array (the cache keys on a copy, not the caller's object)."""
    cluster = Cluster(ClusterSpec(num_machines=8, machines_per_switch=4))
    store = cluster.store
    cluster.machines[7].gpus[0].temperature_c = 95.0
    ids = list(range(8))
    assert store.unhealthy(ids, "gpus_ok") == [7]
    ids.pop()                       # same list object, new contents
    assert store.unhealthy(ids, "gpus_ok") == []
    ids.append(7)
    assert store.unhealthy(ids, "gpus_ok") == [7]


# ---------------------------------------------------------------------------
# pack placement
# ---------------------------------------------------------------------------

@given(
    machines=st.integers(4, 120),
    per_switch=st.sampled_from([2, 4, 8, 16]),
    free_frac=st.floats(0.2, 1.0),
    count_frac=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_pack_placement_mode_invariant(machines, per_switch, free_frac,
                                       count_frac, seed):
    """Vectorized pack selection ≡ the dict-of-sorted-lists scalar."""
    from repro.cluster.placement import PackPolicy

    cluster = Cluster(ClusterSpec(num_machines=machines,
                                  machines_per_switch=per_switch))
    rng = np.random.default_rng(seed)
    n_free = max(1, int(machines * free_frac))
    candidates = sorted(rng.choice(machines, size=n_free,
                                   replace=False).tolist())
    count = max(1, int(len(candidates) * count_frac))
    policy = PackPolicy()
    with force_substrate("scalar"):
        scalar = policy.select(cluster, candidates, count)
    with force_substrate("vectorized"):
        vectorized = policy.select(cluster, candidates, count)
    assert scalar == vectorized
    assert len(scalar) == count


# ---------------------------------------------------------------------------
# inspection sweeps: emission streams
# ---------------------------------------------------------------------------

def _scripted_sweep_events(mode: str, seed: int) -> list:
    """Run scripted fault flips under a live InspectionEngine."""
    with force_substrate(mode):
        cluster = Cluster(ClusterSpec(num_machines=96,
                                      machines_per_switch=8))
        sim = Simulator()
        ids = list(range(96))
        engine = InspectionEngine(sim, cluster, lambda: ids)
        engine.start()
        rng = np.random.default_rng(seed)
        # scripted flips: machine component faults, heals, and switch
        # outages spread over 20 simulated minutes — enough sweeps for
        # dedup windows, re-emits, and two-strike switch alerts to all
        # engage
        for _ in range(40):
            at = float(rng.uniform(0.0, 1200.0))
            midx = int(rng.integers(0, 96))
            op = _WRITE_OPS[int(rng.integers(0, len(_WRITE_OPS)))]
            sim.schedule_at(at, lambda midx=midx, op=op:
                            _apply_op(cluster, midx, op))
        for _ in range(4):
            at = float(rng.uniform(0.0, 1200.0))
            sidx = int(rng.integers(0, len(cluster.switches)))
            up = bool(rng.random() < 0.4)
            sim.schedule_at(at, lambda sidx=sidx, up=up:
                            setattr(cluster.switches[sidx], "up", up))
        sim.run(until=1500.0)
        engine.stop()
        return [(e.time, e.item, e.category, e.confidence,
                 tuple(e.machine_ids), e.switch_id)
                for e in engine.events]


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_sweep_emissions_mode_invariant(seed):
    scalar = _scripted_sweep_events("scalar", seed)
    vectorized = _scripted_sweep_events("vectorized", seed)
    assert scalar, "script produced no emissions — test is vacuous"
    assert scalar == vectorized


# ---------------------------------------------------------------------------
# whole scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
def test_fleet_week_payload_mode_invariant(seed):
    def run(mode):
        with force_substrate(mode):
            return get_scenario("fleet-week").build(
                seed=seed, duration_s=2 * 86400.0).run().payload
    assert run("scalar") == run("vectorized")


def test_fleet_quarter_small_payload_mode_invariant():
    """A shrunken quarter — hazard arrivals, evictions, repairs and
    standbys all active — must not depend on the substrate mode."""
    overrides = dict(total_machines=96, duration_s=86400.0,
                     arrival_mean_s=3600.0, machine_mtbf_s=400_000.0,
                     step_time_factor=4.0)

    def run(mode):
        with force_substrate(mode):
            return get_scenario("fleet-quarter").build(
                **overrides).run().payload

    scalar = run("scalar")
    vectorized = run("vectorized")
    assert scalar["machine_hazard"]["hits"] > 0
    assert scalar == vectorized
