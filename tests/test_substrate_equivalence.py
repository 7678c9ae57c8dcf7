"""Fleet-scale substrate equivalence: numpy paths vs scalar oracles.

The numpy substrate — batched hazard draws
(:class:`~repro.cluster.faults.MachineHazardProcess`), the columnar
:class:`~repro.cluster.components.ComponentStore` and the
mask-driven inspection sweeps — claims to be *byte-identical* to the
per-machine loops it replaced.  These tests pin that claim against
scalar references:

* property tests drive the hazard draw and pack selection (from the
  pool's count-bucket index) over random fleet shapes and seeds and
  compare them with test-local copies of the deleted per-machine
  loops;
* the store's rollup masks are checked against the per-view scalar
  predicates after arbitrary write sequences;
* scripted sweep runs of three engines on one cluster assert each
  live emission stream (content, order, dedup, switch strikes) equals
  the seed per-component sweeps kept in :mod:`repro.perf.baseline`,
  which never sleep.
"""

import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.components import Machine, MachineSpec
from repro.cluster.faults import MachineHazardProcess
from repro.cluster.placement import PackPolicy, UsableIndex
from repro.monitor.inspections import InspectionEngine
from repro.perf import seed_baseline
from repro.sim import Simulator
from repro.training import TrainingJob
from repro.workloads.fleet import fleet_job_config


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

_MTBF_S, _TICK_S = 5000.0, 300.0


def _hazard_schedule(machines: int, seed: int, ticks: int) -> list:
    """(tick, machine_id) hit schedule after ``ticks`` rounds."""
    hits = []
    tick_no = [0]
    proc = MachineHazardProcess(
        Simulator(), np.random.default_rng(seed),
        list(range(machines)), mtbf_s=_MTBF_S, tick_s=_TICK_S,
        on_hit=lambda mid: hits.append((tick_no[0], mid)))
    for t in range(ticks):
        tick_no[0] = t
        proc._tick()
    assert proc.hits == len(hits)
    return hits


def _scalar_hazard_schedule(machines: int, seed: int, ticks: int) -> list:
    """Oracle: the per-machine draw loop the batched draw replaced."""
    ids = list(range(machines))
    p = -math.expm1(-_TICK_S / _MTBF_S)
    rng = np.random.default_rng(seed)
    hits = []
    for t in range(ticks):
        hit_ids = [mid for mid in ids if rng.random() < p]
        hits.extend((t, mid) for mid in hit_ids)
    return hits


@given(machines=st.integers(1, 200), seed=st.integers(0, 2**31 - 1),
       ticks=st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_hazard_hit_schedule_matches_scalar_loop(machines, seed, ticks):
    """One batched Generator draw ≡ the per-machine scalar loop."""
    batched = _hazard_schedule(machines, seed, ticks)
    assert batched == _scalar_hazard_schedule(machines, seed, ticks)


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
def test_store_masks_match_scalar_rollups(machines, per_switch, ops,
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
    store = cluster.store
    # one recording watcher per row and per switch, and a second one on
    # every even row: each write reaches exactly the watchers of what
    # it wrote, once, naming the table it wrote
    calls = []
    for mid in range(machines):
        for tag in ("row", "even")[:2 - mid % 2]:
            store.watch(lambda table, key=(tag, mid): calls.append(
                (key, table)), [mid], [])
    for sw in range(len(cluster.switches)):
        store.watch(lambda table, key=("switch", sw): calls.append(
            (key, table)), [], [sw])
    for op in ops:
        if op[0] == "write":
            _, midx, index, (kind, name, value) = op
            machine = cluster.machines[midx % machines]
            view = {"gpu": machine.gpus, "nic": machine.nics}.get(kind)
            setattr(machine.host if view is None else view[index],
                    name, value)
            row, table = midx % machines, kind
        elif op[0] == "reset":
            cluster.machines[op[1] % machines].reset_health()
            row, table = op[1] % machines, None
        else:
            cluster.switches[op[1] % len(cluster.switches)].up = op[2]
        if op[0] == "switch":
            expected = [(("switch", op[1] % len(cluster.switches)),
                         "switch")]
        else:
            expected = [(("row", row), table)] + (
                [] if row % 2 else [(("even", row), table)])
        assert calls == expected
        calls.clear()
        _assert_store_matches_views(cluster)

    cluster.machines[0].reset_health()
    assert held_gpu.healthy() and held_gpu.temperature_c == 55.0
    assert held_host.healthy() and held_host.dmesg_xids == []
    _assert_store_matches_views(cluster)

    # an inspection engine's view of full, shuffled and subset id
    # lists agrees with the views: mask queries over its id array, and
    # its switches in first-seen order
    rng = np.random.default_rng(seed)
    full = list(range(machines))
    shuffled = rng.permutation(machines).tolist()
    subset = sorted(rng.choice(machines, size=max(1, machines // 2),
                               replace=False).tolist())
    watchers = (dict(store.row_watchers), dict(store.switch_watchers))
    for ids in (full, shuffled, subset):
        engine = InspectionEngine(Simulator(), cluster, lambda ids=ids: ids)
        engine._refresh_view()
        assert all(store.row_watchers[mid][-1] == engine._store_wrote
                   for mid in ids)
        for subsystem in ("host_ok", "gpus_ok", "nics_ok"):
            assert store.unhealthy(engine._arr, subsystem) == [
                mid for mid in ids
                if not getattr(cluster.machines[mid].component_health(),
                               subsystem)]
        seen = {}
        for mid in ids:
            sw = cluster.switch_of(mid)
            seen.setdefault(sw.id, sw.up)
        assert engine._switches.tolist() == list(seen)
        assert store.switch_up[engine._switches].tolist() == list(
            seen.values())
        engine.stop()
        assert (store.row_watchers, store.switch_watchers) == watchers


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


def test_inspection_view_follows_machine_set_changes():
    """The engine's view follows the callable's contents — a list
    mutated in place included — and watches exactly the view's rows
    and switches; equal contents, even in a new list object, keep the
    view and let clean sweeps sleep, a watched write wakes the sweep
    that reads it, a new view wakes all three, and ``stop()`` drops
    every watch."""
    cluster = Cluster(ClusterSpec(num_machines=8, machines_per_switch=4))
    store = cluster.store

    def watched(engine):
        def mine(table):
            return sorted(k for k, fns in table.items()
                          if engine._store_wrote in fns)
        return mine(store.row_watchers), mine(store.switch_watchers)

    cluster.machines[7].gpus[0].temperature_c = 95.0
    ids = list(range(8))
    sim = Simulator()
    engine = InspectionEngine(sim, cluster, lambda: ids)
    engine.start()
    tasks = engine._tasks
    engine._refresh_view()
    assert watched(engine) == (list(range(8)), [0, 1])
    assert store.unhealthy(engine._arr, "gpus_ok") == [7]
    ids.pop()                       # same list object, new contents
    engine._refresh_view()
    assert watched(engine) == (list(range(7)), [0, 1])
    assert store.unhealthy(engine._arr, "gpus_ok") == []
    assert engine._switches.tolist() == [0, 1]
    sim.run(until=10.0)             # host and GPU sweeps ran clean
    assert tasks["gpu"].asleep and tasks["host"].asleep
    assert not tasks["network"].asleep
    arr = engine._arr
    ids = list(ids)                 # new object, equal contents
    engine._refresh_view()
    assert engine._arr is arr and tasks["gpu"].asleep
    cluster.machines[7].gpus[0].temperature_c = 96.0    # not watched
    assert tasks["gpu"].asleep
    cluster.machines[3].host.cpu_load_frac = 0.5        # watched host row
    assert not tasks["host"].asleep and tasks["gpu"].asleep
    ids.append(7)
    engine._refresh_view()
    assert not any(task.asleep for task in tasks.values())
    assert store.unhealthy(engine._arr, "gpus_ok") == [7]
    engine.stop()
    assert watched(engine) == ([], [])

    # a job's binding change wakes the sweeps through its change hook
    job = TrainingJob(sim, fleet_job_config(2))
    job.bind_machines([7, 0])
    engine = InspectionEngine(sim, cluster, lambda: job.machines,
                              wake_on=job.change_listeners)
    engine.start()
    sim.run(until=40.0)
    assert engine._arr.tolist() == [7, 0]
    assert engine._switches.tolist() == [1, 0]
    tasks = engine._tasks
    assert tasks["host"].asleep and tasks["network"].asleep
    assert not tasks["gpu"].asleep              # machine 7 runs hot
    job.replace_machines({7: 6})
    assert not any(task.asleep for task in tasks.values())
    sim.run(until=50.0)
    assert store.unhealthy(engine._arr, "gpus_ok") == []
    assert tasks["gpu"].asleep
    engine.stop()
    assert job.change_listeners == [] and watched(engine) == ([], [])


def test_job_machines_is_a_new_list_after_every_binding_change():
    """``job.machines`` is one shared list per binding (callers must
    not mutate it), so a binding change hands out a new list and leaves
    the lists earlier callers hold as they were."""
    config = fleet_job_config(2)
    job = TrainingJob(Simulator(), config)
    seen = []
    for change in (lambda: job.bind_machines([0, 1]),
                   lambda: job.bind_machines([0, 1]),
                   lambda: job.replace_machines({1: 5}),
                   lambda: job.rebind_parallelism(config.parallelism,
                                                  [0, 5]),
                   lambda: job.rebind_parallelism(
                       replace(config.parallelism, dp=3), [4, 5, 6])):
        change()
        machines = job.machines
        assert job.machines is machines
        assert all(machines is not old for old in seen)
        seen.append(machines)
    assert [list(m) for m in seen] == [[0, 1], [0, 1], [0, 5], [0, 5],
                                       [4, 5, 6]]


# ---------------------------------------------------------------------------
# pack placement
# ---------------------------------------------------------------------------

def _scalar_pack_select(cluster, candidates, count):
    """Oracle: the dict-of-sorted-lists selection, regrouping the
    candidates on every call."""
    groups = {}
    for mid in sorted(candidates):
        groups.setdefault(cluster.machine(mid).switch_id, []).append(mid)
    order = sorted(groups, key=lambda sw: (-len(groups[sw]), sw))
    chosen = []
    for sw in order:
        take = min(count - len(chosen), len(groups[sw]))
        chosen.extend(groups[sw][:take])
        if len(chosen) == count:
            break
    return sorted(chosen)


@given(
    machines=st.integers(4, 120),
    per_switch=st.sampled_from([2, 4, 8, 16]),
    free_frac=st.floats(0.2, 1.0),
    count_frac=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_pack_placement_matches_scalar_selection(machines, per_switch,
                                                 free_frac, count_frac,
                                                 seed):
    """Pack from the count buckets ≡ the dict-of-sorted-lists scalar."""
    cluster = Cluster(ClusterSpec(num_machines=machines,
                                  machines_per_switch=per_switch))
    rng = np.random.default_rng(seed)
    n_free = max(1, int(machines * free_frac))
    candidates = sorted(rng.choice(machines, size=n_free,
                                   replace=False).tolist())
    count = max(1, int(len(candidates) * count_frac))
    chosen = PackPolicy().select(UsableIndex(cluster, candidates), count)
    assert chosen == _scalar_pack_select(cluster, candidates, count)
    assert len(chosen) == count


# ---------------------------------------------------------------------------
# inspection sweeps: emission streams
# ---------------------------------------------------------------------------

#: the scripted engines' machine sets on the 96-machine, 8-per-switch
#: cluster: disjoint, and the first two share leaf switch 4
_ENGINE_SETS = (list(range(0, 36)), list(range(36, 64)),
                list(range(64, 96)))


def _scripted_sweep_events(seed: int, seed_sweeps: bool) -> list:
    """Run scripted fault flips under three InspectionEngines on one
    cluster — the live mask-driven sweeps, or the seed per-component
    scans of :mod:`repro.perf.baseline` (which never sleep) when
    ``seed_sweeps`` — and return each engine's emission stream."""
    patch = seed_baseline() if seed_sweeps else contextlib.nullcontext()
    with patch:
        cluster = Cluster(ClusterSpec(num_machines=96,
                                      machines_per_switch=8))
        sim = Simulator()
        sets = [list(ids) for ids in _ENGINE_SETS]
        engines = [InspectionEngine(sim, cluster, lambda i=i: sets[i])
                   for i in range(len(sets))]
        streams = [[] for _ in engines]
        for engine, stream in zip(engines, streams):
            engine.add_listener(stream.append)
            engine.start()
    rng = np.random.default_rng(seed)
    # scripted flips: machine component faults, heals, and switch
    # outages spread over 20 simulated minutes — enough sweeps for
    # dedup windows, re-emits, and two-strike switch alerts to all
    # engage
    for _ in range(60):
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
    # an outage of the shared switch, long enough for two strikes
    at = float(rng.uniform(0.0, 1000.0))
    sim.schedule_at(at, lambda: setattr(cluster.switches[4], "up", False))
    sim.schedule_at(at + 100.0,
                    lambda: setattr(cluster.switches[4], "up", True))
    # machine-set changes the way a job rebinds: a new list object,
    # once with equal contents and once without four machines, and a
    # wake as a job's change hook gives (a no-op on the seed sweeps,
    # which never sleep)
    def swap(i, ids):
        sets[i] = ids
        engines[i].wake()
    sim.schedule_at(300.0, lambda: swap(1, list(sets[1])))
    sim.schedule_at(600.0, lambda: swap(2, sets[2][:-4]))
    sim.run(until=1500.0)
    for engine in engines:
        engine.stop()
    return [[(e.time, e.item, e.category, e.confidence,
              tuple(e.machine_ids), e.switch_id)
             for e in stream] for stream in streams]


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_sweep_emissions_match_seed_sweeps(seed):
    live = _scripted_sweep_events(seed, seed_sweeps=False)
    reference = _scripted_sweep_events(seed, seed_sweeps=True)
    assert all(reference), "an engine saw no emissions — test is vacuous"
    assert live == reference
