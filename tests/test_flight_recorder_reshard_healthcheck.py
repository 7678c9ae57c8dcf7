"""Unit + property tests: flight recorder, checkpoint resharding, and
machine self-checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent import CollectiveOp, FlightRecorder
from repro.checkpoint import plan_reshard, reshard_load_seconds
from repro.cluster import (
    Cluster,
    ClusterSpec,
    MachinePool,
    SelfCheckRunner,
    default_check_battery,
)
from repro.cluster.components import Gpu, HostState, Nic
from repro.parallelism import ParallelismConfig, RankTopology
from repro.sim import Simulator


def topo(tp=2, pp=4, dp=4, gpm=2):
    return RankTopology(ParallelismConfig(tp=tp, pp=pp, dp=dp,
                                          gpus_per_machine=gpm))


class TestFlightRecorder:
    def test_healthy_steps_have_no_laggards(self):
        rec = FlightRecorder(topo())
        for step in range(3):
            rec.record_step(time=float(step))
        assert rec.laggards() == []
        assert rec.incomplete_ranks() == []
        assert rec.stuck_groups() == []

    def test_stalled_rank_flagged_as_laggard_and_incomplete(self):
        rec = FlightRecorder(topo())
        rec.record_step(time=0.0)
        rec.record_step(time=1.0, stalled_ranks=[30, 31])
        assert rec.incomplete_ranks() == [30, 31]
        assert 30 in rec.laggards() and 31 in rec.laggards()

    def test_stuck_group_identified(self):
        t = topo()
        rec = FlightRecorder(t)
        rec.record_step(time=0.0, stalled_ranks=[30, 31])
        stuck = rec.stuck_groups()
        assert stuck
        assert all(dim == "tp" for dim, _ in stuck)
        tp_index = t.group_index_of(30, "tp")
        assert ("tp", tp_index) in stuck

    def test_suspect_machines_cover_stalled_machine(self):
        t = topo()
        rec = FlightRecorder(t)
        rec.record_step(time=0.0, stalled_ranks=[30, 31])
        assert 15 in rec.suspect_machines()   # ranks 30/31 live there

    def test_ring_buffer_caps_history(self):
        rec = FlightRecorder(topo(), capacity=4)
        for step in range(10):
            rec.record_step(time=float(step))
        assert len(rec.dump(0)) == 4
        # sequence numbers keep increasing even as the buffer rolls
        assert rec.last_seq(0) == 10 * 4 - 1

    def test_record_validation(self):
        rec = FlightRecorder(topo())
        with pytest.raises(ValueError):
            rec.record(999, CollectiveOp.BARRIER, "tp", 0.0)
        with pytest.raises(ValueError):
            rec.record(-1, CollectiveOp.BARRIER, "tp", 0.0)
        with pytest.raises(ValueError):
            FlightRecorder(topo(), capacity=0)

    def test_per_rank_state_is_created_on_first_record(self):
        """A recorder that was never written holds no per-rank buffer;
        unrecorded ranks read as empty."""
        rec = FlightRecorder(topo(tp=8, pp=16, dp=64, gpm=8))
        assert rec.topology.world_size == 8192
        assert rec._buffers == {} and rec._seq == {}
        assert rec.last_record(5) is None
        assert rec.last_seq(5) == -1
        assert rec.dump(5) == []
        rec.record(5, CollectiveOp.BARRIER, "tp", 0.0)
        assert list(rec._buffers) == [5] and list(rec._seq) == [5]
        assert rec.last_seq(5) == 0
        assert rec.last_seq(6) == -1 and rec.dump(6) == []


class TestReshardPlan:
    MODEL_B = 10**9
    OPT_B = 3 * 10**9

    def plan(self, src, dst):
        return plan_reshard(src, dst, self.MODEL_B, self.OPT_B)

    def test_identity_reshard_is_local_shaped(self):
        cfg = ParallelismConfig(tp=2, pp=2, dp=2, gpus_per_machine=1)
        plan = self.plan(cfg, cfg)
        # each target pulls from exactly its mirror source rank
        for t in RankTopology(cfg).iter_ranks():
            transfers = plan.transfers_to(t)
            assert len(transfers) == 1
            assert transfers[0].source_rank == t

    def test_dp_reduction_preserves_total_optimizer_bytes(self):
        """The dual-phase-replay case: same TP/PP, smaller DP."""
        src = ParallelismConfig(tp=2, pp=2, dp=8, gpus_per_machine=1)
        dst = ParallelismConfig(tp=2, pp=2, dp=2, gpus_per_machine=1)
        plan = self.plan(src, dst)
        opt_total = sum(t.optimizer_bytes for t in plan.transfers)
        assert opt_total == pytest.approx(self.OPT_B, rel=1e-6)

    def test_model_bytes_loaded_once_per_partition(self):
        src = ParallelismConfig(tp=2, pp=2, dp=4, gpus_per_machine=1)
        dst = ParallelismConfig(tp=4, pp=2, dp=2, gpus_per_machine=1)
        plan = self.plan(src, dst)
        model_total = sum(t.model_bytes for t in plan.transfers)
        # only target dp==0 ranks load weights -> exactly one model copy
        assert model_total == pytest.approx(self.MODEL_B, rel=1e-6)

    def test_tp_increase_fans_in_from_fewer_sources(self):
        src = ParallelismConfig(tp=1, pp=2, dp=2, gpus_per_machine=1)
        dst = ParallelismConfig(tp=4, pp=2, dp=2, gpus_per_machine=1)
        plan = self.plan(src, dst)
        dst_topo = RankTopology(dst)
        for t in dst_topo.iter_ranks():
            if dst_topo.coord_of(t).dp == 0:
                # a quarter-partition fits inside one source partition
                model_sources = [x for x in plan.transfers_to(t)
                                 if x.model_bytes > 0]
                assert len(model_sources) == 1

    def test_load_seconds_positive_and_bandwidth_scaled(self):
        src = ParallelismConfig(tp=2, pp=2, dp=4, gpus_per_machine=1)
        dst = ParallelismConfig(tp=2, pp=2, dp=2, gpus_per_machine=1)
        plan = self.plan(src, dst)
        fast = reshard_load_seconds(plan, per_rank_bandwidth_gbps=25.0)
        slow = reshard_load_seconds(plan, per_rank_bandwidth_gbps=5.0)
        assert slow == pytest.approx(5 * fast)
        with pytest.raises(ValueError):
            reshard_load_seconds(plan, per_rank_bandwidth_gbps=0)

    def test_negative_sizes_rejected(self):
        cfg = ParallelismConfig(tp=1, pp=1, dp=2, gpus_per_machine=1)
        with pytest.raises(ValueError):
            plan_reshard(cfg, cfg, -1, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(1, 2, 4), (2, 2, 2), (2, 4, 2), (4, 1, 4)]),
           st.sampled_from([(1, 2, 2), (2, 2, 4), (2, 1, 8), (1, 4, 2)]))
    def test_property_optimizer_coverage_complete(self, s, d):
        src = ParallelismConfig(tp=s[0], pp=s[1], dp=s[2],
                                gpus_per_machine=1)
        dst = ParallelismConfig(tp=d[0], pp=d[1], dp=d[2],
                                gpus_per_machine=1)
        plan = plan_reshard(src, dst, self.MODEL_B, self.OPT_B)
        # optimizer state is loaded exactly once in total
        opt_total = sum(t.optimizer_bytes for t in plan.transfers)
        assert opt_total == pytest.approx(self.OPT_B, rel=1e-4)
        # and every target rank receives its full optimizer share
        dst_topo = RankTopology(dst)
        share = self.OPT_B / dst_topo.world_size
        for t in dst_topo.iter_ranks():
            got = sum(x.optimizer_bytes for x in plan.transfers_to(t))
            assert got == pytest.approx(share, rel=1e-3)


class TestSelfChecks:
    def make_machine(self):
        return Cluster(ClusterSpec(num_machines=1,
                                   machines_per_switch=1)).machine(0)

    def test_healthy_machine_passes_full_battery(self):
        runner = SelfCheckRunner()
        result = runner.run(self.make_machine())
        assert result.passed
        assert result.failed_item is None
        assert result.duration_s == runner.full_duration()
        assert len(result.items_run) == len(default_check_battery())

    def test_short_circuits_on_first_failure(self):
        runner = SelfCheckRunner()
        machine = self.make_machine()
        machine.host.container_healthy = False   # first item
        result = runner.run(machine)
        assert not result.passed
        assert result.failed_item == "container_runtime"
        assert len(result.items_run) == 1
        assert result.duration_s < runner.full_duration()

    def test_detects_each_component_class(self):
        cases = [
            ("gpu_presence", lambda m: setattr(
                m.gpus[0], "available", False)),
            ("hbm_row_remaps", lambda m: setattr(
                m.gpus[0], "pending_row_remaps", 20)),
            ("pcie_bandwidth", lambda m: setattr(
                m.gpus[0], "pcie_bandwidth_frac", 0.3)),
            ("nic_link_state", lambda m: setattr(
                m.nics[0], "up", False)),
            ("kernel_health", lambda m: setattr(
                m.host, "kernel_panic", True)),
        ]
        for expected_item, break_it in cases:
            machine = self.make_machine()
            break_it(machine)
            result = SelfCheckRunner().run(machine)
            assert not result.passed
            assert result.failed_item == expected_item

    def test_sdc_passes_self_checks(self):
        """SDC is invisible to the battery — that is the paper's whole
        problem statement for Sec. 9."""
        machine = self.make_machine()
        machine.gpus[0].sdc_defective = True
        assert SelfCheckRunner().run(machine).passed

    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError):
            SelfCheckRunner(battery=[])

    def test_pool_admits_only_self_checked_standbys(self):
        sim = Simulator()
        cluster = Cluster(ClusterSpec(num_machines=4,
                                      machines_per_switch=4))
        pool = MachinePool(sim, cluster)
        ids = pool.provision_standbys(2)
        cluster.machine(ids[0]).gpus[0].available = False
        sim.run(until=400)
        # the passing machine is a standby; the failing one went to
        # repair instead
        assert ids[1] in pool.standby
        assert ids[0] not in pool.standby
        assert ids[0] in pool.repairing
        assert pool.standby_count == 1


#: the view-based battery the column predicates replaced, in order
VIEW_BATTERY = [
    ("container_runtime", lambda m: m.host.container_healthy),
    ("filesystem_mounts", lambda m: m.host.fs_mounted
     and not m.host.disk_faulty
     and m.host.disk_free_gb > m.host.DISK_MIN_FREE_GB),
    ("kernel_health", lambda m: not m.host.kernel_panic),
    ("gpu_presence", lambda m: all(g.available for g in m.gpus)),
    ("dcgm_status", lambda m: all(g.dcgm_healthy and not g.driver_hung
                                  for g in m.gpus)),
    ("hbm_row_remaps", lambda m: all(not g.hbm_faulty
                                     and g.pending_row_remaps < 8
                                     for g in m.gpus)),
    ("gpu_thermals", lambda m: all(not g.overheating for g in m.gpus)),
    ("pcie_bandwidth", lambda m: all(g.pcie_bandwidth_frac >= 0.8
                                     for g in m.gpus)),
    ("nic_link_state", lambda m: all(n.up and not n.flapping
                                     for n in m.nics)),
    ("nic_loopback", lambda m: all(n.packet_loss_rate
                                   < n.FLAP_LOSS_THRESHOLD
                                   for n in m.nics)),
]

#: each battery threshold, written exactly and on either side of it
EDGES = {"temperature_c": 88.0, "pcie_bandwidth_frac": 0.8,
         "pending_row_remaps": 8, "packet_loss_rate": 0.01,
         "disk_free_gb": 5.0}


def field_values(name, default):
    if isinstance(default, bool):
        return st.booleans()
    edge = EDGES.get(name, default)
    if isinstance(default, int):
        return st.sampled_from([edge - 1, edge, edge + 1]) | st.integers(0, 64)
    return (st.sampled_from([edge, math.nextafter(edge, -math.inf),
                             math.nextafter(edge, math.inf), math.nan])
            | st.floats(-1.0, 600.0))


#: one write: (view kind, field, component index, value)
WRITES = st.lists(st.one_of(*[
    st.tuples(st.just(kind), st.just(name), st.integers(0, 7),
              field_values(name, default))
    for kind in (Gpu, Nic, HostState)
    for name, default in kind.FIELDS.items()]), max_size=6)


class TestSelfCheckColumns:
    @settings(max_examples=300, deadline=None)
    @given(WRITES)
    def test_column_battery_matches_view_battery(self, writes):
        machine = Cluster(ClusterSpec(num_machines=2,
                                      machines_per_switch=1)).machine(1)
        for kind, name, index, value in writes:
            view = (machine.host if kind is HostState
                    else (machine.gpus if kind is Gpu
                          else machine.nics)[index])
            setattr(view, name, value)
        items_run, failed = [], None
        for name, passes in VIEW_BATTERY:
            items_run.append(name)
            if not passes(machine):
                failed = name
                break
        result = SelfCheckRunner().run(machine)
        assert result.passed is (failed is None)
        assert result.failed_item == failed
        assert result.items_run == items_run
