"""Unit tests for the cluster substrate: components, topology, faults, pool."""

import json
import tracemalloc

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    Fault,
    FaultInjector,
    FaultSymptom,
    MachinePool,
    MachineState,
    ProvisioningTimes,
    RootCause,
)
from repro.cluster.components import Machine, MachineSpec
from repro.cluster.faults import FaultCategory, JobEffect, RootCauseDetail
from repro.cluster.pool import InsufficientMachines
from repro.sim import Simulator


def make_cluster(n=8, per_switch=4):
    return Cluster(ClusterSpec(num_machines=n, machines_per_switch=per_switch))


class TestComponents:
    def test_new_machine_is_healthy(self):
        cluster = make_cluster()
        assert all(m.healthy() for m in cluster.machines)

    def test_gpu_overheating_unhealthy(self):
        m = make_cluster().machine(0)
        m.gpus[0].temperature_c = 95.0
        assert not m.healthy()
        assert m.gpus[0].overheating

    def test_row_remap_pressure_unhealthy(self):
        m = make_cluster().machine(0)
        m.gpus[0].pending_row_remaps = 20
        assert not m.gpus[0].healthy()

    def test_sdc_is_invisible_to_health_checks(self):
        m = make_cluster().machine(0)
        m.gpus[0].sdc_defective = True
        assert m.healthy()          # the whole point of SDC
        assert m.has_sdc_defect()

    def test_host_disk_pressure(self):
        m = make_cluster().machine(0)
        m.host.disk_free_gb = 1.0
        assert not m.host.healthy()

    def test_reset_health_restores(self):
        m = make_cluster().machine(0)
        m.gpus[0].available = False
        m.host.kernel_panic = True
        m.reset_health()
        assert m.healthy()

    def test_component_summary(self):
        m = make_cluster().machine(0)
        m.nics[0].up = False
        health = m.component_health()
        assert health == (True, True, False)
        assert not health.nics_ok and health.gpus_ok and health.host_ok

    def test_view_reads_are_exact_python_types(self):
        m = make_cluster().machine(3)
        for view in (m.gpus[2], m.nics[1], m.host):
            for name, default in type(view).FIELDS.items():
                value = getattr(view, name)
                assert type(value) is type(default), name
                assert value == default
                assert json.loads(json.dumps(value)) == value
                setattr(view, name, default)    # writes round-trip too
                assert type(getattr(view, name)) is type(default)
        g = m.gpus[0]
        assert type(g.available) is bool
        assert type(g.pending_row_remaps) is int
        assert type(g.temperature_c) is float
        g.pending_row_remaps += 16
        assert m.gpus[0].pending_row_remaps == 16
        assert json.dumps(m.gpus[0].xid_events) == "[]"

    def test_event_logs_persist_per_view_and_reset(self):
        cluster = make_cluster()
        m = cluster.machine(2)
        m.gpus[1].xid_events.append(79)
        m.host.dmesg_xids.append(119)
        assert m.gpus[1].xid_events == [79]
        assert cluster.machine(2).host.dmesg_xids == [119]
        assert m.gpus[0].xid_events == []
        assert cluster.machine(1).gpus[1].xid_events == []
        held = m.gpus[1]
        m.reset_health()
        assert m.gpus[1].xid_events == [] and held.xid_events == []
        assert m.host.dmesg_xids == []

    def test_standalone_machine_has_own_store(self):
        a, b = Machine(5), Machine(5)
        a.gpus[0].available = False
        assert not a.healthy() and b.healthy()
        assert a.gpus[0].index == 0 and len(a.nics) == 8
        a.reset_health()
        assert a.healthy()

    def test_cluster_build_memory_budget(self):
        """A 2000-machine cluster is columns plus thin machine shells:
        no per-component objects are built up front."""
        spec = ClusterSpec(num_machines=2000)
        tracemalloc.start()
        try:
            cluster = Cluster(spec)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cluster.machines) == 2000
        assert traced <= 3 * 2**20, f"{traced / 2**20:.1f} MiB"


class TestTopology:
    def test_machines_assigned_to_switches(self):
        cluster = make_cluster(n=8, per_switch=4)
        assert len(cluster.switches) == 2
        assert cluster.switch_of(0).id == 0
        assert cluster.switch_of(5).id == 1

    def test_uneven_switch_blocks(self):
        cluster = make_cluster(n=6, per_switch=4)
        assert len(cluster.switches) == 2
        assert len(cluster.machines_on_switch(1)) == 2

    def test_switch_down_breaks_reachability(self):
        cluster = make_cluster()
        cluster.switches[0].up = False
        assert not cluster.network_reachable(0)
        assert cluster.network_reachable(4)

    def test_all_nics_down_breaks_reachability(self):
        cluster = make_cluster()
        for nic in cluster.machine(0).nics:
            nic.up = False
        assert not cluster.network_reachable(0)

    def test_unhealthy_machines_includes_unreachable(self):
        cluster = make_cluster()
        cluster.switches[0].up = False
        assert cluster.unhealthy_machines() == [0, 1, 2, 3]

    def test_total_gpus(self):
        spec = ClusterSpec(num_machines=4,
                           machine_spec=MachineSpec(gpus_per_machine=16))
        assert Cluster(spec).total_gpus == 64

    def test_invalid_machine_id(self):
        with pytest.raises(ValueError):
            make_cluster().machine(99)


class TestFaultTaxonomy:
    def test_symptom_categories(self):
        assert FaultSymptom.CUDA_ERROR.category is FaultCategory.EXPLICIT
        assert FaultSymptom.JOB_HANG.category is FaultCategory.IMPLICIT
        assert (FaultSymptom.CODE_DATA_ADJUSTMENT.category
                is FaultCategory.MANUAL)

    def test_all_seventeen_symptoms_present(self):
        assert len(FaultSymptom) == 17

    def test_describe(self):
        f = Fault(symptom=FaultSymptom.GPU_UNAVAILABLE,
                  root_cause=RootCause.INFRASTRUCTURE,
                  detail=RootCauseDetail.GPU_LOST, machine_ids=[3])
        assert "gpu_unavailable" in f.describe()
        assert "machines=[3]" in f.describe()


class TestFaultInjector:
    def make(self):
        sim = Simulator()
        cluster = make_cluster()
        return sim, cluster, FaultInjector(sim, cluster)

    def test_gpu_lost_mutates_state(self):
        sim, cluster, inj = self.make()
        fault = inj.inject(Fault(
            symptom=FaultSymptom.GPU_UNAVAILABLE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_LOST, machine_ids=[2], gpu_index=1))
        gpu = cluster.machine(2).gpus[1]
        assert not gpu.available
        assert 79 in gpu.xid_events
        assert fault.active
        assert inj.faulty_machines() == [2]

    def test_switch_down_and_clear(self):
        sim, cluster, inj = self.make()
        fault = inj.inject(Fault(
            symptom=FaultSymptom.INFINIBAND_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.SWITCH_DOWN, switch_id=0))
        assert not cluster.switches[0].up
        inj.clear(fault)
        assert cluster.switches[0].up
        assert not fault.active

    def test_transient_fault_autorecovers(self):
        sim, cluster, inj = self.make()
        inj.inject(Fault(
            symptom=FaultSymptom.INFINIBAND_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.PORT_FLAPPING, machine_ids=[1],
            transient=True, auto_recover_after=60.0))
        assert cluster.machine(1).nics[0].flapping
        sim.run(until=61.0)
        assert not cluster.machine(1).nics[0].flapping
        assert not inj.active_faults

    def test_user_code_fault_leaves_hardware_alone(self):
        sim, cluster, inj = self.make()
        inj.inject(Fault(
            symptom=FaultSymptom.CUDA_ERROR, root_cause=RootCause.USER_CODE,
            detail=RootCauseDetail.KERNEL_IMPL_BUG, machine_ids=[0]))
        assert cluster.machine(0).healthy()
        assert inj.has_active_user_code_fault()
        assert inj.faulty_machines() == []   # user code, not the machine

    def test_sdc_sets_defect_and_reproduce_prob(self):
        sim, cluster, inj = self.make()
        inj.inject(Fault(
            symptom=FaultSymptom.NAN_VALUE,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_SDC, machine_ids=[5],
            reproduce_prob=0.7))
        gpu = cluster.machine(5).gpus[0]
        assert gpu.sdc_defective
        assert gpu.sdc_reproduce_prob == 0.7
        assert cluster.machine(5).healthy()   # invisible to inspection

    def test_listener_notified(self):
        sim, cluster, inj = self.make()
        events = []
        inj.add_listener(lambda ev, f: events.append((ev, f.symptom)))
        fault = inj.inject(Fault(
            symptom=FaultSymptom.DISK_FAULT,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.DISK_HW_FAULT, machine_ids=[0]))
        inj.clear(fault)
        assert events == [("inject", FaultSymptom.DISK_FAULT),
                          ("clear", FaultSymptom.DISK_FAULT)]

    def test_clear_machine_clears_all_its_faults(self):
        sim, cluster, inj = self.make()
        inj.inject(Fault(symptom=FaultSymptom.GPU_MEMORY_ERROR,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_HBM_FAULT,
                         machine_ids=[3]))
        inj.inject(Fault(symptom=FaultSymptom.CPU_OOM,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.HOST_RESOURCE_EXHAUSTION,
                         machine_ids=[3]))
        inj.clear_machine(3)
        assert not inj.active_faults
        assert cluster.machine(3).healthy()

    def test_cpu_oom_vs_disk_space_effects(self):
        sim, cluster, inj = self.make()
        inj.inject(Fault(symptom=FaultSymptom.CPU_OOM,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.HOST_RESOURCE_EXHAUSTION,
                         machine_ids=[0]))
        inj.inject(Fault(symptom=FaultSymptom.DISK_SPACE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.HOST_RESOURCE_EXHAUSTION,
                         machine_ids=[1]))
        assert cluster.machine(0).host.mem_used_frac >= 0.98
        assert cluster.machine(1).host.disk_free_gb <= 1.0

    def test_active_by_symptom(self):
        sim, cluster, inj = self.make()
        inj.inject(Fault(symptom=FaultSymptom.JOB_HANG,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.UFM_FAULT,
                         effect=JobEffect.HANG))
        assert len(inj.active_by_symptom(FaultSymptom.JOB_HANG)) == 1
        assert not inj.active_by_symptom(FaultSymptom.CUDA_ERROR)


class TestProvisioningTimes:
    def test_requeue_scales_with_machines(self):
        t = ProvisioningTimes()
        assert t.requeue_time(128) < t.requeue_time(256) < t.requeue_time(1024)

    def test_requeue_matches_table7_shape(self):
        """~454 s at 128 machines, ~105 s more per doubling."""
        t = ProvisioningTimes()
        r128, r1024 = t.requeue_time(128), t.requeue_time(1024)
        assert 400 <= r128 <= 520
        assert 700 <= r1024 <= 850

    def test_hot_update_much_cheaper_than_requeue(self):
        t = ProvisioningTimes()
        for n in (128, 256, 512, 1024):
            assert t.requeue_time(n) / t.hot_update_time(n) > 8

    def test_standby_wake_is_scale_free(self):
        t = ProvisioningTimes()
        assert t.standby_wake_time(1) == t.standby_wake_time(32)

    def test_ordering_standby_reschedule_requeue(self):
        t = ProvisioningTimes()
        assert (t.standby_wake_time(4) < t.reschedule_time(4)
                < t.requeue_time(1024))


class TestMachinePool:
    def make(self, n=8):
        sim = Simulator()
        cluster = make_cluster(n=n)
        return sim, cluster, MachinePool(sim, cluster)

    def test_allocate_active(self):
        sim, cluster, pool = self.make()
        ids = pool.allocate_active(4)
        assert len(ids) == 4
        assert all(cluster.machine(i).state is MachineState.ACTIVE
                   for i in ids)
        assert pool.counts()["free"] == 4

    def test_allocate_too_many_raises(self):
        sim, cluster, pool = self.make()
        with pytest.raises(InsufficientMachines):
            pool.allocate_active(9)

    def test_provision_standby_takes_time(self):
        sim, cluster, pool = self.make()
        pool.provision_standbys(2)
        assert pool.standby_count == 0
        sim.run(until=pool.times.pod_build_s + pool.times.self_check_s + 1)
        assert pool.standby_count == 2

    def test_unhealthy_machine_fails_selfcheck(self):
        sim, cluster, pool = self.make()
        ids = pool.provision_standbys(2)
        cluster.machine(ids[0]).host.kernel_panic = True
        sim.run(until=pool.times.pod_build_s + pool.times.self_check_s + 1)
        assert pool.standby_count == 1   # the sick one went to repair

    def test_take_standbys_activates(self):
        sim, cluster, pool = self.make()
        ids = pool.provision_standbys(2)
        sim.run(until=400)
        taken = pool.take_standbys(1)
        assert len(taken) == 1
        assert cluster.machine(taken[0]).state is MachineState.ACTIVE
        assert pool.standby_count == 1

    def test_take_more_standbys_than_available(self):
        sim, cluster, pool = self.make()
        pool.provision_standbys(1)
        sim.run(until=400)
        assert len(pool.take_standbys(5)) == 1

    def test_evict_blacklists_and_repairs(self):
        sim, cluster, pool = self.make()
        ids = pool.allocate_active(4)
        pool.evict([ids[0]])
        assert ids[0] in pool.blacklist
        assert cluster.machine(ids[0]).state is MachineState.BLACKLISTED
        sim.run(until=pool.times.repair_s + 1)
        assert ids[0] in pool.free
        assert ids[0] not in pool.blacklist
        assert cluster.machine(ids[0]).state is MachineState.FREE

    def test_evicted_machine_not_reallocated_while_blacklisted(self):
        sim, cluster, pool = self.make()
        ids = pool.allocate_active(4)
        pool.evict([ids[0]])
        new = pool.allocate_active(4)
        assert ids[0] not in new

    def test_standby_ready_callback(self):
        sim, cluster, pool = self.make()
        ready = []
        pool.on_standby_ready = ready.append
        pool.provision_standbys(2)
        sim.run(until=400)
        assert len(ready) == 2

    def test_standby_idle_time_accounted(self):
        sim, cluster, pool = self.make()
        pool.provision_standbys(1)
        sim.run(until=300)        # ready at 300
        sim.run(until=500)
        pool.take_standbys(1)
        assert pool.standby_idle_machine_seconds == pytest.approx(200.0)
