"""Topology-aware placement + elastic standby resizing.

Three layers under test:

* the placement policies themselves — pack minimizes leaf-switch span,
  spread maximizes it, any-free reproduces the historical
  lowest-ids-first choice byte for byte (the equivalence contract);
* the pool/platform routing — every allocation goes through the
  pool's policy, ``PlatformConfig(placement=...)`` selects it, and
  ``release_standbys`` (the elastic shrink primitive) keeps the idle
  accounting consistent;
* :class:`~repro.controller.standby.StandbyResizer` — grow/shrink
  toward a ratio or binomial target with a hysteresis deadband, on
  the simulator's coalesced tick path.
"""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    MachinePool,
    PlacementError,
    make_placement_policy,
    placement_policy_names,
)
from repro.cluster.placement import (
    AnyFreePolicy,
    PackPolicy,
    SpreadPolicy,
    UsableIndex,
)
from repro.controller.standby import (
    StandbyPolicy,
    StandbyResizeConfig,
    StandbyResizer,
)
from repro.core.platform import JobSpec, PlatformConfig, TrainingPlatform
from repro.sim import Simulator
from repro.workloads.fleet import fleet_job_config


def make_cluster(machines=16, per_switch=4):
    return Cluster(ClusterSpec(num_machines=machines,
                               machines_per_switch=per_switch))


def make_pool(machines=16, per_switch=4, placement=None):
    sim = Simulator()
    cluster = make_cluster(machines, per_switch)
    return sim, cluster, MachinePool(sim, cluster, placement=placement)


class TestPolicies:
    def test_any_free_takes_lowest_ids(self):
        cluster = make_cluster()
        chosen = AnyFreePolicy().select(UsableIndex(cluster, range(16)), 5)
        assert chosen == [0, 1, 2, 3, 4]

    def test_pack_fits_one_switch_when_possible(self):
        cluster = make_cluster()
        # switch 0 partially used: machines 1, 2 free; switch 2 empty
        candidates = [1, 2, 8, 9, 10, 11, 13]
        chosen = PackPolicy().select(UsableIndex(cluster, candidates), 4)
        assert chosen == [8, 9, 10, 11]
        assert cluster.switch_span(chosen) == 1

    def test_pack_minimizes_span_across_switches(self):
        cluster = make_cluster()
        candidates = list(range(16))
        chosen = PackPolicy().select(UsableIndex(cluster, candidates), 8)
        assert cluster.switch_span(chosen) == 2

    def test_spread_maximizes_span(self):
        cluster = make_cluster()
        chosen = SpreadPolicy().select(UsableIndex(cluster, range(16)), 4)
        # one machine per switch, lowest id from each
        assert chosen == [0, 4, 8, 12]
        assert cluster.switch_span(chosen) == 4

    def test_spread_wraps_after_each_round(self):
        cluster = make_cluster()
        chosen = SpreadPolicy().select(UsableIndex(cluster, range(16)), 6)
        assert chosen == [0, 1, 4, 5, 8, 12]
        assert cluster.switch_span(chosen) == 4

    def test_policies_return_sorted_counts(self):
        cluster = make_cluster()
        for name in placement_policy_names():
            chosen = make_placement_policy(name).select(
                UsableIndex(cluster, range(16)), 7)
            assert len(chosen) == 7
            assert chosen == sorted(chosen)

    def test_unknown_policy_rejected_with_candidates(self):
        with pytest.raises(PlacementError, match="any-free"):
            make_placement_policy("round-robin")

    def test_usable_index_groups_by_switch(self):
        cluster = make_cluster()
        index = UsableIndex(cluster, [9, 1, 8, 2])
        assert index.groups == [{1, 2}, set(), {8, 9}, set()]
        assert index.buckets == [{1, 3}, set(), {0, 2}, set(), set()]
        assert index.size == 4


class TestPoolRouting:
    def test_default_pool_policy_is_any_free(self):
        sim, cluster, pool = make_pool()
        assert pool.placement.name == "any-free"
        assert pool.allocate_active(3, "job") == [0, 1, 2]

    def test_pack_pool_allocates_single_switch(self):
        sim, cluster, pool = make_pool(placement=PackPolicy())
        pool.allocate_active(2, "job")      # takes the emptiest switch whole
        chosen = pool.allocate_active(4, "job")
        assert cluster.switch_span(chosen) == 1

    def test_spread_pool_allocates_across_switches(self):
        sim, cluster, pool = make_pool(placement=SpreadPolicy())
        chosen = pool.allocate_active(4, "job")
        assert cluster.switch_span(chosen) == 4

    def test_platform_config_selects_policy(self):
        platform = TrainingPlatform(
            total_machines=16,
            config=PlatformConfig(machines_per_switch=4,
                                  placement="spread"))
        platform.submit(JobSpec("a", fleet_job_config(4)))
        platform.start()
        machines = platform.jobs["a"].job.machines
        assert platform.cluster.switch_span(machines) == 4
        report = platform.fleet_report()
        assert report["placement"] == "spread"
        assert report["jobs"]["a"]["switch_span"] == 4

    def test_unknown_platform_placement_fails_fast(self):
        with pytest.raises(PlacementError):
            TrainingPlatform(total_machines=8,
                             config=PlatformConfig(placement="nope"))


class TestReleaseStandbys:
    def run_provision(self, pool, sim, count):
        pool.provision_standbys(count)
        sim.run(until=sim.now + pool.times.pod_build_s
                + pool.times.self_check_s + 1.0)

    def test_release_returns_standbys_to_free(self):
        sim, cluster, pool = make_pool()
        self.run_provision(pool, sim, 3)
        released = pool.release_standbys(2)
        # highest ids first, so the lowest-id standbys stay warm
        assert released == [1, 2]
        assert pool.standby == {0}
        for mid in released:
            assert mid in pool.free

    def test_release_accounts_idle_machine_seconds(self):
        sim, cluster, pool = make_pool()
        self.run_provision(pool, sim, 1)
        before = pool.standby_idle_machine_seconds
        sim.run(until=sim.now + 500.0)
        pool.release_standbys(1)
        assert pool.standby_idle_machine_seconds >= before + 500.0

    def test_release_caps_at_available_standbys(self):
        sim, cluster, pool = make_pool()
        self.run_provision(pool, sim, 2)
        assert len(pool.release_standbys(10)) == 2
        assert pool.release_standbys(1) == []

    def test_standby_supply_counts_provisioning(self):
        sim, cluster, pool = make_pool()
        pool.provision_standbys(2)
        assert pool.standby_supply == 2          # still building
        sim.run(until=pool.times.pod_build_s
                + pool.times.self_check_s + 1.0)
        assert pool.standby_supply == 2          # now ready


class TestStandbyResizer:
    def make(self, machines=16, ratio=0.25, hysteresis=1,
             interval=600.0, **kwargs):
        sim, cluster, pool = make_pool(machines=machines)
        resizer = StandbyResizer(
            sim, pool, sizing=StandbyPolicy(),
            config=StandbyResizeConfig(target_ratio=ratio,
                                       interval_s=interval,
                                       hysteresis=hysteresis,
                                       **kwargs))
        return sim, pool, resizer

    def test_grows_toward_ratio_target(self):
        sim, pool, resizer = self.make()
        pool.allocate_active(8, "job")                   # target = ceil(2.0)
        delta = resizer.resize_once()
        assert delta == 2
        assert pool.standby_supply == 2
        assert resizer.stats["grown"] == 2
        assert resizer.stats["last_target"] == 2

    def test_hysteresis_suppresses_small_gaps(self):
        sim, pool, resizer = self.make(ratio=0.25, hysteresis=1)
        pool.allocate_active(4, "job")                   # target 1, supply 0
        assert resizer.resize_once() == 0         # inside the deadband
        assert resizer.stats["resizes"] == 0

    def test_shrinks_when_active_fleet_contracts(self):
        sim, pool, resizer = self.make()
        active = pool.allocate_active(12, "job")         # target 3
        resizer.resize_once()
        sim.run(until=pool.times.pod_build_s
                + pool.times.self_check_s + 1.0)
        assert pool.standby_count == 3
        pool.release(active[4:])                  # active 4 -> target 1
        delta = resizer.resize_once()
        # outside the deadband the pool converges to the target
        # itself, not to the deadband's edge
        assert delta == -2
        assert resizer.stats["shrunk"] == 2
        assert pool.standby_count == 1

    def test_binomial_target_when_ratio_zero(self):
        sim, pool, resizer = self.make(ratio=0.0)
        pool.allocate_active(8, "job")
        assert resizer.target() == StandbyPolicy().standby_count(8)

    def test_max_standbys_caps_target(self):
        sim, pool, resizer = self.make(ratio=1.0, max_standbys=2)
        pool.allocate_active(8, "job")
        assert resizer.target() == 2

    def test_grow_capped_by_free_machines(self):
        sim, pool, resizer = self.make(machines=8, ratio=1.0,
                                       hysteresis=0)
        pool.allocate_active(6, "job")
        assert resizer.resize_once() == 2         # only 2 free left
        assert resizer.stats["grown"] == 2

    def test_periodic_tick_drives_resizing(self):
        sim, pool, resizer = self.make(interval=600.0)
        pool.allocate_active(8, "job")
        resizer.start()
        with pytest.raises(RuntimeError):
            resizer.start()
        sim.run(until=3601.0)
        assert resizer.stats["ticks"] == 6
        assert pool.standby_supply >= 2
        resizer.stop()
        sim.run(until=7200.0)
        assert resizer.stats["ticks"] == 6        # stopped: no more

    def test_report_is_json_safe(self):
        import json
        sim, pool, resizer = self.make()
        payload = resizer.report()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["enabled"] is True


class TestPlatformElasticStandby:
    def test_elastic_platform_reports_resizer(self):
        platform = TrainingPlatform(
            total_machines=16,
            config=PlatformConfig(standby_target=0.25,
                                  standby_resize_s=600.0,
                                  standby_hysteresis=0))
        platform.submit(JobSpec("a", fleet_job_config(8),
                                duration_s=4 * 3600.0))
        platform.start()
        platform.run_until(2 * 3600.0)
        report = platform.fleet_report()
        resizer = report["standby"]["resizer"]
        assert resizer["enabled"] is True
        assert resizer["ticks"] > 0
        assert resizer["last_target"] == 2        # ceil(0.25 * 8)
        assert report["standby"]["current"] >= 2

    def test_static_platform_keeps_historical_behavior(self):
        platform = TrainingPlatform(total_machines=16)
        platform.submit(JobSpec("a", fleet_job_config(8),
                                duration_s=4 * 3600.0))
        platform.start()
        platform.run_until(2 * 3600.0)
        report = platform.fleet_report()
        assert platform.resizer is None
        assert report["standby"]["resizer"] == {"enabled": False}
