"""Topology-aware placement: where a job's machines land matters.

A down leaf switch takes out every attached machine at once — the
paper's inspection rules special-case switch events (two consecutive
unresponsive sweeps before alerting, Table 3) precisely because the
blast radius is a whole machine block.  Placement therefore trades off
two failure-domain shapes:

* **pack** — concentrate a job on as few leaf switches as possible.
  A random switch fault then hits few jobs (small fleet-wide blast
  radius) and intra-job collectives mostly stay under one switch
  (cheap traffic), but the packed job loses many machines when *its*
  switch goes down.
* **spread** — stripe a job across as many switches as possible.  No
  single switch can take out a large fraction of the job, but every
  switch now carries a slice of many jobs, so one switch fault
  disturbs many of them at once.
* **any-free** — the scheduler's original behaviour (lowest free
  machine ids first), kept as the baseline: byte-identical allocations
  to the pre-placement pool, which the sim-equivalence suite pins.

Policies are mechanism-only: they pick ``count`` machines out of the
pool's :class:`UsableIndex` (the usable machines grouped by leaf
switch), deterministically (ascending ids, switch ids breaking ties),
so sweeps stay reproducible at any worker count.  Each reads only the
switches it takes from, so a pick costs in proportion to the request,
not to the free pool.  The scoring primitive is the *switch span* —
how many distinct leaf switches a machine set touches
(:meth:`~repro.cluster.topology.Cluster.switch_span`).
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Dict, Iterable, List, Set, Type

from repro.cluster.topology import Cluster


class PlacementError(ValueError):
    """Unknown policy name or an unsatisfiable selection."""


class UsableIndex:
    """Usable machines (FREE and not blacklisted) by leaf switch.

    A cluster's switches are contiguous id ranges (``id //
    machines_per_switch``).  ``groups[sw]`` is the set of switch
    ``sw``'s usable ids, ``buckets[c]`` the set of switches with
    exactly ``c`` of them, and ``size`` their total.  The
    :class:`~repro.cluster.pool.MachinePool` keeps its index in step
    with every write to ``free``/``blacklist``; policies only read it.
    """

    def __init__(self, cluster: Cluster, machine_ids: Iterable[int]):
        self.per = per = cluster.spec.machines_per_switch
        self.groups: List[Set[int]] = [set() for _ in cluster.switches]
        for mid in machine_ids:
            self.groups[mid // per].add(mid)
        self.buckets: List[Set[int]] = [set() for _ in range(per + 1)]
        for sw, group in enumerate(self.groups):
            self.buckets[len(group)].add(sw)
        self.size = sum(map(len, self.groups))

    def update(self, machine_ids: Iterable[int], free: AbstractSet[int],
               blocked: AbstractSet[int]) -> None:
        """Re-derive the machines' membership from the pool's ``free``
        and ``blacklist``; buckets move once per switch touched."""
        groups, per = self.groups, self.per
        before: Dict[int, int] = {}
        for mid in machine_ids:
            sw = mid // per
            group = groups[sw]
            if sw not in before:
                before[sw] = len(group)
            if mid in free and mid not in blocked:
                group.add(mid)
            else:
                group.discard(mid)
        for sw, old in before.items():
            new = len(groups[sw])
            if new != old:
                self.buckets[old].discard(sw)
                self.buckets[new].add(sw)
                self.size += new - old


def lowest_ids(index: UsableIndex, count: int) -> List[int]:
    """The ``count`` lowest usable ids (all of them if fewer): switches
    in id order, each one's lowest ids."""
    chosen: List[int] = []
    for group in index.groups:
        if len(chosen) >= count:
            break
        if group:
            chosen += sorted(group)[:count - len(chosen)]
    return chosen


class PlacementPolicy:
    """Chooses which free machines an allocation gets.

    ``select`` receives the pool's :class:`UsableIndex` and must return
    exactly ``count`` (at most ``index.size``) of its machines as a
    sorted list.  Policies never mutate the index — the pool executes
    the choice.
    """

    name = "base"

    def select(self, index: UsableIndex, count: int) -> List[int]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class AnyFreePolicy(PlacementPolicy):
    """Baseline: lowest free machine ids first (the pre-placement
    pool behaviour, pinned byte-identical by the equivalence suite)."""

    name = "any-free"

    def select(self, index: UsableIndex, count: int) -> List[int]:
        return lowest_ids(index, count)


class PackPolicy(PlacementPolicy):
    """Minimize switch span: fill the emptiest-first switches whole.

    Switches are taken in order of descending usable count (switch id
    breaks ties), so an allocation that fits under one switch lands on
    a single switch, and larger ones touch as few switches as the
    current free pool allows.  The index's count buckets yield those
    switches without sorting the others.
    """

    name = "pack"

    def select(self, index: UsableIndex, count: int) -> List[int]:
        chosen: List[int] = []
        for size in range(index.per, 0, -1):
            left = count - len(chosen)
            if left <= 0:
                break
            # ceil(left / size) switches of this bucket fill the rest
            for sw in heapq.nsmallest(-(-left // size), index.buckets[size]):
                chosen += sorted(index.groups[sw])[:count - len(chosen)]
        return sorted(chosen)


class SpreadPolicy(PlacementPolicy):
    """Maximize switch span: stripe one machine per switch per round.

    Round-robin over switches in id order, taking the lowest free
    machine from each, so the allocation touches as many distinct
    switches as the free pool offers before doubling up anywhere.
    """

    name = "spread"

    def select(self, index: UsableIndex, count: int) -> List[int]:
        groups = [group for group in index.groups if group]
        rounds = taken = 0
        while taken < count and rounds < index.per:
            rounds += 1
            taken += sum(len(group) >= rounds for group in groups)
        queues = [heapq.nsmallest(rounds, group) for group in groups]
        chosen = [queue[r] for r in range(rounds)
                  for queue in queues if r < len(queue)]
        return sorted(chosen[:count])


PLACEMENT_POLICIES: Dict[str, Type[PlacementPolicy]] = {
    AnyFreePolicy.name: AnyFreePolicy,
    PackPolicy.name: PackPolicy,
    SpreadPolicy.name: SpreadPolicy,
}


def placement_policy_names() -> List[str]:
    return sorted(PLACEMENT_POLICIES)


def make_placement_policy(name: str) -> PlacementPolicy:
    """Instantiate a registered policy by name (the config-knob path)."""
    try:
        return PLACEMENT_POLICIES[name]()
    except KeyError:
        raise PlacementError(
            f"unknown placement policy {name!r} "
            f"(available: {', '.join(placement_policy_names())})"
        ) from None
