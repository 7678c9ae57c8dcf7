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
currently usable candidates, deterministically (sorted ids, sorted
switch ids), so sweeps stay reproducible at any worker count.  The
scoring primitive is the *switch span* — how many distinct leaf
switches a machine set touches — and :func:`intra_job_switch_spans`
extends it to per-parallel-group spans by reusing
:class:`~repro.parallelism.topology.RankTopology`'s cached
machine-span queries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Type

from repro.cluster.topology import Cluster


class PlacementError(ValueError):
    """Unknown policy name or an unsatisfiable selection."""


def switch_span(cluster: Cluster, machine_ids: Iterable[int]) -> int:
    """Number of distinct leaf switches a machine set touches
    (re-exported convenience for :meth:`Cluster.switch_span`)."""
    return cluster.switch_span(machine_ids)


def machines_by_switch(cluster: Cluster, machine_ids: Iterable[int]
                       ) -> Dict[int, List[int]]:
    """switch_id -> sorted machine ids, for the given machines only."""
    groups: Dict[int, List[int]] = {}
    for mid in sorted(machine_ids):
        groups.setdefault(cluster.machine(mid).switch_id, []).append(mid)
    return groups


def intra_job_switch_spans(cluster: Cluster, topology,
                           machine_ids: Sequence[int]
                           ) -> Dict[str, float]:
    """Mean leaf-switch span of each parallel-group dimension.

    ``topology`` is the job's
    :class:`~repro.parallelism.topology.RankTopology`;
    ``machine_ids`` is its slot -> cluster-machine binding (the order
    machines were allocated in).  Group membership is static, so the
    slot spans come from the topology's cached
    :meth:`~repro.parallelism.topology.RankTopology.machines_of_group`
    queries; only the slot -> switch mapping is recomputed here.

    A tp span of 1.0 means every tensor-parallel group lives under a
    single switch (all intra-group traffic stays leaf-local); a dp
    span equal to the job's total switch span means gradient
    all-reduces cross every switch the job touches.
    """
    spans: Dict[str, float] = {}
    for dim in ("tp", "pp", "dp"):
        per_group: List[int] = []
        for group in topology.groups(dim):
            slots = topology.machines_of_group(group[0], dim)
            per_group.append(switch_span(
                cluster, (machine_ids[s] for s in slots)))
        spans[dim] = sum(per_group) / len(per_group)
    return spans


class PlacementPolicy:
    """Chooses which free machines an allocation gets.

    ``select`` receives the usable candidates (sorted ascending, FREE
    and not blacklisted) and must return exactly ``count`` of them as
    a sorted list.  Policies never mutate pool state — the pool
    executes the choice.
    """

    name = "base"

    def select(self, cluster: Cluster, candidates: Sequence[int],
               count: int) -> List[int]:
        raise NotImplementedError

    def score(self, cluster: Cluster, machine_ids: Iterable[int]) -> int:
        """Lower = more packed: the allocation's switch span."""
        return switch_span(cluster, machine_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class AnyFreePolicy(PlacementPolicy):
    """Baseline: lowest free machine ids first (the pre-placement
    pool behaviour, pinned byte-identical by the equivalence suite)."""

    name = "any-free"

    def select(self, cluster: Cluster, candidates: Sequence[int],
               count: int) -> List[int]:
        return list(candidates[:count])


class PackPolicy(PlacementPolicy):
    """Minimize switch span: fill the emptiest-first switches whole.

    Switches are taken in order of descending free-candidate count
    (switch id breaks ties), so an allocation that fits under one
    switch lands on a single switch, and larger ones touch as few
    switches as the current free pool allows.

    At fleet scale the grouping comes from one numpy pass over the
    cluster's static machine->switch array instead of a Python dict
    build per allocation; the selection is identical (the substrate
    equivalence suite pins scalar == vectorized).
    """

    name = "pack"

    def select(self, cluster: Cluster, candidates: Sequence[int],
               count: int) -> List[int]:
        from repro.cluster.health_index import use_vectorized
        if use_vectorized(len(candidates)):
            return self._select_vectorized(cluster, candidates, count)
        groups = machines_by_switch(cluster, candidates)
        order = sorted(groups, key=lambda sw: (-len(groups[sw]), sw))
        chosen: List[int] = []
        for sw in order:
            take = min(count - len(chosen), len(groups[sw]))
            chosen.extend(groups[sw][:take])
            if len(chosen) == count:
                break
        return sorted(chosen)

    @staticmethod
    def _select_vectorized(cluster: Cluster, candidates: Sequence[int],
                           count: int) -> List[int]:
        import numpy as np
        cand = np.sort(np.fromiter(candidates, dtype=np.intp,
                                   count=len(candidates)))
        sw = cluster.store.machine_switch[cand]
        # stable sort by switch keeps each group's machines in
        # ascending-id order, exactly like the dict-of-sorted-lists
        by_switch = np.argsort(sw, kind="stable")
        uniq, starts, counts = np.unique(sw[by_switch],
                                         return_index=True,
                                         return_counts=True)
        # descending group size, switch id breaking ties (lexsort's
        # last key is primary)
        order = np.lexsort((uniq, -counts))
        chosen: List[np.ndarray] = []
        left = count
        for gi in order:
            take = min(left, int(counts[gi]))
            start = int(starts[gi])
            chosen.append(cand[by_switch[start:start + take]])
            left -= take
            if left == 0:
                break
        return np.sort(np.concatenate(chosen)).tolist()


class SpreadPolicy(PlacementPolicy):
    """Maximize switch span: stripe one machine per switch per round.

    Round-robin over switches in id order, taking the lowest free
    machine from each, so the allocation touches as many distinct
    switches as the free pool offers before doubling up anywhere.
    """

    name = "spread"

    def select(self, cluster: Cluster, candidates: Sequence[int],
               count: int) -> List[int]:
        groups = machines_by_switch(cluster, candidates)
        queues = [groups[sw] for sw in sorted(groups)]
        chosen: List[int] = []
        while len(chosen) < count:
            progressed = False
            for queue in queues:
                if queue and len(chosen) < count:
                    chosen.append(queue.pop(0))
                    progressed = True
            if not progressed:  # pragma: no cover - guarded by caller
                break
        return sorted(chosen)


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
