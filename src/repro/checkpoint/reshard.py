"""Load-time checkpoint resharding across parallelism configurations.

The paper leans on ByteCheckpoint for parallelism-agnostic checkpoints:
a job saved under one (TP, PP, DP/ZeRO) layout can resume under another
— which ByteRobust exercises every time dual-phase replay re-runs the
job with a reduced DP size, and whenever recovery changes machine
counts.

The model here treats the parameter space as the unit interval:

* TP x PP splits it into ``tp * pp`` equal **model partitions**
  (PP-major, matching layer-wise pipeline splits refined by TP);
* ZeRO-1 further splits each partition's optimizer state ``dp`` ways.

A reshard plan maps every *target* rank to the *source* ranks whose
saved ranges overlap its required range, with exact byte counts — the
data-movement bill for the resharded load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.parallelism import ParallelismConfig, RankTopology

Interval = Tuple[float, float]


def _model_interval(topo: RankTopology, rank: int) -> Interval:
    """The model-parameter range owned by ``rank`` (TP x PP split)."""
    coord = topo.coord_of(rank)
    cfg = topo.config
    n = cfg.pp * cfg.tp
    index = coord.pp * cfg.tp + coord.tp     # PP-major
    return (index / n, (index + 1) / n)


def _optimizer_interval(topo: RankTopology, rank: int) -> Interval:
    """The optimizer-state range owned by ``rank`` (ZeRO-1: the model
    partition further split across the DP group)."""
    lo, hi = _model_interval(topo, rank)
    coord = topo.coord_of(rank)
    dp = topo.config.dp
    width = (hi - lo) / dp
    return (lo + coord.dp * width, lo + (coord.dp + 1) * width)


def _overlap(a: Interval, b: Interval) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


@dataclass
class ReshardTransfer:
    """Bytes one target rank must pull from one source rank."""

    source_rank: int
    target_rank: int
    model_bytes: int
    optimizer_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.model_bytes + self.optimizer_bytes


@dataclass
class ReshardPlan:
    """Full source→target mapping for one reshard."""

    source: ParallelismConfig
    target: ParallelismConfig
    transfers: List[ReshardTransfer] = field(default_factory=list)

    def transfers_to(self, target_rank: int) -> List[ReshardTransfer]:
        return [t for t in self.transfers if t.target_rank == target_rank]

    def total_bytes(self) -> int:
        return sum(t.total_bytes for t in self.transfers)

    def bytes_into(self, target_rank: int) -> int:
        return sum(t.total_bytes for t in self.transfers_to(target_rank))


def plan_reshard(source: ParallelismConfig, target: ParallelismConfig,
                 model_total_bytes: int,
                 optimizer_total_bytes: int) -> ReshardPlan:
    """Compute the reshard plan between two parallelism layouts.

    ``model_total_bytes`` / ``optimizer_total_bytes`` are the *global*
    (unsharded) state sizes; per-rank byte counts follow from interval
    overlaps.  Model state is deduplicated within DP groups at save
    time, so only overlap in the (TP x PP) split matters for it.
    """
    if model_total_bytes < 0 or optimizer_total_bytes < 0:
        raise ValueError("state sizes must be non-negative")
    src = RankTopology(source)
    dst = RankTopology(target)
    plan = ReshardPlan(source=source, target=target)

    # precompute source intervals once
    src_model = {r: _model_interval(src, r) for r in src.iter_ranks()}
    src_opt = {r: _optimizer_interval(src, r) for r in src.iter_ranks()}
    # model state is replicated across the source DP group — the
    # canonical copy lives with dp == 0 (save-time deduplication)
    model_owners = [r for r in src.iter_ranks()
                    if src.coord_of(r).dp == 0]

    for t_rank in dst.iter_ranks():
        t_coord = dst.coord_of(t_rank)
        t_model = _model_interval(dst, t_rank)
        t_opt = _optimizer_interval(dst, t_rank)
        # like the save-time dedup, only target dp==0 ranks *load*
        # model weights; they broadcast within their DP group afterward
        load_model = t_coord.dp == 0
        per_source: Dict[int, List[int]] = {}
        if load_model:
            for s_rank in model_owners:
                frac = _overlap(src_model[s_rank], t_model)
                if frac > 1e-15:
                    nbytes = round(frac * model_total_bytes)
                    per_source.setdefault(s_rank, [0, 0])[0] += nbytes
        for s_rank in src.iter_ranks():
            frac = _overlap(src_opt[s_rank], t_opt)
            if frac > 1e-15:
                per_source.setdefault(s_rank, [0, 0])[1] += round(
                    frac * optimizer_total_bytes)
        for s_rank, (mb, ob) in sorted(per_source.items()):
            plan.transfers.append(ReshardTransfer(
                source_rank=s_rank, target_rank=t_rank,
                model_bytes=mb, optimizer_bytes=ob))
    return plan


def reshard_load_seconds(plan: ReshardPlan,
                         per_rank_bandwidth_gbps: float = 12.5) -> float:
    """Wall time of the resharded load: the slowest target rank's pull
    (all ranks pull in parallel over RDMA)."""
    if per_rank_bandwidth_gbps <= 0:
        raise ValueError("bandwidth must be positive")
    dst = RankTopology(plan.target)
    worst = max((plan.bytes_into(r) for r in dst.iter_ranks()),
                default=0)
    return worst / (per_rank_bandwidth_gbps * 1e9)
