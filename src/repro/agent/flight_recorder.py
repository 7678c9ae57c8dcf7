"""Flight recorder: a ring buffer of recent collective operations.

The paper's runtime analyzer combines py-spy stacks with PyTorch's
flight recorder when diagnosing NCCL timeouts (Sec. 7).  The recorder
keeps, per rank, the last N collective launches with their sequence
numbers; when a collective hangs, comparing per-rank sequence numbers
within each communication group exposes *which group* is stuck and
which ranks never joined (the laggards) — complementary evidence to
stack aggregation.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.parallelism import RankTopology


class CollectiveOp(enum.Enum):
    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    SEND = "send"
    RECV = "recv"
    ALL_TO_ALL = "all_to_all"
    BARRIER = "barrier"


@dataclass(frozen=True)
class CollectiveRecord:
    """One collective launch recorded on one rank."""

    seq: int
    op: CollectiveOp
    group_dim: str            # "tp" | "pp" | "dp" | "ep"
    group_index: int
    time: float
    completed: bool = True


class FlightRecorder:
    """Per-rank ring buffers of recent collectives.

    A rank's buffer and sequence counter are created on its first
    :meth:`record`: most jobs never capture a trace, so a recorder that
    was never written holds nothing per rank.
    """

    def __init__(self, topology: RankTopology, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.topology = topology
        self.capacity = capacity
        self._buffers: Dict[int, Deque[CollectiveRecord]] = {}
        #: rank -> sequence number of its next collective
        self._seq: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def record(self, rank: int, op: CollectiveOp, group_dim: str,
               time: float, completed: bool = True) -> CollectiveRecord:
        """Record a collective launch on ``rank``."""
        buf = self._buffers.get(rank)
        if buf is None:
            if rank not in range(self.topology.world_size):
                raise ValueError(f"unknown rank {rank}")
            buf = self._buffers[rank] = deque(maxlen=self.capacity)
        seq = self._seq.get(rank, 0)
        self._seq[rank] = seq + 1
        rec = CollectiveRecord(
            seq=seq, op=op, group_dim=group_dim,
            group_index=self.topology.group_index_of(rank, group_dim),
            time=time, completed=completed)
        buf.append(rec)
        return rec

    def record_step(self, time: float,
                    stalled_ranks: Sequence[int] = ()) -> None:
        """Record one training step's canonical collective sequence.

        Healthy ranks complete the full TP all-gather → PP send/recv →
        DP reduce-scatter sequence; stalled ranks stop mid-way with an
        incomplete TP all-gather — what a real flight recorder shows
        for a backward-communication hang (Fig. 7's stalled stack).
        """
        stalled = set(stalled_ranks)
        for rank in self.topology.iter_ranks():
            self.record(rank, CollectiveOp.ALL_GATHER, "tp", time)
            if rank in stalled:
                self.record(rank, CollectiveOp.ALL_GATHER, "tp",
                            time, completed=False)
                continue
            if self.topology.group_size("pp") > 1:
                self.record(rank, CollectiveOp.SEND, "pp", time)
                self.record(rank, CollectiveOp.RECV, "pp", time)
            self.record(rank, CollectiveOp.REDUCE_SCATTER, "dp", time)

    # ------------------------------------------------------------------
    def last_record(self, rank: int) -> Optional[CollectiveRecord]:
        buf = self._buffers.get(rank)
        return buf[-1] if buf else None

    def last_seq(self, rank: int) -> int:
        return self._seq.get(rank, 0) - 1

    def dump(self, rank: int) -> List[CollectiveRecord]:
        return list(self._buffers.get(rank, ()))

    # ------------------------------------------------------------------
    # hang analysis
    # ------------------------------------------------------------------
    def laggards(self) -> List[int]:
        """Ranks strictly behind their every-group peers in sequence.

        For each parallel group, a collective only completes when all
        members join; a rank whose last sequence number trails its
        group's maximum never issued the next collective — it (or its
        machine) is where the hang originates.
        """
        behind: set = set()
        for dim in ("tp", "pp", "dp"):
            if self.topology.group_size(dim) <= 1:
                continue
            for group in self.topology.groups(dim):
                seqs = {r: self.last_seq(r) for r in group}
                top = max(seqs.values())
                behind.update(r for r, s in seqs.items() if s < top)
        return sorted(behind)

    def incomplete_ranks(self) -> List[int]:
        """Ranks whose most recent collective never completed."""
        out = []
        for rank in self.topology.iter_ranks():
            last = self.last_record(rank)
            if last is not None and not last.completed:
                out.append(rank)
        return sorted(out)

    def stuck_groups(self) -> List[Tuple[str, int]]:
        """(dim, group_index) pairs containing an incomplete collective."""
        stuck = set()
        for rank in self.incomplete_ranks():
            last = self.last_record(rank)
            assert last is not None
            stuck.add((last.group_dim, last.group_index))
        return sorted(stuck)

    def suspect_machines(self) -> List[int]:
        """Machine slots hosting laggard or incomplete ranks."""
        ranks = set(self.laggards()) | set(self.incomplete_ranks())
        return self.topology.machines_of_ranks(sorted(ranks))
