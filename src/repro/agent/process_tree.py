"""Pod process trees (Fig. 7 step 1: "Parse Process Tree").

Root causes can hide in subprocesses spawned by the main training
processes — data fetching, checkpointing — so the analyzer must know
the full tree, not just the torchrun children.  The tree below mirrors
the paper's example: ``launch.sh`` forks the robust daemon and spawns
the training worker (one process per rank) plus data-I/O workers; the
checkpoint engine runs its own helper process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional


@dataclass
class ProcessNode:
    """One process in a pod."""

    pid: int
    name: str
    #: Role tag used by the analyzer to pick training-related processes:
    #: "launcher" | "daemon" | "trainer" | "dataloader" | "ckpt".
    role: str
    rank: Optional[int] = None
    children: List["ProcessNode"] = field(default_factory=list)

    def walk(self) -> Iterator["ProcessNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ProcessNode {self.pid} {self.name} ({self.role})>"


#: Roles whose stacks the analyzer aggregates.  The robust daemon and
#: the launcher are infrastructure, not workload — their stacks would
#: only add noise.
TRAINING_ROLES = ("trainer", "dataloader", "ckpt")


def build_pod_process_tree(machine_id: int, ranks: List[int],
                           dataloaders_per_rank: int = 1,
                           with_ckpt_process: bool = True) -> ProcessNode:
    """Construct the canonical pod tree for a machine hosting ``ranks``.

    PIDs are synthesized deterministically from the machine id so trees
    are stable across captures.
    """
    base = 10_000 * (machine_id + 1)
    root = ProcessNode(pid=base, name="launch.sh", role="launcher")
    root.children.append(ProcessNode(
        pid=base + 1, name="robust-daemon", role="daemon"))
    torchrun = ProcessNode(pid=base + 2, name="torchrun", role="launcher")
    root.children.append(torchrun)
    next_pid = base + 10
    for rank in ranks:
        trainer = ProcessNode(pid=next_pid, name=f"trainer-rank{rank}",
                              role="trainer", rank=rank)
        next_pid += 1
        for w in range(dataloaders_per_rank):
            trainer.children.append(ProcessNode(
                pid=next_pid, name=f"dataloader-{rank}-{w}",
                role="dataloader", rank=rank))
            next_pid += 1
        if with_ckpt_process:
            trainer.children.append(ProcessNode(
                pid=next_pid, name=f"ckpt-worker-{rank}", role="ckpt",
                rank=rank))
            next_pid += 1
        torchrun.children.append(trainer)
    return root


def training_processes(root: ProcessNode) -> List[ProcessNode]:
    """All processes whose stacks matter for aggregation analysis."""
    return [node for node in root.walk() if node.role in TRAINING_ROLES]
