"""The Diagnoser: log-guided hierarchical stop-time checks (Sec. 4.2).

Given a crash context (log signature + exit code), the diagnoser picks
a test sequence and runs it hierarchically — each stage only runs if
the previous one found nothing, exactly as the paper describes for NCCL
internal errors (EUD → intra-machine all-to-all → inter-machine
all-gather).  NaN incidents append the bit-wise alignment suite
(Sec. 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.cluster.topology import Cluster
from repro.diagnosis.suites import (
    BitwiseAlignmentTest,
    DiagnosticTest,
    EudTest,
    InterMachineAllGatherTest,
    IntraMachineAllToAllTest,
    TestReport,
)
from repro.sim import RngStreams

#: Log substrings that select the network-flavoured test sequence.
NCCL_SIGNATURES = ("NCCL", "nccl", "connection reset", "ib_", "RDMA",
                   "infiniband", "timed out")
#: Log substrings that select the GPU-flavoured sequence.
GPU_SIGNATURES = ("CUDA", "illegal memory access", "ECC", "Xid",
                  "device-side assert")


@dataclass
class DiagnosisReport:
    """What the stop-time checks concluded."""

    reports: List[TestReport] = field(default_factory=list)
    suspects: List[int] = field(default_factory=list)
    total_duration_s: float = 0.0

    @property
    def found_suspects(self) -> bool:
        return bool(self.suspects)

    @property
    def tests_run(self) -> List[str]:
        return [r.test_name for r in self.reports]


class Diagnoser:
    """Runs hierarchical stop-time test sequences."""

    def __init__(self, cluster: Cluster, rng: RngStreams,
                 use_real_minigpt: bool = False):
        self.cluster = cluster
        self.eud = EudTest(cluster, rng)
        self.intra = IntraMachineAllToAllTest(cluster, rng)
        self.inter = InterMachineAllGatherTest(cluster, rng)
        if use_real_minigpt:
            # execute the actual deterministic reference workload
            # instead of the recall-model stand-in (Sec. 9's MiniGPT)
            from repro.diagnosis.minigpt import MiniGptAlignmentTest
            self.bitwise = MiniGptAlignmentTest(cluster, rng)
        else:
            self.bitwise = BitwiseAlignmentTest(cluster, rng)

    # ------------------------------------------------------------------
    def sequence_for(self, log_message: str, nan: bool = False
                     ) -> List[DiagnosticTest]:
        """Pick the test hierarchy from the crash's log signature."""
        if nan:
            # Sec. 4.3: standard GPU + network tests, then bit-wise
            # alignment if everything passes.
            return [self.eud, self.intra, self.inter, self.bitwise]
        if any(sig in log_message for sig in NCCL_SIGNATURES):
            return [self.eud, self.intra, self.inter]
        if any(sig in log_message for sig in GPU_SIGNATURES):
            return [self.eud, self.intra]
        return [self.eud]

    def diagnose(self, machine_ids: Sequence[int],
                 log_message: str = "", nan: bool = False
                 ) -> DiagnosisReport:
        """Run the hierarchy; stop at the first stage that finds suspects."""
        report = DiagnosisReport()
        for test in self.sequence_for(log_message, nan=nan):
            result = test.run(machine_ids)
            report.reports.append(result)
            report.total_duration_s += result.duration_s
            if result.suspects:
                report.suspects = result.suspects
                break
        return report
