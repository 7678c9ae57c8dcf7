"""On-demand stack-trace capture (py-spy / flight-recorder stand-in).

When the controller triggers aggregation analysis, each pod's tracer
captures the stacks of every training-related process and ships them to
the runtime analyzer.  The reproduction derives per-rank stack states
from the job's hang-propagation model, then renders one trace per
trainer process (plus steady-state traces for dataloader / checkpoint
subprocesses, which occasionally *are* the outlier — e.g. a wedged
dataloader).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.agent.process_tree import (
    ProcessNode,
    build_pod_process_tree,
    training_processes,
)
from repro.sim import Simulator
from repro.training.job import JobState, TrainingJob
from repro.training.stacks import (
    StackKind,
    StackTrace,
    make_trace,
    propagate_hang,
)


@dataclass
class TraceCapture:
    """One aggregation round's worth of captured stacks."""

    time: float
    traces: List[StackTrace] = field(default_factory=list)
    process_trees: Dict[int, ProcessNode] = field(default_factory=dict)


class OnDemandTracer:
    """Captures stacks from all pods of a job on request."""

    #: Capture latency: signalling every pod + py-spy dump + upload.
    CAPTURE_LATENCY_S = 5.0

    def __init__(self, sim: Simulator, job: TrainingJob):
        from repro.agent.flight_recorder import FlightRecorder
        self.sim = sim
        self.job = job
        #: NCCL flight recorder (Sec. 7): collective launch history used
        #: to corroborate stack-based hang isolation
        self.flight_recorder = FlightRecorder(job.topology)

    def capture(self) -> TraceCapture:
        """Capture stacks from every training-related process now."""
        job = self.job
        states = self._rank_states()
        # snapshot the flight recorder alongside the stacks: a healthy
        # step for running jobs, a truncated one for hung jobs, with
        # the stalled ranks' slot-space ranks marked incomplete
        if job.state is JobState.HUNG and job.stalled_ranks:
            self.flight_recorder.record_step(
                self.sim.now, stalled_ranks=job.stalled_ranks)
        elif job.state is JobState.RUNNING:
            self.flight_recorder.record_step(self.sim.now)
        capture = TraceCapture(time=self.sim.now)
        for slot in range(job.num_machines):
            machine_id = job.slot_to_machine[slot]
            ranks = job.topology.ranks_on_machine(slot)
            tree = build_pod_process_tree(machine_id, ranks)
            capture.process_trees[machine_id] = tree
            for proc in training_processes(tree):
                assert proc.rank is not None
                kind = self._process_kind(proc.role, states[proc.rank])
                capture.traces.append(StackTrace(
                    rank=proc.rank, machine_id=machine_id,
                    process_name=proc.name, kind=kind,
                    frames=make_trace(proc.rank, machine_id, kind).frames))
        return capture

    # ------------------------------------------------------------------
    def _rank_states(self) -> Dict[int, StackKind]:
        job = self.job
        if job.state is JobState.HUNG and job.stalled_ranks:
            return propagate_hang(job.topology, job.stalled_ranks,
                                  job.hang_scenario)
        if job.state is JobState.RUNNING:
            if job.slow_machines:
                # fail-slow capture: the degraded ranks are still deep in
                # compute while everyone else waits at gradient sync
                slow_ranks = {r for m in job.slow_machines
                              for r in job.ranks_of_machine(m)}
                return {r: (StackKind.BACKWARD_COMPUTE if r in slow_ranks
                            else StackKind.GRAD_SYNC_WAIT)
                        for r in job.topology.iter_ranks()}
            # mid-step: every rank shows ordinary compute frames
            return {r: StackKind.BACKWARD_COMPUTE
                    for r in job.topology.iter_ranks()}
        return {r: StackKind.IDLE for r in job.topology.iter_ranks()}

    @staticmethod
    def _process_kind(role: str, trainer_kind: StackKind) -> StackKind:
        """Stack kind for a process given its trainer rank's state."""
        if role == "trainer":
            return trainer_kind
        if role == "dataloader":
            # waiting on the pipe is a dataloader's steady state, so all
            # dataloader stacks land in one (healthy) aggregation group
            return StackKind.DATALOADER_WAIT
        if role == "ckpt":
            return (StackKind.CKPT_D2H
                    if trainer_kind is StackKind.CKPT_D2H
                    else StackKind.IDLE)
        return StackKind.IDLE
