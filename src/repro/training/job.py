"""The simulated training job: steps, faults, logs, and gauges.

A :class:`TrainingJob` runs one optimizer step after another on the
simulator.  Its step duration follows from the model's FLOPs and the
current MFU; the loss at step *s* is a pure function of *s* (see
:mod:`repro.training.metrics`).  Faults injected into the cluster reach
the job through a :class:`~repro.cluster.faults.FaultInjector` listener
and take effect according to the fault's
:class:`~repro.cluster.faults.JobEffect`:

* ``CRASH``  — the job fail-stops, emitting a log event carrying the
  fault's log signature and exit code (what the diagnoser later reads);
* ``HANG``   — the in-flight step never completes and log/metric output
  ceases: only gauges (RDMA traffic draining to zero) betray it;
* ``SLOW``   — an MFU degradation factor applies while the fault lives;
* ``NAN``    — subsequent steps emit NaN loss/grad-norm but keep running
  until somebody stops the job.

The controller talks to the job through ``suspend`` / ``restart``; the
checkpoint engine and monitor subscribe to step completions
(:meth:`TrainingJob.add_step_listener`), and the monitor's sleeping
polls and sweeps to ``change_listeners`` (state, MFU model, machine
binding and log appends).

Lazy segments
-------------

Between two disturbances a job's step durations, losses and grad norms
are pure functions of ``(seed, step)``, so the job does not pay a heap
event per step.  A :class:`SegmentListener` says at which step of a
:class:`StepSegment` it must first be called on time (the detector: a
NaN or a loss spike); the job schedules one entry at the earliest such
*acting* step, or else at the end of the current loss-noise block, and
commits every other step in bulk (:meth:`TrainingJob.materialize`)
when something reads ``current_step``/``step_runs`` or perturbs the
job.  A plain callable listener acts at every step: the per-step path
is the segment of length one.  End times are the same sequential
``t + d`` float additions a per-step chain makes; a plan folds them
once, in C (:func:`fold_ends`), and a commit bisects that fold.

Step history as runs
--------------------

A job keeps its steps as :class:`StepRun` objects, not one record per
step: a commit extends the last run or appends one, a rollback splits
the run it cuts, and ETTR and waste read the runs.  Waste sums
(:meth:`TrainingJob.step_seconds`) still add each step's
``end - start`` with the builtin ``sum`` in execution order, so they
keep their bytes under Python 3.12's compensated ``sum`` too.
``step_records`` expands the runs into records on each read.

A job holds at most one step chain: the entries of its latest
:meth:`~TrainingJob.start`.  A start supersedes the step in flight, so
a restart that runs inside a step's own listeners (an elastic resize,
or a preemption whose dispatch resumes the job) drops the firing chain
rather than leaving it stepping beside the new one.  Every heap entry
of one start carries the seq that start allocated
(:meth:`~repro.sim.Simulator.reschedule`); a read that lands exactly on
a step's end counts the step complete only when the chain's key sorts
before the running entry's (:attr:`~repro.sim.Simulator.current_key`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.cluster.faults import (
    Fault,
    FaultInjector,
    JobEffect,
)
from repro.parallelism import ParallelismConfig, RankTopology
from repro.sim import EventHandle, Simulator
from repro.training.metrics import (
    BLOCK_STEPS,
    LossCurve,
    MfuModel,
    StepMetrics,
)
from repro.training.model import ModelSpec
from repro.training.stacks import HangScenario


class JobState(enum.Enum):
    INIT = "init"
    RUNNING = "running"
    HUNG = "hung"
    CRASHED = "crashed"
    STOPPED = "stopped"     # suspended by the controller


@dataclass
class LogEvent:
    """One stdout/stderr line or process exit the monitor can read."""

    time: float
    level: str                  # "info" | "error"
    message: str
    exit_code: int = 0
    machine_ids: List[int] = field(default_factory=list)
    fault_id: Optional[int] = None


@dataclass
class StepRecord:
    """Execution record of one completed step (for ETTR accounting)."""

    step: int
    start: float
    end: float
    committed: bool = True      # flipped to False if rolled back


def fold_ends(end: float, duration: float, count: int) -> np.ndarray:
    """``count`` step ends from ``end``, each ``duration`` after the one
    before: the sequential ``t + d`` additions of a per-step chain
    (``np.add.accumulate`` adds left to right)."""
    ends = np.full(count, duration)
    ends[0] = end
    return np.add.accumulate(ends, out=ends)


@dataclass
class StepRun:
    """Steps ``first..last`` run back to back under one step time.

    The first step ran from ``start`` to ``first_end``; every later one
    ends ``duration`` after the one before, so :meth:`ends` gives each
    step's end bit for bit.  ``end`` is the last step's end.  A run
    handed to :meth:`SegmentListener.on_steps` is valid for that call.
    """

    first: int
    count: int
    start: float
    first_end: float
    duration: float
    end: float
    committed: bool = True      # flipped to False if rolled back

    @property
    def last(self) -> int:
        return self.first + self.count - 1

    @property
    def steps(self) -> range:
        return range(self.first, self.first + self.count)

    def ends(self) -> np.ndarray:
        return fold_ends(self.first_end, self.duration, self.count)

    def durations(self, after: int = 0) -> List[float]:
        """``end - start`` of each step past step ``after``."""
        spans = np.diff(self.ends(), prepend=self.start)
        return spans[max(0, after + 1 - self.first):].tolist()

    def records(self) -> List[StepRecord]:
        ends = self.ends().tolist()
        return [StepRecord(step, start, end, self.committed)
                for step, start, end in zip(self.steps,
                                            [self.start] + ends, ends)]

    def split(self, step: int) -> "StepRun":
        """Keep steps up to ``step``; return the rest as a new run."""
        ends = self.ends()
        keep = step + 1 - self.first
        rest = StepRun(step + 1, self.count - keep, float(ends[keep - 1]),
                       float(ends[keep]), self.duration, self.end,
                       self.committed)
        self.count = keep
        self.end = rest.start
        return rest


@dataclass
class TrainingJobConfig:
    model: ModelSpec
    parallelism: ParallelismConfig
    global_batch_size: int = 1024
    gpu_peak_tflops: float = 989.0
    loss_seed: int = 0
    #: Seconds of residual collective traffic after a hang starts
    #: (RDMA gauges only read zero once in-flight transfers drain).
    hang_drain_s: float = 20.0


class StepSegment:
    """Steps ``first..last`` of a job under one set of parameters.

    ``first`` is the step in flight when the segment was planned and
    ``last`` ends its loss-noise block.  Whatever changes a parameter
    commits the steps done so far and plans a new segment, so every
    step a listener receives in bulk ran under these values.
    """

    __slots__ = ("first", "last", "nan", "spike_factor", "mfu", "tokens",
                 "loss_curve")

    def __init__(self, first: int, last: int, nan: bool,
                 spike_factor: float, mfu: float, tokens: int,
                 loss_curve: LossCurve):
        self.first = first
        self.last = last
        self.nan = nan
        self.spike_factor = spike_factor
        self.mfu = mfu
        self.tokens = tokens
        self.loss_curve = loss_curve

    def loss(self, step: int) -> float:
        return self.loss_curve.loss(step, nan=self.nan,
                                    spike_factor=self.spike_factor)

    def metrics(self, step: int, start: float, end: float) -> StepMetrics:
        return StepMetrics(
            step=step, time=end, duration_s=end - start,
            loss=self.loss(step),
            grad_norm=self.loss_curve.grad_norm(
                step, nan=self.nan, spike_factor=self.spike_factor),
            mfu=self.mfu, tokens=self.tokens)


class SegmentListener:
    """A step listener that takes the steps it need not see on time in
    bulk.  Calling it delivers one acting step at its completion time;
    :meth:`on_steps` delivers the others when the job commits them."""

    def first_acting_step(self, segment: StepSegment) -> Optional[int]:
        """The first step of ``segment.first..segment.last`` this
        listener must be called for on time, or None."""
        return None

    def on_steps(self, segment: StepSegment, run: StepRun) -> None:
        """Consecutive non-acting steps of ``segment``, as one run."""

    def __call__(self, metrics: StepMetrics) -> None:
        raise NotImplementedError


StepListener = Callable[[StepMetrics], None]


def first_acting_step(listeners: Sequence[StepListener],
                      segment: StepSegment) -> Optional[int]:
    """The first step of ``segment`` at which one of ``listeners`` must
    act, or None: a plain callable acts at every step."""
    acting = None
    for listener in listeners:
        step = (listener.first_acting_step(segment)
                if isinstance(listener, SegmentListener) else segment.first)
        if step is not None and (acting is None or step < acting):
            acting = step
            if step == segment.first:
                break
    return acting


def deliver_steps(listener: StepListener, segment: StepSegment,
                  run: StepRun) -> None:
    """Hand the steps of ``run`` to ``listener`` in bulk."""
    if isinstance(listener, SegmentListener):
        listener.on_steps(segment, run)
    else:
        for record in run.records():
            listener(segment.metrics(record.step, record.start, record.end))


class _Chain:
    """The step entries of a job's latest :meth:`TrainingJob.start`.

    ``key`` is the seq that start allocated.  ``end`` is the completion
    time of the step in flight (None while a completed step's listeners
    run).  ``target`` is the time of the planned entry, if there is
    one; ``handles`` holds that entry and any entries a re-plan
    superseded, which fire as no-ops.
    """

    __slots__ = ("key", "end", "target", "handles", "first")

    def __init__(self, end: float, first: EventHandle):
        self.key = first.seq
        self.end: Optional[float] = end
        self.target = first.time
        self.handles: Dict[float, EventHandle] = {first.time: first}
        self.first = first


class TrainingJob:
    """One LLM training job bound to a set of physical machines."""

    def __init__(self, sim: Simulator, config: TrainingJobConfig,
                 injector: Optional[FaultInjector] = None,
                 mfu_model: Optional[MfuModel] = None):
        self.sim = sim
        self.config = config
        self.topology = RankTopology(config.parallelism)
        self.loss_curve = LossCurve(seed=config.loss_seed)
        #: called with no argument after every state transition, MFU
        #: model write, binding change and log append: what a sleeping
        #: poll or sweep of this job must wake for
        self.change_listeners: List[Callable[[], None]] = []
        self.mfu_model = mfu_model or MfuModel()
        self.mfu_model.before_change.append(self.materialize)
        self.mfu_model.listeners.append(self._mfu_changed)
        self._state = JobState.INIT
        #: logical machine slot -> physical machine id
        self.slot_to_machine: Dict[int, int] = {}
        self._machines_cache: Optional[List[int]] = None
        self._machine_to_slot: Optional[Dict[int, int]] = None
        self._switch_ids: Optional[FrozenSet[int]] = None
        self._committed = 0
        self._nan_active = False
        self._loss_spike_factor = 1.0
        self._runs: List[StepRun] = []
        self.log_events: List[LogEvent] = []
        self.hung_since: Optional[float] = None
        self.hang_scenario: HangScenario = HangScenario.BACKWARD_COMM
        self.stalled_ranks: List[int] = []
        #: Physical machines currently degraded by a SLOW fault.
        self.slow_machines: set = set()
        self.last_crash: Optional[LogEvent] = None
        self._step_listeners: List[StepListener] = []
        #: per-step extra blocking seconds (checkpoint stalls etc.); a
        #: segment fixes its step time when planned, so an answer may
        #: change only with an MFU write or while the job is stopped
        self.overhead_providers: List[Callable[[int], float]] = []
        #: the step chain of the latest start (None once the job stops)
        self._chain: Optional[_Chain] = None
        #: frozen parameters of a running job's lazy segment, the step
        #: time of every step after the in-flight ones, the ends of
        #: its steps up to one past the step the planned entry
        #: completes (an acting step or the last), and that step
        self._segment: Optional[StepSegment] = None
        self._duration = 0.0
        self._ends: Optional[np.ndarray] = None
        self._target_step = 0
        self._target_acts = False
        self._step_started_at = sim.now
        #: >0 while listeners run; planning waits until they return
        self._dispatching = 0
        self._injector = injector
        #: unsubscribes the job from the fault feed (teardown)
        self.leave_fault_feed: Callable[[], None] = lambda: None
        if injector is not None:
            self.leave_fault_feed = injector.add_listener(
                self._on_fault_event)

    # ------------------------------------------------------------------
    # change hook
    # ------------------------------------------------------------------
    @property
    def state(self) -> JobState:
        return self._state

    @state.setter
    def state(self, state: JobState) -> None:
        if state is not self._state:
            self._state = state
            self._changed()

    def _changed(self) -> None:
        for fn in self.change_listeners:
            fn()

    def _mfu_changed(self) -> None:
        self._plan()
        self._changed()

    # ------------------------------------------------------------------
    # materializing reads and step-parameter writes
    # ------------------------------------------------------------------
    @property
    def current_step(self) -> int:
        self.materialize()
        return self._committed

    @property
    def step_runs(self) -> List[StepRun]:
        """Executed steps as runs, in execution order (read only)."""
        self.materialize()
        return self._runs

    @property
    def step_records(self) -> List[StepRecord]:
        """One record per executed step, in execution order, expanded
        from :attr:`step_runs` on every read."""
        return [record for run in self.step_runs
                for record in run.records()]

    @property
    def nan_active(self) -> bool:
        return self._nan_active

    @nan_active.setter
    def nan_active(self, value: bool) -> None:
        self.materialize()
        self._nan_active = value
        self._plan()

    @property
    def loss_spike_factor(self) -> float:
        return self._loss_spike_factor

    @loss_spike_factor.setter
    def loss_spike_factor(self, value: float) -> None:
        self.materialize()
        self._loss_spike_factor = value
        self._plan()

    @property
    def step_listeners(self) -> tuple:
        """Subscribers to step completions, in call order."""
        return tuple(self._step_listeners)

    def add_step_listener(self, listener: StepListener) -> None:
        """Subscribe to completed steps: a plain callable is called
        with each step's :class:`StepMetrics` at its completion time; a
        :class:`SegmentListener` is called on time only from the step
        it names and gets the others in bulk."""
        self.materialize()
        self._step_listeners.append(listener)
        self._plan()

    def remove_step_listener(self, listener: StepListener) -> None:
        self.materialize()
        self._step_listeners.remove(listener)
        self._plan()

    def replan(self) -> None:
        """Re-plan after a segment listener's answer changed; commit
        first what the old answer let complete."""
        self.materialize()
        self._plan()

    # ------------------------------------------------------------------
    # machine binding
    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.topology.num_machines

    @property
    def machines(self) -> List[int]:
        """Physical machine ids by slot order.

        The list is rebuilt only after a binding change; monitor sweeps
        query it tens of thousands of times between changes, so they
        share one materialization (callers must not mutate it).
        """
        cached = self._machines_cache
        if cached is None:
            # slots are inserted in order and only ever reassigned, so
            # the mapping's values are already in slot order
            cached = list(self.slot_to_machine.values())
            self._machines_cache = cached
        return cached

    def _rebound(self) -> None:
        self._machines_cache = None
        self._machine_to_slot = None
        self._switch_ids = None
        self._plan()
        self._changed()

    def bind_machines(self, machine_ids: Sequence[int]) -> None:
        if len(machine_ids) != self.num_machines:
            raise ValueError(
                f"job needs {self.num_machines} machines, "
                f"got {len(machine_ids)}")
        self.materialize()
        self.slot_to_machine = dict(enumerate(machine_ids))
        self._rebound()

    def replace_machines(self, replacements: Dict[int, int]) -> None:
        """Swap physical machines into slots (phys_old -> phys_new)."""
        inverse = {phys: slot for slot, phys in self.slot_to_machine.items()}
        for old in replacements:
            if old not in inverse:
                raise ValueError(f"machine {old} is not part of this job")
        self.materialize()
        for old, new in replacements.items():
            self.slot_to_machine[inverse[old]] = new
        self._rebound()

    def rebind_parallelism(self, parallelism: ParallelismConfig,
                           machine_ids: Sequence[int]) -> None:
        """Elastic resize: adopt a new data-parallel layout and machine
        set in one move (checkpoint-boundary shrink/grow).

        The job must be suspended; callers restart it from the boundary
        step afterwards.  Step/log history survives — only the topology
        and the slot binding change.
        """
        if self.state is JobState.RUNNING:
            raise RuntimeError("suspend() before rebind_parallelism()")
        if len(machine_ids) != parallelism.num_machines:
            raise ValueError(
                f"layout needs {parallelism.num_machines} machines, "
                f"got {len(machine_ids)}")
        self.materialize()
        self.config.parallelism = parallelism
        self.topology = RankTopology(parallelism)
        self.slot_to_machine = dict(enumerate(machine_ids))
        self._rebound()

    def _slot_map(self) -> Dict[int, int]:
        # Fault blast-radius checks probe faults against this job, so
        # the lookup must be O(1); the inverse map is rebuilt only
        # after a binding change (first-wins, matching the scan it
        # replaced).
        inverse = self._machine_to_slot
        if inverse is None:
            inverse = {}
            for slot, phys in self.slot_to_machine.items():
                inverse.setdefault(phys, slot)
            self._machine_to_slot = inverse
        return inverse

    def slot_of_machine(self, machine_id: int) -> Optional[int]:
        return self._slot_map().get(machine_id)

    def ranks_of_machine(self, machine_id: int) -> List[int]:
        slot = self.slot_of_machine(machine_id)
        if slot is None:
            return []
        return self.topology.ranks_on_machine(slot)

    def uses_machine(self, machine_id: int) -> bool:
        return self.slot_of_machine(machine_id) is not None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, at_step: int = 0) -> None:
        if not self.slot_to_machine:
            raise RuntimeError("bind_machines() before start()")
        self.materialize()
        if self._chain is not None:
            # a restart supersedes the step in flight
            self._drop()
        self._committed = at_step
        self.state = JobState.RUNNING
        self._nan_active = any(
            f.effect is JobEffect.NAN for f in self._active_job_faults())
        now = self.sim.now
        self._step_started_at = now
        end = now + self.step_time()
        target = end
        if self._dispatching:
            # planned once the listeners return; nothing commits before
            self._segment = self._ends = None
        else:
            target = self._lazy_target(end)
        # the one seq this start allocates: every entry of the chain
        # carries it
        self._chain = _Chain(
            end, self.sim.schedule_at(target, self._complete_step))
        # A persistent fault that crashed or hung the job strikes again
        # shortly after any restart that failed to remove it — this is
        # what drives the reattempt → rollback → replay escalation.
        for fault in self._active_job_faults():
            if fault.effect in (JobEffect.CRASH, JobEffect.HANG):
                self.sim.schedule(
                    min(self.step_time() * 0.5, 30.0),
                    lambda fault=fault: self._reapply_if_running(fault))

    def suspend(self) -> None:
        """Controller stop: kill training processes, keep pod envs."""
        self._cancel_step()
        self.state = JobState.STOPPED
        self.hung_since = None
        self._plan()

    def restart(self, from_step: int,
                replacements: Optional[Dict[int, int]] = None) -> None:
        """Resume from a checkpointed step, optionally on new machines.

        Steps beyond ``from_step`` that were already executed become
        uncommitted (rolled back) — their wall time turns into waste.
        """
        if replacements:
            self.replace_machines(replacements)
        self.materialize()
        runs = self._runs
        for index in range(len(runs) - 1, -1, -1):
            run = runs[index]
            if run.committed and run.last > from_step:
                if run.first <= from_step:
                    run = run.split(from_step)
                    runs.insert(index + 1, run)
                run.committed = False
        self._nan_active = False
        self._loss_spike_factor = 1.0
        self.stalled_ranks = []
        self.hung_since = None
        self._recompute_degradations()
        self.start(at_step=from_step)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step_time(self) -> float:
        base = self.mfu_model.step_time(
            self.config.model.flops_per_step(self.config.global_batch_size),
            self.topology.world_size, self.config.gpu_peak_tflops)
        overhead = sum(p(self.current_step + 1)
                       for p in self.overhead_providers)
        return base + overhead

    def _segment_now(self, first: int) -> StepSegment:
        last = (first // BLOCK_STEPS + 1) * BLOCK_STEPS - 1
        return StepSegment(
            first, last, self._nan_active, self._loss_spike_factor,
            self.mfu_model.current_mfu(),
            self.config.global_batch_size * self.config.model.seq_len,
            self.loss_curve)

    def _lazy_target(self, end: float) -> float:
        """Plan a running job's segment: fix its step time, ask every
        listener where it must first act, and return the completion
        time of that step (or of the segment's last), given ``end``,
        that of the step in flight."""
        self._duration = self.step_time()
        first = self._committed + 1
        segment = self._segment_now(first)
        self._segment = segment
        acting = first_acting_step(self._step_listeners, segment)
        self._target_acts = acting is not None
        self._target_step = segment.last if acting is None else acting
        self._ends = fold_ends(end, self._duration,
                               self._target_step - first + 2)
        return float(self._ends[-2])

    def _plan(self) -> None:
        """Point a running job's one entry at its segment's first acting
        step (or last step)."""
        if self._dispatching:
            return
        chain = self._chain
        if self._state is not JobState.RUNNING or chain is None:
            self._segment = self._ends = None
            return
        target = self._lazy_target(chain.end)
        if target == chain.target:
            return
        chain.target = target
        if target not in chain.handles:
            # the superseded entry stays queued and fires as a no-op:
            # cancelling it could leave a cleared entry with this key at
            # a time a later re-plan targets again
            chain.handles[target] = self.sim.reschedule(chain.first, target)

    def materialize(self) -> None:
        """Commit, in bulk, every step of the lazy segment completed by
        now, and hand them to the step listeners.  A step ending exactly
        now counts when the chain's key sorts before the running entry's
        (outside the event loop, always)."""
        if self._segment is not None:
            current = self.sim.current_key
            self._commit(self._target_step - self._target_acts,
                         (1,) if current is None else current)

    def _commit(self, limit: int, bound: tuple) -> None:
        """Commit the chain's steps, up to step ``limit``, that end
        before ``(now, bound)``: at ``now``, only when the chain's key
        sorts below ``bound``."""
        chain = self._chain
        if chain is None or chain.end is None:
            return
        segment = self._segment
        ends = self._ends
        done = (0, chain.key) < bound
        # ends[i] is the end of the step in flight, chain.end
        i = self._committed + 1 - segment.first
        j = min(int(ends.searchsorted(self.sim.now,
                                      "right" if done else "left")),
                limit + 1 - segment.first)
        if j <= i:
            return
        run = StepRun(self._committed + 1, j - i, self._step_started_at,
                      float(ends[i]), self._duration, float(ends[j - 1]))
        chain.end = float(ends[j])
        self._committed = run.last
        self._step_started_at = run.end
        self._extend(run)
        self._dispatching += 1
        try:
            for listener in list(self._step_listeners):
                deliver_steps(listener, segment, run)
        finally:
            self._dispatching -= 1

    def _extend(self, run: StepRun) -> None:
        """Append ``run`` to the history, or grow the last run by it
        when its steps continue that run's times exactly."""
        runs = self._runs
        if runs:
            last = runs[-1]
            if (last.committed and last.first + last.count == run.first
                    and last.end == run.start
                    and last.duration == run.duration
                    and last.end + run.duration == run.first_end):
                last.count += run.count
                last.end = run.end
                return
        runs.append(run)

    def _cancel_step(self) -> None:
        """Stop the step in flight.  While a completed step's listeners
        run there is none: :meth:`_complete_step` stops the chain once
        they return."""
        self.materialize()
        chain = self._chain
        if chain is not None and chain.end is not None:
            self._drop()

    def _drop(self) -> None:
        for handle in self._chain.handles.values():
            handle.cancel()
        self._chain = None

    def _complete_step(self) -> None:
        """The chain's entry fired: commit up to its target and, at an
        acting step, call every step listener.  The chain steps on
        unless they stopped the job or restarted it, which replaced
        the chain."""
        now = self.sim.now
        chain = self._chain
        del chain.handles[now]
        if now != chain.target:
            return              # superseded by a re-plan
        chain.target = None
        if not self._target_acts:
            # a segment's last step: through the chain's own
            self._commit(self._target_step, (0, chain.key + 1))
            self._plan()
            return
        # through the steps before the chain's at this instant
        self._commit(self._target_step - 1, (0, chain.key))
        chain.end = None
        step = self._committed + 1
        self._committed = step
        start = self._step_started_at
        self._extend(StepRun(step, 1, start, now, self._duration, now))
        metrics = self._segment_now(step).metrics(step, start, now)
        self._dispatching += 1
        try:
            for listener in list(self._step_listeners):
                listener(metrics)
        finally:
            self._dispatching -= 1
        if self._chain is chain:
            if self._state is JobState.RUNNING:
                self._step_started_at = now
                chain.end = now + self.step_time()
            else:
                self._drop()
        self._plan()

    # ------------------------------------------------------------------
    # fault reactions
    # ------------------------------------------------------------------
    def _active_job_faults(self) -> List[Fault]:
        """Active faults touching this job, in injection order: those
        on its machines, on its leaf switches, and service-level ones."""
        injector = self._injector
        if injector is None:
            return []
        machines = injector._cluster.machines
        ids = set(injector.service_fault_ids)
        for mid in self._slot_map().keys() & injector.faulty_machine_ids:
            ids.update(machines[mid].active_fault_ids)
        switch_faults = injector.switch_fault_ids
        if switch_faults:
            for sw in self._job_switches():
                ids.update(switch_faults.get(sw, ()))
        active = injector.active_faults
        return [active[i] for i in sorted(ids)]

    def _job_switches(self) -> FrozenSet[int]:
        switches = self._switch_ids
        if switches is None:
            machines = self._injector._cluster.machines
            switches = frozenset(machines[mid].switch_id
                                 for mid in self.machines
                                 if 0 <= mid < len(machines))
            self._switch_ids = switches
        return switches

    def _fault_touches_job(self, fault: Fault) -> bool:
        if not fault.machine_ids and fault.switch_id is None:
            return True             # service-level: affects any job
        if not self._slot_map().keys().isdisjoint(fault.machine_ids):
            return True
        return (fault.switch_id is not None and self._injector is not None
                and fault.switch_id in self._job_switches())

    def _reapply_if_running(self, fault: Fault) -> None:
        if (self.state is JobState.RUNNING and fault.active
                and self._fault_touches_job(fault)):
            self._apply_fault(fault)

    def _on_fault_event(self, event: str, fault: Fault) -> None:
        if self.state not in (JobState.RUNNING, JobState.HUNG):
            return
        if not self._fault_touches_job(fault):
            return
        if event == "inject":
            self._apply_fault(fault)
        else:
            self._clear_fault(fault)

    def _apply_fault(self, fault: Fault) -> None:
        if fault.effect is JobEffect.CRASH:
            self._crash(fault)
        elif fault.effect is JobEffect.HANG:
            self._hang(fault)
        elif fault.effect is JobEffect.SLOW:
            self.mfu_model.set_degradation(
                f"fault:{fault.fault_id}", 0.55)
            self.slow_machines.update(
                m for m in fault.machine_ids if self.uses_machine(m))
        elif fault.effect is JobEffect.NAN:
            self.nan_active = True
        # JobEffect.NONE: tolerated

    def _clear_fault(self, fault: Fault) -> None:
        if fault.effect is JobEffect.SLOW:
            self.mfu_model.clear_degradation(f"fault:{fault.fault_id}")
            self.slow_machines.difference_update(fault.machine_ids)
        # crashes / hangs do not self-heal when the fault clears: the
        # processes are already dead or wedged until a restart.

    def _crash(self, fault: Fault) -> None:
        self._cancel_step()
        self.state = JobState.CRASHED
        event = LogEvent(
            time=self.sim.now, level="error",
            message=fault.log_signature or fault.symptom.value,
            exit_code=fault.exit_code or 1,
            machine_ids=[m for m in fault.machine_ids
                         if self.uses_machine(m)],
            fault_id=fault.fault_id)
        self.log_events.append(event)
        self.last_crash = event
        self._plan()
        self._changed()

    def _hang(self, fault: Fault) -> None:
        self._cancel_step()
        self.state = JobState.HUNG
        self._plan()
        self.hung_since = self.sim.now
        self.stalled_ranks = [
            r for m in fault.machine_ids for r in self.ranks_of_machine(m)]
        if not self.stalled_ranks:
            # service-level hang (e.g. UFM): pick the last pipeline stage
            last = [r for r in self.topology.iter_ranks()
                    if self.topology.is_last_stage(r)]
            self.stalled_ranks = last[:self.config.parallelism.tp]
        scenario = {
            "defective_cuda_cores": HangScenario.EVAL_P2P,
            "ckpt_reshard_misconfig": HangScenario.CKPT_STALL,
        }.get(fault.detail.value, HangScenario.BACKWARD_COMM)
        self.hang_scenario = scenario

    def _recompute_degradations(self) -> None:
        for name in list(self.mfu_model.degradations):
            if name.startswith("fault:"):
                self.mfu_model.clear_degradation(name)
        self.slow_machines.clear()
        for fault in self._active_job_faults():
            if fault.effect is JobEffect.SLOW:
                self.mfu_model.set_degradation(
                    f"fault:{fault.fault_id}", 0.55)
                self.slow_machines.update(
                    m for m in fault.machine_ids if self.uses_machine(m))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def rdma_traffic_frac(self) -> float:
        """Cluster-wide RDMA traffic as a fraction of nominal."""
        if self.state is JobState.RUNNING:
            return self.mfu_model.current_mfu() / max(
                1e-9, self.mfu_model.profile.base_mfu)
        if self.state is JobState.HUNG:
            assert self.hung_since is not None
            elapsed = self.sim.now - self.hung_since
            drain = self.config.hang_drain_s
            return max(0.0, 1.0 - elapsed / drain) if drain > 0 else 0.0
        return 0.0

    def tensorcore_util_frac(self) -> float:
        """TensorCore utilization as a fraction of the healthy level."""
        if self.state is JobState.RUNNING:
            return self.mfu_model.current_mfu() / max(
                1e-9, self.mfu_model.profile.base_mfu)
        return 0.0

    def step_seconds(self, committed: bool, after: int = 0) -> float:
        """Wall seconds of the (un)committed steps past step ``after``,
        summed as a per-step scan sums them (see the module notes)."""
        return sum(itertools.chain.from_iterable(
            run.durations(after) for run in self.step_runs
            if run.committed == committed and run.last > after))

    def wasted_step_seconds(self) -> float:
        return self.step_seconds(committed=False)

    def loss_series(self) -> List[tuple]:
        """(step, loss) for committed steps, in execution order."""
        curve = self.loss_curve
        return [pair for run in self.step_runs if run.committed
                for pair in zip(run.steps, curve.losses(run.first,
                                                        run.last))]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TrainingJob {self.config.model.name} "
                f"{self.state.value} step={self.current_step}>")
