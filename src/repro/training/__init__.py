"""Simulated LLM training jobs.

The training model is analytical rather than numerical: a job is a
sequence of steps whose duration follows from model FLOPs, cluster
scale, and the current code version's MFU, and whose loss follows a
deterministic (seeded) power-law curve.  Determinism per step index is
a feature — the paper notes that manual restarts intentionally roll
back a few steps to verify that loss curves re-align bit-wise, and the
reproduction preserves exactly that property.

Per-rank *stack states* are modeled explicitly so that the runtime
analyzer (Sec. 5) can aggregate realistic stack traces: when a machine
stalls mid-collective, the hang propagates along its PP group while
unaffected ranks drain to the gradient-sync barrier, reproducing the
Fig. 7 pattern.
"""

from repro.training.model import (
    ModelSpec,
    dense_70b,
    dense_llama_like,
    moe_200b,
)
from repro.training.metrics import (
    BLOCK_STEPS,
    METRICS_SCHEMA_VERSION,
    LossCurve,
    MfuModel,
    StepMetrics,
)
from repro.training.stacks import StackKind, StackTrace, render_stack
from repro.training.job import JobState, TrainingJob, TrainingJobConfig

__all__ = [
    "BLOCK_STEPS",
    "JobState",
    "LossCurve",
    "METRICS_SCHEMA_VERSION",
    "MfuModel",
    "ModelSpec",
    "StackKind",
    "StackTrace",
    "StepMetrics",
    "TrainingJob",
    "TrainingJobConfig",
    "dense_70b",
    "dense_llama_like",
    "moe_200b",
    "render_stack",
]
