"""Fleet failure-rate math.

Anchor: Meta reports a hardware failure roughly every 2.78 hours when
training on 16,384 GPUs (Llama 3).  Failure arrivals scale linearly
with fleet size (independent per-component faults), giving both the
job-level MTBF used for Poisson fault injection and the per-machine
daily probability used for standby sizing.
"""

from __future__ import annotations

import math

#: Llama 3 anchor point: one failure per 2.78 h at 16,384 GPUs.
ANCHOR_GPUS = 16_384
ANCHOR_MTBF_S = 2.78 * 3600.0


def mtbf_seconds(num_gpus: int, anchor_gpus: int = ANCHOR_GPUS,
                 anchor_mtbf_s: float = ANCHOR_MTBF_S) -> float:
    """Job-level mean time between failures for a fleet of GPUs."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    return anchor_mtbf_s * anchor_gpus / num_gpus


def daily_machine_failure_prob(gpus_per_machine: int = 8,
                               anchor_gpus: int = ANCHOR_GPUS,
                               anchor_mtbf_s: float = ANCHOR_MTBF_S
                               ) -> float:
    """Per-machine probability of at least one failure in 24 h.

    Derived from the same anchor: per-GPU hourly rate = 1 / (mtbf(1GPU)),
    machine rate = gpus_per_machine x that, converted to a daily
    probability via the exponential distribution.
    """
    per_gpu_rate = 1.0 / mtbf_seconds(1, anchor_gpus, anchor_mtbf_s)
    machine_rate = per_gpu_rate * gpus_per_machine
    return 1.0 - math.exp(-machine_rate * 24 * 3600.0)
