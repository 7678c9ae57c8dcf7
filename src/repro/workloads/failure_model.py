"""Fleet failure-rate math.

Anchor: Meta reports a hardware failure roughly every 2.78 hours when
training on 16,384 GPUs (Llama 3).  Failure arrivals scale linearly
with fleet size (independent per-component faults), giving the
job-level MTBF used for Poisson fault injection.
"""

from __future__ import annotations

#: Llama 3 anchor point: one failure per 2.78 h at 16,384 GPUs.
ANCHOR_GPUS = 16_384
ANCHOR_MTBF_S = 2.78 * 3600.0


def mtbf_seconds(num_gpus: int, anchor_gpus: int = ANCHOR_GPUS,
                 anchor_mtbf_s: float = ANCHOR_MTBF_S) -> float:
    """Job-level mean time between failures for a fleet of GPUs."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    return anchor_mtbf_s * anchor_gpus / num_gpus
