"""Loss, gradient-norm, and MFU models.

Loss is a deterministic function of the *step index* (power-law decay
plus seeded per-step noise), so re-running steps after a rollback
reproduces the curve bit-for-bit — mirroring the paper's observation
that engineers verify restarts by checking that loss curves overlap
exactly (Fig. 2).

Noise is generated in *blocks*: one generator seeded per
``(seed, block index)`` draws :data:`BLOCK_STEPS` consecutive values in
a single vectorized call, so the per-step cost is an array index instead
of a PCG64 construction.  A block stays the 32 KiB float64 array the
draw returns; every reader hands back a Python ``float``.  The value at
a step is still a pure function of ``(seed, step)`` — independent of
query order, rollbacks, and cache evictions — which is exactly the
invariant the restart-verification story rests on.

MFU is the product of a code-version base (engineering optimizations
raise it across hot updates, Fig. 11) and transient degradation factors
(thermal throttling, degraded PCIe links, fail-slow NICs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.rng import derive_seed

#: Steps covered by one RNG block: a single generator construction and
#: one vectorized ``normal()`` draw serve this many consecutive steps.
BLOCK_STEPS = 4096

#: Version of the drawn-value schema.  Bump whenever the mapping from
#: ``(seed, step)`` to drawn noise / grad-norm values changes (stream
#: names, block size, draw order) — and bump
#: :data:`repro.experiments.cache.CACHE_SCHEMA_VERSION` in the same
#: commit, so sweep caches written under the old draws can never serve
#: a report again.
#: 1: one generator per step (streams ``loss:{step}``/``gnorm:{step}``)
#: 2: one generator per 4096-step block (streams ``loss-block:{i}`` /
#:    ``gnorm-block:{i}``), value at ``s`` = ``block[s % 4096]``
METRICS_SCHEMA_VERSION = 2


@dataclass
class StepMetrics:
    """Everything the monitor collects about one completed step."""

    step: int
    time: float
    duration_s: float
    loss: float
    grad_norm: float
    mfu: float
    tokens: int


class LossCurve:
    """Deterministic power-law loss with seeded noise and spikes.

    loss(s) = (l0 - l_inf) · (1 + s/s0)^(-alpha) + l_inf + noise(s)

    ``noise(s)`` is element ``s % BLOCK_STEPS`` of a block drawn from an
    RNG seeded by ``(root_seed, s // BLOCK_STEPS)``, so the value at a
    given step never depends on execution history.
    """

    def __init__(self, l0: float = 11.0, l_inf: float = 1.6,
                 alpha: float = 0.32, s0: float = 120.0,
                 noise_scale: float = 0.012, seed: int = 0):
        if l0 <= l_inf:
            raise ValueError("initial loss must exceed asymptotic loss")
        self.l0 = l0
        self.l_inf = l_inf
        self.alpha = alpha
        self.s0 = s0
        self.noise_scale = noise_scale
        self.seed = seed
        # Blocks are pure functions of (seed, block index), so they are
        # cached: re-deriving an evicted block reproduces it bit for
        # bit, which makes eviction purely a memory/speed trade.  The
        # maps are bounded per block — steady-state training touches
        # one block at a time, rollbacks a handful — so a quarter-long
        # job holds at most 2 * 4 arrays of 32 KiB instead of growing
        # (or, as the old per-step cache did, flushing to empty) every
        # ~100k steps.
        self._noise_blocks: Dict[int, np.ndarray] = {}
        self._gnorm_blocks: Dict[int, np.ndarray] = {}
        self._noise_bounds: Dict[int, Tuple[float, float]] = {}

    #: Blocks retained per map before the oldest-inserted is evicted
    #: (FIFO: sequential stepping stays in one block, rollback/replay
    #: within a few — recency tracking would cost a dict move per
    #: query for nothing).
    _MAX_CACHED_BLOCKS = 4

    def base(self, step: int) -> float:
        return ((self.l0 - self.l_inf)
                * (1.0 + step / self.s0) ** (-self.alpha) + self.l_inf)

    def _block(self, cache: Dict[int, np.ndarray], stream: str,
               index: int, scale: float) -> np.ndarray:
        block = cache.get(index)
        if block is None:
            rng = np.random.default_rng(
                derive_seed(self.seed, f"{stream}:{index}"))
            # one draw per 4096 steps, kept as the float64 array (a
            # list of Python floats would cost four times the memory);
            # readers convert the element they index with float()
            block = rng.normal(0.0, scale, BLOCK_STEPS)
            if len(cache) >= self._MAX_CACHED_BLOCKS:
                del cache[next(iter(cache))]
            cache[index] = block
        return block

    def noise(self, step: int) -> float:
        return float(self._block(self._noise_blocks, "loss-block",
                                 step // BLOCK_STEPS,
                                 self.noise_scale)[step % BLOCK_STEPS])

    def loss(self, step: int, nan: bool = False,
             spike_factor: float = 1.0) -> float:
        """Loss at ``step``; NaN faults and loss spikes override."""
        if nan:
            return float("nan")
        return (self.base(step) + self.noise(step)) * spike_factor

    def losses(self, first: int, last: int, nan: bool = False,
               spike_factor: float = 1.0) -> List[float]:
        """``[loss(s, nan, spike_factor) for s in first..last]``, bit for
        bit: the noise is read as slices of its blocks, and the base is
        the same scalar float arithmetic as :meth:`base`."""
        if nan:
            return [float("nan")] * (last + 1 - first)
        scale, power, s0 = self.l0 - self.l_inf, -self.alpha, self.s0
        out: List[float] = []
        while first <= last:
            index, offset = divmod(first, BLOCK_STEPS)
            stop = min(last + 1, first - offset + BLOCK_STEPS)
            noise = self._block(self._noise_blocks, "loss-block", index,
                                self.noise_scale)[offset:offset + stop - first]
            out += [(scale * (1.0 + step / s0) ** power + self.l_inf + eps)
                    * spike_factor
                    for step, eps in zip(range(first, stop), noise.tolist())]
            first = stop
        return out

    def grad_norm(self, step: int, nan: bool = False,
                  spike_factor: float = 1.0) -> float:
        """Gradient norm tracks loss decay (scaled), same determinism."""
        if nan:
            return float("nan")
        block = self._block(self._gnorm_blocks, "gnorm-block",
                            step // BLOCK_STEPS, 0.05)
        eps = float(block[step % BLOCK_STEPS])
        return 0.4 * self.base(step) * (1.0 + eps) * spike_factor

    def noise_bounds(self, index: int) -> Tuple[float, float]:
        """(min, max) of the loss noise over block ``index``."""
        bounds = self._noise_bounds.get(index)
        if bounds is None:
            block = self._block(self._noise_blocks, "loss-block", index,
                                self.noise_scale)
            bounds = (float(block.min()), float(block.max()))
            if len(self._noise_bounds) >= self._MAX_CACHED_BLOCKS:
                del self._noise_bounds[next(iter(self._noise_bounds))]
            self._noise_bounds[index] = bounds
        return bounds

    def drop_caches(self) -> None:
        """Forget every cached block and bound (a job stopped for
        good); a later read re-derives them bit for bit."""
        self._noise_blocks.clear()
        self._gnorm_blocks.clear()
        self._noise_bounds.clear()

    def cached_blocks(self) -> int:
        """Blocks currently held across both maps (tests/diagnostics)."""
        return len(self._noise_blocks) + len(self._gnorm_blocks)


@dataclass
class CodeVersionProfile:
    """Performance profile of one user-code version."""

    version: str
    #: Base MFU this version achieves (fraction of peak).
    base_mfu: float
    #: Probability that a restart under this version crashes due to a
    #: latent bug in the version itself (0 for vetted versions).
    bug_crash_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.base_mfu <= 1.0:
            raise ValueError(f"base_mfu must be in (0, 1]: {self.base_mfu}")


class MfuModel:
    """Combines the code version's base MFU with degradation factors."""

    def __init__(self, initial_profile: Optional[CodeVersionProfile] = None):
        self.profile = initial_profile or CodeVersionProfile("v0", 0.30)
        #: Named multiplicative degradations (e.g. "thermal" → 0.6).
        self._degradations: Dict[str, float] = {}
        #: called with no argument before / after every write below
        self.before_change: List[Callable[[], None]] = []
        self.listeners: List[Callable[[], None]] = []

    def _changing(self) -> None:
        for fn in self.before_change:
            fn()

    def _changed(self) -> None:
        for fn in self.listeners:
            fn()

    def set_profile(self, profile: CodeVersionProfile) -> None:
        self._changing()
        self.profile = profile
        self._changed()

    def set_degradation(self, name: str, factor: float) -> None:
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degradation factor must be in (0,1]: {factor}")
        self._changing()
        self._degradations[name] = factor
        self._changed()

    def clear_degradation(self, name: str) -> None:
        if name in self._degradations:
            self._changing()
            del self._degradations[name]
            self._changed()

    @property
    def degradations(self) -> Dict[str, float]:
        return dict(self._degradations)

    def current_mfu(self) -> float:
        mfu = self.profile.base_mfu
        for factor in self._degradations.values():
            mfu *= factor
        return mfu

    def step_time(self, flops_per_step: float, num_gpus: int,
                  gpu_peak_tflops: float) -> float:
        """Wall seconds for one step at the current effective MFU."""
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        achieved = num_gpus * gpu_peak_tflops * 1e12 * self.current_mfu()
        return flops_per_step / achieved


def mfu_relative_series(mfu_values: list) -> list:
    """Relative MFU as plotted in Fig. 2 / Fig. 11: ratio to the minimum.

    ``None`` entries (collection gaps) and NaNs (NaN-fault steps) are
    excluded from the minimum but preserved in place, so the series
    keeps its alignment with the step axis.  An input with no finite
    value has no minimum to normalize by and yields ``[]``.
    """
    finite = [v for v in mfu_values if v is not None and not math.isnan(v)]
    if not finite:
        return []
    lo = min(finite)
    if lo <= 0:
        raise ValueError("MFU values must be positive")
    return [None if v is None else v / lo for v in mfu_values]
