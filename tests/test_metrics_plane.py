"""The block-RNG metrics plane: determinism and cache eviction.

The loss/grad-norm model draws noise in 4096-step blocks (one
generator construction per block instead of per step).  Everything
here defends the invariant that change must not disturb: the value at
a step is a pure function of ``(seed, step)`` — independent of query
order, rollback/replay interleavings, and cache evictions — because
the paper's restart-verification story (loss curves re-align bit-wise
after a rollback, Fig. 2) rests on exactly that.
"""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.cache import CACHE_SCHEMA_VERSION
from repro.perf.baseline import _seed_grad_norm, _seed_noise
from repro.training.metrics import (
    BLOCK_STEPS,
    METRICS_SCHEMA_VERSION,
    LossCurve,
)


def reference_values(seed, steps):
    """Fresh-curve sequential evaluation: the ground truth."""
    curve = LossCurve(seed=seed)
    return {s: (curve.loss(s), curve.grad_norm(s)) for s in sorted(steps)}


# a step universe that spans block boundaries and far-apart blocks, so
# shuffled orders actually exercise block switching and eviction
_steps = st.integers(min_value=0, max_value=40 * BLOCK_STEPS)


class TestBlockDeterminism:
    @given(steps=st.lists(_steps, min_size=1, max_size=60),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_query_order_never_matters(self, steps, seed):
        """Any permutation of queries yields bit-identical values."""
        expected = reference_values(seed, set(steps))
        curve = LossCurve(seed=seed)
        for s in steps:  # hypothesis-chosen order, duplicates included
            assert curve.loss(s) == expected[s][0]
            assert curve.grad_norm(s) == expected[s][1]

    @given(start=st.integers(min_value=32, max_value=3 * BLOCK_STEPS),
           runs=st.lists(st.tuples(
               st.integers(min_value=1, max_value=30),   # steps forward
               st.integers(min_value=0, max_value=20)),  # rollback depth
               min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rollback_replay_interleavings_bitwise_identical(
            self, start, runs):
        """Arbitrary advance/rollback schedules replay the same curve."""
        curve = LossCurve(seed=7)
        seen = {}
        step = start
        for forward, rollback in runs:
            step = max(0, step - rollback)  # restart a few steps back
            for _ in range(forward):
                pair = (curve.loss(step), curve.grad_norm(step))
                if step in seen:
                    assert pair == seen[step]
                seen[step] = pair
                step += 1
        assert seen == {
            s: v for s, v in reference_values(7, seen).items()}

    @given(blocks=st.lists(
        st.integers(min_value=0, max_value=200), min_size=10,
        max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_eviction_and_requery_bitwise_identical(self, blocks):
        """Touring far-apart blocks forces evictions; re-querying an
        evicted block reproduces its values exactly."""
        curve = LossCurve(seed=3)
        probe = [b * BLOCK_STEPS + (b % BLOCK_STEPS) for b in blocks]
        first = [(curve.loss(s), curve.grad_norm(s)) for s in probe]
        bound = 2 * LossCurve._MAX_CACHED_BLOCKS
        assert curve.cached_blocks() <= bound
        second = [(curve.loss(s), curve.grad_norm(s)) for s in probe]
        assert first == second

    def test_matches_seed_baseline_bitwise(self):
        """The unmemoized seed-mode draws agree with the cached fast
        path bit-for-bit — the equivalence the benchmark ratios rest
        on."""
        fast = LossCurve(seed=42)
        seed = LossCurve(seed=42)
        for s in (0, 1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1,
                  123_456, 10 * BLOCK_STEPS + 17):
            assert fast.noise(s) == _seed_noise(seed, s)
            assert fast.grad_norm(s) == _seed_grad_norm(seed, s)
            assert (fast.grad_norm(s, spike_factor=8.0)
                    == _seed_grad_norm(seed, s, spike_factor=8.0))
        assert math.isnan(_seed_grad_norm(seed, 5, nan=True))

    def test_long_walk_cache_stays_bounded(self):
        """A >100k-step training walk keeps O(1) blocks resident the
        whole way — the cache can no longer balloon and flush."""
        curve = LossCurve(seed=11)
        bound = 2 * LossCurve._MAX_CACHED_BLOCKS
        checkpoints = {}
        for s in range(0, 120_000, 7):
            curve.loss(s)
            curve.grad_norm(s)
            if s % 9_973 == 0:
                checkpoints[s] = (curve.loss(s), curve.grad_norm(s))
                assert curve.cached_blocks() <= bound
        assert curve.cached_blocks() <= bound
        # early blocks were evicted long ago; replay still matches
        expected = reference_values(11, checkpoints)
        assert checkpoints == expected

    def test_schema_versions_move_together(self):
        """The drawn-value schema and the sweep-cache schema are
        coupled: block draws are metrics schema 2, which forced cache
        schema 3 (cache 4 was a payload-layout bump — fleet lifecycle
        fields — with the same metrics schema).  Bumping the metrics
        schema without the cache schema would let a stale cache serve
        reports computed under different draws."""
        assert METRICS_SCHEMA_VERSION == 2
        assert CACHE_SCHEMA_VERSION == 4


class TestPythonFloats:
    """Blocks are cached as float64 arrays, but no ``np.float64`` may
    leak out: payloads and ``repr``-built detail strings would change."""

    @given(seed=st.integers(min_value=0, max_value=2**31),
           steps=st.lists(_steps, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_readers_return_exact_python_floats(self, seed, steps):
        curve = LossCurve(seed=seed)
        for s in steps:
            assert type(curve.noise(s)) is float
            assert type(curve.grad_norm(s)) is float
            assert type(curve.loss(s)) is float
        index = steps[0] // BLOCK_STEPS
        fresh = LossCurve(seed=seed)
        vals = [fresh.noise(index * BLOCK_STEPS + k)
                for k in range(BLOCK_STEPS)]
        bounds = curve.noise_bounds(index)
        assert bounds == (min(vals), max(vals))
        assert all(type(b) is float for b in bounds)
        for block in (*curve._noise_blocks.values(),
                      *curve._gnorm_blocks.values()):
            assert block.dtype == np.float64
            assert block.shape == (BLOCK_STEPS,)
            assert block.nbytes == 32768


class TestLossSlices:
    """``LossCurve.losses(first, last)`` reads the noise as slices of its
    blocks; it must give what per-step ``loss`` gives, bit for bit, as
    Python floats."""

    @given(seed=st.integers(min_value=0, max_value=2**31),
           first=st.integers(min_value=0, max_value=12 * BLOCK_STEPS),
           length=st.integers(min_value=1, max_value=3 * BLOCK_STEPS),
           nan=st.booleans(),
           spike=st.sampled_from([1.0, 0.5, 3.0]) | st.floats(0.1, 10.0),
           evict=st.booleans())
    @example(seed=0, first=BLOCK_STEPS - 3, length=BLOCK_STEPS + 6,
             nan=False, spike=1.0, evict=True)
    @settings(max_examples=40, deadline=None)
    def test_slices_equal_per_step_losses(self, seed, first, length, nan,
                                          spike, evict):
        curve = LossCurve(seed=seed)
        last = first + length - 1
        if evict:
            # read the range once, then tour far blocks until its blocks
            # are evicted: the slices below come from rebuilt blocks
            curve.losses(first, last)
            for block in range(100, 100 + LossCurve._MAX_CACHED_BLOCKS):
                curve.noise(block * BLOCK_STEPS)
            assert first // BLOCK_STEPS not in curve._noise_blocks
        got = curve.losses(first, last, nan=nan, spike_factor=spike)
        reference = LossCurve(seed=seed)
        want = [reference.loss(s, nan=nan, spike_factor=spike)
                for s in range(first, last + 1)]
        assert all(type(v) is float for v in got)
        assert ([struct.pack("<d", v) for v in got]
                == [struct.pack("<d", v) for v in want])
