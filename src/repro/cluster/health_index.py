"""The fault/health substrate mode switch.

At 100k-GPU scale (~12.5k machines) per-machine Python loops dominate
fault and health work, so the hot loops (hazard draws, pack placement,
metric rings) also have a numpy form.  ``"auto"`` (default) vectorizes
only at or above :data:`VECTORIZE_MIN_MACHINES` — below that the scalar
loop wins on constant factors; :func:`force_substrate` pins the mode
for equivalence tests and benchmarks.  Both paths are byte-identical by
construction (the equivalence suite asserts it), so the mode only ever
changes wall-clock, never results.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

#: Below this many machines the scalar loops' constant factors win;
#: "auto" mode only vectorizes at or above it.
VECTORIZE_MIN_MACHINES = 64

_MODE = "auto"  # "auto" | "scalar" | "vectorized"


def substrate_mode() -> str:
    """Current fault/health substrate mode."""
    return _MODE


@contextlib.contextmanager
def force_substrate(mode: str) -> Iterator[None]:
    """Pin the substrate to ``"scalar"`` or ``"vectorized"``.

    Used by the equivalence suite (run the same scenario both ways,
    assert byte-identical results) and the substrate microbenchmark.
    Not reentrant, not thread-safe — a test/bench harness, not an
    execution mode.
    """
    global _MODE
    if mode not in ("auto", "scalar", "vectorized"):
        raise ValueError(f"unknown substrate mode {mode!r}")
    saved = _MODE
    _MODE = mode
    try:
        yield
    finally:
        _MODE = saved


def use_vectorized(population: int) -> bool:
    """Should a loop over ``population`` machines take the array path?"""
    if _MODE == "auto":
        return population >= VECTORIZE_MIN_MACHINES
    return _MODE == "vectorized"
