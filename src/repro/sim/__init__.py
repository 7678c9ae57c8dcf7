"""Discrete-event simulation kernel.

This package provides the substrate on which the simulated GPU cluster,
training jobs, and the ByteRobust control plane execute.  It is a small,
deterministic, callback-driven kernel:

* :class:`~repro.sim.engine.Simulator` — the event loop and simulated
  clock.  Everything in the reproduction advances time exclusively
  through a ``Simulator`` so runs are reproducible bit-for-bit.
* :class:`~repro.sim.rng.RngStreams` — named, independently seeded
  random streams so adding randomness to one subsystem never perturbs
  another.
"""

from repro.sim.engine import (
    EventHandle,
    PeriodicTask,
    Simulator,
    TickGroup,
    TickMember,
)
from repro.sim.rng import RngStreams

__all__ = [
    "EventHandle",
    "PeriodicTask",
    "RngStreams",
    "Simulator",
    "TickGroup",
    "TickMember",
]
