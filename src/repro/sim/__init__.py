"""Discrete-event simulation kernel (integer-nanosecond clock).

Public surface:

* :class:`Simulator` — the event loop and virtual clock, one binary heap
  of ``(time, seq)``-ordered fire-and-forget events with an exact
  ``run(until=)``;
* ``Simulator.timers()`` — a queue of cancellable timeouts kept off the
  event heap until they are due, the kernel's one cancellable path;
* :class:`RngRegistry` — deterministic named randomness streams;
* time constants ``NS``, ``US``, ``MS``, ``SECOND`` and helpers.
"""

from .engine import SimulationError, Simulator
from .events import (
    MS,
    NS,
    SECOND,
    US,
    format_ns,
)
from .rng import RngRegistry, derive_seed

__all__ = [
    "Simulator",
    "SimulationError",
    "RngRegistry",
    "derive_seed",
    "NS",
    "US",
    "MS",
    "SECOND",
    "format_ns",
]
