"""Discrete-event simulation kernel (integer-nanosecond clock).

Public surface:

* :class:`Simulator` — the event loop and virtual clock, one binary heap
  of ``(time, seq)``-ordered events with an exact ``run(until=)``;
* :class:`Event` — a cancellable scheduled callback;
* ``Simulator.timers()`` — a queue of cancellable timeouts kept off the
  event heap until they are due;
* :class:`RngRegistry` — deterministic named randomness streams;
* time constants ``NS``, ``US``, ``MS``, ``SECOND`` and helpers.
"""

from .engine import SimulationError, Simulator
from .events import (
    Event,
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
    "Event",
    "RngRegistry",
    "derive_seed",
    "NS",
    "US",
    "MS",
    "SECOND",
    "format_ns",
]
