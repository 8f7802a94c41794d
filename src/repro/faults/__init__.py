"""Fault injection: FPGA bit flips, corruption-event generation, network
failure orchestration and I/O-hang monitoring."""

from .fpga_errors import (
    BitFlipInjector,
    CorruptionEvent,
    CorruptionEventGenerator,
    ROOT_CAUSE_WEIGHTS,
    flip_bit,
)
from .injection import IoHangMonitor, TimedFault

__all__ = [
    "BitFlipInjector",
    "flip_bit",
    "CorruptionEvent",
    "CorruptionEventGenerator",
    "ROOT_CAUSE_WEIGHTS",
    "IoHangMonitor",
    "TimedFault",
]
