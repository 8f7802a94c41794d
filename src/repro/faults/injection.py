"""Experiment-level fault orchestration and I/O-hang monitoring.

Table 2's metric is the "number of I/Os with no response in one second or
longer"; Figure 8's is "I/O hang" incidents (no response for a minute or
more) weighted by affected VMs.  The :class:`IoHangMonitor` watches
in-flight I/Os and counts threshold crossings, independent of whether the
I/O eventually completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..agent.base import IoRequest
from ..net.failures import FailureScenario
from ..net.topology import ClosTopology
from ..sim.engine import Simulator
from ..sim.events import SECOND


class IoHangMonitor:
    """Counts I/Os that stay unanswered past a threshold.

    ``on_hang`` (if given) receives each I/O the moment its threshold
    crossing is detected — this is the hang-signal feed the control
    plane's :class:`repro.control.health.HealthMonitor` subscribes to.
    """

    def __init__(
        self,
        sim: Simulator,
        threshold_ns: int = 1 * SECOND,
        on_hang: Optional[Callable[[IoRequest], None]] = None,
    ):
        self.sim = sim
        self.threshold_ns = threshold_ns
        self.on_hang = on_hang
        self.hangs = 0
        self.completed_after_hang = 0
        self._watched = 0

    def watch(self, io: IoRequest) -> None:
        """Arm the hang check for one I/O.  Call right after submission."""
        self._watched += 1
        self.sim.schedule_fire(self.threshold_ns, self._check, io)

    def _check(self, io: IoRequest) -> None:
        trace = io.trace
        if trace is None or trace.complete_ns is None:
            self.hangs += 1
            io.__dict__["_hang_flagged"] = True
            if self.on_hang is not None:
                self.on_hang(io)
        elif trace.complete_ns > trace.submit_ns + self.threshold_ns:
            self.hangs += 1
            if self.on_hang is not None:
                self.on_hang(io)

    def note_completion(self, io: IoRequest) -> None:
        if io.__dict__.get("_hang_flagged"):
            self.completed_after_hang += 1

    @property
    def watched(self) -> int:
        return self._watched


@dataclass
class TimedFault:
    """Apply a failure scenario at a time, optionally revert later."""

    scenario: FailureScenario
    start_ns: int
    end_ns: Optional[int] = None

    def schedule(self, sim: Simulator, topology: ClosTopology) -> None:
        sim.schedule_at_fire(self.start_ns, self.scenario.apply, topology)
        if self.end_ns is not None:
            if self.end_ns <= self.start_ns:
                raise ValueError("fault must end after it starts")
            sim.schedule_at_fire(self.end_ns, self.scenario.revert, topology)
