"""The discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock and the event scheduler.
Everything in the reproduction — links, switches, CPUs, SSDs, protocol
stacks — is driven by callbacks scheduled on a single simulator instance,
so a whole EBS deployment runs deterministically from one seed.

Events fire in ``(time, seq)`` order from one binary heap (see
:mod:`repro.sim.sched`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .events import Event, format_ns
from .rng import RngRegistry
from .sched import HeapScheduler


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator with an integer-ns clock.

    Typical usage::

        sim = Simulator(seed=42)
        sim.schedule(1000, lambda: print("one microsecond in"))
        sim.run()

    The simulator also hosts a registry of named deterministic RNG streams
    (see :class:`repro.sim.rng.RngRegistry`) so that components draw
    randomness from independent, reproducible streams.
    """

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self.seed = seed
        self.rng = RngRegistry(seed)
        self._sched = HeapScheduler()
        # Pre-bound push methods: schedule() runs a few hundred thousand
        # times per simulated second, so one attribute chain matters.
        self._push = self._sched.push
        self._push_fire = self._sched.push_fire
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` after the current time."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        event = Event(self.now + delay_ns, self._seq, fn, args)
        self._seq += 1
        self._push(event)
        return event

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {format_ns(time_ns)}; now is {format_ns(self.now)}"
            )
        event = Event(time_ns, self._seq, fn, args)
        self._seq += 1
        self._push(event)
        return event

    def schedule_fire(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule`, but fire-and-forget: no :class:`Event`
        is allocated and nothing is returned, so the timer cannot be
        cancelled.  Use for the per-packet/per-job completions that are
        never cancelled — the Event allocation is the largest per-event
        constant on the hot path.  Ordering is identical to
        :meth:`schedule` (same ``seq`` allocation)."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        self._push_fire(self.now + delay_ns, self._seq, fn, args)
        self._seq += 1

    def schedule_at_fire(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_fire`."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {format_ns(time_ns)}; now is {format_ns(self.now)}"
            )
        self._push_fire(time_ns, self._seq, fn, args)
        self._seq += 1

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current instant (after pending events)."""
        event = Event(self.now, self._seq, fn, args)
        self._seq += 1
        self._push(event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the scheduler drains, ``until`` is reached, or
        ``max_events`` have fired.

        ``until`` is an absolute time and exact: every live event at or
        before it fires, none after it does (cancelled timers at the
        head of the queue are skipped before the bound is checked).  The
        clock is advanced to ``until`` even if the last event fires
        earlier (matching how a wall-clock experiment of fixed duration
        behaves).  Returns the number of events processed by this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        # The loop itself lives in the scheduler (``drain``) so popping
        # needs no method dispatch per event.
        try:
            processed = self._sched.drain(self, until, max_events)
        finally:
            self._running = False
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return processed

    def run_for(self, duration_ns: int, **kwargs: Any) -> int:
        """Run for a relative duration from the current time."""
        return self.run(until=self.now + int(duration_ns), **kwargs)

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still scheduled (O(1))."""
        return self._sched.live

    def peek_time(self) -> Optional[int]:
        """Absolute time of the next pending event, or None if drained."""
        return self._sched.peek_time()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={format_ns(self.now)} pending={self.pending_events} "
            f"processed={self.events_processed}>"
        )
