"""The discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock and the event queue.
Everything in the reproduction — links, switches, CPUs, SSDs, protocol
stacks — is driven by callbacks scheduled on a single simulator instance,
so a whole EBS deployment runs deterministically from one seed.

Events fire in ``(time, seq)`` order, where ``seq`` is the global
creation sequence number, so same-instant events fire FIFO.  The queue
is one binary heap of tuples, so comparisons stay in C (no
``Event.__lt__`` dispatch per sift step).  Entries come in two shapes,
told apart by the third slot:

* ``(time, seq, event)`` — a cancellable :class:`Event` (``schedule`` /
  ``schedule_at`` / ``call_soon``);
* ``(time, seq, None, fn, args)`` — an **anonymous** fire-and-forget
  entry (``schedule_fire`` / ``schedule_at_fire``): no Event object is
  allocated.  Most events in a packet simulation (CPU-work completions,
  RPC hops, link deliveries) are never cancelled, so skipping the
  allocation removes the largest per-event constant.  ``seq`` is
  globally unique, so tuple comparison never reaches the third slot.

Cancellation is lazy: a cancelled event stays in the heap as a *ghost*
(counted in ``_ghosts``) and is skipped when it reaches the head.  When
ghosts outnumber live events (and exceed :data:`COMPACT_MIN_GHOSTS`) the
heap is rebuilt without them, so cancel-heavy workloads (timeout/retry
paths re-arming RTOs per message) cannot grow it without bound.

Model code schedules only through the ``schedule*``/``call_soon``
methods and never touches the heap: those methods are the one seam
through which every event enters the queue.  A :class:`Join` (from
:meth:`Simulator.join`) folds N arrivals into one event; it reserves
each arrival's ``seq`` here in the kernel and still queues its one
event through ``schedule_at_fire``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from .events import Event, format_ns
from .rng import RngRegistry

#: Compaction floor: never bother rebuilding tiny heaps.
COMPACT_MIN_GHOSTS = 512

_FOREVER = float("inf")


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
        self._heap: list = []
        #: Cancelled events still buried in the heap.
        self._ghosts = 0
        self.compactions = 0
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
        seq = self._seq
        self._seq = seq + 1
        time_ns = self.now + delay_ns
        event = Event(time_ns, seq, fn, args, self)
        heappush(self._heap, (time_ns, seq, event))
        return event

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {format_ns(time_ns)}; now is {format_ns(self.now)}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_ns, seq, fn, args, self)
        heappush(self._heap, (time_ns, seq, event))
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
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay_ns, seq, None, fn, args))

    def schedule_at_fire(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_fire`."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {format_ns(time_ns)}; now is {format_ns(self.now)}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time_ns, seq, None, fn, args))

    def join(self, count: int, fn: Callable[..., Any], *args: Any) -> "Join":
        """Fold ``count`` arrivals into one event: see :class:`Join`."""
        if count < 1:
            raise ValueError(f"a join needs at least one arrival, got {count}")
        return Join(self, count, fn, args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current instant (after pending events)."""
        seq = self._seq
        self._seq = seq + 1
        now = self.now
        event = Event(now, seq, fn, args, self)
        heappush(self._heap, (now, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` is reached.

        ``until`` is an absolute time and exact: every live event at or
        before it fires, none after it does (cancelled timers at the
        head of the queue are skipped before the bound is checked).
        When no live event at or before ``until`` is left, the clock is
        advanced to ``until`` even if the last event fired earlier
        (matching how a wall-clock experiment of fixed duration behaves);
        a run cut short by :meth:`stop` leaves it at the last event.
        Returns the number of events processed by this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        bound = _FOREVER if until is None else until
        start = self.events_processed
        try:
            # ``_compact`` rebuilds in place, so ``heap`` stays valid
            # across callbacks.
            while heap and not self._stopped:
                entry = heap[0]
                event = entry[2]
                if event is not None and event.cancelled:
                    pop(heap)
                    self._ghosts -= 1
                    continue
                if entry[0] > bound:
                    break
                pop(heap)
                self.now = entry[0]
                self.events_processed += 1
                if event is None:
                    entry[3](*entry[4])
                else:
                    event._sim = None
                    event.fn(*event.args)
        finally:
            self._running = False
        # Unless stopped, the loop left an empty heap or a live head
        # after ``until``.
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return self.events_processed - start

    def run_for(self, duration_ns: int) -> int:
        """Run for a relative duration from the current time."""
        return self.run(until=self.now + int(duration_ns))

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for an event still queued here."""
        self._ghosts += 1
        if self._ghosts > COMPACT_MIN_GHOSTS and 2 * self._ghosts > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled ghosts, in place: a running
        :meth:`run` holds a reference to the list across callbacks."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is None or not entry[2].cancelled]
        heapify(heap)
        self._ghosts = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still scheduled (O(1))."""
        return len(self._heap) - self._ghosts

    def peek_time(self) -> Optional[int]:
        """Absolute time of the next pending event, or None if drained."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event is not None and event.cancelled:
                heappop(heap)
                self._ghosts -= 1
                continue
            return entry[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={format_ns(self.now)} pending={self.pending_events} "
            f"processed={self.events_processed}>"
        )


class Join:
    """``count`` arrivals that fire ``fn(*args, values)`` once, as one event.

    Each :meth:`arrive` stands for a ``schedule_at_fire(time_ns, ...)``
    made at that instant and takes the ``seq`` that call would take.
    The last arrival queues ``fn`` at the latest ``(time, seq)`` among
    them, with ``values`` in ``(time, seq)`` order: exactly where and
    with what the last of ``count`` separate events would have run, so
    every other event keeps its place and only ``count - 1`` no-op
    events are gone.
    """

    __slots__ = ("_sim", "_count", "_fn", "_args", "_arrivals")

    def __init__(self, sim: Simulator, count: int, fn: Callable[..., Any], args: tuple):
        self._sim = sim
        self._count = count
        self._fn = fn
        self._args = args
        self._arrivals: list = []

    def arrive(self, time_ns: int, value: Any) -> None:
        """One arrival, due at absolute ``time_ns``, carrying ``value``."""
        sim = self._sim
        time_ns = int(time_ns)
        if time_ns < sim.now:
            raise SimulationError(
                f"cannot arrive at {format_ns(time_ns)}; now is {format_ns(sim.now)}"
            )
        arrivals = self._arrivals
        if len(arrivals) == self._count:
            raise SimulationError(f"join of {self._count} arrivals already complete")
        seq = sim._seq
        sim._seq = seq + 1
        arrivals.append((time_ns, seq, value))
        if len(arrivals) < self._count:
            return
        # ``seq`` is unique, so the sort never compares values.
        arrivals.sort()
        last_time, last_seq, _ = arrivals[-1]
        # Queue through ``schedule_at_fire`` under the last arrival's
        # reserved seq, then give the counter back: the event sits where
        # the last of the separate events would have sat.
        resume = sim._seq
        sim._seq = last_seq
        sim.schedule_at_fire(last_time, self._fn, *self._args, [a[2] for a in arrivals])
        sim._seq = resume
