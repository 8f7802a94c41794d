"""The discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock and the event queue.
Everything in the reproduction — links, switches, CPUs, SSDs, protocol
stacks — is driven by callbacks scheduled on a single simulator instance,
so a whole EBS deployment runs deterministically from one seed.

Events fire in ``(time, seq)`` order, where ``seq`` is the global
creation sequence number, so same-instant events fire FIFO.  The queue
is one binary heap of tuples, so comparisons stay in C.  Events are
fire-and-forget: nothing returned by a ``schedule*`` call can cancel
them.  Entries come in two shapes, told apart by the third slot:

* ``(time, seq, None, fn, args)`` — an event (``schedule_fire`` /
  ``schedule_at_fire`` / ``call_soon``);
* ``(time, seq, timers)`` — a :class:`Timers` *wake-up*, never counted
  as an event.

``seq`` is globally unique, so tuple comparison never reaches the third
slot.

Model code schedules only through the ``schedule*``/``call_soon``
methods and never touches the heap: those methods are the one seam
through which every event enters the queue.  A :class:`Join` (from
:meth:`Simulator.join`) folds N arrivals into one event; it reserves
each arrival's ``seq`` here in the kernel and still queues its one
event through ``schedule_at_fire``.  A timeout that may be called off
waits in a :class:`Timers` queue (from :meth:`Simulator.timers`), the
one cancellable path, and reaches the heap as an event only when due.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from .events import format_ns
from .rng import RngRegistry

#: Compaction floor of a :class:`Timers` queue: never rebuild tiny heaps.
COMPACT_MIN_GHOSTS = 512

_FOREVER = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator with an integer-ns clock.

    Typical usage::

        sim = Simulator(seed=42)
        sim.schedule_fire(1000, lambda: print("one microsecond in"))
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
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_fire(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ns`` after the current time."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay_ns, seq, None, fn, args))

    def schedule_at_fire(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {format_ns(time_ns)}; now is {format_ns(self.now)}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time_ns, seq, None, fn, args))

    #: The plain names, kept for outside tools that call or wrap them;
    #: model code uses the ``_fire`` spelling.
    schedule = schedule_fire
    schedule_at = schedule_at_fire

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current instant (after pending events)."""
        # Its own push, not ``schedule_at_fire``: a tool wrapping both
        # names would see one event twice.
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now, seq, None, fn, args))

    def join(self, count: int, fn: Callable[..., Any], *args: Any) -> "Join":
        """Fold ``count`` arrivals into one event: see :class:`Join`."""
        if count < 1:
            raise ValueError(f"a join needs at least one arrival, got {count}")
        return Join(self, count, fn, args)

    def timers(self) -> "Timers":
        """A new cancellable-timeout queue: see :class:`Timers`."""
        return Timers(self)

    def _queue_as(self, seq: int, time_ns: int, fn: Callable[..., Any], args: tuple) -> None:
        """Queue through ``schedule_at_fire`` under an earlier reserved
        ``seq``, then give the counter back: the event sits where it
        would have sat had it been queued when ``seq`` was taken."""
        resume = self._seq
        self._seq = seq
        self.schedule_at_fire(time_ns, fn, *args)
        self._seq = resume

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` is reached.

        ``until`` is an absolute time and exact: every event at or
        before it fires, none after it does (wake-ups at the head of the
        queue are handled before the bound is checked, and never move
        the clock).
        When no event at or before ``until`` is left, the clock is
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
            while heap and not self._stopped:
                entry = heap[0]
                timers = entry[2]
                if timers is not None:
                    if timers._wake(entry, bound):
                        continue
                    break
                if entry[0] > bound:
                    break
                pop(heap)
                self.now = entry[0]
                self.events_processed += 1
                entry[3](*entry[4])
        finally:
            self._running = False
        # Unless stopped, the loop left an empty heap or an event or due
        # timer after ``until``.
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return self.events_processed - start

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Absolute time of the next event or live timer, or None if drained."""
        heap = self._heap
        while heap:
            entry = heap[0]
            timers = entry[2]
            # A bound below every time: a due timer stays parked.
            if timers is None or not timers._wake(entry, -1):
                return entry[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={format_ns(self.now)} queued={len(self._heap)} "
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
        # The event sits where the last of the separate events would have.
        sim._queue_as(last_seq, last_time, self._fn, (*self._args, [a[2] for a in arrivals]))


class Timers:
    """Cancellable timeouts kept off the kernel heap until they are due.

    :meth:`add` takes the ``seq`` that :meth:`Simulator.schedule_fire`
    would take and returns a handle for :meth:`cancel`.  Timers wait in
    this queue's own heap; the kernel heap holds only *wake-ups*, at
    most one live one per queue, never later than the earliest live
    timer.  A wake-up that finds its timer due queues it through
    ``schedule_at_fire`` under the timer's own ``seq``, as :class:`Join`
    does; any other wake-up re-arms at the new earliest timer.  Exact:
    a timer that :meth:`cancel` never drops fires at the ``(time, seq)``
    a ``schedule_fire`` made at :meth:`add` would have had, and a
    wake-up is never counted in ``events_processed``.
    """

    __slots__ = ("_sim", "_heap", "_dead", "_armed_ns", "_armed_seq")

    def __init__(self, sim: Simulator):
        self._sim = sim
        #: ``[time, seq, fn, args]`` handles; ``fn`` is None once
        #: dropped by :meth:`cancel` or handed to the kernel.  ``seq`` is
        #: unique, so the heap never compares past it.
        self._heap: list = []
        self._dead = 0
        self._armed_ns = _FOREVER
        self._armed_seq = -1

    def add(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> list:
        """Time out ``fn(*args)`` ``delay_ns`` from now; returns the handle."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        sim = self._sim
        seq = sim._seq
        sim._seq = seq + 1
        time_ns = sim.now + delay_ns
        timer = [time_ns, seq, fn, args]
        heappush(self._heap, timer)
        if time_ns < self._armed_ns:
            # Earlier than the armed wake-up, which stays queued and is
            # dropped as stale when it comes up.
            self._armed_ns = time_ns
            self._armed_seq = seq
            heappush(sim._heap, (time_ns, seq, self))
        return timer

    def cancel(self, timer: list) -> None:
        """Stop ``timer`` from firing.  Idempotent, and a no-op once fired."""
        if timer[2] is None:
            return
        timer[2] = timer[3] = None
        heap = self._heap
        if heap[0] is timer:
            # The re-armed-timeout case: a queue of one stays that size.
            heappop(heap)
            return
        self._dead += 1
        if self._dead > COMPACT_MIN_GHOSTS and 2 * self._dead > len(heap):
            heap[:] = [t for t in heap if t[2] is not None]
            heapify(heap)
            self._dead = 0

    def _arm(self) -> None:
        """Queue a wake-up at the earliest live timer, if any."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        if not heap:
            self._armed_ns = _FOREVER
            self._armed_seq = -1
            return
        time_ns, seq = heap[0][0], heap[0][1]
        self._armed_ns = time_ns
        self._armed_seq = seq
        sim = self._sim
        heappush(sim._heap, (time_ns, seq, self))

    def _wake(self, entry: tuple, bound: float) -> bool:
        """Handle this queue's wake-up ``entry`` at the head of the
        kernel heap.  Returns False, leaving it queued, only when it
        sits at a live timer due after ``bound``."""
        sim = self._sim
        kernel = sim._heap
        seq = entry[1]
        if seq == self._armed_seq:
            heap = self._heap
            while heap and heap[0][2] is None:
                heappop(heap)
                self._dead -= 1
            if heap and heap[0][1] == seq:
                time_ns = entry[0]
                if time_ns > bound:
                    return False
                timer = heappop(heap)
                fn, args = timer[2], timer[3]
                timer[2] = timer[3] = None
                # Drop this wake-up and any stale copy of it: the timer
                # itself takes their (time, seq) next.
                while kernel and kernel[0][1] == seq:
                    heappop(kernel)
                self._arm()
                sim._queue_as(seq, time_ns, fn, args)
                return True
            # Its timer was dropped: re-arm at the earliest live one.
            heappop(kernel)
            self._arm()
            return True
        # Superseded by an earlier wake-up, or its timer already gone.
        heappop(kernel)
        return True
