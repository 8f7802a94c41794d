"""The simulation kernel's event scheduler.

Events fire in ``(time, seq)`` order, where ``seq`` is the global
creation sequence number, so same-instant events fire FIFO.
:class:`HeapScheduler` keeps them in a single binary heap of tuples;
tuple entries keep comparisons in C (no ``Event.__lt__`` dispatch per
sift step).

Entries come in two shapes, distinguished by the third tuple slot:

* ``(time, seq, event)`` — a cancellable :class:`Event` (``schedule`` /
  ``schedule_at`` / ``call_soon``);
* ``(time, seq, None, fn, args)`` — an **anonymous** fire-and-forget
  entry (``schedule_fire`` / ``schedule_at_fire``): no Event object is
  allocated at all.  Most events in a packet simulation (CPU-work
  completions, RPC hops, link deliveries) are never cancelled, so
  skipping the allocation removes the single largest per-event
  constant.  Ordering is unaffected: ``seq`` is globally unique, so
  tuple comparison never reaches the third slot.

The scheduler keeps **live bookkeeping** instead of scanning:

* ``live`` — count of pending, not-cancelled events (O(1)
  ``pending_events``);
* ``ghosts`` — cancelled events still buried in the heap (lazy
  deletion keeps :meth:`Event.cancel` O(1));
* automatic **compaction**: when ghosts outnumber live events (and exceed
  a floor), the heap is rebuilt without them, so cancel-heavy
  workloads (timeout/retry paths re-arming RTOs per message) cannot grow
  it without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional

from .events import Event

#: Compaction floor: never bother rebuilding tiny heaps.
COMPACT_MIN_GHOSTS = 512


class HeapScheduler:
    """Binary heap of ``(time, seq, event)`` tuples with lazy deletion."""

    __slots__ = ("_heap", "live", "ghosts", "compactions")

    def __init__(self) -> None:
        self._heap: list = []
        self.live = 0
        self.ghosts = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    def push(self, event: Event) -> None:
        event._sched = self
        heappush(self._heap, (event.time, event.seq, event))
        self.live += 1

    def push_fire(self, time: int, seq: int, fn, args) -> None:
        """Queue an anonymous fire-and-forget entry (no Event object)."""
        heappush(self._heap, (time, seq, None, fn, args))
        self.live += 1

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event (purges ghost heads)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event is not None and event.cancelled:
                heappop(heap)
                self.ghosts -= 1
                continue
            return entry[0]
        return None

    def drain(self, sim, until: Optional[int], max_events: Optional[int]) -> int:
        """The simulator's run loop, inlined into the data structure so
        each event costs one Python frame.

        Cancelled heads are purged *before* the ``until`` comparison, so
        the bound is checked against the earliest live event and nothing
        past ``until`` ever fires.  ``compact`` rebuilds in place, so the
        local alias below stays valid across event callbacks.
        """
        heap = self._heap
        pop = heappop
        processed = 0
        while heap and not sim._stopped:
            entry = heap[0]
            event = entry[2]
            if event is not None and event.cancelled:
                pop(heap)
                self.ghosts -= 1
                continue
            if until is not None and entry[0] > until:
                break
            if max_events is not None and processed >= max_events:
                break
            pop(heap)
            self.live -= 1
            sim.now = entry[0]
            sim.events_processed += 1
            processed += 1
            if event is None:
                entry[3](*entry[4])
            else:
                event._sched = None
                event.fn(*event.args)
        return processed

    # ------------------------------------------------------------------
    def note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for an event still queued here."""
        self.live -= 1
        self.ghosts += 1
        if self.ghosts > COMPACT_MIN_GHOSTS and self.ghosts > self.live:
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without cancelled ghosts.

        In place: :meth:`drain` holds a reference to the list across
        event callbacks (which may cancel enough to trigger compaction).
        """
        self._heap[:] = [
            entry for entry in self._heap
            if entry[2] is None or not entry[2].cancelled
        ]
        heapify(self._heap)
        self.ghosts = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.live

    @property
    def storage_size(self) -> int:
        """Entries physically held (live + ghosts) — bounded by compaction."""
        return len(self._heap)
