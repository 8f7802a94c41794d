"""Tests for the discrete-event simulation kernel."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.sim import (
    MS,
    SECOND,
    SimulationError,
    Simulator,
    US,
    format_ns,
)
from repro.sim import engine
from repro.sim.engine import COMPACT_MIN_GHOSTS


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(300, order.append, "c")
        sim.schedule(100, order.append, "a")
        sim.schedule(200, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(50, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1234, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1234]
        assert sim.now == 1234

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        # Kernel events are fire-and-forget; a Timers timeout is the
        # one thing that can be cancelled.
        sim = Simulator()
        timers = sim.timers()
        fired = []
        timer = timers.add(10, fired.append, 1)
        timers.cancel(timer)
        assert sim.run() == 0
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timers = sim.timers()
        fired = []
        timer = timers.add(10, fired.append, 1)
        timers.add(20, fired.append, 2)
        timers.cancel(timer)
        timers.cancel(timer)
        sim.run()
        assert fired == [2]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        hits = []

        def outer():
            hits.append(("outer", sim.now))
            sim.schedule(5, inner)

        def inner():
            hits.append(("inner", sim.now))

        sim.schedule(10, outer)
        sim.run()
        assert hits == [("outer", 10), ("inner", 15)]

    def test_call_soon_runs_at_current_instant(self):
        sim = Simulator()
        times = []
        sim.schedule(7, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [7]


class TestRunControl:
    def test_run_until_stops_early_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "early")
        sim.schedule(10_000, fired.append, "late")
        sim.run(until=5_000)
        assert fired == ["early"]
        assert sim.now == 5_000
        sim.run()
        assert fired == ["early", "late"]

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2, fired.append, 2)
        sim.run()
        assert fired == [1]
        sim.run()  # a fresh run resumes where stop() left off
        assert fired == [1, 2]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(1, lambda: sim.run())
            sim.run()

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        timers = sim.timers()
        first = timers.add(5, lambda: None)
        timers.add(9, lambda: None)
        timers.cancel(first)
        assert sim.peek_time() == 9


def _run_arrivals(actions, joined):
    """Fired order and event count of one run.  ``actions`` are
    ``(gap, kind, delay)``, each made ``gap`` after the previous one:
    ``"arrive"`` is one of the N replies, due ``delay`` later, and
    ``"foreign"`` an unrelated event due ``delay`` later.  The joined run
    folds the replies with :meth:`Simulator.join`; the reference gives
    each reply its own event and acts on the last one."""
    sim = Simulator()
    fired = []
    count = sum(kind == "arrive" for _, kind, _ in actions)

    def note(tag, value):
        fired.append((sim.now, tag, value))

    if joined:
        arrive = sim.join(count, note, "all").arrive
    else:
        landed = []

        def land(value):
            landed.append(value)
            if len(landed) == count:
                note("all", landed)

        def arrive(time_ns, value):
            sim.schedule_at_fire(time_ns, land, value)

    def act(index, kind, delay):
        if kind == "arrive":
            arrive(sim.now + delay, index)
        else:
            sim.schedule_at_fire(sim.now + delay, note, "foreign", index)

    at = 0
    for index, (gap, kind, delay) in enumerate(actions):
        at += gap
        sim.schedule_at_fire(at, act, index, kind, delay)
    sim.run()
    return fired, sim.events_processed


class TestJoin:
    @settings(max_examples=400, deadline=None)
    @given(actions=st.lists(
        st.tuples(
            st.sampled_from([0, 0, 1, 3]),
            st.sampled_from(["arrive", "arrive", "foreign"]),
            st.sampled_from([0, 0, 1, 2, 5]),
        ),
        min_size=1,
        max_size=12,
    ))
    def test_fires_where_the_last_of_separate_events_would(self, actions):
        count = sum(kind == "arrive" for _, kind, _ in actions)
        assume(count >= 1)
        fired, events = _run_arrivals(actions, joined=True)
        ref_fired, ref_events = _run_arrivals(actions, joined=False)
        assert fired == ref_fired
        assert events == ref_events - (count - 1)

    def test_foreign_event_between_arrivals_at_the_same_nanosecond(self):
        # The latest arrival (20 ns) is made first; a foreign event is
        # queued for the same nanosecond before the last arrival (10 ns)
        # completes the join.  The join must keep the first arrival's
        # place, ahead of the foreign event.
        actions = [(0, "arrive", 20), (0, "foreign", 20), (0, "arrive", 10)]
        fired, _ = _run_arrivals(actions, joined=True)
        assert fired == [(20, "all", [2, 0]), (20, "foreign", 1)]
        assert fired == _run_arrivals(actions, joined=False)[0]

    def test_passes_args_before_values(self):
        sim = Simulator()
        got = []
        join = sim.join(2, lambda a, b, values: got.append((a, b, values)), "a", "b")
        join.arrive(5, "x")
        join.arrive(5, "y")
        sim.run()
        assert got == [("a", "b", ["x", "y"])]

    def test_arrival_in_the_past_rejected(self):
        sim = Simulator()
        sim.run(until=100)
        join = sim.join(2, lambda values: None)
        with pytest.raises(SimulationError):
            join.arrive(99, "late")

    def test_extra_arrival_rejected(self):
        sim = Simulator()
        join = sim.join(1, lambda values: None)
        join.arrive(0, "only")
        with pytest.raises(SimulationError):
            join.arrive(0, "extra")

    def test_needs_an_arrival(self):
        with pytest.raises(ValueError):
            Simulator().join(0, lambda values: None)


class TestEdgeCases:
    def test_same_instant_fifo_between_neighbours(self):
        # FIFO-tied events plus neighbours one tick either side, created
        # interleaved so creation order and time order disagree.
        sim = Simulator()
        instant = 7 * 8192
        order = []
        for i in range(5):
            sim.schedule_at(instant, order.append, ("on", i))
            sim.schedule_at(instant - 1, order.append, ("before", i))
            sim.schedule_at(instant + 1, order.append, ("after", i))
        sim.run()
        assert order == (
            [("before", i) for i in range(5)]
            + [("on", i) for i in range(5)]
            + [("after", i) for i in range(5)]
        )

    def test_schedule_at_now_during_inflight_event(self):
        # An in-flight event scheduling at the current instant runs
        # after already-pending same-instant events, before later ones.
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule_at(sim.now, order.append, "nested")
            sim.call_soon(order.append, "soon")

        sim.schedule(100, first)
        sim.schedule(100, order.append, "second")
        sim.schedule(101, order.append, "later")
        sim.run()
        assert order == ["first", "second", "nested", "soon", "later"]

    def test_stop_then_resume(self):
        # stop() halts after the in-flight event returns, even with
        # same-instant events pending; the next run() resumes there.
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "a")
        sim.schedule(11, lambda: (order.append("b"), sim.stop()))
        sim.schedule(11, order.append, "c")
        sim.schedule(12, order.append, "d")
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 11
        assert sim.peek_time() == 11
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_until_ignores_cancelled_head(self):
        # The wake-up of a cancelled timer heading the queue must not
        # let an event past ``until`` fire: the bound is exact.
        sim = Simulator()
        timers = sim.timers()
        fired = []
        ghost = timers.add(50, fired.append, "ghost")
        sim.schedule_fire(200, fired.append, "live")
        timers.cancel(ghost)
        sim.run(until=100)
        assert fired == []
        assert sim.now == 100
        sim.run()
        assert fired == ["live"]

    def test_peek_time_follows_cancelled_head(self):
        sim = Simulator()
        timers = sim.timers()
        first = timers.add(10, lambda: None)
        sim.schedule_fire(20, lambda: None)
        assert sim.peek_time() == 10
        timers.cancel(first)
        assert sim.peek_time() == 20

    def test_cancel_heavy_storage_stays_bounded(self):
        # Re-arming timers (the RTO pattern) cancels one timer per add,
        # mostly not at the head of its queue.  Waiting for the head
        # alone would grow the queue to ~n; compaction must keep it
        # within a constant factor of the live timers, and the kernel
        # heap holds the one armed wake-up.
        sim = Simulator()
        timers = sim.timers()
        handles = [timers.add(1_000_000 + i, lambda: None) for i in range(64)]
        for round_ in range(200):
            for i in range(64):
                timers.cancel(handles[i])
                handles[i] = timers.add(2_000_000 + round_ * 64 + i, lambda: None)
        assert len(timers._heap) <= 2 * COMPACT_MIN_GHOSTS + 64
        assert len(sim._heap) == 1
        assert sim.run() == 64

    def test_compact_preserves_order(self):
        # Cancelled timers that never reach the head pile up until the
        # queue compacts; the live ones still fire in (time, seq) order.
        sim = Simulator()
        timers = sim.timers()
        fired = []
        count = 3 * COMPACT_MIN_GHOSTS
        handles = [timers.add(1_000 - i % 7, fired.append, i) for i in range(count)]
        for i, handle in enumerate(handles):
            if i % 3:
                timers.cancel(handle)
        assert len(timers._heap) < count - COMPACT_MIN_GHOSTS
        assert sim.run() == count // 3
        assert fired == sorted(range(0, count, 3), key=lambda i: (1_000 - i % 7, i))


DELAYS = st.integers(0, 40)
QUEUES = st.sampled_from([0, 1])
#: A fired callback may queue one child this far ahead, as an event
#: (queue None) or in one of the two ``Timers`` queues (None: no child).
CHILDREN = st.none() | st.tuples(st.none() | QUEUES, DELAYS)


class KernelAgainstSortedList(RuleBasedStateMachine):
    """The simulator against a trivially correct model of its queue: a
    list of ``(time, seq, tag, child, stops)`` entries, sorted before
    every pop.  Events and the timers of two ``Timers`` queues share the
    list, since a timer fires where a ``schedule_fire`` made at ``add``
    would; a cancelled timer's entry is removed.  Each rule drives both;
    the invariants compare what fired, the clock, the event count and
    the next event time.  The compaction threshold is lowered so the
    ``Timers`` queues compact during a run."""

    timers = Bundle("timers")

    def __init__(self):
        super().__init__()
        self._threshold = engine.COMPACT_MIN_GHOSTS
        engine.COMPACT_MIN_GHOSTS = 2
        self.sim = Simulator()
        self.queues = [self.sim.timers(), self.sim.timers()]
        #: Per queue, the ``(handle, entry)`` of every timer a rule added.
        self.added = ([], [])
        self.fired = []
        self.expected = []
        self.pending = []
        self.now = 0
        self.seq = 0
        self.tags = itertools.count()

    def teardown(self):
        engine.COMPACT_MIN_GHOSTS = self._threshold

    # -- the simulator side ---------------------------------------------
    def _queue(self, queue, delay, tag, child, stops):
        """An event (``queue`` None) or a timer; returns the timer."""
        if queue is None:
            self.sim.schedule_fire(delay, self._callback, tag, child, stops)
            return None
        return self.queues[queue].add(delay, self._callback, tag, child, stops)

    def _callback(self, tag, child, stops):
        self.fired.append((self.sim.now, tag))
        if child is not None:
            queue, delay = child
            self._queue(queue, delay, (tag, "child"), None, False)
        if stops:
            self.sim.stop()

    # -- the model side -------------------------------------------------
    def _push(self, time, tag, child=None, stops=False):
        entry = (time, self.seq, tag, child, stops)
        self.seq += 1
        self.pending.append(entry)
        return entry

    def _run_model(self, until):
        processed = 0
        stopped = False
        while self.pending and not stopped:
            self.pending.sort()
            time, _seq, tag, child, stops = self.pending[0]
            if until is not None and time > until:
                break
            self.pending.pop(0)
            self.now = time
            processed += 1
            self.expected.append((time, tag))
            if child is not None:
                self._push(time + child[1], (tag, "child"))
            stopped = stops
        if until is not None and not stopped and self.now < until:
            self.now = until
        return processed

    # -- rules ------------------------------------------------------------
    @rule(delay=DELAYS, child=CHILDREN)
    def schedule(self, delay, child):
        tag = next(self.tags)
        self.sim.schedule(delay, self._callback, tag, child, False)
        self._push(self.now + delay, tag, child)

    @rule(delay=DELAYS, child=CHILDREN)
    def schedule_fire(self, delay, child):
        tag = next(self.tags)
        self.sim.schedule_fire(delay, self._callback, tag, child, False)
        self._push(self.now + delay, tag, child)

    @rule(child=CHILDREN)
    def call_soon(self, child):
        tag = next(self.tags)
        self.sim.call_soon(self._callback, tag, child, False)
        self._push(self.now, tag, child)

    @rule(target=timers, queue=QUEUES, delay=DELAYS, child=CHILDREN, stops=st.booleans())
    def add_timer(self, queue, delay, child, stops):
        tag = next(self.tags)
        handle = self._queue(queue, delay, tag, child, stops)
        entry = self._push(self.now + delay, tag, child, stops)
        self.added[queue].append((handle, entry))
        return queue, handle, entry

    def _cancel(self, queue, handle, entry):
        self.queues[queue].cancel(handle)
        if entry in self.pending:
            self.pending.remove(entry)

    @rule(timer=timers)
    def cancel_timer(self, timer):
        self._cancel(*timer)

    @rule(queue=QUEUES)
    def cancel_queue(self, queue):
        """Cancel every timer added to ``queue``, in the order added
        (not heap order), so cancelled timers pile up and compact."""
        for handle, entry in self.added[queue]:
            self._cancel(queue, handle, entry)
        self.added[queue].clear()

    @rule(delay=DELAYS)
    def stop_from_callback(self, delay):
        tag = next(self.tags)
        self.sim.schedule_fire(delay, self._callback, tag, None, True)
        self._push(self.now + delay, tag, None, True)

    @rule(span=st.integers(0, 60))
    def run_until(self, span):
        until = self.now + span
        assert self.sim.run(until=until) == self._run_model(until=until)

    @rule()
    def run_all(self):
        assert self.sim.run() == self._run_model(until=None)

    # -- invariants -------------------------------------------------------
    @invariant()
    def fired_order_matches(self):
        assert self.fired == self.expected

    @invariant()
    def clock_matches(self):
        assert self.sim.now == self.now

    @invariant()
    def events_processed_matches(self):
        assert self.sim.events_processed == len(self.fired)

    @invariant()
    def peek_time_matches(self):
        expected = min(self.pending)[0] if self.pending else None
        assert self.sim.peek_time() == expected


KernelAgainstSortedList.TestCase.settings = settings(
    max_examples=300, stateful_step_count=50, deadline=None
)
TestKernelAgainstSortedList = KernelAgainstSortedList.TestCase


class TestRng:
    def test_streams_are_reproducible(self):
        a = Simulator(seed=99).rng.stream("x")
        b = Simulator(seed=99).rng.stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_by_name(self):
        sim = Simulator(seed=99)
        a = sim.rng.stream("a")
        b = sim.rng.stream("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng.stream("x")
        b = Simulator(seed=2).rng.stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_cached(self):
        sim = Simulator()
        assert sim.rng.stream("s") is sim.rng.stream("s")

    def test_fork_gives_independent_registry(self):
        sim = Simulator(seed=5)
        fork = sim.rng.fork("trial-1")
        a = sim.rng.stream("x").random()
        b = fork.stream("x").random()
        assert a != b


class TestTimeHelpers:
    def test_constants(self):
        assert US == 1_000 and MS == 1_000_000 and SECOND == 1_000_000_000

    def test_format_ns(self):
        assert format_ns(500) == "500ns"
        assert format_ns(1500) == "1.500us"
        assert format_ns(2 * MS) == "2.000ms"
        assert format_ns(3 * SECOND) == "3.000s"
        assert format_ns(None) == "∞"


class TestTimers:
    def test_wake_ups_are_not_events(self):
        sim = Simulator()
        timers = sim.timers()
        fired = []
        handles = [timers.add(10 * i, fired.append, i) for i in range(1, 6)]
        for handle in handles[:4]:
            timers.cancel(handle)
        sim.schedule_fire(35, fired.append, "foreign")
        assert sim.peek_time() == 35
        assert sim.run() == 2
        assert fired == ["foreign", 5]
        assert sim.events_processed == 2 and sim.now == 50

    def test_earlier_timer_supersedes_the_armed_wake_up(self):
        sim = Simulator()
        timers = sim.timers()
        fired = []
        late = timers.add(100, fired.append, "late")
        timers.add(10, fired.append, "early")
        timers.add(100, fired.append, "tie")
        assert sim.peek_time() == 10
        sim.run(until=50)
        assert fired == ["early"] and sim.peek_time() == 100
        timers.cancel(late)
        assert sim.peek_time() == 100
        sim.run()
        assert fired == ["early", "tie"] and sim.events_processed == 2

    def test_cancel_after_fire_is_a_no_op(self):
        sim = Simulator()
        timers = sim.timers()
        handle = timers.add(5, lambda: None)
        sim.run()
        timers.cancel(handle)
        timers.cancel(handle)
        assert sim.events_processed == 1 and sim.peek_time() is None

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timers().add(-1, lambda: None)

    def test_re_armed_timeout_keeps_storage_bounded(self):
        # The RTO pattern: every step cancels the armed timeout and arms
        # a later one.  The kernel heap holds one wake-up, the queue's own
        # heap stays within a constant factor of the live timers.
        sim = Simulator()
        timers = sim.timers()
        handle = timers.add(1_000_000, lambda: None)
        for step in range(5_000):
            timers.cancel(handle)
            handle = timers.add(1_000_000 + step, lambda: None)
        assert len(sim._heap) == 1
        assert len(timers._heap) <= 2 * COMPACT_MIN_GHOSTS + 2
        assert sim.peek_time() == 1_000_000 + 4_999
