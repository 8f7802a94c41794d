"""Tests for fault injection and hang monitoring."""

import random

import pytest

from repro.faults import (
    BitFlipInjector,
    CorruptionEventGenerator,
    IoHangMonitor,
    ROOT_CAUSE_WEIGHTS,
    TimedFault,
    flip_bit,
)
from repro.net.failures import switch_blackhole
from repro.sim import MS, SECOND, Simulator


class TestBitFlip:
    def test_flip_changes_exactly_one_bit(self):
        data = bytes(64)
        flipped = flip_bit(data, 100)
        diff = [a ^ b for a, b in zip(data, flipped)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_flip_empty_rejected(self):
        with pytest.raises(ValueError):
            flip_bit(b"", 0)

    def test_injector_rates(self):
        rng = random.Random(1)
        injector = BitFlipInjector(rng, payload_flip_rate=1.0, crc_flip_rate=0.0)
        out = injector.corrupt_payload(b"\x00" * 16, "egress-crc")
        assert out != b"\x00" * 16
        assert injector.corrupt_crc(0x1234, "egress-crc") == 0x1234
        assert injector.total_injected == 1

    def test_zero_rate_never_corrupts(self):
        injector = BitFlipInjector(random.Random(1))
        data = b"abc" * 100
        assert injector.corrupt_payload(data, "s") is data
        assert injector.corrupt_crc(7, "s") == 7

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            BitFlipInjector(random.Random(1), payload_flip_rate=1.5)


class TestCorruptionEvents:
    def test_weights_sum_to_one(self):
        assert sum(ROOT_CAUSE_WEIGHTS.values()) == pytest.approx(1.0)

    def test_fpga_is_top_cause(self):
        # §4.4: "FPGA error is the major contributor by 37%".
        assert ROOT_CAUSE_WEIGHTS["fpga_flapping"] == pytest.approx(0.37)
        assert max(ROOT_CAUSE_WEIGHTS, key=ROOT_CAUSE_WEIGHTS.get) == "fpga_flapping"

    def test_draw_distribution(self):
        gen = CorruptionEventGenerator(random.Random(5))
        events = gen.draw_many(5_000)
        share = sum(e.root_cause == "fpga_flapping" for e in events) / len(events)
        assert share == pytest.approx(0.37, abs=0.03)

    def test_all_events_detected(self):
        gen = CorruptionEventGenerator(random.Random(5))
        assert all(e.detected_by_software_crc for e in gen.draw_many(50))

    def test_ids_unique(self):
        gen = CorruptionEventGenerator(random.Random(5))
        events = gen.draw_many(10)
        assert len({e.event_id for e in events}) == 10

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            CorruptionEventGenerator(random.Random(1), {"a": 0.5})


class TestHangMonitor:
    def _io(self, sim, complete_after_ns=None):
        from repro.agent.base import IoRequest
        from repro.metrics.trace import IoTrace

        io = IoRequest("write", "vd", 0, 4096, lambda io: None)
        io.trace = IoTrace(io.io_id, "write", 4096, sim.now)
        if complete_after_ns is not None:
            sim.schedule(complete_after_ns, io.trace.complete, sim.now + complete_after_ns)
        return io

    def test_fast_io_not_counted(self):
        sim = Simulator()
        monitor = IoHangMonitor(sim, threshold_ns=1 * SECOND)
        monitor.watch(self._io(sim, complete_after_ns=10 * MS))
        sim.run()
        assert monitor.hangs == 0

    def test_stuck_io_counted(self):
        sim = Simulator()
        monitor = IoHangMonitor(sim, threshold_ns=1 * SECOND)
        monitor.watch(self._io(sim, complete_after_ns=None))
        sim.run()
        assert monitor.hangs == 1

    def test_slow_but_completed_io_counted(self):
        sim = Simulator()
        monitor = IoHangMonitor(sim, threshold_ns=100 * MS)
        monitor.watch(self._io(sim, complete_after_ns=50 * MS))
        monitor.watch(self._io(sim, complete_after_ns=2 * SECOND))
        sim.run()
        assert monitor.hangs == 1

    def test_watched_counter(self):
        sim = Simulator()
        monitor = IoHangMonitor(sim)
        for _ in range(3):
            monitor.watch(self._io(sim, complete_after_ns=1))
        assert monitor.watched == 3


class TestTimedFault:
    def test_apply_and_revert_scheduled(self):
        from repro.net import ClosTopology, PodSpec
        from repro.profiles import DEFAULT

        sim = Simulator(seed=1)
        topo = ClosTopology(sim, DEFAULT.network, [PodSpec("p", 1, 2)])
        fault = TimedFault(switch_blackhole("tor", 0.5), start_ns=10 * MS,
                           end_ns=50 * MS)
        fault.schedule(sim, topo)
        sim.run(until=20 * MS)
        assert any(s.blackhole_fraction > 0 for s in topo.switches_by_tier("tor"))
        sim.run(until=60 * MS)
        assert all(s.blackhole_fraction == 0 for s in topo.switches_by_tier("tor"))

    def test_end_before_start_rejected(self):
        from repro.net import ClosTopology, PodSpec
        from repro.profiles import DEFAULT

        sim = Simulator(seed=1)
        topo = ClosTopology(sim, DEFAULT.network, [PodSpec("p", 1, 2)])
        fault = TimedFault(switch_blackhole("tor", 0.5), start_ns=10, end_ns=5)
        with pytest.raises(ValueError):
            fault.schedule(sim, topo)

    def test_zero_duration_rejected(self):
        # start == end would apply and revert at the same instant; the
        # event order would then decide whether the fault ever existed.
        from repro.net import ClosTopology, PodSpec
        from repro.profiles import DEFAULT

        sim = Simulator(seed=1)
        topo = ClosTopology(sim, DEFAULT.network, [PodSpec("p", 1, 2)])
        fault = TimedFault(switch_blackhole("tor", 0.5), start_ns=10 * MS,
                           end_ns=10 * MS)
        with pytest.raises(ValueError):
            fault.schedule(sim, topo)

    def test_overlapping_faults_on_same_switch(self):
        # Two blackholes overlap on the same ToR.  Scenario state is
        # last-writer-wins: the later apply overwrites the fraction, and
        # either revert clears the switch entirely (reverts set 0.0, they
        # do not unwind contributions).  Pin that down so overlapping
        # schedules stay deterministic rather than order-dependent.
        from repro.net import ClosTopology, PodSpec
        from repro.profiles import DEFAULT

        sim = Simulator(seed=1)
        topo = ClosTopology(sim, DEFAULT.network, [PodSpec("p", 1, 2)])
        TimedFault(switch_blackhole("tor", 0.5), 10 * MS, 50 * MS).schedule(sim, topo)
        TimedFault(switch_blackhole("tor", 0.9), 20 * MS, 80 * MS).schedule(sim, topo)
        tor = topo.switches_by_tier("tor")[0]
        sim.run(until=15 * MS)
        assert tor.blackhole_fraction == pytest.approx(0.5)
        sim.run(until=30 * MS)  # second apply overwrites the first
        assert tor.blackhole_fraction == pytest.approx(0.9)
        sim.run(until=60 * MS)  # first revert clears the shared state
        assert tor.blackhole_fraction == 0
        sim.run(until=100 * MS)  # second revert is a harmless no-op
        assert tor.blackhole_fraction == 0

    def test_fault_after_run_horizon_is_noop(self):
        # Scheduling a fault beyond the horizon the experiment runs to must
        # neither fire nor crash the drained simulator.
        from repro.net import ClosTopology, PodSpec
        from repro.profiles import DEFAULT

        sim = Simulator(seed=1)
        topo = ClosTopology(sim, DEFAULT.network, [PodSpec("p", 1, 2)])
        fault = TimedFault(switch_blackhole("tor", 0.5), start_ns=500 * MS,
                           end_ns=600 * MS)
        fault.schedule(sim, topo)
        sim.run(until=100 * MS)
        assert all(s.blackhole_fraction == 0 for s in topo.switches_by_tier("tor"))
        assert sim.now <= 100 * MS
