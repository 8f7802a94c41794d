"""Tests for the network substrate: packets, queues, links, ECMP, switches."""

from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net import (
    Channel,
    ClosTopology,
    Endpoint,
    Link,
    Packet,
    PodSpec,
    Switch,
    flow_hash,
    pick,
)
from repro.profiles import DEFAULT, bytes_time_ns
from repro.sim import Simulator


def make_packet(src="a", dst="b", sport=1000, dport=2000, proto="udp", size=1500):
    return Packet(src, dst, sport, dport, proto, size)


class TestPacket:
    def test_flow_tuple(self):
        p = make_packet()
        assert p.flow == ("a", "b", 1000, 2000, "udp")

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            make_packet(size=0)

    def test_payload_cannot_exceed_wire_size(self):
        with pytest.raises(ValueError):
            Packet("a", "b", 1, 2, "udp", 10, payload=b"x" * 11)

    def test_header_accessor_reports_missing_layer(self):
        p = make_packet()
        p.headers["rpc"] = {"id": 1}
        assert p.header("rpc") == {"id": 1}
        with pytest.raises(KeyError, match="ebs"):
            p.header("ebs")

    def test_reply_shell_mirrors_tuple(self):
        p = make_packet()
        r = p.reply_shell(64)
        assert r.flow == ("b", "a", 2000, 1000, "udp")
        assert r.size_bytes == 64

    def test_packet_ids_unique(self):
        assert make_packet().pkt_id != make_packet().pkt_id


class _Sink:
    ingress_delay_ns = 0

    def __init__(self, name="sink"):
        self.name = name
        self.received = []

    def receive(self, packet, ingress):
        self.received.append((packet, ingress))


def _queue_channel(sim, capacity=10_000, gbps=0.001):
    """A channel slow enough that frames after the first wait."""
    return Channel(sim, "src->dst", _Sink("src"), _Sink("dst"), gbps, 0, capacity)


class TestDropTailQueue:
    """The channel's byte-budget drop-tail egress FIFO."""

    def test_fifo_order(self):
        sim = Simulator()
        ch = _queue_channel(sim, gbps=10.0)
        pkts = [make_packet(size=100 + i) for i in range(3)]
        for p in pkts:
            assert ch.send(p)
        sim.run()
        assert [p for p, _ in ch.dst.received] == pkts

    def test_byte_budget_drops(self):
        sim = Simulator()
        ch = _queue_channel(sim, capacity=250)
        assert ch.send(make_packet(size=200))  # on the wire at once
        assert ch.send(make_packet(size=200))
        assert not ch.send(make_packet(size=100))
        assert ch.dropped == 1
        assert ch.queue_bytes == 200

    def test_idle_channel_queues_nothing(self):
        ch = _queue_channel(Simulator())
        assert ch.queue_bytes == 0
        assert ch.tx_packets == 0 and ch.tx_bytes == 0

    def test_clear_drops_everything(self):
        sim = Simulator()
        ch = _queue_channel(sim)
        for _ in range(5):
            ch.send(make_packet())
        ch.set_up(False)
        assert ch.dropped == 4  # all but the frame on the wire
        assert ch.queue_bytes == 0

    def test_peak_tracking(self):
        sim = Simulator()
        ch = _queue_channel(sim)
        ch.send(make_packet(size=1000))
        ch.send(make_packet(size=2000))
        sim.run()
        assert ch.queue_bytes == 0
        # The first frame starts at once but counts at that instant.
        assert ch.peak_bytes == 3000

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            _queue_channel(Simulator(), capacity=0)


class TestChannel:
    def _channel(self, sim, gbps=10.0, prop=500):
        src, dst = _Sink("src"), _Sink("dst")
        ch = Channel(sim, "src->dst", src, dst, gbps, prop, 100_000)
        return ch, dst

    def test_delivery_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        ch, dst = self._channel(sim, gbps=10.0, prop=500)
        ch.send(make_packet(size=1250))  # 1250B at 10G = 1000ns
        sim.run()
        assert len(dst.received) == 1
        assert sim.now == 1000 + 500

    def test_back_to_back_serialize(self):
        sim = Simulator()
        ch, dst = self._channel(sim, gbps=10.0, prop=0)
        ch.send(make_packet(size=1250))
        ch.send(make_packet(size=1250))
        sim.run()
        assert sim.now == 2000  # second waits for the first's wire time

    def test_down_channel_drops_silently(self):
        sim = Simulator()
        ch, dst = self._channel(sim)
        ch.set_up(False)
        assert ch.send(make_packet()) is False
        sim.run()
        assert dst.received == []

    def test_going_down_flushes_queue(self):
        sim = Simulator()
        ch, dst = self._channel(sim, gbps=0.001)  # slow: packets queue
        ch.send(make_packet())
        ch.send(make_packet())
        ch.set_up(False)
        assert ch.dropped >= 1

    def test_in_flight_packet_lost_on_down(self):
        sim = Simulator()
        ch, dst = self._channel(sim, gbps=10.0, prop=10_000)
        ch.send(make_packet(size=1250))
        sim.run(until=1_500)  # serialized, propagating
        ch.set_up(False)
        sim.run()
        assert dst.received == []

    def test_down_at_serialization_end_loses_frame(self):
        sim = Simulator()
        ch, dst = self._channel(sim, gbps=10.0, prop=500)
        ch.send(make_packet(size=1250))  # on the wire until 1000
        ch.set_up(False)
        sim.run(until=1_200)
        ch.set_up(True)  # back up before the delivery instant
        sim.run()
        assert dst.received == []

    def test_back_up_before_serialization_end_delivers(self):
        sim = Simulator()
        ch, dst = self._channel(sim, gbps=10.0, prop=500)
        ch.send(make_packet(size=1250))
        sim.run(until=400)
        ch.set_up(False)
        sim.run(until=800)
        ch.set_up(True)
        sim.run()
        assert len(dst.received) == 1 and sim.now == 1_500

    def test_line_frees_when_the_frame_on_the_wire_ends(self):
        sim = Simulator()
        dst = _ArrivalLog(sim, "dst")
        ch = Channel(sim, "src->dst", _Sink("src"), dst, 10.0, 0, 100_000)
        for _ in range(3):
            ch.send(make_packet(size=1250))  # 1000 ns each
        ch.set_up(False)  # the two waiting frames are lost
        ch.set_up(True)
        ch.send(make_packet(size=1250))
        sim.run()
        assert [at for at, _ in dst.arrivals] == [1000, 2000]

    def test_tx_counters(self):
        sim = Simulator()
        ch, _ = self._channel(sim)
        ch.send(make_packet(size=700))
        sim.run()
        assert ch.tx_packets == 1 and ch.tx_bytes == 700

    def test_send_at_the_serialization_end_finds_the_line_idle(self):
        """At the instant the last frame ends, the line is free: the next
        frame starts at once and nothing waits."""
        sim = Simulator()
        dst = _ArrivalLog(sim, "dst")
        ch = Channel(sim, "src->dst", _Sink("src"), dst, 10.0, 500, 100_000)
        ch.send(make_packet(size=1250))  # on the wire 0..1000
        sim.schedule_at_fire(1_000, ch.send, make_packet(size=2500))
        sim.run(until=1_000)
        assert ch.queue_bytes == 0 and ch.tx_packets == 1
        assert ch.peak_bytes == 2500
        sim.run()
        assert [at for at, _ in dst.arrivals] == [1_500, 3_500]

    def test_idle_line_drops_a_frame_over_capacity(self):
        sim = Simulator()
        ch = Channel(sim, "src->dst", _Sink("src"), _Sink("dst"), 10.0, 500, 1_000)
        assert ch.send(make_packet(size=1_001)) is False
        assert (ch.enqueued, ch.dropped, ch.peak_bytes) == (0, 1, 0)
        assert ch.send(make_packet(size=1_000)) is True


class _TwoEventChannel:
    """Reference model: the channel as two events per frame over an
    explicit FIFO.  Serialization end pops the next frame and schedules
    the delivery; the channel is judged up at both.  The peak still
    counts a frame that left the queue at the current instant."""

    def __init__(self, sim, dst, gbps, propagation_ns, capacity_bytes):
        self.sim, self.dst = sim, dst
        self.gbps, self.propagation_ns = gbps, propagation_ns
        self.capacity_bytes = capacity_bytes
        self.waiting = deque()
        self.queue_bytes = self.peak_bytes = 0
        self.enqueued = self.dropped = 0
        self.tx_packets = self.tx_bytes = 0
        self.up = True
        self.busy = False
        self.started = (None, 0)  # (instant, size) of the last frame started

    def send(self, packet):
        if not self.up:
            return False
        if self.queue_bytes + packet.size_bytes > self.capacity_bytes:
            self.dropped += 1
            return False
        self.waiting.append(packet)
        self.queue_bytes += packet.size_bytes
        self.enqueued += 1
        at, size = self.started
        starting = size if at == self.sim.now else 0
        self.peak_bytes = max(self.peak_bytes, self.queue_bytes + starting)
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self):
        self.busy = bool(self.waiting)
        if self.busy:
            packet = self.waiting.popleft()
            self.queue_bytes -= packet.size_bytes
            self.started = (self.sim.now, packet.size_bytes)
            wire_ns = bytes_time_ns(packet.size_bytes, self.gbps)
            self.sim.schedule_fire(wire_ns, self._finish_serialize, packet)

    def _finish_serialize(self, packet):
        self.tx_packets += 1
        self.tx_bytes += packet.size_bytes
        if self.up:
            self.sim.schedule_fire(self.propagation_ns, self._deliver, packet)
        self._start_next()

    def _deliver(self, packet):
        if self.up:
            self.dst.receive(packet, self)

    def set_up(self, up):
        if self.up and not up:
            self.dropped += len(self.waiting)
            self.waiting.clear()
            self.queue_bytes = 0
        self.up = up


class _ArrivalLog:
    ingress_delay_ns = 0

    def __init__(self, sim, name):
        self.sim, self.name = sim, name
        self.arrivals = []

    def receive(self, packet, ingress):
        self.arrivals.append((self.sim.now, packet.pkt_id))


class ChannelAgainstTwoEventModel(RuleBasedStateMachine):
    """One :class:`Channel` against :class:`_TwoEventChannel` on the same
    simulator.  Each rule acts between runs, after every event at the
    current instant has fired, so the reference's queue and tx counters
    follow the channel's same-ns rule by construction.  The invariants
    compare deliveries (time and order), drops, waiting bytes, peak and
    tx counters."""

    GBPS, PROP, CAPACITY = 10.0, 500, 20_000

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.got = _ArrivalLog(self.sim, "got")
        self.want = _ArrivalLog(self.sim, "want")
        self.channel = Channel(
            self.sim, "ch", _Sink("src"), self.got, self.GBPS, self.PROP,
            self.CAPACITY,
        )
        self.model = _TwoEventChannel(
            self.sim, self.want, self.GBPS, self.PROP, self.CAPACITY
        )

    # Frames around the capacity too: one over it is dropped even by an
    # idle line.
    @rule(size=st.integers(64, 9000) | st.integers(CAPACITY - 64, CAPACITY + 64))
    def send(self, size):
        packet = make_packet(size=size)
        assert self.channel.send(packet) == self.model.send(packet)

    @rule(span=st.integers(0, 20_000))
    def advance(self, span):
        self.sim.run(until=self.sim.now + span)

    @rule()
    def step(self):
        """Run to the next event's instant, so the other rules also act
        exactly at a serialization end or a delivery."""
        next_ns = self.sim.peek_time()
        if next_ns is not None:
            self.sim.run(until=next_ns)

    @rule()
    def flip(self):
        up = not self.channel.up
        self.channel.set_up(up)
        self.model.set_up(up)

    @rule()
    def drain(self):
        self.sim.run()

    @invariant()
    def deliveries_match(self):
        assert self.got.arrivals == self.want.arrivals

    @invariant()
    def queue_matches(self):
        ch, model = self.channel, self.model
        assert ch.up == model.up
        assert ch.queue_bytes == model.queue_bytes
        assert ch.peak_bytes == model.peak_bytes
        assert (ch.enqueued, ch.dropped) == (model.enqueued, model.dropped)

    @invariant()
    def tx_counters_match(self):
        ch, model = self.channel, self.model
        assert (ch.tx_packets, ch.tx_bytes) == (model.tx_packets, model.tx_bytes)


ChannelAgainstTwoEventModel.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestChannelAgainstTwoEventModel = ChannelAgainstTwoEventModel.TestCase


class TestLink:
    def test_duplex_channels(self):
        sim = Simulator()
        a, b = _Sink("a"), _Sink("b")
        link = Link(sim, a, b, 10.0, 100, 10_000)
        assert link.channel_from(a) is link.ab
        assert link.channel_from(b) is link.ba
        assert link.other(a) is b
        with pytest.raises(ValueError):
            link.channel_from(_Sink("c"))


class TestSwitchHop:
    """host -> switch -> host.  The ingress channel delivers a packet
    ``switch_forward_ns`` after its propagation delay, and the switch
    forwards it in that same event: liveness is judged once, then."""

    GBPS, PROP = 10.0, 500
    WIRE = 1_000  # 1250 B at 10 Gb/s
    FORWARD = DEFAULT.network.switch_forward_ns

    def _rack(self, sim):
        tor = Switch(sim, "tor", "tor", DEFAULT.network, lambda sw, pkt: [pkt.dst])
        hosts, uplinks = {}, {}
        for name in ("h0", "h1"):
            host = Endpoint(sim, name)
            link = Link(sim, host, tor, self.GBPS, self.PROP, 100_000)
            host.add_uplink(link.channel_from(host))
            tor.connect(name, link.channel_from(tor))
            hosts[name], uplinks[name] = host, link.channel_from(host)
        return tor, hosts, uplinks

    def _send(self, sim, hosts):
        arrived = []
        hosts["h1"].on_default(lambda p: arrived.append(sim.now))
        hosts["h0"].send(make_packet(src="h0", dst="h1", size=1250))
        return arrived

    def test_same_rack_arrival_time(self):
        sim = Simulator()
        _tor, hosts, _uplinks = self._rack(sim)
        arrived = self._send(sim, hosts)
        sim.run()
        assert arrived == [2 * self.WIRE + 2 * self.PROP + self.FORWARD]
        # One delivery on each of the two channels.
        assert sim.events_processed == 2

    def test_switch_down_inside_forward_window_drops(self):
        sim = Simulator()
        tor, hosts, _uplinks = self._rack(sim)
        arrived = self._send(sim, hosts)
        sim.run(until=self.WIRE + self.PROP + self.FORWARD // 2)
        tor.set_up(False)
        sim.run()
        assert arrived == []
        assert tor.dropped_down == 1

    def test_ingress_channel_down_inside_forward_window_drops(self):
        sim = Simulator()
        tor, hosts, uplinks = self._rack(sim)
        arrived = self._send(sim, hosts)
        sim.run(until=self.WIRE + self.PROP + self.FORWARD // 2)
        uplinks["h0"].set_up(False)
        sim.run()
        assert arrived == []
        assert tor.rx_packets == 0

    def test_switch_back_up_before_forward_delivers(self):
        sim = Simulator()
        tor, hosts, _uplinks = self._rack(sim)
        arrived = self._send(sim, hosts)
        sim.run(until=self.WIRE + self.PROP - 1)  # down as the packet lands
        tor.set_up(False)
        sim.run(until=self.WIRE + self.PROP + self.FORWARD // 2)
        tor.set_up(True)
        sim.run()
        assert arrived == [2 * self.WIRE + 2 * self.PROP + self.FORWARD]

    def test_int_stamped_only_on_opt_in(self):
        sim = Simulator()
        _tor, hosts, _uplinks = self._rack(sim)
        got = []
        hosts["h1"].on_default(got.append)
        plain = make_packet(src="h0", dst="h1")
        stamped = Packet("h0", "h1", 1000, 2000, "udp", 1500, int_records=[])
        hosts["h0"].send(plain)
        hosts["h0"].send(stamped)
        sim.run()
        assert got == [plain, stamped]
        assert plain.int_records is None
        assert [r.switch for r in stamped.int_records] == ["tor"]

    def test_int_stamp_reads_the_settled_egress(self):
        """A frame that ended before the stamp, with no send since to
        settle the egress, counts as sent and no longer waits."""
        sim = Simulator()
        tor, hosts, _uplinks = self._rack(sim)
        got = []
        hosts["h1"].on_default(got.append)
        hosts["h0"].send(make_packet(src="h0", dst="h1", size=1250))
        sim.run()
        stamped = Packet("h0", "h1", 1000, 2000, "udp", 1500, int_records=[])
        hosts["h0"].send(stamped)
        sim.run()
        (record,) = stamped.int_records
        assert (record.queue_bytes, record.tx_bytes) == (0, 1250)
        assert tor.ports["h1"].tx_bytes == 1250 + 1500

    def test_drop_rate_drops_and_clears(self):
        sim = Simulator()
        tor, hosts, _uplinks = self._rack(sim)
        tor.set_drop_rate(1.0)
        arrived = self._send(sim, hosts)
        sim.run()
        assert arrived == [] and tor.dropped_blackhole == 1
        tor.set_drop_rate(0.0)
        hosts["h0"].send(make_packet(src="h0", dst="h1", size=1250))
        sim.run()
        assert len(arrived) == 1 and tor.forwarded == 1


class TestEcmp:
    def test_flow_hash_deterministic(self):
        flow = ("a", "b", 1, 2, "udp")
        assert flow_hash(flow) == flow_hash(flow)

    def test_salt_changes_hash(self):
        flow = ("a", "b", 1, 2, "udp")
        assert flow_hash(flow, "s1") != flow_hash(flow, "s2")

    def test_sport_changes_hash(self):
        a = flow_hash(("a", "b", 1000, 2, "udp"))
        b = flow_hash(("a", "b", 1001, 2, "udp"))
        assert a != b  # SOLAR's path-by-port mechanism depends on this

    def test_pick_consistent(self):
        flow = ("a", "b", 5, 6, "tcp")
        candidates = ["x", "y", "z"]
        assert pick(flow, candidates) == pick(flow, candidates)

    def test_pick_empty_rejected(self):
        with pytest.raises(ValueError):
            pick(("a", "b", 1, 2, "t"), [])

    def test_port_spread_covers_candidates(self):
        """Varying the source port must reach every candidate eventually —
        otherwise SOLAR's multipath could not cover the fabric."""
        candidates = list(range(4))
        seen = {
            pick(("h1", "h2", sport, 7100, "solar"), candidates)
            for sport in range(40_000, 40_064)
        }
        assert seen == set(candidates)


class TestEndpoint:
    def _endpoint_pair(self, sim):
        a = Endpoint(sim, "a")
        b = Endpoint(sim, "b")
        link = Link(sim, a, b, 10.0, 100, 100_000)
        a.add_uplink(link.ab)
        b.add_uplink(link.ba)
        return a, b

    def test_proto_demux(self):
        sim = Simulator()
        a, b = self._endpoint_pair(sim)
        tcp, udp = [], []
        b.on_proto("tcp", tcp.append)
        b.on_proto("udp", udp.append)
        a.send(make_packet(src="a", dst="b", proto="udp"))
        a.send(make_packet(src="a", dst="b", proto="tcp"))
        sim.run()
        assert len(tcp) == 1 and len(udp) == 1

    def test_unhandled_proto_raises(self):
        sim = Simulator()
        a, b = self._endpoint_pair(sim)
        a.send(make_packet(src="a", dst="b", proto="mystery"))
        with pytest.raises(RuntimeError, match="no handler"):
            sim.run()

    def test_no_live_uplinks_counts_drop(self):
        sim = Simulator()
        a, b = self._endpoint_pair(sim)
        a.uplinks[0].set_up(False)
        assert a.send(make_packet(src="a", dst="b")) is False
        assert a.tx_dropped == 1


class ForwardingTableNeverStale(RuleBasedStateMachine):
    """Switch and endpoint forwarding tables on a small Clos fabric under
    random channel flips and traffic.  After every step each node's
    egress for a fixed set of flows must equal the ECMP pick over the
    live candidates computed from scratch, and no node may ever have
    handed a packet to a down channel."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.topo = ClosTopology(self.sim, DEFAULT.network, [
            PodSpec("c", racks=2, hosts_per_rack=1),
            PodSpec("s", racks=1, hosts_per_rack=2, role="storage"),
        ])
        self.channels = [ch for link in self.topo.links for ch in (link.ab, link.ba)]
        self.sent_to_down = []
        self.handed = []
        for channel in self.channels:
            channel.send = self._watch(channel)
        for host in self.topo.hosts.values():
            host.on_default(lambda packet: None)
        names = sorted(self.topo.hosts)
        pairs = [(src, dst) for src in names for dst in names if src != dst]
        self.flows = [
            (src, dst, 1000 + i, 7000, "udp") for i, (src, dst) in enumerate(pairs)
        ]

    def _watch(self, channel):
        send = channel.send

        def watched(packet):
            self.handed.append(channel)
            if not channel.up:
                self.sent_to_down.append((channel.name, packet.flow))
            return send(packet)

        return watched

    def _probe(self, node, flow):
        """The channel ``node`` hands a packet of ``flow`` to, or None."""
        self.handed.clear()
        packet = Packet(*flow, 64, ttl=1)  # dropped at the next switch
        if isinstance(node, Switch):
            node.receive(packet, None)
        else:
            node.send(packet)
        assert len(self.handed) <= 1
        return self.handed[0] if self.handed else None

    # -- rules ------------------------------------------------------------
    @rule(index=st.integers(0, 10_000))
    def flip(self, index):
        channel = self.channels[index % len(self.channels)]
        channel.set_up(not channel.up)

    @rule(index=st.integers(0, 10_000))
    def send(self, index):
        flow = self.flows[index % len(self.flows)]
        self.topo.hosts[flow[0]].send(Packet(*flow, 1500))

    @rule(span=st.integers(0, 20_000))
    def advance(self, span):
        self.sim.run(until=self.sim.now + span)

    # -- invariants -------------------------------------------------------
    @invariant()
    def switch_egress_matches_scratch(self):
        for switch in self.topo.switches.values():
            for flow in self.flows:
                packet = Packet(*flow, 64)
                live = [
                    name for name in self.topo._next_hops(switch, packet)
                    if name in switch.ports and switch.ports[name].up
                ]
                want = switch.ports[pick(flow, live, salt=switch.name)] if live else None
                assert self._probe(switch, flow) is want

    @invariant()
    def endpoint_egress_matches_scratch(self):
        for host in self.topo.hosts.values():
            for flow in self.flows:
                if flow[0] != host.name:
                    continue
                live = [ch for ch in host.uplinks if ch.up]
                want = pick(flow, live, salt=host.name) if live else None
                assert self._probe(host, flow) is want

    @invariant()
    def nothing_handed_to_a_down_channel(self):
        assert self.sent_to_down == []


ForwardingTableNeverStale.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestForwardingTableNeverStale = ForwardingTableNeverStale.TestCase
