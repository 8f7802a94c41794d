"""Tests for the network substrate: packets, queues, links, ECMP, switches."""

import pytest

from repro.net import (
    Channel,
    DropTailQueue,
    Endpoint,
    Link,
    Packet,
    Switch,
    flow_hash,
    pick,
)
from repro.profiles import DEFAULT
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


class TestDropTailQueue:
    def test_fifo_order(self):
        q = DropTailQueue(10_000)
        pkts = [make_packet(size=100 + i) for i in range(3)]
        for p in pkts:
            assert q.offer(p)
        assert [q.poll() for _ in range(3)] == pkts

    def test_byte_budget_drops(self):
        q = DropTailQueue(250)
        assert q.offer(make_packet(size=200))
        assert not q.offer(make_packet(size=100))
        assert q.dropped == 1
        assert q.bytes == 200

    def test_poll_empty_returns_none(self):
        assert DropTailQueue(100).poll() is None

    def test_clear_drops_everything(self):
        q = DropTailQueue(10_000)
        for _ in range(4):
            q.offer(make_packet())
        assert q.clear() == 4
        assert len(q) == 0 and q.bytes == 0

    def test_peak_tracking(self):
        q = DropTailQueue(10_000)
        q.offer(make_packet(size=1000))
        q.offer(make_packet(size=2000))
        q.poll()
        assert q.peak_bytes == 3000

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class _Sink:
    ingress_delay_ns = 0

    def __init__(self, name="sink"):
        self.name = name
        self.received = []

    def receive(self, packet, ingress):
        self.received.append((packet, ingress))


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
        assert ch.queue.dropped >= 1

    def test_in_flight_packet_lost_on_down(self):
        sim = Simulator()
        ch, dst = self._channel(sim, gbps=10.0, prop=10_000)
        ch.send(make_packet(size=1250))
        sim.run(until=1_500)  # serialized, propagating
        ch.set_up(False)
        sim.run()
        assert dst.received == []

    def test_tx_counters(self):
        sim = Simulator()
        ch, _ = self._channel(sim)
        ch.send(make_packet(size=700))
        sim.run()
        assert ch.tx_packets == 1 and ch.tx_bytes == 700


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
        # Serialization finish and delivery on each of the two channels.
        assert sim.events_processed == 4

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
