"""Deeper tests of the reliable stream engine's mechanics."""

import pytest

from repro.host.cpu import CpuComplex
from repro.net import ClosTopology, PodSpec
from repro.profiles import DEFAULT
from repro.sim import MS, Simulator
from repro.transport import LunaTransport
from repro.transport.stream import ACK_BYTES, Message, StreamConfig


def make_pair(seed=1):
    sim = Simulator(seed=seed)
    topo = ClosTopology(sim, DEFAULT.network,
                        [PodSpec("cp", 1, 2), PodSpec("sp", 1, 2)])
    client = LunaTransport(sim, topo.hosts["cp/r0/h0"], CpuComplex(sim, "c", 4), DEFAULT)
    server = LunaTransport(sim, topo.hosts["sp/r0/h0"], CpuComplex(sim, "s", 8), DEFAULT)
    server.register_handler(lambda p, e, r: r(128, "ok"))
    return sim, topo, client, server


class TestStreamConfig:
    def test_segmentation_validated(self):
        with pytest.raises(ValueError):
            StreamConfig(
                proto="x", mss=0, tso_bytes=0, header_overhead=64,
                stack_latency_ns=1, per_packet_cpu_ns=1, per_byte_cpu_ns=0,
                min_rto_ns=1, max_rto_ns=2, init_cwnd=1,
            )

    def test_tso_must_cover_mss(self):
        with pytest.raises(ValueError):
            StreamConfig(
                proto="x", mss=9000, tso_bytes=1500, header_overhead=64,
                stack_latency_ns=1, per_packet_cpu_ns=1, per_byte_cpu_ns=0,
                min_rto_ns=1, max_rto_ns=2, init_cwnd=1,
            )

    def test_message_requires_positive_size(self):
        from repro.transport.base import RpcExchange

        ex = RpcExchange("a", "b", None, 1, 1, lambda e, ok: None)
        with pytest.raises(ValueError):
            Message(ex, "req", 0)


class TestConnectionMechanics:
    def test_connection_pool_bounded(self):
        sim, _t, client, server = make_pair()
        done = []
        for _ in range(40):
            client.call(server, None, 4096, 128, lambda e, ok: done.append(ok))
        sim.run(until=sim.now + 200 * MS)
        assert len(done) == 40
        pool = client._pools[server.endpoint.name]
        assert len(pool) == client.config.connections_per_pair

    def test_distinct_sports_per_connection(self):
        sim, _t, client, server = make_pair()
        for _ in range(20):
            client.call(server, None, 4096, 128, lambda e, ok: None)
        sim.run(until=sim.now + 100 * MS)
        pool = client._pools[server.endpoint.name]
        assert len({c.sport for c in pool}) == len(pool)

    def test_messages_on_one_connection_are_fifo(self):
        sim, _t, client, server = make_pair()
        order = []
        for i in range(6):
            client.call(server, i, 4096, 128,
                        lambda e, ok: order.append(e.payload))
        sim.run(until=sim.now + 200 * MS)
        # With an 8-conn pool and 6 rpcs, each got its own connection; all
        # complete.  Issue 10 more to force queueing and check completion.
        for i in range(6, 30):
            client.call(server, i, 4096, 128,
                        lambda e, ok: order.append(e.payload))
        sim.run(until=sim.now + 500 * MS)
        assert sorted(order) == list(range(30))

    def test_cwnd_grows_during_transfer(self):
        sim, _t, client, server = make_pair()
        done = []
        client.call(server, None, 512 * 1024, 128, lambda e, ok: done.append(ok))
        sim.run(until=sim.now + 2_000 * MS)
        assert done == [True]
        conn = client._pools[server.endpoint.name][0]
        side = conn.sides[client.endpoint.name]
        assert side.cwnd > client.config.init_cwnd

    def test_rto_timer_cleared_after_completion(self):
        sim, _t, client, server = make_pair()
        done = []
        client.call(server, None, 4096, 128, lambda e, ok: done.append(ok))
        sim.run(until=sim.now + 100 * MS)
        conn = client._pools[server.endpoint.name][0]
        for side in conn.sides.values():
            assert side.rto_timer is None

    def test_ack_packets_are_small(self):
        assert ACK_BYTES < 100

    def test_loss_recovery_via_fast_retransmit(self):
        """Drop a single packet mid-message; recovery must not need a
        full RTO (dupacks trigger fast retransmit)."""
        sim, topo, client, server = make_pair(seed=5)
        # Surgical loss: drop one mid-message data packet at whichever
        # spine the flow hashes through, once.
        dropped = []
        for spine in topo.switches_by_tier("spine"):
            def lossy(packet, ingress, forward=spine.receive):
                header = packet.headers.get("stream")
                if (header and not dropped and header["offset"] > 0
                        and packet.size_bytes > 1000):
                    dropped.append(packet)
                    return  # silently dropped
                forward(packet, ingress)

            spine.receive = lossy
        done = []
        client.call(server, None, 64 * 1024, 128, lambda e, ok: done.append(e))
        sim.run(until=sim.now + 500 * MS)
        assert len(dropped) == 1
        assert done and done[0].ok
        # Healed by dupacks: the whole call beat a single min-RTO.
        assert done[0].rpc_latency_ns < client.config.min_rto_ns

    def test_failed_request_reports_error(self):
        sim, topo, client, server = make_pair(seed=6)
        for sw in topo.switches_by_tier("spine"):
            sw.set_blackhole(1.0)
        done = []
        client.call(server, None, 4096, 128, lambda e, ok: done.append((e, ok)))
        sim.run(until=sim.now + 700_000 * MS)
        (exchange, ok), = done
        assert not ok
        assert "retries" in exchange.error


class TestServerSide:
    def test_server_charges_cpu(self):
        sim, _t, client, server = make_pair()
        client.call(server, None, 64 * 1024, 128, lambda e, ok: None)
        sim.run(until=sim.now + 200 * MS)
        assert server.cpu.total_busy_ns() > 0

    def test_concurrent_clients_one_server(self):
        sim = Simulator(seed=9)
        topo = ClosTopology(sim, DEFAULT.network,
                            [PodSpec("cp", 1, 3), PodSpec("sp", 1, 1)])
        server = LunaTransport(sim, topo.hosts["sp/r0/h0"],
                               CpuComplex(sim, "s", 8), DEFAULT)
        server.register_handler(lambda p, e, r: r(128, "ok"))
        clients = [
            LunaTransport(sim, topo.hosts[f"cp/r0/h{i}"],
                          CpuComplex(sim, f"c{i}", 2), DEFAULT)
            for i in range(3)
        ]
        done = []
        for client in clients:
            for _ in range(10):
                client.call(server, None, 4096, 128, lambda e, ok: done.append(ok))
        sim.run(until=sim.now + 300 * MS)
        assert len(done) == 30 and all(done)
