"""Tests for the Clos topology builder, routing and failure scenarios."""

import pytest

from repro.core import OP_READ_BLOCK, OP_READ_REQUEST, OP_WRITE_ACK, OP_WRITE_BLOCK
from repro.core.probing import PROBE_ECHO_OP, PROBE_OP
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.net import (
    ClosTopology,
    Packet,
    PodSpec,
    random_drop,
    switch_blackhole,
    switch_failure,
    table2_scenarios,
    tor_port_failure,
)
from repro.profiles import DEFAULT
from repro.sim import MS, Simulator


def build(sim=None, multi_dc=False):
    sim = sim or Simulator(seed=1)
    pods = [
        PodSpec("cp", racks=2, hosts_per_rack=3, role="compute"),
        PodSpec("sp", racks=2, hosts_per_rack=3, role="storage",
                dc="dc1" if multi_dc else "dc0"),
    ]
    return sim, ClosTopology(sim, DEFAULT.network, pods)


def send_and_run(sim, topo, src, dst, sport=1234):
    got = []
    topo.hosts[dst].on_default(got.append)
    # Opt in to INT: the routing tests read the switch trail it records.
    topo.hosts[src].send(Packet(src, dst, sport, 80, "udp", 1500, int_records=[]))
    sim.run(until=sim.now + 5 * MS)
    return got


class TestConstruction:
    def test_host_and_switch_counts(self):
        _sim, topo = build()
        assert len(topo.hosts) == 12
        assert len(topo.switches_by_tier("tor")) == 8  # 2 pods * 2 racks * 2
        assert len(topo.switches_by_tier("spine")) == 4
        assert len(topo.switches_by_tier("core")) == 2
        assert topo.switches_by_tier("dc_router") == []

    def test_multi_dc_adds_routers(self):
        _sim, topo = build(multi_dc=True)
        assert len(topo.switches_by_tier("dc_router")) == 2
        assert len(topo.switches_by_tier("core")) == 4  # 2 per DC

    def test_hosts_dual_homed(self):
        _sim, topo = build()
        assert all(len(h.uplinks) == 2 for h in topo.hosts.values())

    def test_degenerate_pod_rejected(self):
        with pytest.raises(ValueError):
            PodSpec("bad", racks=0, hosts_per_rack=1)

    def test_pods_by_role(self):
        _sim, topo = build()
        assert [p.name for p in topo.pods_by_role("storage")] == ["sp"]


class TestRouting:
    def test_same_rack_delivery(self):
        sim, topo = build()
        assert send_and_run(sim, topo, "cp/r0/h0", "cp/r0/h1")

    def test_cross_rack_same_pod(self):
        sim, topo = build()
        got = send_and_run(sim, topo, "cp/r0/h0", "cp/r1/h0")
        assert got
        tiers = {r.switch.split("/")[-1][:3] for r in got[0].int_records}
        assert any("spine" in r.switch for r in got[0].int_records)

    def test_cross_pod_goes_through_core(self):
        sim, topo = build()
        got = send_and_run(sim, topo, "cp/r0/h0", "sp/r1/h2")
        assert got
        assert any("core" in r.switch for r in got[0].int_records)

    def test_cross_dc_goes_through_dc_router(self):
        sim, topo = build(multi_dc=True)
        got = send_and_run(sim, topo, "cp/r0/h0", "sp/r0/h0")
        assert got
        assert any(r.switch.startswith("dcr") for r in got[0].int_records)

    def test_unknown_destination_dropped(self):
        sim, topo = build()
        topo.hosts["cp/r0/h0"].send(Packet("cp/r0/h0", "nowhere", 1, 2, "udp", 100))
        sim.run()  # no exception; dropped at the ToR with no route
        assert any(s.dropped_no_route for s in topo.switches.values())

    def test_path_hops(self):
        _sim, topo = build()
        assert topo.path_hops("cp/r0/h0", "cp/r0/h1") == 1
        assert topo.path_hops("cp/r0/h0", "cp/r1/h0") == 3
        assert topo.path_hops("cp/r0/h0", "sp/r0/h0") == 5

    def test_different_sports_can_take_different_paths(self):
        sim, topo = build()
        paths = set()
        for sport in range(40_000, 40_032):
            got = send_and_run(sim, topo, "cp/r0/h0", "sp/r0/h0", sport=sport)
            assert got
            trail = tuple(r.switch for r in got[-1].int_records)
            paths.add(trail)
            topo.hosts["sp/r0/h0"]._handlers.clear()
            topo.hosts["sp/r0/h0"]._default_handler = None
        assert len(paths) > 1  # ECMP spreads by source port


class TestFailures:
    def test_switch_fail_stop_drops(self):
        sim, topo = build()
        for tor in topo.switches_by_tier("tor"):
            tor.set_up(False)
        got = send_and_run(sim, topo, "cp/r0/h0", "cp/r0/h1")
        assert got == []

    def test_blackhole_is_flow_selective(self):
        sim, topo = build()
        for sw in topo.switches_by_tier("tor"):
            sw.set_blackhole(0.5, "t")
        delivered = 0
        for sport in range(1000, 1040):
            if send_and_run(sim, topo, "cp/r0/h0", "sp/r0/h0", sport=sport):
                delivered += 1
            topo.hosts["sp/r0/h0"]._handlers.clear()
            topo.hosts["sp/r0/h0"]._default_handler = None
        assert 0 < delivered < 40

    def test_blackhole_consistent_per_flow(self):
        sim, topo = build()
        sw = topo.switches_by_tier("spine")[0]
        sw.set_blackhole(0.5, "x")
        p = Packet("cp/r0/h0", "sp/r0/h0", 1, 2, "udp", 100)
        assert sw._blackholes(p) == sw._blackholes(p)

    def test_reboot_recovers(self):
        sim, topo = build()
        tor = topo.switches_by_tier("tor")[0]
        tor.reboot(2 * MS)
        assert not tor.up
        sim.run(until=3 * MS)
        assert tor.up

    def test_drop_rate_validation(self):
        _sim, topo = build()
        with pytest.raises(ValueError):
            topo.switches_by_tier("tor")[0].set_drop_rate(1.5)

    def test_scenario_apply_revert(self):
        sim, topo = build()
        scenario = switch_failure("spine")
        touched = scenario.apply(topo)
        assert len(touched) == 1
        assert not topo.switches[touched[0]].up
        scenario.revert(topo)
        assert topo.switches[touched[0]].up

    def test_scenario_double_apply_rejected(self):
        sim, topo = build()
        scenario = switch_blackhole("tor", 0.3)
        scenario.apply(topo)
        with pytest.raises(RuntimeError):
            scenario.apply(topo)

    def test_tor_port_failure_leaves_other_uplink(self):
        sim, topo = build()
        scenario = tor_port_failure("cp/r0/h0")
        scenario.apply(topo)
        host = topo.hosts["cp/r0/h0"]
        assert sum(1 for ch in host.uplinks if ch.up) == 1
        # Still reachable through the surviving ToR.
        assert send_and_run(sim, topo, "cp/r0/h0", "sp/r0/h0")

    def test_random_drop_scenario(self):
        sim, topo = build()
        scenario = random_drop("tor", 0.75)
        scenario.apply(topo)
        assert any(s.drop_rate == 0.75 for s in topo.switches_by_tier("tor"))
        scenario.revert(topo)
        assert all(s.drop_rate == 0.0 for s in topo.switches_by_tier("tor"))

    def test_table2_scenarios_complete(self):
        scenarios = table2_scenarios("cp/r0/h0")
        assert len(scenarios) == 7  # the seven rows of Table 2

    def test_spine_withdraws_route_to_dead_host_port(self):
        """A ToR-port failure must not blackhole the reverse path: spines
        stop using the ToR whose host link died (route withdrawal)."""
        sim, topo = build()
        scenario = tor_port_failure("cp/r0/h0")
        scenario.apply(topo)
        dead_tor = None
        for name in ("cp/r0/tor0", "cp/r0/tor1"):
            port = topo.switches[name].ports.get("cp/r0/h0")
            if port is not None and not port.up:
                dead_tor = name
        assert dead_tor is not None
        # Traffic from another pod still reaches the host, every time.
        for sport in range(5000, 5020):
            got = send_and_run(sim, topo, "sp/r0/h0", "cp/r0/h0", sport=sport)
            assert got, f"sport {sport} blackholed after port failure"
            assert all(r.switch != dead_tor for r in got[-1].int_records)
            topo.hosts["cp/r0/h0"]._handlers.clear()
            topo.hosts["cp/r0/h0"]._default_handler = None


def spied_deployment(stack, **spec):
    """A deployment whose hosts record every packet they receive."""
    dep = EbsDeployment(DeploymentSpec(stack=stack, seed=3, **spec))
    vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 64 * 1024 * 1024)
    seen = []
    for host in dep.topology.hosts.values():
        def spy(packet, ingress, receive=host.receive):
            seen.append(packet)
            receive(packet, ingress)

        host.receive = spy
    return dep, vd, seen


class TestIntOnDemand:
    """Switches stamp INT only on the packets whose receiver reads it."""

    def test_stream_packets_carry_no_int(self):
        dep, vd, seen = spied_deployment("luna")
        done = []
        vd.write(0, 16 * 1024, done.append)
        dep.run()
        vd.read(0, 16 * 1024, done.append)
        dep.run()
        assert len(done) == 2 and all(io.trace.ok for io in done)
        assert seen and all(p.int_records is None for p in seen)

    def test_solar_readers_get_one_record_per_switch_hop(self):
        dep, vd, seen = spied_deployment("solar", solar_probing_ns=1 * MS)
        done = []
        vd.write(0, 16 * 1024, done.append)
        dep.run(until_ns=5 * MS)  # the prober keeps the heap busy
        vd.read(0, 16 * 1024, done.append)
        dep.run(until_ns=10 * MS)
        assert len(done) == 2 and all(io.trace.ok for io in done)
        by_op = {}
        for p in seen:
            by_op.setdefault(p.headers["solar"]["op"], []).append(p)
        hops = dep.topology.path_hops
        for op in (OP_WRITE_BLOCK, OP_READ_BLOCK, PROBE_OP):
            assert by_op[op], op
            for p in by_op[op]:
                assert len(p.int_records) == hops(p.src, p.dst)
        # Echoes carry the forward path's records; their own path and
        # the read request's are not read, so not stamped.
        for op in (OP_WRITE_ACK, PROBE_ECHO_OP):
            assert by_op[op], op
            for p in by_op[op]:
                assert p.int_records is None
                assert len(p.headers["solar"]["int_echo"]) == hops(p.dst, p.src)
        assert all(p.int_records is None for p in by_op[OP_READ_REQUEST])
