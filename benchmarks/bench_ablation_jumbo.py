"""Ablation: jumbo-frame block size — 4KB vs 8KB packets (§4.8).

Paper: "Large packet sizes can increase the chance of congestion in the
switch that uses store-and-forward pipelines, especially running with
multi-path exaggerates the incast scenario. ... we use 4K bytes instead
of 8K bytes for the jumbo frame to balance the congestion risk and the
benefit."

This is a pure network-level study isolating exactly that tradeoff: many
senders converge on one receiver through a shallow-buffered fabric
(incast), sending the same goodput either as 4KB-block packets or as
8KB-block packets.  Measured: per-packet delivery latency distribution,
drops, peak queue depth, and the header-amortization benefit 8KB buys.
"""

from __future__ import annotations

from common import format_table, once, save_output

from repro.core.headers import data_packet_bytes
from repro.net import ClosTopology, PodSpec
from repro.profiles import DEFAULT
from repro.sim import MS, Simulator
from repro.transport import DatagramSocket

SENDERS = 8
GOODPUT_PER_SENDER_GBPS = 6.0
DURATION_NS = 6 * MS


def run_block_size(block_bytes: int) -> dict:
    profiles = DEFAULT.with_overrides(
        network={"queue_capacity_bytes": 64 * 1024}
    )
    sim = Simulator(seed=181)
    topo = ClosTopology(
        sim, profiles.network,
        [PodSpec("cp", 2, SENDERS // 2, role="compute", spines=1),
         PodSpec("sp", 1, 1, role="storage", spines=1)],
    )
    receiver_name = "sp/r0/h0"
    receiver = DatagramSocket(sim, topo.hosts[receiver_name], "solar")
    latencies = []
    received = [0]

    def on_packet(packet):
        received[0] += 1
        latencies.append(sim.now - packet.created_ns)

    receiver.bind(7100, on_packet)

    wire_bytes = data_packet_bytes(block_bytes) + profiles.network.header_overhead_bytes
    gap_ns = int(block_bytes * 8 / GOODPUT_PER_SENDER_GBPS)
    sent = [0]
    senders = [
        DatagramSocket(sim, h, "solar")
        for name, h in sorted(topo.hosts.items()) if name.startswith("cp")
    ]

    def feed(sock: DatagramSocket, sport: int, t: int) -> None:
        if t >= DURATION_NS:
            return
        sock.send(receiver_name, sport, 7100, wire_bytes)
        sent[0] += 1
        sim.schedule(gap_ns, feed, sock, sport + 1 if sport < 40_063 else 40_000, t + gap_ns)

    for i, sock in enumerate(senders):
        # Multi-path spreading: rotate source ports like SOLAR does.
        feed(sock, 40_000 + i, 0)
    sim.run(until=DURATION_NS + 5 * MS)

    peak_queue = max(
        ch.peak_bytes for link in topo.links for ch in (link.ab, link.ba)
    )
    drops = sum(
        ch.dropped for link in topo.links for ch in (link.ab, link.ba)
    )
    latencies.sort()
    return {
        "sent": sent[0],
        "received": received[0],
        "loss": 1 - received[0] / max(1, sent[0]),
        "p50_us": latencies[len(latencies) // 2] / 1000,
        "p99_us": latencies[int(len(latencies) * 0.99)] / 1000,
        "peak_queue_kb": peak_queue / 1024,
        "drops": drops,
        "wire_efficiency": block_bytes / wire_bytes,
    }


def run_ablation() -> str:
    results = {b: run_block_size(b) for b in (4096, 8192)}
    rows = [
        [f"{b // 1024}KB", f"{r['wire_efficiency']:.1%}", f"{r['p50_us']:.0f}",
         f"{r['p99_us']:.0f}", f"{r['peak_queue_kb']:.0f}", r["drops"],
         f"{r['loss']:.2%}"]
        for b, r in results.items()
    ]
    table = format_table(
        ["block/packet", "wire eff.", "p50 (us)", "p99 (us)",
         "peak queue (KB)", "drops", "loss"], rows
    )
    r4, r8 = results[4096], results[8192]
    # Shape: 8KB buys ~1.5 points of header amortization but worsens the
    # incast tail / loss on shallow buffers — the paper's reason to stay
    # at 4KB.
    assert r8["wire_efficiency"] > r4["wire_efficiency"]
    assert r8["wire_efficiency"] - r4["wire_efficiency"] < 0.03
    assert r8["p99_us"] > r4["p99_us"]
    assert r8["drops"] >= r4["drops"]
    return ("Ablation: 4KB vs 8KB jumbo payload under incast "
            "(§4.8 picks 4KB):\n" + table)


def test_ablation_jumbo(benchmark):
    text = once(benchmark, run_ablation)
    print("\n" + text)
    save_output("ablation_jumbo", text)
