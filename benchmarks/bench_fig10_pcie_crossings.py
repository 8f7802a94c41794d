"""Figure 10: where the data goes — CPU and PCIe involvement per stack.

The paper's architectural argument in one diagram: under bare-metal
hosting, LUNA's datapath (a) and RDMA's (b) both haul every byte across
the ALI-DPU's internal PCIe twice and through its CPU; SOLAR (c) hands
packets between the network and storage pipelines inside the FPGA and
touches guest memory only via host-PCIe DMA.

This bench runs the same 1MB of 4KB writes + reads on each stack and
reports *measured* byte counts on each resource — a structural assertion,
not a performance one.
"""

from __future__ import annotations

from common import format_table, once, save_output

from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.profiles import BLOCK_SIZE

IO_BYTES = 64 * BLOCK_SIZE  # 256KB each way


def run_stack(stack: str) -> dict:
    dep = EbsDeployment(DeploymentSpec(stack=stack, seed=101, hosting="bare_metal"))
    host = dep.compute_host_names()[0]
    vd = VirtualDisk(dep, "vd0", host, 256 * 1024 * 1024)
    done = []
    for i in range(IO_BYTES // (4 * BLOCK_SIZE)):
        dep.sim.schedule(i * 100_000, vd.write, i * 4 * BLOCK_SIZE,
                         4 * BLOCK_SIZE, done.append)
    dep.run()
    for i in range(IO_BYTES // (4 * BLOCK_SIZE)):
        dep.sim.schedule(i * 100_000, vd.read, i * 4 * BLOCK_SIZE,
                         4 * BLOCK_SIZE, done.append)
    dep.run()
    assert all(io.trace.ok for io in done)
    server = dep.compute_servers[host]
    dpu = server.dpu
    moved = 2 * IO_BYTES  # total payload both directions
    return {
        "internal_pcie_bytes": dpu.internal_pcie.bytes_moved,
        "internal_per_payload": dpu.internal_pcie.bytes_moved / moved,
        "host_dma_bytes": dpu.host_pcie.bytes_moved,
        "infra_cpu_ms": server.infra_cpu.total_busy_ns() / 1e6,
    }


def run_fig10() -> str:
    stacks = ("luna", "rdma", "solar_star", "solar")
    results = {s: run_stack(s) for s in stacks}
    rows = [
        [s,
         f"{r['internal_pcie_bytes'] / 1024:.0f}KB",
         f"{r['internal_per_payload']:.1f}x",
         f"{r['host_dma_bytes'] / 1024:.0f}KB",
         f"{r['infra_cpu_ms']:.2f}ms"]
        for s, r in results.items()
    ]
    table = format_table(
        ["stack", "internal PCIe", "x payload", "guest DMA", "DPU CPU busy"], rows
    )
    # Figure 10's claims, measured:
    # (a)/(b): LUNA and RDMA cross the internal PCIe twice per payload.
    for s in ("luna", "rdma", "solar_star"):
        assert results[s]["internal_per_payload"] >= 1.9, (s, results[s])
    # (c): SOLAR never touches the internal PCIe with data...
    assert results["solar"]["internal_pcie_bytes"] == 0
    # ...moves payloads via host DMA instead...
    assert results["solar"]["host_dma_bytes"] >= 2 * IO_BYTES
    # ...and burns the least DPU CPU of all stacks.
    assert results["solar"]["infra_cpu_ms"] == min(
        r["infra_cpu_ms"] for r in results.values()
    )
    return ("Figure 10 (datapath resource crossings, 512KB of 4KB I/O "
            "per direction):\n" + table)


def test_fig10(benchmark):
    text = once(benchmark, run_fig10)
    print("\n" + text)
    save_output("fig10_pcie_crossings", text)
