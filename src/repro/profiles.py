"""Calibrated service-time and resource constants.

Every physics constant used by the simulation lives here, annotated with the
paper evidence it is calibrated against.  Benchmarks and examples must not
hard-code latencies or bandwidths; they read (and may override) a
:class:`Profiles` instance, so each experiment's assumptions are auditable
in one place.

Citations refer to "From Luna to Solar" (SIGCOMM '22):

* Table 1a/1b — FN RPC latency and CPU cores for kernel TCP vs LUNA on
  2x25GE and 2x100GE (single 4KB RPC: 70.1us vs 13.1us incl. 8.3us base
  RTT on 2x25GE; 43.4us vs 12.4us on 2x100GE).
* Figure 6 — production 4KB latency breakdown across SA / FN / BN / SSD.
* Section 3 — ESSD targets 100us average I/O latency; SSD write cache makes
  chunk-server writes "tens of us", one to two orders faster than kernel TCP.
* Section 4.2 — ALI-DPU: 6-core infrastructure CPU, 2x25GE Ethernet, internal
  PCIe "far less than 100Gbps".
* Section 4.7 / Figure 14 — SOLAR: +78% single-core 64KB throughput and +46%
  single-core 4KB IOPS vs LUNA; PCIe goodput bottleneck for LUNA/RDMA/SOLAR*.
* Section 4.8 — SOLAR handles ~150K IOPS per CPU core.
* Table 3 — SOLAR FPGA LUT/BRAM budget per module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict

from .sim.events import MS

KB = 1024
MB = 1024 * 1024
GBPS = 1_000_000_000  # bits per second
BLOCK_SIZE = 4 * KB  # §2.2: atomic data block, consistent with SSD sector


@dataclass(frozen=True)
class NetworkProfile:
    """Fabric constants for the frontend network (FN)."""

    #: Per-hop propagation + switch pipeline delay.  Calibrated so that a
    #: 4-hop 4KB round trip on 25GE lands near the 8.3us base RTT that
    #: Table 1a reports under LUNA.
    link_propagation_ns: int = 500
    switch_forward_ns: int = 450
    #: Default access link rate (2x25GE per §4.2); per-port rate of one leg.
    access_gbps: float = 25.0
    fabric_gbps: float = 100.0
    #: Drop-tail output queue budget.  §3.1: AliCloud uses shallow-buffer
    #: switches in FN to save cost.
    queue_capacity_bytes: int = 512 * KB
    #: Jumbo frame MTU; §4.4 "a packet can be up to 9K bytes in a jumbo
    #: frame", SOLAR uses 4KB blocks inside jumbo frames.
    mtu_bytes: int = 9000
    standard_mtu_bytes: int = 1500
    #: Per-packet wire overhead: Ethernet + IP + UDP/TCP + EBS headers.
    header_overhead_bytes: int = 98


@dataclass(frozen=True)
class KernelTcpProfile:
    """Kernel TCP stack costs (Table 1, Figure 6 'Kernel' bars).

    The kernel stack pays syscalls, interrupts, softirq scheduling, socket
    locking and two copies per datum.  Those show up as (a) a large fixed
    per-RPC latency adder and (b) a high per-packet CPU cost that limits
    per-core throughput to O(10Gbps).
    """

    #: One-way stack traversal latency added per RPC message (TX + RX sides
    #: are charged separately).  Calibrated against Table 1a: single 4KB RPC
    #: 70.1us with an 8.3us network RTT leaves ~60us of stack time across
    #: the four stack traversals of a request/response pair.
    stack_latency_ns: int = 14_000
    #: CPU time consumed per TSO burst (softirq + socket + skb work).
    #: With the per-byte copy cost below, a 4KB RPC costs ~2.5us of CPU →
    #: ~13Gbps per core, matching Table 1a's four cores for 50Gbps.
    per_packet_cpu_ns: int = 2_000
    #: Extra CPU per byte for the two data copies.
    per_byte_cpu_ns: float = 0.12
    #: Minimum retransmission timeout (Linux default 200ms) — the origin of
    #: I/O hangs under blackholes (§3.3, Figure 8).
    min_rto_ns: int = 200 * MS
    max_rto_ns: int = 120_000 * MS
    init_cwnd_packets: int = 10


@dataclass(frozen=True)
class LunaProfile:
    """LUNA user-space TCP costs (§3.2, Table 1, Figure 6 'Luna' bars).

    Run-to-completion, zero-copy, lock-free/share-nothing: small fixed
    latency and ~5x better per-core packet budget than the kernel stack.
    """

    #: One-way user-space stack traversal per RPC message.  Table 1a:
    #: 13.1us single 4KB RPC minus 8.3us base RTT leaves ~4.8us over four
    #: traversals → ~1.2us each.
    stack_latency_ns: int = 1_200
    #: ~0.55us per 4KB packet → ~58Gbps per core; Table 1a shows one core
    #: saturating 50Gbps.
    per_packet_cpu_ns: int = 550
    #: Zero-copy: no per-byte copy cost on the datapath.
    per_byte_cpu_ns: float = 0.0
    #: LUNA still relies on timeouts + the single ECMP path of its 5-tuple;
    #: it cannot reroute around blackholes (§3.3).  Aggressive user-space
    #: RTO floor.
    min_rto_ns: int = 4 * MS
    max_rto_ns: int = 2_000 * MS
    init_cwnd_packets: int = 16


@dataclass(frozen=True)
class RdmaProfile:
    """RoCEv2 RC model (§3.1 scalability discussion, Figures 14/15).

    Near-zero CPU for the transport itself, tiny latency — but per-QP NIC
    cache pressure collapses throughput beyond ~5K connections, and in the
    DPU hosting mode the datapath still crosses the internal PCIe twice
    (Figure 10b).
    """

    stack_latency_ns: int = 900
    per_packet_cpu_ns: int = 0
    #: SA processing still runs on CPU (Figure 10b); the transport is free
    #: but the I/O path is not.
    connection_cliff: int = 5_000
    #: Throughput multiplier floor once connection count far exceeds the
    #: cliff (observed "went down quickly" §3.1).
    cliff_floor: float = 0.25
    min_rto_ns: int = 1 * MS
    max_rto_ns: int = 1_000 * MS
    init_cwnd_packets: int = 32


@dataclass(frozen=True)
class SolarProfile:
    """SOLAR stack constants (§4.4-4.8)."""

    #: FPGA pipeline latency per packet (parse + table lookups + CRC + SEC
    #: + DMA setup) — fixed, line-rate (§4.5).
    fpga_pipeline_ns: int = 1_000
    #: DPU-CPU control-plane cost per I/O (path selection, CC update, CRC
    #: aggregation check, doorbell).  §4.8: ~150K IOPS per core → ~6.2us of
    #: CPU per I/O.  Only the *critical* share gates the I/O's latency;
    #: the *async* share (stats, CC bookkeeping, table maintenance) runs
    #: after the send/doorbell and shows up as CPU load, not latency —
    #: which is how SOLAR cuts SA latency ~95% (Figure 6) while §4.7 still
    #: observes CPU-bound tails under intensive I/O.
    cpu_issue_critical_ns: int = 1_400
    cpu_issue_async_ns: int = 1_800
    cpu_complete_critical_ns: int = 1_200
    cpu_complete_async_ns: int = 1_800
    #: Per-packet control-plane CPU beyond the first block of an RPC
    #: (path selection + CC bookkeeping per outstanding block; §4.7 notes
    #: the CPU-bound tail "especially for WRITE" under intensive I/O).
    per_packet_cpu_ns: int = 800
    #: Number of persistent paths per block server (§4.5: "e.g., 4").
    num_paths: int = 4
    #: Consecutive timeouts on one path that infer a path failure (§4.5).
    path_failure_timeouts: int = 3
    #: Per-packet retransmission timeout floor: SOLAR detects loss per-path
    #: via out-of-order arrival or timeout; the floor is millisecond scale
    #: so failure recovery lands well inside one second (§3.3 goal).
    min_rto_ns: int = 1 * MS
    max_rto_ns: int = 64 * MS
    #: Initial per-path congestion window, in packets (one block each).
    init_cwnd_packets: int = 16
    #: Probation before a failed path is re-tried.
    path_probation_ns: int = 200 * MS
    #: Re-key a condemned path onto a fresh UDP source port (re-rolling
    #: its ECMP route) instead of merely benching it.  This is how the
    #: reproduction reaches Table 2's across-the-board zeros even when
    #: every initial path shares the failure point — the slow-recovery
    #: corner §4.5 admits and plans to fix with INT probing.
    rotate_failed_paths: bool = True


@dataclass(frozen=True)
class SsdProfile:
    """Chunk-server SSD model (§2.3, Figure 6 'SSD' component).

    Writes land in the SSD write cache without touching NAND ("tens of us",
    one to two orders faster than kernel TCP); reads usually pay NAND.
    LSM-tree + commit aggregation turn random writes sequential (§2.3 fn.1),
    so the write path has little positional variance.
    """

    write_cache_ns: int = 13_000
    write_cache_sigma: float = 0.18  # lognormal-ish spread
    nand_read_ns: int = 68_000
    nand_read_sigma: float = 0.22
    #: Probability a read hits the chunk server's DRAM/SLC cache.
    read_cache_hit_ratio: float = 0.12
    read_cache_ns: int = 9_000
    #: Chunk-server request processing CPU time (checksum, LSM lookup).
    chunk_cpu_ns: int = 4_000
    #: Block-server CPU time per request (aggregate + sequentialize ops,
    #: §2.2's "aggregate and sequentialize operations in a block server").
    block_server_cpu_ns: int = 2_500
    #: Sustained device bandwidth for streaming transfers.
    device_gbps: float = 24.0
    #: Internal NAND-channel parallelism: how many operations the device
    #: services concurrently (ESSD-class NVMe reaches ~1M IOPS, §3).
    channels: int = 16
    replicas: int = 3  # §2.2: three copies across chunk servers


@dataclass(frozen=True)
class SaProfile:
    """Software storage-agent costs (Figure 2 workflow, §3.3 'SA is becoming
    the bottleneck').

    The SA performs per-I/O QoS and segment-table lookups plus heavy CRC and
    crypto over the payload, all on CPU.  Under load its queueing makes it
    the dominant tail term (Figure 6b/6d 'SA' bars).
    """

    #: Fixed CPU per I/O: NVMe handling, QoS + segment-table lookups,
    #: completion/doorbell bookkeeping.
    per_io_ns: int = 5_000
    #: Per-4KB-block framing / buffer management.
    per_block_ns: int = 1_100
    #: CRC32 over the payload (hardware-assisted CRC on a 2.1GHz core).
    crc_per_byte_ns: float = 0.35
    #: Encryption pass over the payload (Figure 2: "optionally encrypted").
    crypto_per_byte_ns: float = 0.60
    #: Whether guest payloads are encrypted.  Production deployments
    #: (Figure 6) run with encryption; clean fio testbeds (Figure 14)
    #: typically do not.
    encrypt: bool = True
    #: Extra per-I/O latency of VM hosting (virtio queue kicks, VM exits).
    #: Charged only when the SA runs under the VM hypervisor (Figure 9a);
    #: bare-metal/DPU hosting avoids it.  Part of why the production SA
    #: bars of Figure 6 dwarf clean-testbed SA costs.
    vm_virtio_ns: int = 11_000


@dataclass(frozen=True)
class PcieProfile:
    """PCIe/DMA constants (§4.2: ALI-DPU internal PCIe "far less than
    100Gbps"; §4.8: network speed has caught up with PCIe)."""

    #: ALI-DPU internal interconnect effective goodput.
    dpu_internal_gbps: float = 38.0
    #: Host PCIe used by the DMA engine toward guest memory.
    host_gbps: float = 120.0
    dma_setup_ns: int = 700
    per_transfer_latency_ns: int = 900


@dataclass(frozen=True)
class DpuProfile:
    """ALI-DPU assembly (§4.2)."""

    cpu_cores: int = 6
    cpu_ghz: float = 2.1  # Figure 14 caption: 2.1 GHz cores
    ethernet_ports: int = 2
    ethernet_gbps: float = 25.0


@dataclass(frozen=True)
class Profiles:
    """Bundle of every calibrated constant set, with override helpers."""

    network: NetworkProfile = field(default_factory=NetworkProfile)
    kernel_tcp: KernelTcpProfile = field(default_factory=KernelTcpProfile)
    luna: LunaProfile = field(default_factory=LunaProfile)
    rdma: RdmaProfile = field(default_factory=RdmaProfile)
    solar: SolarProfile = field(default_factory=SolarProfile)
    ssd: SsdProfile = field(default_factory=SsdProfile)
    sa: SaProfile = field(default_factory=SaProfile)
    pcie: PcieProfile = field(default_factory=PcieProfile)
    dpu: DpuProfile = field(default_factory=DpuProfile)

    def with_overrides(self, **sections) -> "Profiles":
        """Return a copy with whole sections or per-field dicts replaced.

        ``profiles.with_overrides(network={"access_gbps": 100.0})`` replaces
        one field; passing a profile instance replaces the whole section.
        """
        updates: Dict[str, object] = {}
        for name, value in sections.items():
            current = getattr(self, name)  # raises AttributeError if bogus
            if isinstance(value, dict):
                updates[name] = replace(current, **value)
            else:
                updates[name] = value
        return replace(self, **updates)


DEFAULT = Profiles()


@lru_cache(maxsize=None)
def bytes_time_ns(size_bytes: int, gbps: float) -> int:
    """Wire/serialization time for ``size_bytes`` at ``gbps`` (integer ns).

    Memoized: a simulation draws sizes from a handful of message shapes
    and rates from the profile tables, so the domain is tiny while the
    call count is one-per-packet-per-hop.
    """
    if gbps <= 0:
        raise ValueError(f"non-positive bandwidth: {gbps}")
    return int(round(size_bytes * 8 / (gbps * GBPS) * 1e9))
