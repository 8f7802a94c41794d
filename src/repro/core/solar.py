"""SOLAR: the storage-oriented reliable UDP stack (§4).

One packet == one data block.  There are no connections, no receive
buffers, no reassembly: every data packet is self-contained, so the
receiver processes it at line rate in any order, and the sender's only
state is per-*path* congestion/RTT tracking plus per-outstanding-packet
timers — all in the DPU CPU's control plane, none in hardware (§4.4).

Client datapath (offload mode):

* WRITE (Figure 12): NVMe command → QoS/Block tables → per-block DMA
  fetch + CRC + SEC in the FPGA → PktGen with the CPU-chosen path (UDP
  source port) and rate → per-packet ACK with INT feedback → CPU CRC
  aggregation check → doorbell.
* READ (Figure 13): Addr-table entries installed at request time → each
  response block hits the FPGA, is CRC-checked, decrypted and DMA'd into
  guest memory without CPU involvement; headers/CRC metadata go to the
  CPU for the aggregate integrity check and congestion update.

Loss recovery: out-of-order ACK arrivals on a path, or a per-packet
timeout, trigger selective retransmission — on the best *other* path;
consecutive timeouts put a path on probation (§4.5), which is how SOLAR
routes around blackholes within milliseconds instead of minutes.

``offload=False`` models **SOLAR*** (§4.7): same protocol, but the
per-block datapath runs on the DPU CPU and crosses the internal PCIe
twice, like Figure 10(a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..host.cpu import CpuComplex
from ..net.endpoint import Endpoint
from ..net.packet import Packet
from ..profiles import Profiles
from ..sim.engine import Simulator
from ..storage.block import DataBlock
from ..storage.block_server import BlockServer
from ..storage.chunk_server import ChunkReply
from ..storage.crc import crc32
from ..storage.segment_table import Extent, Segment
from ..transport.udp import DatagramSocket
from .crc_agg import CrcAggregator
from .dpu_offload import ReadDatapathResult, SolarOffload, WriteDatapathResult
from .headers import (
    ACK_PACKET_BYTES,
    EbsHeader,
    OP_READ_BLOCK,
    OP_READ_REQUEST,
    OP_WRITE_ACK,
    OP_WRITE_BLOCK,
    READ_REQUEST_BYTES,
    RpcHeader,
    data_packet_bytes,
)
from .multipath import MultipathManager, PathState

_rpc_ids = itertools.count(1)

SERVER_PORT = 7100
#: How far ahead an ACK may arrive on a path before earlier outstanding
#: packets on that path are declared lost (out-of-order loss detection).
OOO_THRESHOLD = 3
#: Retransmission attempts before an RPC is abandoned (safety valve; EBS
#: effectively never gives up, this only bounds runaway simulations).
MAX_PKT_RETRIES = 200


@dataclass
class SolarPacket:
    """Client-side state of one outstanding block packet."""

    pkt_id: int
    block: DataBlock
    wire_payload: Optional[bytes] = None
    wire_crc: int = 0
    true_crc: int = 0
    acked: bool = False
    retries: int = 0
    sent_ns: int = 0
    path: Optional[PathState] = None
    path_seq: int = -1
    #: Retransmit timer: a handle in the client's ``Timers``.
    timer: Optional[list] = None
    #: For READ: CRC the FPGA computed on the received block.
    fpga_crc: int = 0
    header_crc: int = 0


@dataclass
class SolarRpc:
    """One RPC: all blocks of one extent toward one block server."""

    kind: str  # "write" | "read"
    client: str
    server: str
    extent: Extent
    packets: List[SolarPacket]
    #: Fires once, then is dropped, like ``RpcExchange.on_done``: the
    #: caller's callback holds the state that holds this RPC.
    on_done: Optional[Callable[["SolarRpc", bool], None]]
    rpc_id: int = field(default_factory=lambda: next(_rpc_ids))
    issued_ns: int = 0
    first_sent_ns: Optional[int] = None
    completed_ns: Optional[int] = None
    done_count: int = 0
    ok: bool = False
    integrity_ok: bool = True
    #: Server-side annotations from the critical (slowest) packet.
    storage_ns: int = 0
    ssd_ns: int = 0
    #: READ request retransmission timer: a handle in the client's ``Timers``.
    request_timer: Optional[list] = None

    @property
    def segment(self) -> Segment:
        return self.extent.segment

    @property
    def total_pkts(self) -> int:
        return len(self.packets)

    @property
    def finished(self) -> bool:
        return self.completed_ns is not None


class SolarClient:
    """The SOLAR stack on one compute server's DPU."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: Endpoint,
        control_cpu: CpuComplex,
        profiles: Profiles,
        offload: Optional[SolarOffload],
        base_rtt_ns: int,
        num_paths: Optional[int] = None,
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.cpu = control_cpu
        self.profiles = profiles
        self.offload = offload
        self.base_rtt_ns = base_rtt_ns
        self.num_paths = num_paths
        #: Set by the deployment for SOLAR* so the software datapath can
        #: charge the internal-PCIe crossings (Figure 10a).
        self.dpu = None
        self.socket = DatagramSocket(sim, endpoint, "solar")
        self.socket.bind_default(self._on_packet)
        #: Every packet and read-request timeout; nearly all never fire.
        self._timers = sim.timers()
        self.aggregator = CrcAggregator()
        #: When set (ns), every new path manager gets an INT prober with
        #: this cadence — the §4.5 "explicit path selection" extension.
        self.probe_interval_ns: Optional[int] = None
        self._probers: Dict[str, object] = {}
        self._paths: Dict[str, MultipathManager] = {}
        #: Packets waiting for a window to open, per server.
        self._pending: Dict[str, List[tuple[SolarRpc, SolarPacket]]] = {}
        self.rpcs_issued = 0
        self.rpcs_completed = 0
        self.integrity_events = 0
        self.retransmissions = 0
        block_bytes = max(
            data_packet_bytes(4096) + profiles.network.header_overhead_bytes, 1
        )
        if block_bytes > profiles.network.mtu_bytes:
            raise ValueError(
                "one-block-one-packet needs jumbo frames: "
                f"{block_bytes}B > MTU {profiles.network.mtu_bytes}B (§4.4)"
            )

    # ------------------------------------------------------------------
    def paths_to(self, server: str) -> MultipathManager:
        manager = self._paths.get(server)
        if manager is None:
            line_gbps = self.endpoint.uplinks[0].gbps if self.endpoint.uplinks else 25.0
            manager = MultipathManager(
                self.sim,
                self.profiles.solar,
                self.base_rtt_ns,
                self.profiles.network.mtu_bytes,
                line_gbps,
                num_paths=self.num_paths,
            )
            self._paths[server] = manager
            if self.probe_interval_ns is not None:
                from .probing import PathProber

                prober = PathProber(
                    self.sim, self.socket, server, SERVER_PORT, manager,
                    interval_ns=self.probe_interval_ns,
                )
                prober.start()
                self._probers[server] = prober
        return manager

    # ------------------------------------------------------------------
    # WRITE
    # ------------------------------------------------------------------
    def submit_write(
        self,
        extent: Extent,
        blocks: List[DataBlock],
        on_done: Callable[[SolarRpc, bool], None],
    ) -> SolarRpc:
        if len(blocks) != extent.num_blocks:
            raise ValueError(
                f"extent covers {extent.num_blocks} blocks, got {len(blocks)}"
            )
        rpc = SolarRpc(
            kind="write",
            client=self.endpoint.name,
            server=extent.segment.block_server,
            extent=extent,
            packets=[SolarPacket(i, b) for i, b in enumerate(blocks)],
            on_done=on_done,
            issued_ns=self.sim.now,
        )
        self.rpcs_issued += 1
        solar = self.profiles.solar
        critical = solar.cpu_issue_critical_ns + solar.per_packet_cpu_ns * max(
            0, rpc.total_pkts - 1
        )
        core = self.cpu.least_loaded()
        core.submit(critical, self._write_prepare_all, rpc)
        core.submit(solar.cpu_issue_async_ns)  # off the latency path
        return rpc

    def _write_prepare_all(self, rpc: SolarRpc) -> None:
        for pkt in rpc.packets:
            self._write_prepare(rpc, pkt)

    def _write_prepare(self, rpc: SolarRpc, pkt: SolarPacket) -> None:
        if self.offload is not None:
            self.offload.write_block_datapath(
                pkt.block, rpc.segment, lambda res, r=rpc, p=pkt: self._write_ready(r, p, res)
            )
        else:
            self._write_prepare_software(rpc, pkt)

    def _write_prepare_software(self, rpc: SolarRpc, pkt: SolarPacket) -> None:
        """SOLAR* (§4.7): per-block CRC/SEC on the DPU CPU, data crossing
        the internal PCIe twice (Figure 10a)."""
        sa = self.profiles.sa
        cost = sa.per_block_ns + int(sa.crc_per_byte_ns * pkt.block.size_bytes)
        if sa.encrypt:
            cost += int(sa.crypto_per_byte_ns * pkt.block.size_bytes)
        core = self.cpu.least_loaded()

        def after_cpu() -> None:
            result = WriteDatapathResult(pkt.block.data, pkt.block.crc, pkt.block.crc)
            self._write_ready(rpc, pkt, result)

        def after_pcie_in() -> None:
            # Second crossing: DPU memory -> NIC.
            dpu = getattr(self, "dpu", None)
            if dpu is not None:
                dpu.internal_pcie.transfer(pkt.block.size_bytes, after_cpu)
            else:
                after_cpu()

        dpu = getattr(self, "dpu", None)
        done = core.submit(cost)
        if dpu is not None:
            self.sim.schedule_at_fire(
                done, dpu.internal_pcie.transfer, pkt.block.size_bytes, after_pcie_in
            )
        else:
            self.sim.schedule_at_fire(done, after_cpu)

    def _write_ready(self, rpc: SolarRpc, pkt: SolarPacket, result: WriteDatapathResult) -> None:
        pkt.wire_payload = result.wire_payload
        pkt.wire_crc = result.wire_crc
        pkt.true_crc = result.true_crc
        self._dispatch(rpc, pkt)

    # ------------------------------------------------------------------
    # READ
    # ------------------------------------------------------------------
    def submit_read(
        self,
        extent: Extent,
        on_done: Callable[[SolarRpc, bool], None],
        guest_addr_base: int = 0,
    ) -> SolarRpc:
        blocks = [
            DataBlock(extent.segment.vd_id, extent.start_lba + i)
            for i in range(extent.num_blocks)
        ]
        rpc = SolarRpc(
            kind="read",
            client=self.endpoint.name,
            server=extent.segment.block_server,
            extent=extent,
            packets=[SolarPacket(i, b) for i, b in enumerate(blocks)],
            on_done=on_done,
            issued_ns=self.sim.now,
        )
        self.rpcs_issued += 1
        if self.offload is not None:
            from .tables import AddrEntry

            for pkt in rpc.packets:
                self.offload.addr_table.install(
                    AddrEntry(
                        rpc.rpc_id,
                        pkt.pkt_id,
                        guest_addr_base + pkt.pkt_id * pkt.block.size_bytes,
                        pkt.block.size_bytes,
                        pkt.block.vd_id,
                        pkt.block.lba,
                    )
                )
        solar = self.profiles.solar
        core = self.cpu.least_loaded()
        core.submit(solar.cpu_issue_critical_ns, self._send_read_request, rpc, None)
        core.submit(solar.cpu_issue_async_ns)  # off the latency path
        return rpc

    def _send_read_request(self, rpc: SolarRpc, only_pkts: Optional[List[int]]) -> None:
        if rpc.finished:
            return
        manager = self.paths_to(rpc.server)
        path = manager.pick(READ_REQUEST_BYTES)
        if path is None:
            path = min(manager.paths, key=lambda p: p.srtt_ns)
        wanted = only_pkts if only_pkts is not None else [p.pkt_id for p in rpc.packets]
        if rpc.first_sent_ns is None:
            rpc.first_sent_ns = self.sim.now
        self.socket.send(
            rpc.server,
            sport=path.path_id,
            dport=SERVER_PORT,
            size_bytes=READ_REQUEST_BYTES + self.profiles.network.header_overhead_bytes,
            headers={
                "solar": {
                    "op": OP_READ_REQUEST,
                    "rpc": rpc,
                    "pkt_ids": wanted,
                    "path_id": path.path_id,
                }
            },
        )
        manager.on_sent(path, READ_REQUEST_BYTES)
        self._arm_read_timer(rpc, path)

    def _arm_read_timer(self, rpc: SolarRpc, path: PathState) -> None:
        if rpc.request_timer is not None:
            self._timers.cancel(rpc.request_timer)
        rpc.request_timer = self._timers.add(path.rto_ns, self._on_read_timeout, rpc, path)

    def _on_read_timeout(self, rpc: SolarRpc, path: PathState) -> None:
        rpc.request_timer = None
        if rpc.finished:
            return
        missing = [p.pkt_id for p in rpc.packets if not p.acked]
        if not missing:
            return
        manager = self.paths_to(rpc.server)
        manager.on_timeout(path, READ_REQUEST_BYTES)
        self.retransmissions += 1
        total_retries = sum(p.retries for p in rpc.packets) + len(missing)
        for pkt in rpc.packets:
            if not pkt.acked:
                pkt.retries += 1
        if total_retries > MAX_PKT_RETRIES * rpc.total_pkts:
            self._complete_rpc(rpc, ok=False)
            return
        self._send_read_request(rpc, missing)

    # ------------------------------------------------------------------
    # Packet dispatch (WRITE data packets)
    # ------------------------------------------------------------------
    def _dispatch(self, rpc: SolarRpc, pkt: SolarPacket) -> None:
        if rpc.finished or pkt.acked:
            return
        manager = self.paths_to(rpc.server)
        size = data_packet_bytes(pkt.block.size_bytes)
        path = manager.pick(size)
        if path is None:
            self._pending.setdefault(rpc.server, []).append((rpc, pkt))
            return
        self._send_on_path(rpc, pkt, path, manager)

    def _send_on_path(
        self, rpc: SolarRpc, pkt: SolarPacket, path: PathState, manager: MultipathManager
    ) -> None:
        size = data_packet_bytes(pkt.block.size_bytes)
        pkt.path = path
        pkt.path_seq = path.take_seq()
        pkt.sent_ns = self.sim.now
        path.outstanding[pkt.path_seq] = (rpc, pkt)
        if rpc.first_sent_ns is None:
            rpc.first_sent_ns = self.sim.now
        ebs = EbsHeader(
            OP_WRITE_BLOCK,
            pkt.block.vd_id,
            rpc.segment.segment_id,
            pkt.block.lba,
            pkt.block.size_bytes,
        )
        self.socket.send(
            rpc.server,
            sport=path.path_id,
            dport=SERVER_PORT,
            size_bytes=size + self.profiles.network.header_overhead_bytes,
            headers={
                "solar": {
                    "op": OP_WRITE_BLOCK,
                    "rpc": rpc,
                    "hdr": RpcHeader(rpc.rpc_id, pkt.pkt_id, rpc.total_pkts),
                    "ebs": ebs,
                    "crc": pkt.wire_crc,
                    "path_id": path.path_id,
                    "path_seq": pkt.path_seq,
                }
            },
            payload=pkt.wire_payload,
            int_records=[],  # echoed in the ACK for CC
        )
        manager.on_sent(path, size)
        if pkt.timer is not None:
            self._timers.cancel(pkt.timer)
        pkt.timer = self._timers.add(path.rto_ns, self._on_pkt_timeout, rpc, pkt)

    def _drain_pending(self, server: str) -> None:
        queue = self._pending.get(server)
        if not queue:
            return
        manager = self.paths_to(server)
        still_blocked: List[tuple[SolarRpc, SolarPacket]] = []
        for rpc, pkt in queue:
            if rpc.finished or pkt.acked:
                continue
            size = data_packet_bytes(pkt.block.size_bytes)
            path = manager.pick(size)
            if path is None:
                still_blocked.append((rpc, pkt))
            else:
                self._send_on_path(rpc, pkt, path, manager)
        self._pending[server] = still_blocked

    # ------------------------------------------------------------------
    # Timeout / retransmission (WRITE)
    # ------------------------------------------------------------------
    def _on_pkt_timeout(self, rpc: SolarRpc, pkt: SolarPacket) -> None:
        pkt.timer = None
        if pkt.acked or rpc.finished:
            return
        manager = self.paths_to(rpc.server)
        assert pkt.path is not None
        pkt.path.outstanding.pop(pkt.path_seq, None)
        manager.on_timeout(pkt.path, data_packet_bytes(pkt.block.size_bytes))
        pkt.retries += 1
        self.retransmissions += 1
        if pkt.retries > MAX_PKT_RETRIES:
            self._complete_rpc(rpc, ok=False)
            return
        new_path = manager.best_alternative(pkt.path, data_packet_bytes(pkt.block.size_bytes))
        self._send_on_path(rpc, pkt, new_path, manager)

    def _check_ooo_loss(self, path: PathState, acked_seq: int, server: str) -> None:
        """Out-of-order loss detection: an ACK for seq N implies packets
        sent earlier on the same path should have been acked; anything
        lagging more than OOO_THRESHOLD behind is retransmitted now."""
        stale = [
            seq for seq in path.outstanding if seq < acked_seq - OOO_THRESHOLD
        ]
        for seq in stale:
            rpc, pkt = path.outstanding.pop(seq)
            if pkt.acked or rpc.finished:
                continue
            if pkt.timer is not None:
                self._timers.cancel(pkt.timer)
                pkt.timer = None
            pkt.retries += 1
            self.retransmissions += 1
            manager = self.paths_to(server)
            path.inflight_bytes = max(
                0, path.inflight_bytes - data_packet_bytes(pkt.block.size_bytes)
            )
            new_path = manager.best_alternative(path, data_packet_bytes(pkt.block.size_bytes))
            self._send_on_path(rpc, pkt, new_path, manager)

    # ------------------------------------------------------------------
    # Inbound packets
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        header = packet.header("solar")
        op = header["op"]
        if op == OP_WRITE_ACK:
            self._on_write_ack(packet, header)
        elif op == OP_READ_BLOCK:
            self._on_read_block(packet, header)
        elif op == "path_probe_echo":
            header["prober"].on_echo(packet)
        # Anything else addressed at a client is silently ignored, like a
        # real UDP stack receiving stray datagrams.

    def _on_write_ack(self, packet: Packet, header: dict) -> None:
        rpc: SolarRpc = header["rpc"]
        pkt = rpc.packets[header["pkt_id"]]
        if pkt.acked or rpc.finished:
            return
        pkt.acked = True
        if pkt.timer is not None:
            self._timers.cancel(pkt.timer)
            pkt.timer = None
        manager = self.paths_to(rpc.server)
        # The ACK names the path by the port it was sent on; if the path
        # was rotated meanwhile, fall back to the packet's path object.
        try:
            path = manager.path_by_id(header["path_id"])
        except KeyError:
            path = pkt.path if pkt.path is not None else manager.paths[0]
        path.outstanding.pop(header["path_seq"], None)
        manager.on_ack(
            path,
            header["sent_ns"],
            data_packet_bytes(pkt.block.size_bytes),
            header.get("int_echo", []),
            header["path_seq"],
        )
        self._check_ooo_loss(path, header["path_seq"], rpc.server)
        rpc.storage_ns = max(rpc.storage_ns, header.get("storage_ns", 0))
        rpc.ssd_ns = max(rpc.ssd_ns, header.get("ssd_ns", 0))
        rpc.done_count += 1
        # Per-ACK control-plane work (CC + path update).
        self.cpu.least_loaded().submit(self.profiles.solar.per_packet_cpu_ns)
        if rpc.done_count >= rpc.total_pkts:
            self._finalize_write(rpc)
        self._drain_pending(rpc.server)

    def _finalize_write(self, rpc: SolarRpc) -> None:
        report = self.aggregator.check(
            [p.wire_crc for p in rpc.packets], [p.true_crc for p in rpc.packets]
        )
        rpc.integrity_ok = report.ok
        if not report.ok:
            self.integrity_events += 1
        self._charge_completion(rpc)

    def _charge_completion(self, rpc: SolarRpc) -> None:
        solar = self.profiles.solar
        critical = solar.cpu_complete_critical_ns + self.aggregator.check_cost_ns(
            rpc.total_pkts
        )
        core = self.cpu.least_loaded()
        core.submit(critical, self._complete_rpc, rpc, True)
        core.submit(solar.cpu_complete_async_ns)  # off the latency path

    def _on_read_block(self, packet: Packet, header: dict) -> None:
        rpc: SolarRpc = header["rpc"]
        pkt = rpc.packets[header["pkt_id"]]
        if pkt.acked or rpc.finished:
            return
        manager = self.paths_to(rpc.server)
        try:
            path = manager.path_by_id(header["path_id"])
        except KeyError:
            path = min(manager.paths, key=lambda p: p.srtt_ns)  # rotated away
        manager.on_ack(
            path,
            header["sent_ns"],
            READ_REQUEST_BYTES if pkt.pkt_id == 0 else 0,
            packet.int_records,
            path.highest_acked_seq + 1,
        )
        rpc.storage_ns = max(rpc.storage_ns, header.get("storage_ns", 0))
        rpc.ssd_ns = max(rpc.ssd_ns, header.get("ssd_ns", 0))
        if self.offload is not None:
            self.offload.read_block_datapath(
                rpc.rpc_id,
                pkt.pkt_id,
                packet.payload,
                header["crc"],
                lambda res, r=rpc, p=pkt: self._read_block_done(r, p, res),
            )
        else:
            self._read_block_software(rpc, pkt, packet.payload, header["crc"])

    def _read_block_software(
        self, rpc: SolarRpc, pkt: SolarPacket, payload: Optional[bytes], header_crc: int
    ) -> None:
        """SOLAR*: CRC + decrypt on the DPU CPU, double PCIe crossing."""
        sa = self.profiles.sa
        cost = sa.per_block_ns + int(sa.crc_per_byte_ns * pkt.block.size_bytes)
        if sa.encrypt:
            cost += int(sa.crypto_per_byte_ns * pkt.block.size_bytes)
        fpga_crc = crc32(payload) if payload is not None else header_crc
        result = ReadDatapathResult(True, None, fpga_crc, header_crc)
        core = self.cpu.least_loaded()
        done = core.submit(cost)
        dpu = self.dpu
        if dpu is not None:
            # Figure 10(a): NIC -> DPU memory, then DPU memory -> host —
            # two internal-PCIe crossings on the read path too.
            def second_crossing(r=rpc, p=pkt, res=result) -> None:
                dpu.internal_pcie.transfer(
                    p.block.size_bytes,
                    lambda: self._read_block_done(r, p, res),
                )

            self.sim.schedule_at_fire(
                done, dpu.internal_pcie.transfer, pkt.block.size_bytes,
                second_crossing,
            )
        else:
            self.sim.schedule_at_fire(done, self._read_block_done, rpc, pkt, result)

    def _read_block_done(self, rpc: SolarRpc, pkt: SolarPacket, result: ReadDatapathResult) -> None:
        if pkt.acked or rpc.finished:
            return
        if not result.ok:
            return  # addr miss (stale duplicate) — drop silently
        pkt.acked = True
        pkt.fpga_crc = result.fpga_crc
        pkt.header_crc = result.header_crc
        rpc.done_count += 1
        self.cpu.least_loaded().submit(self.profiles.solar.per_packet_cpu_ns)
        if rpc.done_count >= rpc.total_pkts:
            if rpc.request_timer is not None:
                self._timers.cancel(rpc.request_timer)
                rpc.request_timer = None
            self._finalize_read(rpc)

    def _finalize_read(self, rpc: SolarRpc) -> None:
        report = self.aggregator.check(
            [p.fpga_crc for p in rpc.packets], [p.header_crc for p in rpc.packets]
        )
        rpc.integrity_ok = report.ok
        if not report.ok:
            self.integrity_events += 1
        self._charge_completion(rpc)

    # ------------------------------------------------------------------
    def _complete_rpc(self, rpc: SolarRpc, ok: bool) -> None:
        if rpc.finished:
            return
        rpc.completed_ns = self.sim.now
        rpc.ok = ok
        self.rpcs_completed += 1
        for pkt in rpc.packets:
            if pkt.timer is not None:
                self._timers.cancel(pkt.timer)
                pkt.timer = None
        if rpc.request_timer is not None:
            self._timers.cancel(rpc.request_timer)
            rpc.request_timer = None
        rpc.on_done(rpc, ok)
        rpc.on_done = None  # fired: see SolarRpc.on_done


class SolarServer:
    """The SOLAR receiver on a block server.

    Storage-side servers are ordinary servers (the offload story is about
    the *compute* side); they process SOLAR datagrams in a user-space
    run-to-completion loop, charged per packet like LUNA's datapath.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: Endpoint,
        cpu: CpuComplex,
        block_server: BlockServer,
        profiles: Profiles,
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.cpu = cpu
        self.block_server = block_server
        self.profiles = profiles
        self.socket = DatagramSocket(sim, endpoint, "solar")
        self.socket.bind(SERVER_PORT, self._on_packet)
        self.write_blocks = 0
        self.read_requests = 0

    def _on_packet(self, packet: Packet) -> None:
        header = packet.header("solar")
        op = header["op"]
        cost = self.profiles.luna.per_packet_cpu_ns
        if op == OP_WRITE_BLOCK:
            self.cpu.least_loaded().submit(cost, self._handle_write, packet, header)
        elif op == OP_READ_REQUEST:
            self.cpu.least_loaded().submit(cost, self._handle_read, packet, header)
        elif op == "path_probe":
            from .probing import handle_probe

            handle_probe(self.endpoint, packet)

    # ------------------------------------------------------------------
    def _handle_write(self, packet: Packet, header: dict) -> None:
        self.write_blocks += 1
        rpc: SolarRpc = header["rpc"]
        ebs: EbsHeader = header["ebs"]
        pkt = rpc.packets[header["hdr"].pkt_id]
        received_ns = self.sim.now
        block = pkt.block if packet.payload is None else pkt.block.with_data(packet.payload)
        self.block_server.handle_write(
            rpc.segment,
            block,
            header["crc"],
            lambda ok, replies: self._ack_write(
                packet, header, ebs, received_ns, ok, replies
            ),
        )

    def _ack_write(
        self,
        packet: Packet,
        header: dict,
        ebs: EbsHeader,
        received_ns: int,
        ok: bool,
        replies: List[ChunkReply],
    ) -> None:
        ssd_ns = max((r.service_ns for r in replies if isinstance(r, ChunkReply)), default=0)
        ack = packet.reply_shell(ACK_PACKET_BYTES)
        ack.headers["solar"] = {
            "op": OP_WRITE_ACK,
            "rpc": header["rpc"],
            "pkt_id": header["hdr"].pkt_id,
            "path_id": header["path_id"],
            "path_seq": header["path_seq"],
            "sent_ns": packet.created_ns,
            "ok": ok,
            "storage_ns": self.sim.now - received_ns,
            "ssd_ns": ssd_ns,
            #: HPCC echo: the data packet's INT records ride back (§4.5).
            "int_echo": list(packet.int_records),
        }
        self.endpoint.send(ack)

    # ------------------------------------------------------------------
    def _handle_read(self, packet: Packet, header: dict) -> None:
        self.read_requests += 1
        rpc: SolarRpc = header["rpc"]
        received_ns = self.sim.now
        for pkt_id in header["pkt_ids"]:
            pkt = rpc.packets[pkt_id]
            self.block_server.handle_read(
                rpc.segment,
                pkt.block.vd_id,
                pkt.block.lba,
                pkt.block.size_bytes,
                lambda reply, p=pkt: self._send_read_block(
                    packet, header, p, received_ns, reply
                ),
            )

    def _send_read_block(
        self,
        request: Packet,
        header: dict,
        pkt: SolarPacket,
        received_ns: int,
        reply: ChunkReply,
    ) -> None:
        rpc: SolarRpc = header["rpc"]
        size = data_packet_bytes(pkt.block.size_bytes)
        response = request.reply_shell(
            size + self.profiles.network.header_overhead_bytes
        )
        response.payload = reply.data
        response.int_records = []  # read by the client's CC
        response.headers["solar"] = {
            "op": OP_READ_BLOCK,
            "rpc": rpc,
            "pkt_id": pkt.pkt_id,
            "path_id": header["path_id"],
            "crc": reply.crc if reply.crc is not None else 0,
            "sent_ns": request.created_ns,
            "storage_ns": self.sim.now - received_ns,
            "ssd_ns": reply.service_ns,
        }
        self.endpoint.send(response)
