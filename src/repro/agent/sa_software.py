"""The software storage agent (Figure 2): the SA of the kernel-TCP, LUNA
and RDMA generations.

Everything on the data path runs on CPU: QoS admission, segment-table
lookups, per-block CRC, optional encryption, framing, and completion
processing.  §3.3's lesson — "SA is becoming the bottleneck ... it has to
perform heavy computations (e.g., CRC, Crypto) and per-I/O table lookups
in CPU" — falls out of these costs plus core queueing under load.

In bare-metal hosting the SA runs on the ALI-DPU's small CPU and the data
crosses the DPU's internal PCIe twice in each direction (Figure 10a/b);
both costs are charged here when the compute server carries a DPU.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from ..host.cpu import CpuComplex
from ..host.server import ComputeServer
from ..metrics.trace import IoTrace, TraceCollector
from ..profiles import BLOCK_SIZE, Profiles
from ..sim.engine import Simulator
from ..storage.block import DataBlock, split_into_blocks
from ..storage.crypto import BlockCipher
from ..storage.qos import QosTable
from ..storage.segment_table import SegmentTable
from ..transport.base import RpcExchange
from ..transport.stream import StreamTransport
from .base import IoRequest, StorageAgent
from .rpc import StorageRpcPayload


class SoftwareSA(StorageAgent):
    """SA running in software on the compute server's infrastructure CPU."""

    def __init__(
        self,
        sim: Simulator,
        server: ComputeServer,
        transport: StreamTransport,
        server_transports: Mapping[str, StreamTransport],
        segment_table: SegmentTable,
        qos_table: QosTable,
        profiles: Profiles,
        cipher: Optional[BlockCipher] = None,
        collector: Optional[TraceCollector] = None,
        cpu: Optional["CpuComplex"] = None,
    ):
        self.sim = sim
        self.server = server
        #: The CPU complex charged for SA work.  Shared with the FN stack
        #: (they compete for the same cores — Table 1's "consumed cores").
        self.cpu = cpu if cpu is not None else server.infra_cpu
        self.transport = transport
        self.server_transports = server_transports
        self.segment_table = segment_table
        self.qos_table = qos_table
        self.profiles = profiles
        self.cipher = cipher
        self.collector = collector
        self.ios_submitted = 0
        self.ios_completed = 0
        self.ios_failed = 0

    # ------------------------------------------------------------------
    def submit(self, io: IoRequest) -> None:
        self.ios_submitted += 1
        if io.trace is None:
            io.trace = IoTrace(io.io_id, io.kind, io.size_bytes, self.sim.now)
        self.server.nvme.submit(io, self._after_nvme)

    def _after_nvme(self, io: IoRequest) -> None:
        delay = self.qos_table.admit(io.vd_id, self.sim.now, io.size_bytes)
        if delay > 0:
            self.sim.schedule_fire(delay, self._issue, io)
        else:
            self._issue(io)

    # ------------------------------------------------------------------
    def _issue_cost_ns(self, io: IoRequest) -> int:
        sa = self.profiles.sa
        cost = sa.per_io_ns
        if self.server.hosting == "vm":
            cost += sa.vm_virtio_ns * 6 // 10
        if io.kind == "write":
            cost += sa.per_block_ns * io.num_blocks
            cost += int(sa.crc_per_byte_ns * io.size_bytes)
            if sa.encrypt:
                cost += int(sa.crypto_per_byte_ns * io.size_bytes)
        return cost

    def _completion_cost_ns(self, io: IoRequest) -> int:
        sa = self.profiles.sa
        cost = sa.per_io_ns // 2
        if self.server.hosting == "vm":
            cost += sa.vm_virtio_ns * 4 // 10
        if io.kind == "read":
            cost += sa.per_block_ns * io.num_blocks
            cost += int(sa.crc_per_byte_ns * io.size_bytes)
            if sa.encrypt:
                cost += int(sa.crypto_per_byte_ns * io.size_bytes)
        return cost

    def _charge_pcie(self, size_bytes: int, then: Callable[[], None]) -> None:
        """Bare-metal: the datapath crosses the DPU's internal PCIe twice
        (Figure 10a); VM hosting pays nothing here."""
        dpu = self.server.dpu
        if dpu is None:
            then()
            return
        dpu.internal_pcie.transfer(
            size_bytes, lambda: dpu.internal_pcie.transfer(size_bytes, then)
        )

    def _issue(self, io: IoRequest) -> None:
        core = self.cpu.least_loaded()
        done = core.submit(self._issue_cost_ns(io))
        if io.kind == "write":
            self.sim.schedule_at_fire(
                done, self._charge_pcie, io.size_bytes, lambda: self._send(io)
            )
        else:
            self.sim.schedule_at_fire(done, self._send, io)

    # ------------------------------------------------------------------
    def _build_blocks(
        self, io: IoRequest, start_lba: int, count: int
    ) -> tuple[List[DataBlock], List[int]]:
        """Blocks (possibly carrying encrypted payload) and plaintext CRCs."""
        blocks = split_into_blocks(io.vd_id, start_lba * BLOCK_SIZE, count * BLOCK_SIZE)
        if io.data is None:
            return blocks, [b.crc for b in blocks]
        rel = (start_lba - io.start_lba) * BLOCK_SIZE
        out: List[DataBlock] = []
        crcs: List[int] = []
        for i, block in enumerate(blocks):
            chunk = io.data[rel + i * BLOCK_SIZE : rel + i * BLOCK_SIZE + block.size_bytes]
            chunk = chunk.ljust(block.size_bytes, b"\0")
            crcs.append(block.with_data(chunk).crc)
            if self.cipher is not None:
                chunk = self.cipher.encrypt(block.vd_id, block.lba, chunk)
            out.append(block.with_data(chunk))
        return out, crcs

    def _send(self, io: IoRequest) -> None:
        io.trace.mark("sa_sent", self.sim.now)
        extents = self.segment_table.extents(io.vd_id, io.start_lba, io.num_blocks)
        state: Dict[str, object] = {
            "pending": len(extents),
            "ok": True,
            "critical": None,
        }
        for extent in extents:
            blocks, crcs = self._build_blocks(io, extent.start_lba, extent.num_blocks)
            payload = StorageRpcPayload(io.kind, extent, blocks, crcs)
            server_transport = self.server_transports[extent.segment.block_server]
            self.transport.call(
                server_transport,
                payload,
                payload.request_bytes(),
                payload.response_bytes(),
                lambda exchange, ok, i=io, s=state: self._rpc_done(i, s, exchange, ok),
            )

    def _rpc_done(self, io: IoRequest, state: Dict[str, object], exchange: RpcExchange, ok: bool) -> None:
        state["pending"] = int(state["pending"]) - 1  # type: ignore[arg-type]
        state["ok"] = bool(state["ok"]) and ok
        critical: Optional[RpcExchange] = state["critical"]  # type: ignore[assignment]
        if critical is None or exchange.completed_ns >= critical.completed_ns:
            state["critical"] = exchange
        if state["pending"] == 0:
            self._complete(io, state)

    def _complete(self, io: IoRequest, state: Dict[str, object]) -> None:
        exchange: RpcExchange = state["critical"]  # type: ignore[assignment]
        ok = bool(state["ok"])

        def after_pcie() -> None:
            core = self.cpu.least_loaded()
            core.submit(self._completion_cost_ns(io), self._finish, io, exchange, ok)

        if io.kind == "read":
            self._charge_pcie(io.size_bytes, after_pcie)
        else:
            after_pcie()

    def _finish(self, io: IoRequest, exchange: RpcExchange, ok: bool) -> None:
        trace = io.trace
        sent_ns = trace.marks.get("sa_sent", trace.submit_ns)
        if ok:
            storage_ns = int(exchange.meta.get("storage_ns", 0))
            ssd_ns = min(int(exchange.meta.get("ssd_ns", 0)), storage_ns)
            trace.add("fn", max(0, exchange.network_time_ns))
            trace.add("bn", max(0, storage_ns - ssd_ns))
            trace.add("ssd", ssd_ns)
            trace.add("sa", max(0, sent_ns - trace.submit_ns))
            trace.add("sa", max(0, self.sim.now - exchange.completed_ns))
            self.ios_completed += 1
        else:
            self.ios_failed += 1
        trace.complete(self.sim.now, ok, "" if ok else exchange.error)
        if self.collector is not None:
            self.collector.record(trace)
        self.server.nvme.complete(io, lambda _io: io.on_complete(io))
