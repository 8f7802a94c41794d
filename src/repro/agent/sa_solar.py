"""The SOLAR storage agent: a thin control shell around the offloaded
datapath (Figures 12/13).

Unlike :class:`repro.agent.sa_software.SoftwareSA`, nothing per-byte runs
here: the SA's role shrinks to NVMe/QoS admission, extent splitting (the
Block step, whose table also lives in hardware), kicking the per-extent
SOLAR RPCs, and final trace assembly.  All heavy lifting is inside
:class:`repro.core.solar.SolarClient` / the FPGA offload.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.solar import SolarClient, SolarRpc
from ..host.server import ComputeServer
from ..metrics.trace import IoTrace, TraceCollector
from ..profiles import BLOCK_SIZE, Profiles
from ..sim.engine import Simulator
from ..storage.block import DataBlock, split_into_blocks
from ..storage.qos import QosTable
from ..storage.segment_table import SegmentTable
from .base import IoRequest, StorageAgent


class SolarSA(StorageAgent):
    """Storage agent backed by the SOLAR stack."""

    def __init__(
        self,
        sim: Simulator,
        server: ComputeServer,
        client: SolarClient,
        segment_table: SegmentTable,
        qos_table: QosTable,
        profiles: Profiles,
        collector: Optional[TraceCollector] = None,
    ):
        self.sim = sim
        self.server = server
        self.client = client
        self.segment_table = segment_table
        self.qos_table = qos_table
        self.profiles = profiles
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
            self.sim.schedule_fire(delay, self._dispatch, io)
        else:
            self._dispatch(io)

    # ------------------------------------------------------------------
    def _blocks_for(self, io: IoRequest, start_lba: int, count: int) -> List[DataBlock]:
        blocks = split_into_blocks(io.vd_id, start_lba * BLOCK_SIZE, count * BLOCK_SIZE)
        if io.data is None:
            return blocks
        rel = (start_lba - io.start_lba) * BLOCK_SIZE
        return [
            block.with_data(
                io.data[rel + i * BLOCK_SIZE : rel + i * BLOCK_SIZE + block.size_bytes]
                .ljust(block.size_bytes, b"\0")
            )
            for i, block in enumerate(blocks)
        ]

    def _dispatch(self, io: IoRequest) -> None:
        extents = self.segment_table.extents(io.vd_id, io.start_lba, io.num_blocks)
        state: Dict[str, object] = {
            "pending": len(extents),
            "ok": True,
            "critical": None,
        }
        for extent in extents:
            done = lambda rpc, ok, i=io, s=state: self._rpc_done(i, s, rpc, ok)
            if io.kind == "write":
                blocks = self._blocks_for(io, extent.start_lba, extent.num_blocks)
                self.client.submit_write(extent, blocks, done)
            else:
                self.client.submit_read(extent, done)

    def _rpc_done(self, io: IoRequest, state: Dict[str, object], rpc: SolarRpc, ok: bool) -> None:
        state["pending"] = int(state["pending"]) - 1  # type: ignore[arg-type]
        state["ok"] = bool(state["ok"]) and ok
        critical: Optional[SolarRpc] = state["critical"]  # type: ignore[assignment]
        if critical is None or rpc.completed_ns >= critical.completed_ns:
            state["critical"] = rpc
        if state["pending"] == 0:
            self._finish(io, state)

    def _finish(self, io: IoRequest, state: Dict[str, object]) -> None:
        rpc: SolarRpc = state["critical"]  # type: ignore[assignment]
        ok = bool(state["ok"])
        trace = io.trace
        if ok and rpc.first_sent_ns is not None:
            storage_ns = rpc.storage_ns
            ssd_ns = min(rpc.ssd_ns, storage_ns)
            fn_ns = max(0, (rpc.completed_ns - rpc.first_sent_ns) - storage_ns)
            trace.add("sa", max(0, rpc.first_sent_ns - trace.submit_ns))
            trace.add("fn", fn_ns)
            trace.add("bn", max(0, storage_ns - ssd_ns))
            trace.add("ssd", ssd_ns)
            trace.add("sa", max(0, self.sim.now - rpc.completed_ns))
            self.ios_completed += 1
        else:
            self.ios_failed += 1
        if not rpc.integrity_ok:
            trace.error = "integrity-mismatch"
        trace.complete(self.sim.now, ok, trace.error)
        if self.collector is not None:
            self.collector.record(trace)
        self.server.nvme.complete(io, lambda _io: io.on_complete(io))
