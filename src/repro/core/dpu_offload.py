"""SOLAR's SA datapath bound to the ALI-DPU FPGA (Figures 12/13).

This module assembles the hardware half of SOLAR:

* the match-action tables (QoS, Block, Addr) sized for the FPGA's BRAM,
  with Table 3's resource declarations;
* the egress (WRITE) and ingress (READ-response) pipeline programs,
  expressed on the P4-style interpreter of :mod:`repro.core.pipeline`;
* the per-block datapath operations — DMA to/from guest memory, CRC
  computation, optional SEC encryption — with hooks for FPGA fault
  injection (§4.4's bit-flip reality).

CPU never touches payload bytes here; it only receives headers and CRC
metadata (the Figure 13 note: "the hardware sends the headers and
metadata of the packet to the CPU for the final data integrity check").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Tuple

from ..host.dpu import AliDpu
from ..host.fpga import FpgaModuleSpec
from ..profiles import Profiles
from ..sim.engine import Simulator
from ..storage.block import DataBlock
from ..storage.crc import crc32
from ..storage.crypto import BlockCipher
from ..storage.segment_table import BLOCKS_PER_SEGMENT, Segment
from .pipeline import MatchActionStage, Pipeline, PipelineContext, Stage
from .tables import AddrEntry, AddrTable, MatchActionTable

#: Default hardware table capacities (entries).
ADDR_CAPACITY = 16_384
BLOCK_CACHE_CAPACITY = 32_768
QOS_CAPACITY = 4_096


def table3_specs(
    addr_capacity: int = ADDR_CAPACITY,
    block_capacity: int = BLOCK_CACHE_CAPACITY,
    qos_capacity: int = QOS_CAPACITY,
) -> dict[str, FpgaModuleSpec]:
    """Table 3's LUT/BRAM utilization, scaled by table sizing.

    The paper's reported numbers (Addr 5.1/8.1, Block 0.2/8.6, QoS
    0.1/0.4, SEC 2.8/0.9, CRC 0.3/0.0) correspond to the default
    capacities; BRAM scales linearly with entry count, LUT stays fixed
    (matching logic doesn't grow with depth).
    """
    return {
        "Addr": FpgaModuleSpec("Addr", 5.1, 8.1 * addr_capacity / ADDR_CAPACITY),
        "Block": FpgaModuleSpec("Block", 0.2, 8.6 * block_capacity / BLOCK_CACHE_CAPACITY),
        "QoS": FpgaModuleSpec("QoS", 0.1, 0.4 * qos_capacity / QOS_CAPACITY),
        "SEC": FpgaModuleSpec("SEC", 2.8, 0.9),
        "CRC": FpgaModuleSpec("CRC", 0.3, 0.0),
    }


class FaultInjector(Protocol):
    """Fault hooks the offload consults at the two vulnerable points."""

    def corrupt_payload(self, payload: bytes, stage: str) -> bytes: ...

    def corrupt_crc(self, crc: int, stage: str) -> int: ...


@dataclass
class WriteDatapathResult:
    """What the FPGA hands to the packet generator for one WRITE block."""

    wire_payload: Optional[bytes]  # possibly encrypted, possibly corrupted
    wire_crc: int  # the CRC the FPGA computed (what goes in the header)
    true_crc: int  # ground truth from the guest payload (for experiments)


@dataclass
class ReadDatapathResult:
    """Outcome of the ingress pipeline for one READ-response block."""

    ok: bool
    entry: Optional[AddrEntry]
    fpga_crc: int  # CRC the FPGA computed over the received payload
    header_crc: int  # CRC claimed in the packet's EBS header
    reason: str = ""


class SolarOffload:
    """The SOLAR hardware datapath on one ALI-DPU."""

    def __init__(
        self,
        sim: Simulator,
        dpu: AliDpu,
        profiles: Profiles,
        cipher: Optional[BlockCipher] = None,
        fault_injector: Optional[FaultInjector] = None,
        addr_capacity: int = ADDR_CAPACITY,
    ):
        self.sim = sim
        self.dpu = dpu
        self.profiles = profiles
        self.cipher = cipher
        self.fault_injector = fault_injector
        self.addr_table = AddrTable(addr_capacity)
        self.block_table: MatchActionTable[Tuple[str, int], Segment] = MatchActionTable(
            "Block", BLOCK_CACHE_CAPACITY
        )
        self.qos_table: MatchActionTable[str, bool] = MatchActionTable("QoS", QOS_CAPACITY)
        for spec in table3_specs(addr_capacity=addr_capacity).values():
            dpu.fpga.register_module(spec)
        self.egress = self._build_egress()
        self.ingress = self._build_ingress()
        self.addr_misses = 0
        self.crc_rejects = 0

    # ------------------------------------------------------------------
    # Pipeline programs (the P4-expressible SA datapath, §4.6)
    # ------------------------------------------------------------------
    def _build_egress(self) -> Pipeline:
        def qos_hit(ctx: PipelineContext, _value: bool) -> None:
            ctx.fields["qos_ok"] = True

        def block_hit(ctx: PipelineContext, segment: Segment) -> None:
            ctx.fields["segment"] = segment

        def crc_stage(ctx: PipelineContext) -> None:
            ctx.fields["crc_done"] = True

        def sec_stage(ctx: PipelineContext) -> None:
            ctx.fields["sec_done"] = self.cipher is not None

        def pktgen(ctx: PipelineContext) -> None:
            ctx.fields["pkt_ready"] = True

        return Pipeline(
            "solar-egress",
            [
                MatchActionStage(
                    "QoS", self.qos_table, lambda c: c.require("vd_id"), qos_hit,
                ),
                MatchActionStage(
                    "Block",
                    self.block_table,
                    lambda c: (c.require("vd_id"), c.require("segment_index")),
                    block_hit,
                ),
                Stage("CRC", crc_stage),
                Stage("SEC", sec_stage),
                Stage("PktGen", pktgen),
            ],
        )

    def _build_ingress(self) -> Pipeline:
        def addr_hit(ctx: PipelineContext, entry: AddrEntry) -> None:
            ctx.fields["addr_entry"] = entry

        def crc_check(ctx: PipelineContext) -> None:
            ctx.fields["crc_checked"] = True

        def sec_stage(ctx: PipelineContext) -> None:
            ctx.fields["sec_done"] = self.cipher is not None

        def dma_stage(ctx: PipelineContext) -> None:
            ctx.fields["dma_issued"] = True

        return Pipeline(
            "solar-ingress",
            [
                MatchActionStage(
                    "Addr",
                    self.addr_table,
                    lambda c: (c.require("rpc_id"), c.require("pkt_id")),
                    addr_hit,
                ),
                Stage("CRC", crc_check),
                Stage("SEC", sec_stage),
                Stage("DMA", dma_stage),
            ],
        )

    # ------------------------------------------------------------------
    # Control-plane table population
    # ------------------------------------------------------------------
    def install_vd(self, vd_id: str, segments: list[Segment]) -> None:
        """Populate the QoS and Block tables for a provisioned VD."""
        self.qos_table.insert(vd_id, True)
        for index, segment in enumerate(segments):
            self.block_table.insert((vd_id, index), segment)

    # ------------------------------------------------------------------
    # WRITE datapath: guest memory -> wire (Figure 12)
    # ------------------------------------------------------------------
    def write_block_datapath(
        self,
        block: DataBlock,
        segment: Segment,
        on_ready: Callable[[WriteDatapathResult], None],
    ) -> None:
        """DMA-fetch a block, run the egress pipeline, CRC + SEC it."""
        ctx = PipelineContext(
            fields={
                "vd_id": block.vd_id,
                "segment_index": segment.start_lba // BLOCKS_PER_SEGMENT,
            }
        )
        # The logical pipeline runs (validates expressibility + counts
        # table hits); physics below: DMA time then pipeline latency.
        self._run_egress_logic(ctx, block)
        self._after_dma(
            self.dpu.dma.read_from_guest(block.size_bytes), self._egress, block, on_ready
        )

    def _run_egress_logic(self, ctx: PipelineContext, block: DataBlock) -> None:
        # QoS/Block entries are keyed by (vd, segment index); install_vd
        # must have run.  A miss here is a control-plane bug: fail loudly.
        self.egress.process(ctx)
        if ctx.dropped is not None:
            raise RuntimeError(
                f"egress pipeline dropped block {block!r}: {ctx.dropped}"
            )

    def _after_dma(self, dma_done: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` once a DMA issued now, done at ``dma_done``,
        has passed the FPGA pipeline: one event, with no DMA-done event
        before it.  Exact: the DMA returns its completion at issue, the
        pipeline latency is fixed, and the event takes its ``seq`` here,
        where the DMA-done event took its own."""
        self.sim.schedule_at_fire(dma_done + self.dpu.fpga.pipeline_latency_ns, fn, *args)

    def _egress(self, block: DataBlock, on_ready) -> None:
        """CRC, SEC and fault hooks, then hand the block to PktGen."""
        true_crc = block.crc
        payload = block.data
        wire_crc = true_crc
        if payload is not None:
            if self.fault_injector is not None:
                payload = self.fault_injector.corrupt_payload(payload, "egress-crc")
            wire_crc = crc32(payload)
            if self.cipher is not None:
                payload = self.cipher.encrypt(block.vd_id, block.lba, payload)
        if self.fault_injector is not None:
            wire_crc = self.fault_injector.corrupt_crc(wire_crc, "egress-crc")
        on_ready(WriteDatapathResult(payload, wire_crc, true_crc))

    # ------------------------------------------------------------------
    # READ datapath: wire -> guest memory (Figure 13)
    # ------------------------------------------------------------------
    def read_block_datapath(
        self,
        rpc_id: int,
        pkt_id: int,
        payload: Optional[bytes],
        header_crc: int,
        on_done: Callable[[ReadDatapathResult], None],
    ) -> None:
        """Addr lookup, CRC check, decrypt, DMA into guest memory."""
        ctx = PipelineContext(fields={"rpc_id": rpc_id, "pkt_id": pkt_id})
        self.ingress.process(ctx)
        entry = ctx.fields.get("addr_entry")
        if entry is not None:
            # "its entry is cleaned afterward without interrupting the CPU"
            # (Figure 13) — duplicates then miss and are dropped.
            self.addr_table.remove((rpc_id, pkt_id))
        if entry is None:
            self.addr_misses += 1
            self.dpu.fpga.process(
                on_done,
                ReadDatapathResult(False, None, 0, header_crc, "addr-miss"),
            )
            return
        fpga_crc = header_crc
        if payload is not None:
            if self.cipher is not None:
                payload = self.cipher.decrypt(entry.vd_id, entry.lba, payload)
            if self.fault_injector is not None:
                payload = self.fault_injector.corrupt_payload(payload, "ingress-crc")
            fpga_crc = crc32(payload)
        if self.fault_injector is not None:
            fpga_crc = self.fault_injector.corrupt_crc(fpga_crc, "ingress-crc")
        if fpga_crc != header_crc:
            self.crc_rejects += 1
        # DMA the block into guest memory, then report to the CPU.
        self._after_dma(
            self.dpu.dma.write_to_guest(entry.length),
            on_done, ReadDatapathResult(True, entry, fpga_crc, header_crc),
        )

    # ------------------------------------------------------------------
    def resource_report(self):
        """Per-module LUT/BRAM utilization — the Table 3 reproduction."""
        return self.dpu.fpga.resource_report()
