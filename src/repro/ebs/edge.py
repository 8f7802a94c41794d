"""Integrated EBS for edge/private clouds — the §4.8 discussion item.

"In edge or private clouds where the network scale is limited but
bare-metal hosting and high-performance are still needed, we can consider
merging the SA and the block server into DPU and implement them in the
hardware P4-capable pipeline."

This module implements that design on top of the existing SOLAR machinery:

* chunk servers speak SOLAR directly — each runs a :class:`SolarServer`
  whose backing "block server" (:class:`LocalChunkBackend`) writes/reads
  its *own* chunk store with no BN hop and no fan-out;
* the compute DPU absorbs the block server's job: the
  :class:`EdgeReplicator` fans every block out to all replica chunk
  servers itself (one SOLAR RPC per replica) and acks the guest when the
  write quorum completes.

Compared to the standard deployment this removes one network transition
and one server hop per I/O — the "high network communication overhead" of
compute-storage separation that §4.8 calls out for small clusters.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional

from ..agent.base import IoRequest, StorageAgent
from ..core.solar import SolarClient, SolarRpc
from ..host.server import ComputeServer
from ..metrics.trace import IoTrace, TraceCollector
from ..profiles import BLOCK_SIZE, Profiles
from ..sim.engine import Simulator
from ..storage.block import DataBlock, split_into_blocks
from ..storage.chunk_server import ChunkReply, ChunkRequest, ChunkServer
from ..storage.qos import QosTable
from ..storage.segment_table import Extent, Segment, SegmentTable


class LocalChunkBackend:
    """Adapts one chunk server to the block-server interface SolarServer
    expects — minus the BN and minus replication (the client replicates)."""

    def __init__(self, sim: Simulator, chunk: ChunkServer):
        self.sim = sim
        self.chunk = chunk

    def handle_write(
        self,
        segment: Segment,
        block: DataBlock,
        crc: int,
        on_done: Callable[[bool, List[ChunkReply]], None],
    ) -> None:
        request = ChunkRequest(
            "write", segment.segment_id, block.vd_id, block.lba,
            block.size_bytes, data=block.data, crc=crc,
        )
        sim = self.sim
        # A write replies at once with its SSD completion time: act then,
        # in an event queued now, so it keeps the write's arrival rank.
        self.chunk.handle(
            request,
            lambda reply, _size, at_ns: sim.schedule_at_fire(at_ns, on_done, reply.ok, [reply]),
        )

    def handle_read(
        self,
        segment: Segment,
        vd_id: str,
        lba: int,
        size_bytes: int,
        on_done: Callable[[ChunkReply], None],
    ) -> None:
        request = ChunkRequest("read", segment.segment_id, vd_id, lba, size_bytes)
        # A read replies from its SSD-done event, at ``at_ns == now``.
        self.chunk.handle(request, lambda reply, _size, _at_ns: on_done(reply))


class EdgeReplicator(StorageAgent):
    """SA + block server merged on the compute DPU (§4.8).

    WRITE: one SOLAR RPC per (extent, replica); the I/O completes when
    every replica of every extent acks — the write quorum that a block
    server would otherwise coordinate.  READ: one RPC to the primary.
    """

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
        self.sim.schedule_fire(delay, self._dispatch, io)

    def _blocks_for(self, io: IoRequest, extent: Extent) -> List[DataBlock]:
        blocks = split_into_blocks(
            io.vd_id, extent.start_lba * BLOCK_SIZE, extent.num_blocks * BLOCK_SIZE
        )
        if io.data is None:
            return blocks
        rel = (extent.start_lba - io.start_lba) * BLOCK_SIZE
        return [
            b.with_data(io.data[rel + i * BLOCK_SIZE:
                                rel + i * BLOCK_SIZE + b.size_bytes]
                        .ljust(b.size_bytes, b"\0"))
            for i, b in enumerate(blocks)
        ]

    def _dispatch(self, io: IoRequest) -> None:
        extents = self.segment_table.extents(io.vd_id, io.start_lba, io.num_blocks)
        rpcs: List[tuple] = []
        for extent in extents:
            if io.kind == "write":
                # One RPC per replica: the DPU *is* the block server now.
                for replica in extent.segment.replicas:
                    target_seg = dc_replace(
                        extent.segment, block_server=replica, replicas=(replica,)
                    )
                    rpcs.append((dc_replace(extent, segment=target_seg), extent))
            else:
                primary = extent.segment.replicas[0]
                target_seg = dc_replace(
                    extent.segment, block_server=primary, replicas=(primary,)
                )
                rpcs.append((dc_replace(extent, segment=target_seg), extent))
        state = {"pending": len(rpcs), "ok": True, "critical": None}
        for target_extent, source_extent in rpcs:
            done = lambda rpc, ok, i=io, s=state: self._rpc_done(i, s, rpc, ok)
            if io.kind == "write":
                self.client.submit_write(
                    target_extent, self._blocks_for(io, source_extent), done
                )
            else:
                self.client.submit_read(target_extent, done)

    def _rpc_done(self, io: IoRequest, state: Dict, rpc: SolarRpc, ok: bool) -> None:
        state["pending"] -= 1
        state["ok"] = state["ok"] and ok
        critical: Optional[SolarRpc] = state["critical"]
        if critical is None or rpc.completed_ns >= critical.completed_ns:
            state["critical"] = rpc
        if state["pending"] == 0:
            self._finish(io, state)

    def _finish(self, io: IoRequest, state: Dict) -> None:
        rpc: SolarRpc = state["critical"]
        ok = bool(state["ok"])
        trace = io.trace
        if ok and rpc.first_sent_ns is not None:
            storage_ns = rpc.storage_ns
            ssd_ns = min(rpc.ssd_ns, storage_ns)
            trace.add("sa", max(0, rpc.first_sent_ns - trace.submit_ns))
            trace.add("fn", max(0, (rpc.completed_ns - rpc.first_sent_ns) - storage_ns))
            # No BN exists in the integrated design; storage time beyond
            # the SSD is chunk-server processing, attributed to SSD like
            # Figure 6 does ("SSD includes the processing time in chunk
            # servers").
            trace.add("ssd", storage_ns)
            trace.add("sa", max(0, self.sim.now - rpc.completed_ns))
            self.ios_completed += 1
        else:
            self.ios_failed += 1
        trace.complete(self.sim.now, ok)
        if self.collector is not None:
            self.collector.record(trace)
        self.server.nvme.complete(io, lambda _io: io.on_complete(io))


def convert_to_edge(deployment) -> None:
    """Rewire a standard SOLAR deployment into the integrated design.

    Storage hosts keep their chunk servers but lose the block-server hop:
    their SolarServer is re-backed by a :class:`LocalChunkBackend`.
    Compute hosts swap their :class:`~repro.agent.sa_solar.SolarSA` for an
    :class:`EdgeReplicator` (same SolarClient underneath).
    """
    if not deployment.solar_servers:
        raise ValueError("edge conversion requires a SOLAR deployment")
    for name, solar_server in deployment.solar_servers.items():
        solar_server.block_server = LocalChunkBackend(
            deployment.sim, deployment.chunk_servers[name]
        )
    for host, client in deployment.solar_clients.items():
        deployment.agents[host] = EdgeReplicator(
            deployment.sim,
            deployment.compute_servers[host],
            client,
            deployment.segment_table,
            deployment.qos_table,
            deployment.profiles,
            collector=deployment.collector,
        )
