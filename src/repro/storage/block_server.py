"""Block servers: the storage-cluster front door for each segment.

A block server owns a set of segments.  For WRITE it replicates each block
to the segment's chunk servers over the BN and confirms once all copies
land (Figure 2 steps 2-3); for READ it fetches from a replica.  It also
"aggregates and sequentializes" operations (§2.2), charged as CPU time.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..host.server import StorageServer
from ..profiles import SsdProfile
from ..sim.engine import Simulator
from .block import DataBlock
from .bn import BackendNetwork
from .chunk_server import ChunkReply, ChunkRequest, ChunkServer
from .segment_table import Segment


class BlockServer:
    """One block server instance."""

    def __init__(
        self,
        sim: Simulator,
        server: StorageServer,
        bn: BackendNetwork,
        chunk_servers: Dict[str, ChunkServer],
        profile: SsdProfile,
    ):
        self.sim = sim
        self.server = server
        self.bn = bn
        self.chunk_servers = chunk_servers
        self.profile = profile
        self.writes = 0
        self.reads = 0

    @property
    def name(self) -> str:
        return self.server.name

    def _chunk(self, name: str) -> ChunkServer:
        try:
            return self.chunk_servers[name]
        except KeyError:
            raise KeyError(
                f"block server {self.name} has no route to chunk server {name!r}"
            ) from None

    # ------------------------------------------------------------------
    def handle_write(
        self,
        segment: Segment,
        block: DataBlock,
        crc: int,
        on_done: Callable[[bool, List[ChunkReply]], None],
    ) -> None:
        """Replicate one block to every chunk replica; ack when all land.

        ``on_done(ok, replies)`` receives the chunk replies so callers can
        attribute SSD time (Figure 6 trace splitting).
        """
        self.writes += 1
        core = self.server.cpu.least_loaded()
        core.submit(
            self.profile.block_server_cpu_ns,
            self._fan_out_write,
            segment,
            block,
            crc,
            on_done,
        )

    def _fan_out_write(
        self, segment: Segment, block: DataBlock, crc: int, on_done
    ) -> None:
        request = ChunkRequest(
            "write",
            segment.segment_id,
            block.vd_id,
            block.lba,
            block.size_bytes,
            data=block.data,
            crc=crc,
        )
        self.bn.fan_out(
            [self._chunk(replica).handle for replica in segment.replicas],
            request,
            block.size_bytes + 128,
            _all_landed,
            on_done,
        )

    # ------------------------------------------------------------------
    def handle_read(
        self,
        segment: Segment,
        vd_id: str,
        lba: int,
        size_bytes: int,
        on_done: Callable[[ChunkReply], None],
    ) -> None:
        """Fetch one block from the segment's primary replica."""
        self.reads += 1
        core = self.server.cpu.least_loaded()
        core.submit(
            self.profile.block_server_cpu_ns,
            self._fetch_read,
            segment,
            vd_id,
            lba,
            size_bytes,
            on_done,
        )

    def _fetch_read(
        self, segment: Segment, vd_id: str, lba: int, size_bytes: int, on_done
    ) -> None:
        request = ChunkRequest("read", segment.segment_id, vd_id, lba, size_bytes)
        chunk = self._chunk(segment.replicas[0])
        self.bn.call(chunk.handle, request, 128, on_done)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BlockServer {self.name} w={self.writes} r={self.reads}>"


def _all_landed(on_done, replies: List[ChunkReply]) -> None:
    """Full-write quorum (§2.2): the block is written only if every copy is."""
    on_done(all(reply.ok for reply in replies), replies)
