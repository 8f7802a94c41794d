"""Chunk servers: the machines that own physical SSDs.

Block servers fan each WRITE out to (typically) three chunk servers
(§2.2, Figure 2 step: "write the data into chunk servers with multiple
copies").  A chunk server charges CPU for LSM/checksum work, then performs
the SSD operation, then replies.

The chunk store keeps real payload bytes (and their CRCs) when blocks
carry data, so end-to-end integrity experiments read back exactly what
survived the datapath — corruptions injected anywhere upstream are
faithfully persisted and later detected.

Besides guest "write"/"read" requests, chunk servers serve the
re-replication data plane (`repro.rebuild`): ``rebuild_read`` streams a
chunk-sized run of stored blocks off a surviving replica, and
``rebuild_write`` installs them on the new replica.  Both charge the same
CPU and SSD resources as foreground I/O, so rebuild storms genuinely
contend with guest traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..profiles import BLOCK_SIZE, SsdProfile
from ..host.server import StorageServer
from ..sim.engine import Simulator
from .block import DataBlock
from .crc import crc32
from .ssd import SsdDevice

#: (lba, payload-or-None, crc) rows moved by one rebuild transfer chunk.
RebuildEntry = Tuple[int, Optional[bytes], int]

CHUNK_REQUEST_KINDS = ("write", "read", "rebuild_read", "rebuild_write")


@dataclass
class ChunkRequest:
    """A BN request to a chunk server."""

    kind: str  # one of CHUNK_REQUEST_KINDS
    segment_id: str
    vd_id: str
    lba: int
    size_bytes: int
    data: Optional[bytes] = None
    crc: Optional[int] = None
    #: rebuild_write only: the stored rows to install at the destination.
    entries: List[RebuildEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in CHUNK_REQUEST_KINDS:
            raise ValueError(f"bad chunk request kind: {self.kind!r}")


@dataclass(slots=True)
class ChunkReply:
    ok: bool
    kind: str
    segment_id: str
    lba: int
    size_bytes: int
    data: Optional[bytes] = None
    crc: Optional[int] = None
    #: rebuild_read only: the stored rows found in the chunk's LBA range.
    entries: List[RebuildEntry] = field(default_factory=list)
    error: str = ""
    #: Time spent inside the chunk server (CPU + SSD), for trace splitting:
    #: Figure 6's "SSD" component "includes the processing time in chunk
    #: servers and I/O in physical SSDs".
    service_ns: int = 0


class ChunkServer:
    """One chunk server: CPU + SSD + the chunk store."""

    def __init__(
        self,
        sim: Simulator,
        server: StorageServer,
        profile: SsdProfile,
        store_payloads: bool = True,
    ):
        self.sim = sim
        self.server = server
        self.profile = profile
        self.store_payloads = store_payloads
        self.ssd = SsdDevice(sim, f"{server.name}/ssd", profile)
        #: (segment_id, lba) -> (payload or None, crc)
        self.store: Dict[Tuple[str, int], Tuple[Optional[bytes], int]] = {}
        self.writes_served = 0
        self.reads_served = 0
        self.rebuild_reads_served = 0
        self.rebuild_writes_served = 0

    @property
    def name(self) -> str:
        return self.server.name

    # ------------------------------------------------------------------
    def handle(self, request: ChunkRequest, reply: Callable[[ChunkReply, int], None]) -> None:
        """BN entry point (see :meth:`repro.storage.bn.BackendNetwork.call`)."""
        start_ns = self.sim.now
        # The SSD is reserved now, from the CPU job's completion, not from
        # a CPU-done event.  Exact: every chunk job costs ``chunk_cpu_ns``
        # and goes to the least-loaded core on arrival, and no core's
        # ``busy_until`` ever falls, so chunk jobs complete in arrival
        # order (ties too) and the SSD sees, and draws for, the same
        # operations in the same order with the same start bounds.
        cpu_done = self.server.cpu.least_loaded().submit(self.profile.chunk_cpu_ns)
        if request.kind == "write":
            self.ssd.submit_write(
                request.size_bytes, cpu_done, self._finish_write, request, reply, start_ns
            )
        elif request.kind == "read":
            self.ssd.submit_read(
                request.size_bytes, cpu_done, self._finish_read, request, reply, start_ns
            )
        elif request.kind == "rebuild_read":
            self.ssd.submit_read(
                request.size_bytes, cpu_done, self._finish_rebuild_read,
                request, reply, start_ns,
            )
        else:  # rebuild_write: one bulk sequential commit
            self.ssd.submit_write(
                request.size_bytes, cpu_done, self._finish_rebuild_write,
                request, reply, start_ns,
            )

    def _finish_write(self, request: ChunkRequest, reply, start_ns: int) -> None:
        key = (request.segment_id, request.lba)
        payload = request.data if self.store_payloads else None
        crc = request.crc if request.crc is not None else _synthetic_crc(request)
        self.store[key] = (payload, crc)
        self.writes_served += 1
        reply(
            ChunkReply(
                True, "write", request.segment_id, request.lba, request.size_bytes,
                service_ns=self.sim.now - start_ns,
            ),
            64,  # ack frame
        )

    def _finish_read(self, request: ChunkRequest, reply, start_ns: int) -> None:
        key = (request.segment_id, request.lba)
        stored = self.store.get(key)
        if stored is None:
            # Reading never-written space returns zeros, like a fresh disk.
            data = bytes(request.size_bytes) if self.store_payloads else None
            crc = crc32(bytes(request.size_bytes))
        else:
            data, crc = stored
        self.reads_served += 1
        reply(
            ChunkReply(
                True, "read", request.segment_id, request.lba, request.size_bytes,
                data=data, crc=crc, service_ns=self.sim.now - start_ns,
            ),
            request.size_bytes + 64,
        )

    # ------------------------------------------------------------------
    # Re-replication (repro.rebuild): chunk-granular replica copies.
    # ------------------------------------------------------------------
    def _finish_rebuild_read(self, request: ChunkRequest, reply, start_ns: int) -> None:
        """Stream every stored block in [lba, lba + size/BLOCK) to a peer."""
        entries: List[RebuildEntry] = []
        for lba in range(request.lba, request.lba + request.size_bytes // BLOCK_SIZE):
            stored = self.store.get((request.segment_id, lba))
            if stored is not None:
                entries.append((lba, stored[0], stored[1]))
        self.rebuild_reads_served += 1
        reply(
            ChunkReply(
                True, "rebuild_read", request.segment_id, request.lba,
                request.size_bytes, entries=entries,
                service_ns=self.sim.now - start_ns,
            ),
            request.size_bytes + 64,
        )

    def _finish_rebuild_write(self, request: ChunkRequest, reply, start_ns: int) -> None:
        """Install copied rows.  ``setdefault`` semantics: a foreground
        write that raced ahead of the copy already holds fresher bytes at
        the destination and must never be clobbered by rebuild data."""
        for lba, payload, crc in request.entries:
            self.store.setdefault((request.segment_id, lba), (payload, crc))
        self.rebuild_writes_served += 1
        reply(
            ChunkReply(
                True, "rebuild_write", request.segment_id, request.lba,
                request.size_bytes, service_ns=self.sim.now - start_ns,
            ),
            64,  # ack frame
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChunkServer {self.name} blocks={len(self.store)}>"


def _synthetic_crc(request: ChunkRequest) -> int:
    block = DataBlock(request.vd_id, request.lba, request.size_bytes)
    return block.crc
