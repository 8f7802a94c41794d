"""Chunk servers: the machines that own physical SSDs.

Block servers fan each WRITE out to (typically) three chunk servers
(§2.2, Figure 2 step: "write the data into chunk servers with multiple
copies").  A chunk server charges CPU for LSM/checksum work, then performs
the SSD operation, then replies.

The chunk store keeps real payload bytes (and their CRCs) when blocks
carry data, so end-to-end integrity experiments read back exactly what
survived the datapath — corruptions injected anywhere upstream are
faithfully persisted and later detected.

A write's SSD completion time is known when it is submitted, so the
chunk server replies at once with that time instead of from an SSD-done
event, and the block waits in a landing heap until an access needs it.
Reads and rebuild transfers keep their SSD-done events: what a read
returns can depend on a write that arrives later but lands first.

Besides guest "write"/"read" requests, chunk servers serve the
re-replication data plane (`repro.rebuild`): ``rebuild_read`` streams a
chunk-sized run of stored blocks off a surviving replica, and
``rebuild_write`` installs them on the new replica.  Both charge the same
CPU and SSD resources as foreground I/O, so rebuild storms genuinely
contend with guest traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from ..profiles import BLOCK_SIZE, SsdProfile
from ..host.server import StorageServer
from ..sim.engine import Simulator
from .block import DataBlock
from .crc import crc32
from .ssd import SsdDevice

#: (lba, payload-or-None, crc) rows moved by one rebuild transfer chunk.
RebuildEntry = Tuple[int, Optional[bytes], int]
#: ``reply(value, size_bytes, at_ns)``: answer a BN request, due at ``at_ns``.
Reply = Callable[["ChunkReply", int, int], None]

_FOREVER = float("inf")

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
        #: (segment_id, lba) -> (payload or None, crc), as landed so far.
        self._store: Dict[Tuple[str, int], Tuple[Optional[bytes], int]] = {}
        #: Writes not yet settled into ``_store``:
        #: ``(done_ns, arrival, key, payload, crc)``, a min-heap.
        self._landing: list = []
        #: Requests handled so far: the arrival order that breaks
        #: same-nanosecond ties between SSD completions.
        self._arrivals = 0
        self.writes_served = 0
        self.reads_served = 0
        self.rebuild_reads_served = 0
        self.rebuild_writes_served = 0

    @property
    def name(self) -> str:
        return self.server.name

    @property
    def store(self) -> Dict[Tuple[str, int], Tuple[Optional[bytes], int]]:
        """The chunk store as of now: every write whose SSD completed at
        or before now.  For readers outside the event order (invariants,
        tests), which run between events."""
        self._settle((self.sim.now, _FOREVER))
        return self._store

    def _settle(self, bound: tuple) -> None:
        """Land every pending write ranked before ``bound``, a
        ``(done_ns, arrival)`` pair: a write is visible to an operation
        whose SSD completes after it, and at the same nanosecond only to
        one that arrived later.  That is the ``(time, seq)`` order the
        SSD-done events had, since each took its ``seq`` on arrival."""
        landing = self._landing
        store = self._store
        while landing and landing[0] < bound:
            _done, _arrival, key, payload, crc = heappop(landing)
            store[key] = (payload, crc)

    # ------------------------------------------------------------------
    def handle(self, request: ChunkRequest, reply: Reply) -> None:
        """BN entry point (see :meth:`repro.storage.bn.BackendNetwork.call`)."""
        start_ns = self.sim.now
        arrival = self._arrivals
        self._arrivals = arrival + 1
        # The SSD is reserved now, from the CPU job's completion, not from
        # a CPU-done event.  Exact: every chunk job costs ``chunk_cpu_ns``
        # and goes to the least-loaded core on arrival, and no core's
        # ``busy_until`` ever falls, so chunk jobs complete in arrival
        # order (ties too) and the SSD sees, and draws for, the same
        # operations in the same order with the same start bounds.
        cpu_done = self.server.cpu.least_loaded().submit(self.profile.chunk_cpu_ns)
        kind = request.kind
        if kind == "write":
            # No SSD-done event: the reply goes out now, due at the
            # completion, and the block lands in ``_settle``.  Exact: the
            # reply's arrival takes its ``seq`` here, where the SSD-done
            # event took its own, and the landing key ranks the block
            # where that event would have stored it.
            done = self.ssd.submit_write(request.size_bytes, cpu_done)
            payload = request.data if self.store_payloads else None
            crc = request.crc if request.crc is not None else _synthetic_crc(request)
            # Land what completed before now, so the heap holds only
            # writes in flight: every operation still to complete does
            # so at or after now, so those are visible to all of them.
            self._settle((start_ns, -1))
            heappush(self._landing, (done, arrival, (request.segment_id, request.lba),
                                     payload, crc))
            self.writes_served += 1
            reply(
                ChunkReply(
                    True, "write", request.segment_id, request.lba, request.size_bytes,
                    service_ns=done - start_ns,
                ),
                64,  # ack frame
                done,
            )
        elif kind == "read":
            self.ssd.submit_read(
                request.size_bytes, cpu_done, self._finish_read,
                request, reply, start_ns, arrival,
            )
        elif kind == "rebuild_read":
            self.ssd.submit_read(
                request.size_bytes, cpu_done, self._finish_rebuild_read,
                request, reply, start_ns, arrival,
            )
        else:  # rebuild_write: one bulk sequential commit
            self.ssd.submit_write(
                request.size_bytes, cpu_done, self._finish_rebuild_write,
                request, reply, start_ns, arrival,
            )

    def _finish_read(self, request: ChunkRequest, reply: Reply, start_ns: int,
                     arrival: int) -> None:
        now = self.sim.now
        self._settle((now, arrival))
        stored = self._store.get((request.segment_id, request.lba))
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
                data=data, crc=crc, service_ns=now - start_ns,
            ),
            request.size_bytes + 64,
            now,
        )

    # ------------------------------------------------------------------
    # Re-replication (repro.rebuild): chunk-granular replica copies.
    # ------------------------------------------------------------------
    def _finish_rebuild_read(self, request: ChunkRequest, reply: Reply, start_ns: int,
                             arrival: int) -> None:
        """Stream every stored block in [lba, lba + size/BLOCK) to a peer."""
        now = self.sim.now
        self._settle((now, arrival))
        store = self._store
        entries: List[RebuildEntry] = []
        for lba in range(request.lba, request.lba + request.size_bytes // BLOCK_SIZE):
            stored = store.get((request.segment_id, lba))
            if stored is not None:
                entries.append((lba, stored[0], stored[1]))
        self.rebuild_reads_served += 1
        reply(
            ChunkReply(
                True, "rebuild_read", request.segment_id, request.lba,
                request.size_bytes, entries=entries, service_ns=now - start_ns,
            ),
            request.size_bytes + 64,
            now,
        )

    def _finish_rebuild_write(self, request: ChunkRequest, reply: Reply, start_ns: int,
                              arrival: int) -> None:
        """Install copied rows.  ``setdefault`` semantics: a foreground
        write that raced ahead of the copy already holds fresher bytes at
        the destination and must never be clobbered by rebuild data."""
        now = self.sim.now
        self._settle((now, arrival))
        store = self._store
        for lba, payload, crc in request.entries:
            store.setdefault((request.segment_id, lba), (payload, crc))
        self.rebuild_writes_served += 1
        reply(
            ChunkReply(
                True, "rebuild_write", request.segment_id, request.lba,
                request.size_bytes, service_ns=now - start_ns,
            ),
            64,  # ack frame
            now,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChunkServer {self.name} blocks={len(self._store)}>"


def _synthetic_crc(request: ChunkRequest) -> int:
    block = DataBlock(request.vd_id, request.lba, request.size_bytes)
    return block.crc
