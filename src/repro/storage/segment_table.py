"""The Segment Table: the core data structure of storage virtualization.

§2.2: the Segment Table "traces the mapping between the data block address
on a VD and the corresponding data segment(s) on the physical disk(s) and
the block servers in storage clusters".  §4.5: each segment hosted in a
block server covers relatively large (e.g. 2MB) contiguous LBA ranges so
that I/O splitting across block servers stays rare.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..profiles import BLOCK_SIZE

#: §4.5: segments are "relatively large (e.g., 2MB)".
SEGMENT_BYTES = 2 * 1024 * 1024
BLOCKS_PER_SEGMENT = SEGMENT_BYTES // BLOCK_SIZE


@dataclass(frozen=True)
class Segment:
    """A contiguous run of a VD's LBAs hosted by one block server."""

    segment_id: str
    vd_id: str
    start_lba: int
    num_blocks: int
    block_server: str  # endpoint name of the hosting block server
    replicas: Tuple[str, ...]  # chunk-server endpoint names (3 copies, §2.2)

    @property
    def end_lba(self) -> int:
        return self.start_lba + self.num_blocks


@dataclass(frozen=True)
class RebuildItem:
    """One under-replicated segment's copy job, as planned by the table.

    ``sources`` are the members that still hold the bytes (survivors that
    are not themselves pending rebuild destinations); ``destination`` is
    the freshly-picked replica that must be filled.  ``requeued`` marks a
    job that replaces an earlier pending rebuild whose destination died
    mid-copy — the transfer restarts from zero on the new destination.
    """

    vd_id: str
    index: int
    segment_id: str
    start_lba: int
    num_blocks: int
    destination: str
    sources: Tuple[str, ...]
    requeued: bool = False

    @property
    def bytes_total(self) -> int:
        return self.num_blocks * BLOCK_SIZE


@dataclass(frozen=True)
class Extent:
    """A sub-range of one I/O that lands inside a single segment."""

    segment: Segment
    start_lba: int
    num_blocks: int


class UnmappedAddressError(KeyError):
    """An LBA fell outside every provisioned segment of the VD."""


class SegmentTable:
    """Per-VD ordered segment maps with range lookup and I/O splitting."""

    def __init__(self) -> None:
        self._segments: Dict[str, List[Segment]] = {}
        #: Servers evacuated by ``begin_rebuild`` and not yet restored.
        #: Placement (``provision``) avoids them, and a repeat
        #: ``begin_rebuild`` of one is an explicit no-op — overlapping
        #: incidents on the same host must not double-count
        #: ``segments_moved`` or re-place data onto a node the fleet
        #: already considers dead.
        self._evacuated: set = set()
        #: Pending-rebuild state: segment_id -> replica names that are in
        #: the membership but have not yet received the segment's bytes.
        #: Distinguishes "degraded, rebuilding" from "replica policy
        #: violated" for the invariant checks, and lets a destination that
        #: dies mid-copy hand its in-flight transfers to a replacement.
        self._rebuilding: Dict[str, set] = {}

    def provision(
        self,
        vd_id: str,
        size_bytes: int,
        block_servers: Sequence[str],
        chunk_servers: Sequence[str],
        replicas: int = 3,
    ) -> List[Segment]:
        """Carve a VD into segments spread over the storage cluster.

        Placement is deterministic (hash-spread) so experiments are
        reproducible without a management-plane simulation.
        """
        if vd_id in self._segments:
            raise ValueError(f"VD {vd_id!r} already provisioned")
        if size_bytes <= 0 or size_bytes % BLOCK_SIZE:
            raise ValueError(f"VD size must be a positive multiple of {BLOCK_SIZE}")
        # Evacuated servers are off-limits for new placement until the
        # control plane restores them — a VD provisioned mid-incident
        # (e.g. a live migration attaching to this deployment) must not
        # land segments on a node known to be dead.
        block_servers = [s for s in block_servers if s not in self._evacuated]
        chunk_servers = [s for s in chunk_servers if s not in self._evacuated]
        if not block_servers:
            raise ValueError("no block servers available")
        if len(chunk_servers) < replicas:
            raise ValueError(
                f"need >= {replicas} chunk servers, have {len(chunk_servers)}"
            )
        total_blocks = size_bytes // BLOCK_SIZE
        segments: List[Segment] = []
        start = 0
        index = 0
        while start < total_blocks:
            num = min(BLOCKS_PER_SEGMENT, total_blocks - start)
            seg_id = f"{vd_id}/seg{index}"
            bs = block_servers[self._spread(seg_id, "bs") % len(block_servers)]
            reps = self._pick_replicas(seg_id, chunk_servers, replicas)
            segments.append(Segment(seg_id, vd_id, start, num, bs, reps))
            start += num
            index += 1
        self._segments[vd_id] = segments
        return segments

    @staticmethod
    def _spread(key: str, salt: str) -> int:
        digest = hashlib.blake2b(f"{salt}|{key}".encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little")

    @classmethod
    def _pick_replicas(
        cls, seg_id: str, chunk_servers: Sequence[str], replicas: int
    ) -> Tuple[str, ...]:
        ranked = sorted(
            chunk_servers, key=lambda cs: cls._spread(f"{seg_id}|{cs}", "rep")
        )
        return tuple(ranked[:replicas])

    # ------------------------------------------------------------------
    # Control-plane operations (repro.control.failover)
    # ------------------------------------------------------------------
    def __contains__(self, vd_id: str) -> bool:
        return vd_id in self._segments

    def vd_ids(self) -> List[str]:
        return sorted(self._segments)

    def segments_on(self, server: str) -> List[Tuple[str, int, Segment]]:
        """Every (vd_id, index, segment) hosted by or replicated on
        ``server``, in deterministic (vd, index) order."""
        out: List[Tuple[str, int, Segment]] = []
        for vd_id in sorted(self._segments):
            for index, seg in enumerate(self._segments[vd_id]):
                if seg.block_server == server or server in seg.replicas:
                    out.append((vd_id, index, seg))
        return out

    def begin_rebuild(
        self, server: str, replacements: Sequence[str]
    ) -> Tuple[Dict[str, int], List[RebuildItem]]:
        """Move every segment off a failed server — the §2.2 "segments on
        the failed block server are re-routed to other block servers"
        recovery path, driven by the `repro.rebuild` planner.

        ``server`` loses its role both as hosting block server and as
        replica; replacement picks are hash-spread so recovery placement
        is deterministic.  The replacement replicas start empty: each
        segment where ``server`` held a copy becomes *pending rebuild* and
        a :class:`RebuildItem` describes the copy job (sources,
        destination, byte count) the `repro.rebuild` executor must run.
        Returns ``({vd_id: segments_changed}, items)``.

        The destination is appended *last* in the membership tuple so the
        read path (``replicas[0]``) keeps landing on a data-holding
        survivor for as long as one exists.  If ``server`` was itself a
        pending destination of an earlier rebuild, that job's bytes are
        lost with it — the emitted item carries ``requeued=True`` and the
        pending marker moves to the fresh destination, so in-flight
        transfers are re-queued instead of silently dropped.

        Idempotent: a second call for an already-quarantined server
        (overlapping incidents on the same host) is a no-op returning
        ``({}, [])`` — it must not double-count moved segments.  The
        server stays quarantined from new placement until :meth:`restore`.
        """
        if server in replacements:
            raise ValueError(f"cannot evacuate {server!r} onto itself")
        replacements = [r for r in replacements if r not in self._evacuated]
        if not replacements:
            raise ValueError("evacuation needs at least one healthy server")
        if server in self._evacuated:
            return {}, []
        self._evacuated.add(server)
        changed: Dict[str, int] = {}
        items: List[RebuildItem] = []
        for vd_id, index, seg in self.segments_on(server):
            new_bs = seg.block_server
            if new_bs == server:
                new_bs = replacements[
                    self._spread(seg.segment_id, "fo-bs") % len(replacements)
                ]
            new_reps = seg.replicas
            if server in new_reps:
                pool = [r for r in replacements if r not in new_reps]
                if not pool:
                    raise ValueError(
                        f"no replacement replica for {seg.segment_id}: all of "
                        f"{list(replacements)} already hold a copy"
                    )
                pick = pool[self._spread(seg.segment_id, "fo-rep") % len(pool)]
                pending = self._rebuilding.setdefault(seg.segment_id, set())
                requeued = server in pending
                pending.discard(server)
                pending.add(pick)
                survivors = tuple(r for r in new_reps if r != server)
                new_reps = survivors + (pick,)
                sources = tuple(r for r in survivors if r not in pending)
                items.append(
                    RebuildItem(
                        vd_id, index, seg.segment_id, seg.start_lba,
                        seg.num_blocks, pick, sources, requeued=requeued,
                    )
                )
            self._segments[vd_id][index] = dataclasses.replace(
                seg, block_server=new_bs, replicas=new_reps
            )
            changed[vd_id] = changed.get(vd_id, 0) + 1
        return changed, items

    def complete_rebuild(self, segment_id: str, destination: str) -> bool:
        """Mark one pending destination as filled.  Returns ``False`` when
        the (segment, destination) pair is no longer pending — e.g. the
        destination died and its job was re-queued elsewhere."""
        pending = self._rebuilding.get(segment_id)
        if not pending or destination not in pending:
            return False
        pending.discard(destination)
        if not pending:
            del self._rebuilding[segment_id]
        return True

    @property
    def rebuilding(self) -> Dict[str, Tuple[str, ...]]:
        """Pending rebuilds: segment_id -> sorted destination names."""
        return {
            seg_id: tuple(sorted(dests))
            for seg_id, dests in sorted(self._rebuilding.items())
            if dests
        }

    def pending_destinations(self, segment_id: str) -> frozenset:
        return frozenset(self._rebuilding.get(segment_id, ()))

    def restore(self, server: str) -> None:
        """Lift a server's evacuation quarantine (it rejoined the fleet).

        Existing segments are not rebalanced back; the server simply
        becomes eligible for new placement, as a rebuild destination, and
        for a fresh :meth:`begin_rebuild` if it dies again.
        Idempotent.
        """
        self._evacuated.discard(server)

    @property
    def evacuated(self) -> frozenset:
        """Servers currently quarantined by :meth:`begin_rebuild`."""
        return frozenset(self._evacuated)

    # ------------------------------------------------------------------
    def segments_of(self, vd_id: str) -> List[Segment]:
        try:
            return self._segments[vd_id]
        except KeyError:
            raise UnmappedAddressError(f"VD {vd_id!r} not provisioned") from None

    def lookup(self, vd_id: str, lba: int) -> Segment:
        """Find the segment containing one LBA (binary search)."""
        segments = self.segments_of(vd_id)
        lo, hi = 0, len(segments) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            seg = segments[mid]
            if lba < seg.start_lba:
                hi = mid - 1
            elif lba >= seg.end_lba:
                lo = mid + 1
            else:
                return seg
        raise UnmappedAddressError(f"{vd_id!r} LBA {lba} outside provisioned range")

    def extents(self, vd_id: str, start_lba: int, num_blocks: int) -> List[Extent]:
        """Split an I/O into per-segment extents — the Block-table I/O
        splitting step of Figure 12 ("one for each block server")."""
        if num_blocks <= 0:
            raise ValueError(f"non-positive block count: {num_blocks}")
        extents: List[Extent] = []
        lba = start_lba
        remaining = num_blocks
        while remaining > 0:
            seg = self.lookup(vd_id, lba)
            take = min(remaining, seg.end_lba - lba)
            extents.append(Extent(seg, lba, take))
            lba += take
            remaining -= take
        return extents
