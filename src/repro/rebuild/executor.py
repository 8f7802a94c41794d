"""Rebuild executor: re-replication as real traffic on the BN.

Each :class:`~repro.rebuild.planner.RebuildTransfer` is pumped as a
closed-loop stream of chunk-sized copies: ``rebuild_read`` on a surviving
replica's chunk server, then ``rebuild_write`` on the new replica, both as
ordinary :meth:`BackendNetwork.call` RPCs that charge the same CPU cores,
SSD channels and fabric wire time as foreground I/O.  Recovery therefore
*contends* — the whole point of the subsystem (ROADMAP item 4; the paper's
Table 2 clocks assume this traffic exists).

Pacing is one global leaky bucket over the active
:class:`~repro.rebuild.throttle.ThrottlePolicy`'s rate: before each chunk
is issued the executor asks the policy for the current aggregate rate and
books the chunk's serialization gap, so all concurrent transfers share
one budget regardless of policy.

Swarm mode (``swarm=True``) runs one closed loop per surviving source —
all replicas of a segment seed concurrently, BitTorrent-style, pulling
disjoint chunks from a shared work queue.  Unicast keeps a single stream
and holds the remaining sources as failover reserves.

Failure handling is the part the satellite regression test exercises:
``handle_node_failure`` cancels transfers whose *destination* died (the
planner re-queues them onto a fresh destination via
``SegmentTable.begin_rebuild``) and reclaims in-flight chunks from dead
*sources*, promoting a reserve source in unicast or simply narrowing the
swarm.  A transfer left with no sources stalls and is handed back to the
planner, which surfaces a typed incident instead of hanging.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from ..profiles import BLOCK_SIZE
from ..storage.chunk_server import ChunkReply, ChunkRequest
from .throttle import MIN_RATE_BPS, ThrottlePolicy

#: Wire framing charged per rebuild RPC on top of the payload.
_RPC_HEADER_BYTES = 128


class _TransferState:
    """Book-keeping for one admitted transfer."""

    def __init__(self, transfer, chunk_bytes: int, swarm: bool):
        self.transfer = transfer
        #: Bumped to invalidate every outstanding callback on cancel.
        self.gen = 0
        blocks_per_chunk = chunk_bytes // BLOCK_SIZE
        self.chunks: List = []
        lba = transfer.start_lba
        end = transfer.start_lba + transfer.num_blocks
        while lba < end:
            blocks = min(blocks_per_chunk, end - lba)
            self.chunks.append((lba, blocks * BLOCK_SIZE))
            lba += blocks
        #: Chunk indices not yet claimed by a stream.
        self.pending: Deque[int] = deque(range(len(self.chunks)))
        #: chunk index -> source currently copying it.
        self.inflight: Dict[int, str] = {}
        if swarm:
            self.streams: List[str] = list(transfer.sources)
            self.reserve: List[str] = []
        else:
            self.streams = [transfer.sources[0]]
            self.reserve = list(transfer.sources[1:])
        #: Streams parked because ``pending`` drained while peers copy.
        self.idle: Set[str] = set()
        self.done_bytes = 0

    @property
    def finished(self) -> bool:
        return not self.pending and not self.inflight


class RebuildExecutor:
    """Runs planned transfers as throttled BN traffic."""

    def __init__(
        self,
        deployment,
        policy: ThrottlePolicy,
        swarm: bool = False,
        chunk_bytes: int = 256 * 1024,
        max_active_transfers: int = 4,
    ):
        if chunk_bytes <= 0 or chunk_bytes % BLOCK_SIZE:
            raise ValueError(
                f"chunk_bytes must be a positive multiple of {BLOCK_SIZE}"
            )
        if max_active_transfers < 1:
            raise ValueError(f"need >= 1 active transfer: {max_active_transfers}")
        self.deployment = deployment
        self.sim = deployment.sim
        self.bn = deployment.bn
        self.policy = policy
        self.swarm = swarm
        self.chunk_bytes = chunk_bytes
        self.max_active_transfers = max_active_transfers
        #: Planner hooks: transfer finished / must be re-planned / has no
        #: usable sources left.  Set by :class:`RebuildPlanner`.
        self.on_done: Optional[Callable] = None
        self.on_requeue: Optional[Callable] = None
        self.on_stalled: Optional[Callable] = None
        self._queue: Deque = deque()
        self._active: Dict[int, _TransferState] = {}
        #: Leaky bucket: simulated instant the next chunk grant frees up.
        self._next_free = 0
        self.bytes_planned = 0
        self.bytes_done = 0
        self.transfers_done = 0
        self.chunks_copied = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def start(self, transfer) -> None:
        """Accept one planned transfer (FIFO admission, bounded overlap)."""
        if not transfer.sources:
            raise ValueError(f"transfer {transfer.transfer_id} has no sources")
        self.bytes_planned += transfer.bytes_total
        self.policy.on_plan(self.sim.now, transfer.bytes_total)
        self._queue.append(transfer)
        self._admit()

    def _admit(self) -> None:
        while self._queue and len(self._active) < self.max_active_transfers:
            transfer = self._queue.popleft()
            state = _TransferState(transfer, self.chunk_bytes, self.swarm)
            self._active[transfer.transfer_id] = state
            for source in list(state.streams):
                self._next_chunk(state, source)

    # ------------------------------------------------------------------
    # The closed loop: grant -> rebuild_read -> rebuild_write -> repeat
    # ------------------------------------------------------------------
    def _grant(self, nbytes: int) -> int:
        """Book ``nbytes`` against the shared throttle; returns issue time."""
        now = self.sim.now
        remaining = max(self.bytes_planned - self.bytes_done, nbytes)
        rate = max(self.policy.rate_bps(now, remaining), MIN_RATE_BPS)
        gap = int(nbytes * 8 * 1e9 / rate)
        at = max(now, self._next_free)
        self._next_free = at + gap
        return at

    def _next_chunk(self, state: _TransferState, source: str) -> None:
        if not state.pending:
            state.idle.add(source)
            return
        chunk = state.pending.popleft()
        state.inflight[chunk] = source
        _lba, size = state.chunks[chunk]
        at = self._grant(size)
        self.sim.schedule_at_fire(at, self._issue_read, state, source, chunk, state.gen)

    def _valid(self, state: _TransferState, source: str, chunk: int, gen: int) -> bool:
        return (
            state.transfer.transfer_id in self._active
            and state.gen == gen
            and state.inflight.get(chunk) == source
        )

    def _issue_read(
        self, state: _TransferState, source: str, chunk: int, gen: int
    ) -> None:
        if not self._valid(state, source, chunk, gen):
            return
        transfer = state.transfer
        lba, size = state.chunks[chunk]
        request = ChunkRequest(
            "rebuild_read", transfer.segment_id, transfer.vd_id, lba, size
        )
        self.bn.call(
            self.deployment.chunk_servers[source].handle,
            request,
            _RPC_HEADER_BYTES,
            lambda reply: self._on_read(state, source, chunk, gen, reply),
        )

    def _on_read(
        self, state: _TransferState, source: str, chunk: int, gen: int,
        reply: ChunkReply,
    ) -> None:
        if not self._valid(state, source, chunk, gen):
            return  # transfer called off or chunk reclaimed mid-flight
        transfer = state.transfer
        lba, size = state.chunks[chunk]
        request = ChunkRequest(
            "rebuild_write", transfer.segment_id, transfer.vd_id, lba, size,
            entries=reply.entries,
        )
        self.bn.call(
            self.deployment.chunk_servers[transfer.destination].handle,
            request,
            size + _RPC_HEADER_BYTES,
            lambda ack: self._on_write_ack(state, source, chunk, gen, ack),
        )

    def _on_write_ack(
        self, state: _TransferState, source: str, chunk: int, gen: int,
        ack: ChunkReply,
    ) -> None:
        if not self._valid(state, source, chunk, gen):
            return
        del state.inflight[chunk]
        _lba, size = state.chunks[chunk]
        state.done_bytes += size
        self.bytes_done += size
        self.chunks_copied += 1
        if state.finished:
            self._finish(state)
        else:
            self._next_chunk(state, source)

    def _finish(self, state: _TransferState) -> None:
        del self._active[state.transfer.transfer_id]
        self.transfers_done += 1
        if self.on_done is not None:
            self.on_done(state.transfer)
        self._admit()

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def handle_node_failure(self, node: str, alive: Optional[Set[str]] = None) -> None:
        """React to ``node`` dying: cancel transfers writing *to* it (the
        planner re-queues them onto a fresh destination) and reclaim work
        streaming *from* it (promote a reserve / narrow the swarm; stall
        the transfer if no source remains)."""
        # Queued (not yet admitted) transfers first.
        kept: Deque = deque()
        while self._queue:
            transfer = self._queue.popleft()
            if transfer.destination == node:
                self._unplan(transfer.bytes_total)
                if self.on_requeue is not None:
                    self.on_requeue(transfer)
                continue
            if node in transfer.sources:
                transfer = dataclasses.replace(
                    transfer,
                    sources=tuple(s for s in transfer.sources if s != node),
                )
                if not transfer.sources:
                    self._unplan(transfer.bytes_total)
                    if self.on_stalled is not None:
                        self.on_stalled(transfer)
                    continue
            kept.append(transfer)
        self._queue = kept
        # Active transfers.
        for transfer_id in sorted(self._active):
            state = self._active.get(transfer_id)
            if state is None:
                continue
            if state.transfer.destination == node:
                self._cancel(state)
            elif node in state.streams or node in state.reserve:
                self._drop_source(state, node)
        self._admit()

    def _unplan(self, undone_bytes: int) -> None:
        """A transfer leaves the executor unfinished; its undone bytes are
        no longer this storm's work (a re-queued copy re-adds them)."""
        self.bytes_planned -= undone_bytes

    def _cancel(self, state: _TransferState) -> None:
        state.gen += 1
        state.inflight.clear()
        del self._active[state.transfer.transfer_id]
        self._unplan(state.transfer.bytes_total - state.done_bytes)
        if self.on_requeue is not None:
            self.on_requeue(state.transfer)

    def _drop_source(self, state: _TransferState, node: str) -> None:
        if node in state.reserve:
            state.reserve.remove(node)
        if node in state.streams:
            state.streams.remove(node)
            state.idle.discard(node)
            # Reclaim the dead stream's in-flight chunks for the others.
            reclaimed = sorted(
                chunk for chunk, src in state.inflight.items() if src == node
            )
            for chunk in reclaimed:
                del state.inflight[chunk]
                state.pending.appendleft(chunk)
            if not self.swarm and state.reserve:
                state.streams.append(state.reserve.pop(0))
                self._next_chunk(state, state.streams[-1])
        if not state.streams:
            state.gen += 1
            state.inflight.clear()
            del self._active[state.transfer.transfer_id]
            self._unplan(state.transfer.bytes_total - state.done_bytes)
            if self.on_stalled is not None:
                self.on_stalled(state.transfer)
            return
        # Returned chunks need pumps: wake every parked stream.
        for source in sorted(state.idle):
            state.idle.discard(source)
            self._next_chunk(state, source)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def queued_count(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return bool(self._active or self._queue)

    def active_source_nodes(self) -> List[str]:
        """Nodes currently seeding at least one active transfer."""
        sources: Set[str] = set()
        for state in self._active.values():
            sources.update(state.streams)
        return sorted(sources)

    def current_rate_bps(self) -> float:
        remaining = max(self.bytes_planned - self.bytes_done, 0)
        return float(self.policy.rate_bps(self.sim.now, remaining))
