"""Rebuild planner: failover events in, transfer schedules out.

The planner sits between the control plane and the data plane.  When the
:class:`~repro.control.failover.FailoverOrchestrator` hands it a node
failure it asks :meth:`SegmentTable.begin_rebuild` which segments lost a
copy, turns each resulting :class:`~repro.storage.segment_table.RebuildItem`
into a :class:`RebuildTransfer`, and feeds the executor.  It also keeps
the storm's ledger — the chaos invariant "every started rebuild either
completes or is re-planned" is checked directly against :meth:`audit`.

Unrecoverable segments (zero surviving data holders) do not hang: the
transfer is parked as *stalled* and a typed :data:`REBUILD_STUCK` incident
is declared on the health monitor.  When nodes rejoin the fleet the
orchestrator calls :meth:`on_node_recovered`, which retries stalled
transfers against any live *data holder* — including a rejoined dead node,
whose chunk store survived the outage (the same persistence the chaos
durability invariant relies on).

:func:`build_recovery` assembles a deployment's whole recovery stack
(policy, executor, planner, orchestrator) from a ``RebuildSpec``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..control.failover import FailoverOrchestrator, FailoverPolicy
from ..profiles import BLOCK_SIZE, bytes_time_ns
from ..sim.events import MS
from ..storage.segment_table import RebuildItem
from .executor import RebuildExecutor
from .throttle import make_policy

#: Incident kind for "this segment currently has no live source to copy
#: from" — surfaced instead of letting the rebuild hang silently.
REBUILD_STUCK = "rebuild-unrecoverable"


def spillover_schedule(
    bytes_total: int, chunk_bytes: int, rate_gbps: float, start_ns: int = 0
) -> List[Tuple[int, int]]:
    """Paced ``(at_ns, size_bytes)`` chunk schedule for rebuild traffic
    that lands on a *remote* deployment.

    When a node failure's re-replication fans out across the FN fabric
    to another deployment of a `repro.dist` fleet, the receiving
    deployment does not run this planner — it only sees the traffic,
    scheduled from the fleet spec when it is built.  This helper is the shape
    of that traffic: the same leaky-bucket pacing the
    :class:`~repro.rebuild.executor.RebuildExecutor` applies locally,
    reduced to a deterministic issue schedule the remote deployment can
    inject as real BN I/O.  Chunks are issued back-to-back at the wire
    time of ``chunk_bytes`` at ``rate_gbps``, with a short final chunk
    for the remainder.
    """
    if bytes_total <= 0:
        raise ValueError(f"bytes_total must be positive: {bytes_total}")
    if chunk_bytes <= 0:
        raise ValueError(f"chunk_bytes must be positive: {chunk_bytes}")
    if rate_gbps <= 0:
        raise ValueError(f"rate_gbps must be positive: {rate_gbps}")
    gap_ns = bytes_time_ns(chunk_bytes, rate_gbps)
    schedule: List[Tuple[int, int]] = []
    offset = 0
    at_ns = int(start_ns)
    while offset < bytes_total:
        size = min(chunk_bytes, bytes_total - offset)
        schedule.append((at_ns, size))
        offset += size
        at_ns += gap_ns
    return schedule


@dataclass(frozen=True)
class RebuildTransfer:
    """One scheduled copy: fill ``destination`` from ``sources``."""

    transfer_id: int
    vd_id: str
    segment_id: str
    start_lba: int
    num_blocks: int
    destination: str
    sources: Tuple[str, ...]
    planned_ns: int
    #: Transfer id this one replaces (its destination died mid-copy).
    requeue_of: Optional[int] = None

    @property
    def bytes_total(self) -> int:
        return self.num_blocks * BLOCK_SIZE


@dataclass
class RebuildRecord:
    """One node failure's rebuild plan and its completion timeline."""

    node: str
    planned_ns: int
    transfers: int
    bytes_total: int
    completed_ns: Optional[int] = None
    #: Transfer ids still owed to this record (re-queues swap ids in).
    pending_ids: Set[int] = field(default_factory=set)

    @property
    def done(self) -> bool:
        return not self.pending_ids


class RebuildPlanner:
    """Plans, launches, re-queues and accounts for rebuild transfers."""

    def __init__(
        self,
        deployment,
        executor: RebuildExecutor,
        monitor,
        node_prefix: str = "",
    ):
        self.deployment = deployment
        self.sim = deployment.sim
        self.executor = executor
        #: The :class:`~repro.control.health.HealthMonitor` (duck typed —
        #: only ``declare``/``resolve`` are used) for the
        #: :data:`REBUILD_STUCK` incidents.
        self.monitor = monitor
        self.node_prefix = node_prefix
        executor.on_done = self._on_transfer_done
        executor.on_requeue = self._on_transfer_requeued
        executor.on_stalled = self._on_transfer_stalled
        self.records: List[RebuildRecord] = []
        self._next_id = 1
        self._record_of: Dict[int, RebuildRecord] = {}
        #: (segment_id, destination) -> parked transfer with no live source.
        self._stalled: Dict[Tuple[str, str], RebuildTransfer] = {}
        self._stall_incidents: Dict[Tuple[str, str], object] = {}
        #: segment_id -> nodes known to hold the segment's bytes (original
        #: members, plus destinations that completed their copy).  A dead
        #: holder's chunk store persists, so it re-qualifies on rejoin.
        self._holders: Dict[str, Set[str]] = {}
        self.started = 0
        self.completed = 0
        self.requeued = 0

    # ------------------------------------------------------------------
    # Control-plane entry points (called by FailoverOrchestrator)
    # ------------------------------------------------------------------
    def on_node_failure(self, node: str, healthy: Sequence[str]) -> Dict[str, int]:
        """Plan the rebuild for ``node``'s death.  Returns the
        ``{vd_id: segments_changed}`` half of
        :meth:`SegmentTable.begin_rebuild`'s answer, which the orchestrator
        turns into its recovery record and per-VD table pushes."""
        # A stalled transfer whose destination just died is superseded by
        # the re-planned item begin_rebuild is about to emit.
        for key in sorted(self._stalled):
            if key[1] == node:
                transfer = self._stalled.pop(key)
                self.requeued += 1
                self._detach_record(transfer.transfer_id)
                self._resolve_stall(key)
        # Reclaim in-flight work that streamed to or from the dead node.
        self.executor.handle_node_failure(node, set(healthy))
        changed, items = self.deployment.segment_table.begin_rebuild(
            node, sorted(healthy)
        )
        if not changed:
            return changed
        record = RebuildRecord(
            node=node,
            planned_ns=self.sim.now,
            transfers=len(items),
            bytes_total=sum(item.bytes_total for item in items),
        )
        self.records.append(record)
        for item in items:
            self._note_holders(item, node)
            self._launch(item, record)
        if record.done:
            record.completed_ns = self.sim.now  # metadata-only failure
        return changed

    def on_node_recovered(self, node: str) -> int:
        """A node rejoined: retry every stalled transfer that now has a
        live data holder to copy from.  Returns the retry count."""
        retried = 0
        for key in sorted(self._stalled):
            transfer = self._stalled[key]
            sources = self._live_holders(transfer.segment_id, transfer.destination)
            if not sources:
                continue
            del self._stalled[key]
            self._resolve_stall(key)
            # Same transfer id: the record's obligation carries over.
            revived = dataclasses.replace(
                transfer, sources=sources, planned_ns=self.sim.now
            )
            self.executor.start(revived)
            retried += 1
        return retried

    # ------------------------------------------------------------------
    # Planning internals
    # ------------------------------------------------------------------
    def _note_holders(self, item: RebuildItem, dead_node: str) -> None:
        holders = self._holders.setdefault(item.segment_id, set())
        holders.update(item.sources)
        # The dead node's store keeps the bytes unless it was itself a
        # mid-copy destination (partial data — never a valid source).
        if not item.requeued:
            holders.add(dead_node)

    def _live_holders(self, segment_id: str, destination: str) -> Tuple[str, ...]:
        table = self.deployment.segment_table
        pending = table.pending_destinations(segment_id)
        out = []
        for holder in sorted(self._holders.get(segment_id, ())):
            if holder == destination or holder in pending:
                continue
            if holder in table.evacuated or not self._alive(holder):
                continue
            out.append(holder)
        return tuple(out)

    def _alive(self, name: str) -> bool:
        host = self.deployment.topology.hosts.get(name)
        if host is None:
            return False
        return any(ch.up for ch in host.uplinks)

    def _launch(self, item: RebuildItem, record: RebuildRecord) -> None:
        transfer = RebuildTransfer(
            transfer_id=self._next_id,
            vd_id=item.vd_id,
            segment_id=item.segment_id,
            start_lba=item.start_lba,
            num_blocks=item.num_blocks,
            destination=item.destination,
            sources=item.sources,
            planned_ns=self.sim.now,
        )
        self._next_id += 1
        self.started += 1
        record.pending_ids.add(transfer.transfer_id)
        self._record_of[transfer.transfer_id] = record
        if transfer.sources:
            self.executor.start(transfer)
        else:
            self._stall(transfer)

    def _stall(self, transfer: RebuildTransfer) -> None:
        key = (transfer.segment_id, transfer.destination)
        self._stalled[key] = transfer
        if key not in self._stall_incidents:
            self._stall_incidents[key] = self.monitor.declare(
                REBUILD_STUCK,
                f"{self.node_prefix}{transfer.destination}",
                detail=(
                    f"segment {transfer.segment_id} has no live source "
                    f"({transfer.bytes_total} bytes unrecovered)"
                ),
            )

    def _resolve_stall(self, key: Tuple[str, str]) -> None:
        incident = self._stall_incidents.pop(key, None)
        if incident is not None:
            self.monitor.resolve(incident)

    # ------------------------------------------------------------------
    # Executor callbacks
    # ------------------------------------------------------------------
    def _on_transfer_done(self, transfer: RebuildTransfer) -> None:
        self.completed += 1
        self.deployment.segment_table.complete_rebuild(
            transfer.segment_id, transfer.destination
        )
        self._holders.setdefault(transfer.segment_id, set()).add(
            transfer.destination
        )
        record = self._record_of.pop(transfer.transfer_id, None)
        if record is not None:
            record.pending_ids.discard(transfer.transfer_id)
            if record.done and record.completed_ns is None:
                record.completed_ns = self.sim.now
        # The destination now serves reads like any replica; SOLAR-style
        # cached maps must observe the membership (cheap re-push).
        self.deployment.refresh_vd(transfer.vd_id)

    def _on_transfer_requeued(self, transfer: RebuildTransfer) -> None:
        """Destination died mid-copy; ``begin_rebuild`` for that death will
        emit a ``requeued=True`` item that re-plans this work (the
        replacement transfer is booked under the *new* failure's record,
        so the old record's obligation moves with it)."""
        self.requeued += 1
        self._detach_record(transfer.transfer_id)

    def _detach_record(self, transfer_id: int) -> None:
        record = self._record_of.pop(transfer_id, None)
        if record is not None:
            record.pending_ids.discard(transfer_id)
            if record.done and record.completed_ns is None:
                record.completed_ns = self.sim.now

    def _on_transfer_stalled(self, transfer: RebuildTransfer) -> None:
        self._stall(transfer)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def stalled_count(self) -> int:
        return len(self._stalled)

    @property
    def busy(self) -> bool:
        return self.executor.busy or bool(self._stalled)

    def audit(self) -> Dict[str, int]:
        """The storm ledger.  Invariant (checked by `repro.chaos`):
        ``started == completed + requeued + active + stalled``."""
        return {
            "started": self.started,
            "completed": self.completed,
            "requeued": self.requeued,
            "active": self.executor.active_count + self.executor.queued_count,
            "stalled": len(self._stalled),
        }

    def recovery_ns(self) -> Optional[int]:
        """Plan-to-last-byte duration across all completed records, or
        ``None`` while any record is still owed transfers."""
        if not self.records:
            return None
        if any(not record.done or record.completed_ns is None
               for record in self.records):
            return None
        start = min(record.planned_ns for record in self.records)
        end = max(record.completed_ns for record in self.records)
        return end - start


def build_recovery(deployment, health, spec, reroute_delay_ns: int,
                   plane=None, node_prefix: str = "") -> FailoverOrchestrator:
    """One deployment's recovery stack, from a ``RebuildSpec``: throttle
    policy → executor → planner → an orchestrator whose storage servers
    heartbeat into ``health``, plus the storm's gauges and p99 feed on
    ``plane``.  Returns the orchestrator (``.planner.executor.policy``).
    ``node_prefix`` tells apart deployments sharing one health monitor.
    """
    executor = RebuildExecutor(
        deployment,
        make_policy(
            spec.policy,
            rate_bps=spec.rate_gbps * 1e9,
            deadline_ns=spec.deadline_ms * MS,
            target_p99_ns=spec.target_p99_us * 1_000,
        ),
        swarm=(spec.mode == "swarm"),
        chunk_bytes=spec.chunk_kb * 1024,
        max_active_transfers=spec.max_active_transfers,
    )
    planner = RebuildPlanner(deployment, executor, health, node_prefix=node_prefix)
    orchestrator = FailoverOrchestrator(
        deployment,
        health,
        planner,
        FailoverPolicy(reroute_delay_ns=reroute_delay_ns),
        node_prefix=node_prefix,
    )
    orchestrator.watch_storage()
    if plane is not None:
        plane.watch_rebuild(executor)
    return orchestrator
