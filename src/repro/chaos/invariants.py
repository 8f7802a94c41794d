"""The chaos invariant suite: what must hold no matter what faults fly.

Each check encodes one promise the paper's operational story makes and
the control plane is supposed to keep (§2.2 replication, §4.4 CRC
integrity, §5 availability):

* **replica-policy** — every provisioned segment keeps three distinct
  live replicas; a storage node that has been dead longer than the
  detection + reroute grace window must be evacuated and hold nothing.
* **durability** — every write acknowledged clean (ok, no integrity
  error) is readable back from the fleet with exactly the bytes the
  guest wrote; FPGA bit flips may corrupt payloads, but then the CRC
  aggregation check must have flagged the write, never acked it clean.
* **detection-bounded** — software CRC can detect at most as many events
  as the injector actually flipped (no phantom detections).
* **incident-resolution** (final) — once every fault is cleared and the
  cluster has quiesced, every declared incident has auto-resolved; the
  only exemption is an I/O-hang incident whose I/O genuinely never
  completed (a known model limitation of non-retransmitting stacks).
* **migration-budget** — no migration, completed, aborted or still in
  flight, holds its VD unavailable longer than the downtime budget.
* **hang-parity** — the online `SlowIoDiagnoser` tallies (per node and
  total) equal the offline `IoHangMonitor` counts, the same books
  `benchmarks/bench_fig8_io_hangs.py` balances.
* **rebuild-ledger** — every rebuild transfer the planner ever started
  is, at all times, exactly one of: completed, re-planned after its
  destination died, in flight/queued, or parked as stalled.  Transfers
  never vanish from the books, no matter how sources and destinations
  die mid-copy.
* **rebuild-settled** (final) — once faults are cleared and the cluster
  has quiesced, no rebuild is still copying, queued or stalled, and the
  segment table owes no pending rebuild destinations.

Checks read only simulated state, so a violation is deterministic for a
given scenario and the shrunken sequence hypothesis reports replays
exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..control.health import IO_HANG
from ..sim.events import format_ns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .harness import ChaosHarness


class InvariantViolation(AssertionError):
    """One broken invariant, with the check's name for triage."""

    def __init__(self, check: str, message: str):
        super().__init__(f"[{check}] {message}")
        self.check = check
        self.detail = message


class InvariantSuite:
    """Runs the chaos checks against one :class:`ChaosHarness`."""

    #: Checks run after every applied action.
    STEP_CHECKS = (
        "check_replica_policy",
        "check_durability",
        "check_detection_bounded",
        "check_migration_budget",
        "check_hang_parity",
        "check_rebuild_ledger",
    )
    #: Additional checks that only make sense once the cluster quiesced.
    FINAL_CHECKS = ("check_incident_resolution", "check_rebuild_settled")

    def __init__(self, harness: "ChaosHarness"):
        self.harness = harness
        self.checks_run = 0

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Run every per-step check; raise on the first violation."""
        for name in self.STEP_CHECKS:
            getattr(self, name)()
            self.checks_run += 1

    def verify_final(self) -> None:
        """Run the full suite plus the quiesced-state checks."""
        self.verify()
        for name in self.FINAL_CHECKS:
            getattr(self, name)()
            self.checks_run += 1

    # ------------------------------------------------------------------
    def check_replica_policy(self) -> None:
        """3 distinct replicas per segment; expired dead nodes drained."""
        h = self.harness
        for stack, rig in h.cluster.rigs.items():
            table = rig.deployment.segment_table
            for vd_id in table.vd_ids():
                for seg in table.segments_of(vd_id):
                    if len(set(seg.replicas)) != len(seg.replicas) or len(seg.replicas) != 3:
                        raise InvariantViolation(
                            "replica-policy",
                            f"{stack}:{seg.segment_id} replicas {seg.replicas} "
                            "are not 3 distinct servers",
                        )
            for node, failed_ns in h.failed_nodes(stack).items():
                if h.now - failed_ns <= h.grace_ns:
                    continue  # inside the detection + reroute grace window
                if node not in table.evacuated:
                    raise InvariantViolation(
                        "replica-policy",
                        f"{stack}:{node} dead since {format_ns(failed_ns)} "
                        f"(grace {format_ns(h.grace_ns)} expired at "
                        f"{format_ns(h.now)}) but never evacuated",
                    )
                held = table.segments_on(node)
                if held:
                    raise InvariantViolation(
                        "replica-policy",
                        f"{stack}:{node} dead past the grace window still "
                        f"holds {len(held)} segment role(s), e.g. "
                        f"{held[0][2].segment_id}",
                    )

    def check_durability(self) -> None:
        """Every clean-acked write's bytes exist somewhere in the fleet."""
        h = self.harness
        for (stack, vd_id, lba), payload in h.durable_writes():
            if h.write_pending(stack, vd_id, lba):
                continue  # a newer write to this block is still in flight
            deployment = h.cluster.rigs[stack].deployment
            seg = deployment.segment_table.lookup(vd_id, lba)
            key = (seg.segment_id, lba)
            copies = 0
            intact = 0
            for chunk in deployment.chunk_servers.values():
                stored = chunk.store.get(key)
                if stored is None:
                    continue
                copies += 1
                if stored[0] == payload:
                    intact += 1
            if intact == 0:
                raise InvariantViolation(
                    "durability",
                    f"acked write {stack}:{vd_id} lba={lba} has no intact "
                    f"copy ({copies} stored, all corrupt or missing) — an "
                    "acknowledged write was lost or silently corrupted",
                )

    def check_detection_bounded(self) -> None:
        """CRC detections never exceed actual injected bit flips."""
        h = self.harness
        detected = h.integrity_events()
        injected = h.injector.total_injected
        if detected > injected:
            raise InvariantViolation(
                "detection-bounded",
                f"{detected} integrity events detected but only {injected} "
                "bit flips injected — detection is inventing corruption",
            )

    def check_migration_budget(self) -> None:
        """No migration stalls its guest past the downtime budget."""
        h = self.harness
        budget = h.config.migration_budget_ns
        for report in h.cluster.migration_reports:
            if report.downtime_ns > budget:
                raise InvariantViolation(
                    "migration-budget",
                    f"migration of {report.vd_id} took "
                    f"{format_ns(report.downtime_ns)} "
                    f"(budget {format_ns(budget)})",
                )
        for report in h.cluster.aborted_migrations:
            stalled = report.aborted_ns - report.started_ns
            if stalled > budget:
                raise InvariantViolation(
                    "migration-budget",
                    f"aborted migration of {report.vd_id} held the guest "
                    f"{format_ns(stalled)} before rollback "
                    f"(budget {format_ns(budget)})",
                )
        for index, started_ns in h.migrations_in_flight().items():
            stalled = h.now - started_ns
            if stalled > budget:
                raise InvariantViolation(
                    "migration-budget",
                    f"srv{index} has been migrating for {format_ns(stalled)} "
                    f"with no completion or abort (budget "
                    f"{format_ns(budget)}) — the drain is wedged",
                )

    def check_hang_parity(self) -> None:
        """Online diagnoser tallies == the rigs' hang-monitor counts."""
        h = self.harness
        planes = [rig.plane for rig in h.cluster.rigs.values()]
        online_total = sum(p.diagnoser.hangs for p in planes)
        offline_total = h.cluster.hangs
        if online_total != offline_total:
            raise InvariantViolation(
                "hang-parity",
                f"online diagnosers saw {online_total} hang(s), offline "
                f"monitor counted {offline_total}",
            )
        online_nodes: Dict[str, int] = {}
        for plane in planes:
            for node, count in plane.diagnoser.hangs_by_node.items():
                online_nodes[node] = online_nodes.get(node, 0) + count
        if online_nodes != h.offline_hangs:
            raise InvariantViolation(
                "hang-parity",
                f"per-node hang tallies diverge: online {online_nodes} "
                f"vs offline {h.offline_hangs}",
            )

    def check_rebuild_ledger(self) -> None:
        """Started rebuilds are completed, re-planned, active or stalled."""
        h = self.harness
        for stack in sorted(h.rebuild_planners):
            ledger = h.rebuild_planners[stack].audit()
            accounted = (
                ledger["completed"]
                + ledger["requeued"]
                + ledger["active"]
                + ledger["stalled"]
            )
            if ledger["started"] != accounted:
                raise InvariantViolation(
                    "rebuild-ledger",
                    f"{stack}: {ledger['started']} rebuild transfer(s) "
                    f"started but only {accounted} accounted for ({ledger}) "
                    "— a rebuild was dropped without completing or being "
                    "re-planned",
                )

    def check_rebuild_settled(self) -> None:
        """Post-quiesce: no rebuild still copying, queued or stalled."""
        h = self.harness
        for stack in sorted(h.rebuild_planners):
            ledger = h.rebuild_planners[stack].audit()
            if ledger["active"] or ledger["stalled"]:
                raise InvariantViolation(
                    "rebuild-settled",
                    f"{stack}: rebuild storm still open after quiesce: "
                    f"{ledger}",
                )
            rebuilding = h.cluster.rigs[stack].deployment.segment_table.rebuilding
            if rebuilding:
                raise InvariantViolation(
                    "rebuild-settled",
                    f"{stack}: segment table still owes pending rebuild "
                    f"destination(s) after quiesce: {rebuilding}",
                )

    def check_incident_resolution(self) -> None:
        """Post-quiesce: every incident's cause cleared, so it resolved."""
        h = self.harness
        stuck = h.stuck_hang_io_ids()
        unresolved: List[str] = []
        for incident in h.monitor.open_incidents():
            if incident.kind == IO_HANG and h.incident_io_id(incident) in stuck:
                continue  # the hung I/O truly never completed
            unresolved.append(repr(incident))
        if unresolved:
            raise InvariantViolation(
                "incident-resolution",
                f"{len(unresolved)} incident(s) still open after all faults "
                f"cleared and the cluster quiesced: {unresolved[:5]}",
            )
