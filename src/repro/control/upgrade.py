"""Rolling hot-upgrades: the fleet's kernel → LUNA → SOLAR evolution.

Figure 7 is the paper's operational headline: the fleet was re-stacked in
waves, under live traffic, with availability held inside SLO the whole
time.  :class:`RollingUpgradeEngine` reproduces that rollout inside the
simulation: it partitions a :class:`~repro.control.cluster.ControlledCluster`
into contiguous waves and live-migrates each wave's servers one FN-stack
hop at a time, bracketed by baseline and settle measurement windows.

The result is a *simulated* Figure 7 — per-wave stack mix, fleet-average
latency, per-server IOPS, and availability — which
:func:`check_rollout_consistency` validates against the analytic
:data:`~repro.ebs.evolution.DEFAULT_ROLLOUT` trend (old-stack share only
shrinks, new-stack share only grows, latency only improves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..lab.spec import UpgradeSpec
from .cluster import ControlledCluster, LogicalServer

BASELINE = "baseline"
UPGRADE = "upgrade"
SETTLE = "settle"


@dataclass(frozen=True)
class WaveReport:
    """One measurement window of the rollout."""

    index: int
    kind: str  # BASELINE | UPGRADE | SETTLE
    start_ns: int
    end_ns: int
    #: Fleet stack mix at the window's end.
    mix: Dict[str, float]
    completed: int
    mean_latency_ns: float
    iops_per_server: float
    availability: float
    migrations: int

    @property
    def window_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class UpgradeResult:
    """Everything a finished rolling upgrade knows."""

    plan: UpgradeSpec
    servers: int
    waves: List[WaveReport]
    issued: int
    completed: int
    failed: int
    deferred: int
    hangs: int
    watched: int
    migrations: int

    def terminal_mix(self) -> Dict[str, float]:
        return dict(self.waves[-1].mix)

    def latency_curve_ns(self) -> List[float]:
        return [w.mean_latency_ns for w in self.waves]

    def availability_floor(self) -> float:
        return min(w.availability for w in self.waves)


def partition_waves(servers: List[LogicalServer], waves: int) -> List[List[LogicalServer]]:
    """Split the fleet into ``waves`` contiguous, near-equal groups."""
    if not 1 <= waves <= len(servers):
        raise ValueError(f"waves must be in [1, {len(servers)}], got {waves}")
    base, extra = divmod(len(servers), waves)
    groups: List[List[LogicalServer]] = []
    start = 0
    for g in range(waves):
        size = base + (1 if g < extra else 0)
        groups.append(servers[start : start + size])
        start += size
    return groups


class RollingUpgradeEngine:
    """Drives one :class:`UpgradeSpec` plan over a controlled cluster."""

    def __init__(self, cluster: ControlledCluster, plan: UpgradeSpec):
        missing = {
            stack
            for hop in plan.hops()
            for stack in hop
            if stack not in cluster.rigs
        }
        if missing:
            raise ValueError(
                f"cluster lacks rigs for {sorted(missing)}; "
                f"has {sorted(cluster.rigs)}"
            )
        if len(cluster.servers) != plan.servers:
            raise ValueError(
                f"plan expects {plan.servers} servers, cluster has "
                f"{len(cluster.servers)}"
            )
        self.cluster = cluster
        self.plan = plan
        self._mixes: List[Optional[Dict[str, float]]] = []
        self._migration_starts: List[int] = []

    # ------------------------------------------------------------------
    def run(self) -> UpgradeResult:
        """Schedule the whole rollout, run the simulation to drain, and
        report.  Running to drain (no ``until``) lets every armed hang
        check fire, so ``hangs == 0`` is a real claim, not an artifact of
        a short window."""
        plan = self.plan
        cluster = self.cluster
        window = plan.wave_window_ns
        total = plan.total_waves
        end_ns = total * window
        self._mixes = [None] * total
        self._migration_starts = [0] * total

        wave_index = plan.baseline_waves
        for _from_stack, to_stack in plan.hops():
            groups = partition_waves(cluster.servers, plan.waves)
            for g, group in enumerate(groups):
                start = (wave_index + g) * window
                for j, server in enumerate(group):
                    at = start + j * plan.stagger_ns
                    self._migration_starts[(wave_index + g)] += 1
                    cluster.sim.schedule_at_fire(at, self._migrate, server, to_stack)
            wave_index += plan.waves

        for w in range(total):
            cluster.sim.schedule_at_fire((w + 1) * window, self._snapshot_mix, w)

        cluster.start_load(end_ns, plan.io_gap_ns, plan.io_size_bytes)
        cluster.sim.run()
        return self._report(end_ns)

    def _migrate(self, server: LogicalServer, to_stack: str) -> None:
        if server.stack == to_stack:  # pragma: no cover - defensive
            return
        self.cluster.upgrade_server(server, to_stack)

    def _snapshot_mix(self, wave: int) -> None:
        self._mixes[wave] = self.cluster.mix()

    # ------------------------------------------------------------------
    def _report(self, end_ns: int) -> UpgradeResult:
        plan = self.plan
        cluster = self.cluster
        window = plan.wave_window_ns
        total = plan.total_waves
        per_wave_lat: List[List[int]] = [[] for _ in range(total)]
        for issue_ns, latency_ns, _server in cluster.samples:
            w = issue_ns // window
            if w < total:
                per_wave_lat[w].append(latency_ns)

        waves: List[WaveReport] = []
        upgrade_span = len(plan.hops()) * plan.waves
        for w in range(total):
            if w < plan.baseline_waves:
                kind = BASELINE
            elif w < plan.baseline_waves + upgrade_span:
                kind = UPGRADE
            else:
                kind = SETTLE
            lats = per_wave_lat[w]
            start, end = w * window, (w + 1) * window
            waves.append(
                WaveReport(
                    index=w,
                    kind=kind,
                    start_ns=start,
                    end_ns=end,
                    mix=self._mixes[w] or cluster.mix(),
                    completed=len(lats),
                    mean_latency_ns=(sum(lats) / len(lats)) if lats else 0.0,
                    iops_per_server=len(lats)
                    / len(cluster.servers)
                    / (window / 1e9),
                    availability=cluster.availability(start, end),
                    migrations=self._migration_starts[w],
                )
            )
        return UpgradeResult(
            plan=plan,
            servers=len(cluster.servers),
            waves=waves,
            issued=cluster.issued,
            completed=cluster.completed,
            failed=cluster.failed,
            deferred=cluster.deferred,
            hangs=cluster.hangs,
            watched=cluster.watched,
            migrations=len(cluster.migration_reports),
        )


# ----------------------------------------------------------------------
# Validation against the analytic rollout
# ----------------------------------------------------------------------
def check_rollout_consistency(
    result: UpgradeResult,
    latency_tolerance: float = 0.02,
) -> List[str]:
    """Compare the simulated rollout's shape with the analytic
    :data:`~repro.ebs.evolution.DEFAULT_ROLLOUT` trend.  Returns human-readable violations
    (empty list = consistent).

    The analytic table's invariants — the old stack's share only shrinks,
    newer stacks never regress, and the blended fleet latency only
    improves — must hold for the simulated waves too.
    ``latency_tolerance`` forgives sub-percent measurement noise between
    waves of identical mix.
    """
    plan = result.plan
    problems: List[str] = []
    from_shares = [w.mix.get(plan.from_stack, 0.0) for w in result.waves]
    to_shares = [w.mix.get(plan.to_stack, 0.0) for w in result.waves]
    if any(b > a + 1e-9 for a, b in zip(from_shares, from_shares[1:])):
        problems.append(f"{plan.from_stack} share regressed: {from_shares}")
    if any(b < a - 1e-9 for a, b in zip(to_shares, to_shares[1:])):
        problems.append(f"{plan.to_stack} share shrank: {to_shares}")
    if abs(from_shares[-1]) > 1e-9:
        problems.append(
            f"terminal {plan.from_stack} share is {from_shares[-1]}, "
            "but the analytic rollout retires the old stack completely"
        )
    if abs(to_shares[-1] - 1.0) > 1e-9:
        problems.append(f"terminal {plan.to_stack} share is {to_shares[-1]}, not 1.0")
    lats = result.latency_curve_ns()
    for a, b in zip(lats, lats[1:]):
        if b > a * (1 + latency_tolerance):
            problems.append(
                f"fleet latency regressed between waves: {a:.0f}ns -> {b:.0f}ns"
            )
            break
    if lats and lats[-1] >= lats[0]:
        problems.append(
            f"no net latency improvement: {lats[0]:.0f}ns -> {lats[-1]:.0f}ns"
        )
    return problems
