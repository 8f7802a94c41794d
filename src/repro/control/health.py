"""Cluster health monitoring: heartbeats and hang signals become incidents.

The paper's availability story (§5, Table 2, Figure 8) starts with
*detection*: block servers, BN peers and agents exchange heartbeats, and
an I/O with no response for too long is itself a health signal.  The
:class:`HealthMonitor` reproduces that layer inside the simulation — it
sweeps registered liveness probes on a fixed cadence, counts consecutive
misses, and declares an :class:`Incident` once the configurable miss
threshold is crossed.  Subscribers (e.g. the failover orchestrator) react
to incidents; everything runs as ordinary simulator events, so detection
latency is measured in simulated time and every run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..agent.base import IoRequest
from ..sim.engine import Simulator
from ..sim.events import MS, format_ns

HEARTBEAT_LOSS = "heartbeat-loss"
IO_HANG = "io-hang"
TELEMETRY_ALERT = "telemetry-alert"
REMOTE_INCIDENT = "remote-incident"


@dataclass(frozen=True)
class HealthPolicy:
    """Detection thresholds of the monitor.

    The defaults follow common lease/heartbeat practice (a miss threshold
    of 3 on a 100ms cadence puts detection at ~300ms, well inside the 1s
    hang SLO that Table 2 measures against).
    """

    heartbeat_interval_ns: int = 100 * MS
    miss_threshold: int = 3

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ns <= 0:
            raise ValueError(
                f"heartbeat interval must be positive: {self.heartbeat_interval_ns}"
            )
        if self.miss_threshold < 1:
            raise ValueError(f"miss threshold must be >= 1: {self.miss_threshold}")


@dataclass
class Incident:
    """One declared health incident."""

    incident_id: int
    kind: str  # HEARTBEAT_LOSS | IO_HANG
    node: str  # server name, or VD id for I/O-hang incidents
    detected_ns: int
    detail: str = ""
    resolved_ns: Optional[int] = None

    @property
    def open(self) -> bool:
        return self.resolved_ns is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"resolved@{format_ns(self.resolved_ns)}"
        return (
            f"<Incident #{self.incident_id} {self.kind} {self.node} "
            f"@{format_ns(self.detected_ns)} {state}>"
        )


class HealthMonitor:
    """Sweeps liveness probes and turns misses + hang signals into incidents."""

    def __init__(self, sim: Simulator, policy: HealthPolicy = HealthPolicy()):
        self.sim = sim
        self.policy = policy
        self.incidents: List[Incident] = []
        self.sweeps = 0
        self._probes: Dict[str, Callable[[], bool]] = {}
        self._misses: Dict[str, int] = {}
        self._open: Dict[str, Incident] = {}
        #: Open I/O-hang incidents by io_id, resolved on late completion.
        self._open_hangs: Dict[int, Incident] = {}
        self._subscribers: List[Callable[[Incident], None]] = []
        self._resolved_subscribers: List[Callable[[Incident], None]] = []
        self._started = False
        self._stop_ns: Optional[int] = None

    # ------------------------------------------------------------------
    def register(self, name: str, probe: Callable[[], bool]) -> None:
        """Track one node; ``probe()`` is its heartbeat (True = alive)."""
        if name in self._probes:
            raise ValueError(f"node {name!r} already registered")
        self._probes[name] = probe
        self._misses[name] = 0

    def subscribe(self, callback: Callable[[Incident], None]) -> None:
        self._subscribers.append(callback)

    def subscribe_resolved(self, callback: Callable[[Incident], None]) -> None:
        """Observe incident resolutions (heartbeat back, hung I/O
        completed, alert cleared) — the hook the failover orchestrator
        uses to lift a recovered node's quarantine."""
        self._resolved_subscribers.append(callback)

    def start(self, until_ns: Optional[int] = None) -> None:
        """Begin sweeping; ``until_ns`` bounds the last sweep so the event
        heap can drain at the end of an experiment."""
        if self._started:
            raise RuntimeError("health monitor already started")
        self._started = True
        self._stop_ns = until_ns
        self.sim.schedule_fire(self.policy.heartbeat_interval_ns, self._sweep)

    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        self.sweeps += 1
        for name in sorted(self._probes):
            if bool(self._probes[name]()):
                self._misses[name] = 0
                opened = self._open.pop(name, None)
                if opened is not None:
                    self.resolve(opened)
            else:
                self._misses[name] += 1
                if (
                    self._misses[name] >= self.policy.miss_threshold
                    and name not in self._open
                ):
                    self._open[name] = self.declare(
                        HEARTBEAT_LOSS,
                        name,
                        detail=f"{self._misses[name]} heartbeats missed",
                    )
        next_ns = self.sim.now + self.policy.heartbeat_interval_ns
        if self._stop_ns is None or next_ns <= self._stop_ns:
            self.sim.schedule_fire(self.policy.heartbeat_interval_ns, self._sweep)

    # ------------------------------------------------------------------
    def declare(self, kind: str, node: str, detail: str = "") -> Incident:
        """Declare an incident directly (also used by the sweep itself)."""
        incident = Incident(
            incident_id=len(self.incidents) + 1,
            kind=kind,
            node=node,
            detected_ns=self.sim.now,
            detail=detail,
        )
        self.incidents.append(incident)
        for subscriber in self._subscribers:
            subscriber(incident)
        return incident

    def resolve(self, incident: Incident, at_ns: Optional[int] = None) -> None:
        """Resolve one incident and notify resolution subscribers.

        ``at_ns`` overrides the resolution timestamp (e.g. the telemetry
        evaluator resolves at snapshot time, not evaluation time).
        Idempotent — resolving a closed incident is a no-op."""
        if not incident.open:
            return
        incident.resolved_ns = self.sim.now if at_ns is None else at_ns
        for subscriber in self._resolved_subscribers:
            subscriber(incident)

    def report_hang(self, io: IoRequest) -> Incident:
        """Hang-signal inlet — wire as ``IoHangMonitor(on_hang=...)``."""
        incident = self.declare(
            IO_HANG, io.vd_id, detail=f"io#{io.io_id} {io.kind} unanswered"
        )
        self._open_hangs[io.io_id] = incident
        return incident

    def note_io_completed(self, io: IoRequest) -> None:
        """Completion inlet: a previously-hung I/O finally answered, so
        its incident's cause has cleared — auto-resolve it.  Safe to call
        for every completion; I/Os without an open hang incident no-op."""
        incident = self._open_hangs.pop(io.io_id, None)
        if incident is not None:
            self.resolve(incident)

    def report_alert(self, source: str, detail: str = "") -> Incident:
        """Telemetry-alert inlet — the `repro.telemetry` AlertEvaluator
        declares each fired rule here, so failover/upgrade machinery
        reacts to metric thresholds exactly as it does to heartbeats."""
        return self.declare(TELEMETRY_ALERT, source, detail=detail)

    def report_remote(self, origin: str, kind: str, detail: str = "") -> Incident:
        """Cross-deployment inlet: an incident that reaches this
        deployment from another one of its `repro.dist` fleet, at a
        time fixed by the fleet spec.  ``origin`` names the remote
        deployment; ``kind`` is the remote event kind.  Declared under
        :data:`REMOTE_INCIDENT` so local sweep logic never confuses a
        neighbour's trouble with a local heartbeat loss."""
        return self.declare(REMOTE_INCIDENT, origin, detail=f"{kind}: {detail}")

    def open_hangs(self) -> Dict[int, Incident]:
        """Open I/O-hang incidents keyed by the hung I/O's id (copy)."""
        return dict(self._open_hangs)

    # ------------------------------------------------------------------
    def open_incidents(self) -> List[Incident]:
        return [i for i in self.incidents if i.open]

    def incidents_of(self, kind: str) -> List[Incident]:
        return [i for i in self.incidents if i.kind == kind]
