"""Declarative fleet specifications.

A :class:`FleetSpec` is to the fleet plane what an
:class:`~repro.lab.spec.ExperimentSpec` is to the lab: a frozen,
canonically-serializable description of everything that can change the
outcome.  It names a list of :class:`FleetDeployment`s — each one an
independent EBS deployment under its own closed-loop fio load, always
simulated in its **own** :class:`repro.sim.Simulator` — plus a schedule
of :class:`FleetEvent`s whose effects cross deployment boundaries.

A cross-deployment effect reads nothing from the simulation: it lands
on ``dst`` at ``at_ns + crossing_ns`` carrying the event's own fields.
Every deployment's inbound traffic is therefore a function of the spec
alone, so each deployment runs as an independent point, in any process
and in any order (:mod:`repro.dist.shardsim`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .. import __version__
from ..lab.spec import canonical_json
from ..sim import MS

#: Bump when fleet artifacts change shape — digests only compare within
#: one schema generation.
FLEET_SCHEMA_VERSION = 1

#: Cross-deployment event kinds.
EVENT_KINDS = ("node_fault", "migration", "incident")


@dataclass(frozen=True)
class FleetDeployment:
    """One deployment of the fleet: shape, seed and foreground load.

    The load is the closed-loop fio job described by ``block_sizes``/
    ``iodepth``/``read_fraction``/``runtime_ns``.
    """

    stack: str = "solar"
    seed: int = 0
    compute_racks: int = 1
    compute_hosts_per_rack: int = 2
    storage_racks: int = 1
    storage_hosts_per_rack: int = 4
    vd_size_mb: int = 64
    block_sizes: Tuple[int, ...] = (4096,)
    iodepth: int = 8
    read_fraction: float = 0.5
    runtime_ns: int = 20 * MS

    def __post_init__(self) -> None:
        if self.iodepth < 1:
            raise ValueError(f"iodepth must be >= 1, got {self.iodepth}")
        if self.runtime_ns <= 0:
            raise ValueError(f"runtime_ns must be positive: {self.runtime_ns}")
        if self.vd_size_mb <= 0:
            raise ValueError(f"vd_size_mb must be positive: {self.vd_size_mb}")
        if not self.block_sizes:
            raise ValueError("block_sizes cannot be empty")


@dataclass(frozen=True)
class FleetEvent:
    """One scheduled cross-deployment event.

    At ``at_ns`` the event fires *locally* in deployment ``src``; its
    effect on deployment ``dst`` lands at ``at_ns + crossing_ns``, or
    is dropped if that is past the fleet horizon:

    * ``node_fault`` — ``src`` loses a storage node: it declares the
      incident, pays the rebuild *read* load against its surviving
      replicas, and the re-replication *write* stream (``size_kb`` of
      data, paced at ``rate_gbps``) lands on ``dst``'s BN;
    * ``migration`` — a VD migrates from ``src`` to ``dst``: the
      destination picks up the migrated guest's paced write load
      (``count`` I/Os of ``size_kb`` every ``gap_ns``);
    * ``incident`` — a fabric incident at ``src`` propagates: ``dst``
      books a remote incident and suffers a ``param``-fraction spine
      blackhole for ``duration_ns``.
    """

    at_ns: int
    kind: str
    src: int
    dst: int
    #: Kind-specific intensity (blackhole fraction for ``incident``).
    param: float = 0.5
    #: Payload volume (rebuild bytes / migrated-I/O size).
    size_kb: int = 512
    #: Rebuild pacing across the fabric boundary.
    rate_gbps: float = 8.0
    #: Migration load shape.
    count: int = 16
    gap_ns: int = 100_000
    #: Incident blackhole window.
    duration_ns: int = 2 * MS

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        if self.at_ns < 0:
            raise ValueError(f"event cannot fire before t=0: {self.at_ns}")
        if self.src == self.dst:
            raise ValueError(
                f"cross-deployment events need distinct src/dst, got {self.src}"
            )
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"negative deployment index: {self}")
        if self.size_kb <= 0 or self.count < 1 or self.gap_ns < 0:
            raise ValueError(f"invalid event load shape: {self}")
        if not 0.0 < self.param <= 1.0:
            raise ValueError(f"param must be in (0, 1]: {self.param}")
        if self.rate_gbps <= 0 or self.duration_ns <= 0:
            raise ValueError(f"invalid event pacing: {self}")


@dataclass(frozen=True)
class FleetSpec:
    """One named fleet: deployments x cross-deployment events."""

    deployments: Tuple[FleetDeployment, ...] = ()
    events: Tuple[FleetEvent, ...] = ()
    name: str = "fleet"
    #: FN-fabric crossing latency for inter-deployment traffic.
    crossing_ns: int = 1 * MS
    #: Absolute end of the run; None derives max runtime + drain slack.
    horizon_ns: int | None = None
    #: Slack past the longest workload for in-flight I/O and spillover.
    drain_ns: int = 10 * MS

    def __post_init__(self) -> None:
        if not self.deployments:
            raise ValueError("a fleet needs at least one deployment")
        if self.crossing_ns <= 0:
            raise ValueError(f"crossing_ns must be positive: {self.crossing_ns}")
        n = len(self.deployments)
        for event in self.events:
            if event.src >= n or event.dst >= n:
                raise ValueError(
                    f"event references deployment {max(event.src, event.dst)} "
                    f"but the fleet has only {n}"
                )
            if event.at_ns >= self.effective_horizon_ns:
                raise ValueError(
                    f"event at {event.at_ns}ns fires past the fleet horizon "
                    f"({self.effective_horizon_ns}ns)"
                )
            vd_mb = self.deployments[event.dst].vd_size_mb
            if event.kind == "migration" and event.size_kb * 1024 > vd_mb * 1024 * 1024:
                raise ValueError(
                    f"migration I/O of {event.size_kb}KB exceeds the "
                    f"{vd_mb}MB VD of deployment {event.dst}"
                )
        if self.drain_ns < 0:
            raise ValueError(f"drain_ns cannot be negative: {self.drain_ns}")

    @property
    def effective_horizon_ns(self) -> int:
        if self.horizon_ns is not None:
            return self.horizon_ns
        return max(d.runtime_ns for d in self.deployments) + self.drain_ns

    def delivered(self, event: FleetEvent) -> bool:
        """Whether ``event``'s effect lands on its destination before
        the horizon (otherwise it is dropped, and counted as such)."""
        return event.at_ns + self.crossing_ns <= self.effective_horizon_ns

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        for dep in d["deployments"]:
            dep["block_sizes"] = list(dep["block_sizes"])
        return d

    def to_json(self) -> str:
        return canonical_json(self.to_dict()).decode("ascii")

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FleetSpec":
        # Missing keys and unknown fields surface as ValueError so CLI
        # callers can report a malformed spec file instead of crashing.
        try:
            d = dict(d)
            deployments = []
            for dep in d.pop("deployments"):
                dep = dict(dep)
                dep["block_sizes"] = tuple(dep["block_sizes"])
                deployments.append(FleetDeployment(**dep))
            events = tuple(FleetEvent(**e) for e in d.pop("events"))
            return cls(deployments=tuple(deployments), events=events, **d)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fleet spec: {exc!r}") from exc

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        return cls.from_dict(json.loads(text))

    # -- content addressing ---------------------------------------------
    def digest(self) -> str:
        """Content address of this fleet's result artifact."""
        material = self.to_dict()
        material.pop("name")  # presentation-only
        material["version"] = __version__
        material["schema"] = FLEET_SCHEMA_VERSION
        return hashlib.sha256(canonical_json(material)).hexdigest()


def reference_fleet(
    deployments: int = 4,
    runtime_ns: int = 20 * MS,
    seed: int = 42,
    name: str = "reference",
) -> FleetSpec:
    """The fixed reference fleet the committed fleet specs
    (``examples/specs/fleet.json``, ``ci-fleet.json``) and the scaling
    bench run: alternating SOLAR/LUNA deployments with one of each
    cross-deployment event kind wired between neighbours."""
    if deployments < 2:
        raise ValueError("the reference fleet needs >= 2 deployments")
    deps = tuple(
        FleetDeployment(
            stack="solar" if i % 2 == 0 else "luna",
            seed=seed + i,
            runtime_ns=runtime_ns,
        )
        for i in range(deployments)
    )
    quarter = max(1 * MS, runtime_ns // 4)
    events = (
        FleetEvent(at_ns=quarter, kind="node_fault", src=0, dst=1, size_kb=1024),
        FleetEvent(at_ns=2 * quarter, kind="migration",
                   src=1, dst=(2 % deployments) or 0, count=32, size_kb=16),
        FleetEvent(at_ns=3 * quarter, kind="incident",
                   src=(2 % deployments), dst=(3 % deployments), param=0.5),
    )
    # Drop events that degenerate to self-loops on tiny fleets.
    events = tuple(e for e in events if e.src != e.dst)
    return FleetSpec(deployments=deps, events=events, name=name)
