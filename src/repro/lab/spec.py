"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the unit of work of the lab: one deployment
shape, one workload description, an optional fault schedule, and a list of
seeds.  Every (spec, seed) pair is a *point* — a pure function from spec to
result artifact — which is what makes points safe to execute in worker
processes (`repro.lab.runner`) and to cache content-addressed
(`repro.lab.store`).

Specs are frozen dataclasses, serialize to canonical JSON, and hash to a
stable digest that keys the result store.  The digest covers everything
that can change a simulation outcome (deployment, workload, faults, seed,
package version) and excludes presentation-only fields (`name`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..ebs import DeploymentSpec
from ..net.failures import (
    FailureScenario,
    random_drop,
    switch_blackhole,
    switch_failure,
    switch_reboot,
    tor_port_failure,
)
from ..sim import MS, SECOND, US
from ..workloads.fio import FioSpec

#: Bump when the artifact layout changes: old cache entries stop matching.
#: v5: trace workloads gained ``size_scale`` and are hang-watched at issue
#: (``watched`` now counts replayed I/Os), for the scenario plane.
SCHEMA_VERSION = 5

WORKLOAD_MODES = ("fio", "isolated", "trace")

#: The fleet's deployment history (Figure 7): hot upgrades only ever move
#: a server forward along this chain.
UPGRADE_ORDER = ("kernel", "luna", "solar")


def canonical_json(obj: Any) -> bytes:
    """Deterministic JSON encoding: sorted keys, no whitespace drift.

    Artifacts written through this function are byte-identical across
    processes and across serial/parallel execution, which is what the
    store's content addressing and the determinism tests rely on.
    """
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        + "\n"
    ).encode("ascii")


@dataclass(frozen=True)
class WorkloadSpec:
    """What to run against the virtual disk of one experiment point.

    Three modes cover the repo's experiment styles:

    * ``fio`` — a closed-loop :class:`repro.workloads.FioJob` (iodepth,
      mixed block sizes, read fraction, access pattern);
    * ``isolated`` — ``count`` paced single I/Os (the Table 1 / latency
      -breakdown methodology: one I/O in flight at a time);
    * ``trace`` — replay of recorded :class:`repro.workloads.IoRecord`
      rows, preserving inter-arrival times.
    """

    mode: str = "fio"
    # fio mode
    block_sizes: Tuple[int, ...] = (4096,)
    iodepth: int = 16
    read_fraction: float = 0.3
    runtime_ns: int = 10 * MS
    pattern: str = "random"
    # isolated mode
    count: int = 100
    size_bytes: int = 4096
    kind: str = "write"
    gap_ns: int = 200_000
    # trace mode: rows of (at_ns, kind, offset_bytes, size_bytes)
    records: Tuple[Tuple[int, str, int, int], ...] = ()
    time_scale: float = 1.0
    #: Multiplies replayed I/O sizes (re-aligned to 4KB) — with
    #: ``time_scale`` these are the scenario plane's rate/size knobs.
    size_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in WORKLOAD_MODES:
            raise ValueError(f"mode must be one of {WORKLOAD_MODES}, got {self.mode!r}")
        if self.mode == "fio":
            # The job's own checks (iodepth, block sizes, read fraction,
            # pattern), at spec time rather than inside the point.
            FioSpec(block_sizes=self.block_sizes, iodepth=self.iodepth,
                    read_fraction=self.read_fraction, pattern=self.pattern)
            if self.runtime_ns <= 0:
                raise ValueError(f"runtime_ns must be positive, got {self.runtime_ns}")
        if self.mode == "isolated":
            if self.count < 1 or self.size_bytes <= 0 or self.gap_ns < 0:
                raise ValueError(f"invalid isolated workload: {self}")
            if self.kind not in ("read", "write"):
                raise ValueError(f"kind must be read|write, got {self.kind!r}")
        if self.mode == "trace":
            if not self.records:
                raise ValueError("trace workload needs at least one record")
            if self.time_scale <= 0:
                raise ValueError(f"non-positive time scale: {self.time_scale}")
            if self.size_scale <= 0:
                raise ValueError(f"non-positive size scale: {self.size_scale}")

    @property
    def horizon_ns(self) -> int:
        """Simulated time by which the last I/O has been *issued*."""
        if self.mode == "fio":
            return self.runtime_ns
        if self.mode == "isolated":
            return self.count * self.gap_ns
        return int(max(r[0] for r in self.records) * self.time_scale)


#: kind -> constructor taking a FaultSpec; ``target`` is a switch tier
#: ("tor"/"spine"/...) except for tor_port_failure, where it is a host name.
_FAULT_KINDS: Dict[str, Callable[["FaultSpec"], FailureScenario]] = {
    "tor_port_failure": lambda fs: tor_port_failure(fs.target, int(fs.param)),
    "switch_failure": lambda fs: switch_failure(
        fs.target, fs.index, link_down=bool(fs.param)
    ),
    "switch_reboot": lambda fs: switch_reboot(fs.target, int(fs.param), fs.index),
    "switch_blackhole": lambda fs: switch_blackhole(fs.target, fs.param, fs.index),
    "random_drop": lambda fs: random_drop(fs.target, fs.param, fs.index),
}

FAULT_KINDS = tuple(sorted(_FAULT_KINDS))


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure injection, declaratively.

    ``param`` is kind-specific: blackhole/drop fraction, reboot downtime
    (ns), port index for ``tor_port_failure``, link_down flag (0/1) for
    ``switch_failure``.
    """

    kind: str
    target: str = "tor"
    param: float = 0.5
    index: int = 0
    start_ns: int = 10 * MS
    end_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if self.start_ns < 0:
            raise ValueError(f"fault cannot start before t=0: {self.start_ns}")
        if self.end_ns is not None and self.end_ns <= self.start_ns:
            raise ValueError("fault must end after it starts")

    def build(self) -> FailureScenario:
        return _FAULT_KINDS[self.kind](self)


@dataclass(frozen=True)
class UpgradeSpec:
    """A declarative rolling hot-upgrade drill (Figure 7's rollout).

    ``servers`` logical servers start on ``from_stack`` and are upgraded
    in ``waves`` contiguous groups along :data:`UPGRADE_ORDER` until all
    run ``to_stack``, under live paced load.  Each wave occupies one
    ``wave_window_ns`` measurement window; ``baseline_waves`` windows run
    before the first migration and ``settle_waves`` after the last, so the
    drill brackets the rollout with pure from-stack / to-stack readings.

    When an :class:`ExperimentSpec` carries an ``upgrade``, its
    ``workload`` field is ignored — the drill's fleet load is defined by
    ``io_gap_ns``/``io_size_bytes`` here (one open-loop paced writer per
    server).
    """

    from_stack: str = "kernel"
    to_stack: str = "luna"
    servers: int = 8
    waves: int = 4
    wave_window_ns: int = 5 * MS
    baseline_waves: int = 1
    settle_waves: int = 1
    #: Gap between consecutive server migrations inside one wave.
    stagger_ns: int = 200 * US
    #: Per-server paced-writer cadence and I/O size (the live load).
    io_gap_ns: int = 500 * US
    io_size_bytes: int = 4096

    def __post_init__(self) -> None:
        for stack in (self.from_stack, self.to_stack):
            if stack not in UPGRADE_ORDER:
                raise ValueError(
                    f"upgrade stacks must be in {UPGRADE_ORDER}, got {stack!r}"
                )
        if UPGRADE_ORDER.index(self.from_stack) >= UPGRADE_ORDER.index(self.to_stack):
            raise ValueError(
                f"upgrades only move forward along {UPGRADE_ORDER}: "
                f"{self.from_stack!r} -> {self.to_stack!r}"
            )
        if self.servers < 1:
            raise ValueError(f"need at least one server, got {self.servers}")
        if self.waves < 1 or self.waves > self.servers:
            raise ValueError(
                f"waves must be in [1, servers={self.servers}], got {self.waves}"
            )
        if self.wave_window_ns <= 0:
            raise ValueError(f"wave window must be positive: {self.wave_window_ns}")
        if self.baseline_waves < 0 or self.settle_waves < 0:
            raise ValueError("baseline/settle wave counts cannot be negative")
        if self.stagger_ns < 0 or self.io_gap_ns <= 0 or self.io_size_bytes <= 0:
            raise ValueError(f"invalid upgrade load parameters: {self}")

    def hops(self) -> List[Tuple[str, str]]:
        """Consecutive (from, to) stack pairs this upgrade rolls through."""
        lo = UPGRADE_ORDER.index(self.from_stack)
        hi = UPGRADE_ORDER.index(self.to_stack)
        return [
            (UPGRADE_ORDER[i], UPGRADE_ORDER[i + 1]) for i in range(lo, hi)
        ]

    @property
    def total_waves(self) -> int:
        """Measurement windows: baseline + one per wave per hop + settle."""
        return self.baseline_waves + len(self.hops()) * self.waves + self.settle_waves


@dataclass(frozen=True)
class TelemetrySpec:
    """Attach the `repro.telemetry` plane to an experiment point.

    The point then runs with a :class:`repro.telemetry.TelemetryPlane`
    scraping on ``interval_ns`` and diagnosing slow I/Os against
    ``slo_ns``, and its artifact grows a ``telemetry`` section (fleet
    sketch quantiles, slow-I/O attribution, alert history).  Everything
    the plane emits is derived from simulated time only, so telemetry-
    enabled points stay deterministic and content-addressable.
    """

    interval_ns: int = 1 * MS
    slo_ns: int = 500_000
    relative_accuracy: float = 0.01

    def __post_init__(self) -> None:
        if self.interval_ns <= 0:
            raise ValueError(f"scrape interval must be positive: {self.interval_ns}")
        if self.slo_ns <= 0:
            raise ValueError(f"latency SLO must be positive: {self.slo_ns}")
        if not 0.0 < self.relative_accuracy < 1.0:
            raise ValueError(
                f"relative accuracy must be in (0, 1): {self.relative_accuracy}"
            )


#: Valid throttle policies / transfer modes for :class:`RebuildSpec`
#: (mirrors ``repro.rebuild.throttle.REBUILD_POLICIES`` without importing
#: the data plane into the spec layer).
REBUILD_POLICIES = ("static", "deadline", "reactive")
REBUILD_MODES = ("unicast", "swarm")


@dataclass(frozen=True)
class RebuildSpec:
    """Run a re-replication storm drill (`repro.rebuild`) at this point.

    The point provisions its VD with ``replicas`` copies, runs the fio
    foreground workload, kills one storage node at ``fail_at_ns``, and
    lets the failover orchestrator hand the failure to a
    :class:`~repro.rebuild.planner.RebuildPlanner` instead of the instant
    evacuation path.  The artifact grows a ``rebuild`` section with the
    recovery timeline and the foreground p99 measured *during* the storm
    — one (recovery-time, foreground-impact) observation per point.
    """

    policy: str = "static"
    mode: str = "unicast"
    #: Static cap, and the deadline/reactive policies' rate ceiling
    #: (gigabits/s, matching the profile idiom).
    rate_gbps: float = 8.0
    deadline_ms: int = 60
    target_p99_us: int = 500
    replicas: int = 3
    chunk_kb: int = 256
    fail_at_ns: int = 10 * MS
    #: Which storage server dies (index into the sorted server list,
    #: modulo fleet size).
    node_index: int = 0
    max_active_transfers: int = 4

    def __post_init__(self) -> None:
        if self.policy not in REBUILD_POLICIES:
            raise ValueError(
                f"policy must be one of {REBUILD_POLICIES}, got {self.policy!r}"
            )
        if self.mode not in REBUILD_MODES:
            raise ValueError(
                f"mode must be one of {REBUILD_MODES}, got {self.mode!r}"
            )
        if self.rate_gbps <= 0:
            raise ValueError(f"rate_gbps must be positive: {self.rate_gbps}")
        if self.deadline_ms <= 0 or self.target_p99_us <= 0:
            raise ValueError(f"invalid rebuild pacing targets: {self}")
        if self.replicas < 2:
            raise ValueError(f"rebuild drills need >= 2 replicas: {self.replicas}")
        if self.chunk_kb <= 0 or (self.chunk_kb * 1024) % 4096:
            raise ValueError(f"chunk_kb must be a positive multiple of 4: {self.chunk_kb}")
        if self.fail_at_ns < 0 or self.node_index < 0:
            raise ValueError(f"invalid rebuild fault schedule: {self}")
        if self.max_active_transfers < 1:
            raise ValueError(
                f"max_active_transfers must be >= 1: {self.max_active_transfers}"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """One named experiment: deployment x workload x faults x seeds."""

    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: Tuple[FaultSpec, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    name: str = "experiment"
    vd_size_mb: int = 256
    hang_threshold_ns: int = 1 * SECOND
    #: Absolute run bound; None derives one from the workload horizon.
    until_ns: Optional[int] = None
    #: When set, the point runs a control-plane rolling-upgrade drill
    #: (``repro.control``) instead of the plain workload.
    upgrade: Optional[UpgradeSpec] = None
    #: When set, the point runs under the `repro.telemetry` plane and its
    #: artifact grows a ``telemetry`` section.
    telemetry: Optional[TelemetrySpec] = None
    #: When set, the point runs a re-replication storm drill
    #: (``repro.rebuild``) and its artifact grows a ``rebuild`` section.
    rebuild: Optional[RebuildSpec] = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("spec needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds: {self.seeds}")
        if self.vd_size_mb <= 0:
            raise ValueError(f"vd_size_mb must be positive, got {self.vd_size_mb}")
        if self.upgrade is not None and (self.telemetry is not None or self.faults):
            # An upgrade drill runs one rig per stack, but it never starts
            # their planes nor writes a telemetry section, and nothing yet
            # defines a fault schedule across stacks (each stack's own
            # fabric, or one).  Silently dropping either request would be
            # worse than refusing it.
            raise ValueError("upgrade drills do not support telemetry specs or fault schedules")
        if self.rebuild is not None:
            if self.upgrade is not None:
                raise ValueError("a point runs either a rebuild or an upgrade drill")
            if self.workload.mode != "fio":
                # The storm's foreground-impact measurement is defined
                # against the closed-loop fio load.
                raise ValueError("rebuild drills require a fio workload")

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["workload"]["records"] = [list(r) for r in self.workload.records]
        return d

    def to_json(self) -> str:
        return canonical_json(self.to_dict()).decode("ascii")

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ExperimentSpec":
        d = dict(d)
        w = dict(d.pop("workload"))
        w["block_sizes"] = tuple(w["block_sizes"])
        w["records"] = tuple(tuple(r) for r in w["records"])
        upgrade = d.pop("upgrade", None)
        telemetry = d.pop("telemetry", None)
        rebuild = d.pop("rebuild", None)
        return cls(
            deployment=DeploymentSpec(**d.pop("deployment")),
            workload=WorkloadSpec(**w),
            faults=tuple(FaultSpec(**f) for f in d.pop("faults")),
            seeds=tuple(d.pop("seeds")),
            upgrade=UpgradeSpec(**upgrade) if upgrade is not None else None,
            telemetry=TelemetrySpec(**telemetry) if telemetry is not None else None,
            rebuild=RebuildSpec(**rebuild) if rebuild is not None else None,
            **d,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    # -- content addressing ---------------------------------------------
    def _digest_material(self, seed: int) -> Dict[str, Any]:
        material = self.to_dict()
        # Presentation-only / per-point fields stay out of the key.
        material.pop("name")
        material.pop("seeds")
        material["seed"] = seed
        material["version"] = __version__
        material["schema"] = SCHEMA_VERSION
        return material

    def point_digest(self, seed: int) -> str:
        """Content address of the (spec, seed) point's result artifact."""
        if seed not in self.seeds:
            raise ValueError(f"seed {seed} not in {self.seeds}")
        return hashlib.sha256(
            canonical_json(self._digest_material(seed))
        ).hexdigest()

    def points(self) -> List[Tuple["ExperimentSpec", int, str]]:
        """All (spec, seed, digest) points of this experiment, seed order."""
        return [(self, seed, self.point_digest(seed)) for seed in self.seeds]

    def with_stack(self, stack: str) -> "ExperimentSpec":
        """Same experiment on another frontend stack, named accordingly."""
        return dataclasses.replace(
            self,
            deployment=dataclasses.replace(self.deployment, stack=stack),
            name=f"{self.name}/{stack}" if self.name else stack,
        )


def stack_sweep(base: ExperimentSpec, stacks: Sequence[str]) -> List[ExperimentSpec]:
    """One spec per stack, sharing base's workload, faults and seeds."""
    return [base.with_stack(stack) for stack in stacks]
