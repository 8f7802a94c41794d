"""Cross-seed aggregation of point artifacts.

A sweep yields one artifact per (spec, seed) point.  This module rolls
them up the way the paper's evaluation does: latency percentiles over the
*pooled* distribution of all replicate runs (never averaged percentiles),
per-component breakdowns from the distributed traces, and mean ± 95% CI
over the per-seed replicate means so a table can say how stable a number
is across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..metrics.stats import LatencyStats, mean_ci
from .spec import ExperimentSpec
from .telemetry import RunTelemetry

COMPONENTS = ("sa", "fn", "bn", "ssd")


@dataclass(frozen=True)
class SpecAggregate:
    """One experiment's results rolled up across its seeds."""

    name: str
    stack: str
    seeds: Tuple[int, ...]
    issued: int
    completed: int
    failed: int
    hangs: int
    bytes_moved: int
    latency: LatencyStats  # pooled over all seeds
    #: Mean per-I/O time attributed to each trace component (us).
    component_means_us: Dict[str, float]
    #: (mean, 95% CI half-width) of the per-seed mean latency, in us.
    mean_us_ci: Tuple[float, float]
    #: Aggregate completion rate over simulated time, per second.
    iops: float

    def row(self) -> List[str]:
        mean, half = self.mean_us_ci
        ci = f"{mean:.1f}±{half:.1f}" if len(self.seeds) > 1 else f"{mean:.1f}"
        return [
            self.name,
            self.stack,
            str(len(self.seeds)),
            str(self.completed),
            ci,
            f"{self.latency.p(50) / 1000:.1f}",
            f"{self.latency.p(99) / 1000:.1f}",
            f"{self.iops / 1000:.1f}K",
            str(self.hangs),
        ]

    ROW_HEADERS = (
        "experiment", "stack", "seeds", "ios",
        "mean us (95% CI)", "p50 us", "p99 us", "IOPS", "hangs",
    )


def aggregate(spec: ExperimentSpec, artifacts: Sequence[Dict[str, Any]]) -> SpecAggregate:
    """Roll one spec's per-seed artifacts into a :class:`SpecAggregate`."""
    if len(artifacts) != len(spec.seeds):
        raise ValueError(
            f"{spec.name}: {len(artifacts)} artifacts for {len(spec.seeds)} seeds"
        )
    pooled = LatencyStats.merged(
        (LatencyStats(str(a["seed"]), list(a["latency_ns"])) for a in artifacts),
        name=spec.name,
    )
    completed = sum(a["completed"] for a in artifacts)
    sim_s = sum(a["duration_ns"] for a in artifacts) / 1e9
    trace_count = sum(a["component_count"] for a in artifacts)
    component_means_us = {
        c: (
            sum(a["component_ns"][c] for a in artifacts) / trace_count / 1000
            if trace_count
            else 0.0
        )
        for c in COMPONENTS
    }
    per_seed_means_us = [
        (sum(a["latency_ns"]) / len(a["latency_ns"]) / 1000)
        for a in artifacts
        if a["latency_ns"]
    ]
    return SpecAggregate(
        name=spec.name,
        stack=spec.deployment.stack,
        seeds=tuple(spec.seeds),
        issued=sum(a["issued"] for a in artifacts),
        completed=completed,
        failed=sum(a["failed"] for a in artifacts),
        hangs=sum(a["hangs"] for a in artifacts),
        bytes_moved=sum(a["bytes_moved"] for a in artifacts),
        latency=pooled,
        component_means_us=component_means_us,
        mean_us_ci=mean_ci(per_seed_means_us) if per_seed_means_us else (0.0, 0.0),
        iops=completed / sim_s if sim_s > 0 else 0.0,
    )


@dataclass
class SweepResult:
    """Everything a finished sweep knows: specs, artifacts, telemetry."""

    specs: List[ExperimentSpec]
    #: (spec, seed, digest) in execution order (spec order x seed order).
    points: List[Tuple[ExperimentSpec, int, str]]
    #: Artifacts aligned with ``points``.
    artifacts: List[Dict[str, Any]]
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)

    def artifacts_for(self, spec: ExperimentSpec) -> List[Dict[str, Any]]:
        return [
            artifact
            for (point_spec, _seed, _digest), artifact in zip(self.points, self.artifacts)
            if point_spec is spec
        ]

    def artifact(self, spec: ExperimentSpec, seed: int) -> Dict[str, Any]:
        digest = spec.point_digest(seed)
        for (_s, _seed, point_digest), artifact in zip(self.points, self.artifacts):
            if point_digest == digest:
                return artifact
        raise KeyError(f"no artifact for {spec.name} seed={seed}")

    def aggregates(self) -> List[SpecAggregate]:
        return [aggregate(spec, self.artifacts_for(spec)) for spec in self.specs]

    def digests(self) -> List[str]:
        return [digest for _, _, digest in self.points]
