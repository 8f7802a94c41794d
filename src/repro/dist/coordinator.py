"""The fleet coordinator: independent deployment points, merged.

:func:`run_fleet` drives a :class:`~repro.dist.fleet.FleetSpec` to its
horizon.  No cross-deployment effect reads simulated state — each lands
at ``at_ns + crossing_ns`` carrying its event's own fields — so every
deployment is built with its inbound effects already scheduled and runs
alone (:func:`~repro.dist.shardsim.run_deployment`).  The coordinator
only fans the deployments out with :func:`repro.lab.runner.map_parallel`
and merges the artifacts.

Everything that affects the artifacts is a pure function of the spec,
so the result digest is byte-identical for every worker count.  What
more workers buy is wall-clock: deployments run in parallel processes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..lab.runner import map_parallel
from ..lab.spec import canonical_json
from ..lab.telemetry import FAILED
from ..telemetry.sketch import QuantileSketch
from .fleet import FLEET_SCHEMA_VERSION, FleetSpec
from .shardsim import run_deployment

#: Quantiles surfaced in the fleet summary (from the merged sketch).
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


@dataclass
class FleetResult:
    """One fleet run's outcome: artifacts, digest, performance."""

    spec: FleetSpec
    #: Worker processes the deployments ran on (1 = in-process).
    shards: int
    #: Per-deployment artifacts, ordered by fleet index.
    artifacts: List[Dict[str, Any]]
    #: Fleet-wide rollup (merged sketch quantiles, counters).
    summary: Dict[str, Any]
    #: sha256 over the simulated content — the determinism anchor.
    digest: str
    events_processed: int
    wall_s: float
    #: Always 1: each deployment runs to the horizon in one go.
    windows = 1
    #: Always 0: the spec refuses an event whose effect lands past the horizon.
    messages_dropped = 0

    @property
    def messages_routed(self) -> int:
        return len(self.spec.events)

    @property
    def events_per_sec(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The result document: a pure function of the spec, so the
        wall clock and the worker count stay out of it."""
        return {
            "name": self.spec.name,
            "spec_digest": self.spec.digest(),
            "deployments": len(self.spec.deployments),
            "digest": self.digest,
            "messages_routed": self.messages_routed,
            "messages_dropped": self.messages_dropped,
            "events_processed": self.events_processed,
            "summary": self.summary,
            "artifacts": self.artifacts,
        }


def _digest(spec: FleetSpec, artifacts: List[Dict[str, Any]]) -> str:
    """Content address of the simulated outcome.  Wall-clock and
    worker count are deliberately excluded — two runs of the same spec
    must collide regardless of machine or worker count."""
    material = {
        "schema": FLEET_SCHEMA_VERSION,
        "spec": spec.digest(),
        "artifacts": artifacts,
    }
    return hashlib.sha256(canonical_json(material)).hexdigest()


def _summarize(artifacts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fleet rollup: counter sums plus merged-latency quantiles.  The
    merge is the telemetry plane's own sketch merge — per-deployment
    sketches combine into one fleet sketch without resampling."""
    merged = QuantileSketch.merged(
        QuantileSketch.from_dict(a["latency"]) for a in artifacts
    )
    summary: Dict[str, Any] = {
        "deployments": len(artifacts),
        "issued": sum(a["issued"] for a in artifacts),
        "completed": sum(a["completed"] for a in artifacts),
        "failed": sum(a["failed"] for a in artifacts),
        "bytes_moved": sum(a["bytes_moved"] for a in artifacts),
        "hangs": sum(a["hangs"] for a in artifacts),
        "incidents": sum(a["incidents"] for a in artifacts),
        "remote_incidents": sum(a["remote_incidents"] for a in artifacts),
        "messages_out": sum(a["messages_out"] for a in artifacts),
        "messages_in": sum(a["messages_in"] for a in artifacts),
        "injected_issued": sum(a["injected_issued"] for a in artifacts),
        "injected_completed": sum(a["injected_completed"] for a in artifacts),
        "latency_count": merged.count,
    }
    for q in SUMMARY_QUANTILES:
        key = f"latency_p{int(q * 100)}_ns"
        summary[key] = round(merged.quantile(q), 1) if merged.count else None
    return summary


def run_fleet(
    spec: FleetSpec,
    shards: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FleetResult:
    """Run every deployment of ``spec`` to the horizon on ``shards``
    worker processes (1 = in-process) and merge the results.

    ``progress`` (if given) is called with ``(finished, total)`` as each
    deployment finishes.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    total = len(spec.deployments)
    shards = min(shards, total)
    finished = 0

    def on_result(_index: int, status: str, _wall_s: float, _result: Any) -> None:
        nonlocal finished
        if status != FAILED:
            finished += 1
            progress(finished, total)

    started = time.perf_counter()
    spec_json = spec.to_json()
    artifacts = map_parallel(
        run_deployment,
        [(spec_json, index) for index in range(total)],
        jobs=shards,
        on_result=on_result if progress is not None else None,
    )
    wall_s = time.perf_counter() - started
    return FleetResult(
        spec=spec,
        shards=shards,
        artifacts=artifacts,
        summary=_summarize(artifacts),
        digest=_digest(spec, artifacts),
        events_processed=sum(a["events_processed"] for a in artifacts),
        wall_s=wall_s,
    )
