"""The experiment lab: declarative specs, parallel execution, cached results.

The repo's deterministic :class:`~repro.ebs.EbsDeployment` makes every
experiment point — one (deployment, workload, faults, seed) tuple — a pure
function of its spec.  This package turns that property into throughput,
the way SimBricks-style orchestration layers do for modular simulators:

* :mod:`repro.lab.spec` — hashable :class:`ExperimentSpec` (deployment x
  workload x fault schedule x seeds) with canonical JSON and per-point
  content digests;
* :mod:`repro.lab.rig` — :class:`~repro.lab.rig.Rig`, the one place a
  single-deployment run (deployment, monitors, telemetry plane, faults,
  run bound, VDs, fio jobs, common artifact keys) is wired;
* :mod:`repro.lab.runner` — process-pool fan-out, one simulation per
  worker, crash retry, proven byte-identical to serial execution;
* :mod:`repro.lab.store` — content-addressed on-disk artifact cache so
  re-running a sweep only simulates changed points;
* :mod:`repro.lab.results` — cross-seed aggregation (pooled latency
  distributions, component breakdowns, replicate mean ± 95% CI);
* :mod:`repro.lab.telemetry` — streamed per-point progress + run counters;
* :mod:`repro.lab.cli` — the ``python -m repro sweep`` subcommand.

Quick start::

    from repro.lab import ExperimentSpec, WorkloadSpec, run_sweep, stack_sweep

    base = ExperimentSpec(workload=WorkloadSpec(iodepth=16), seeds=(0, 1, 2, 3))
    result = run_sweep(stack_sweep(base, ["luna", "solar"]), jobs=4)
    for agg in result.aggregates():
        print(agg.name, agg.latency.summary_us())
"""

from .results import SpecAggregate, SweepResult, aggregate
from .runner import (
    DRAIN_NS,
    JOBS_ENV,
    default_jobs,
    execute_point,
    map_parallel,
    run_sweep,
)
from .spec import (
    FAULT_KINDS,
    ExperimentSpec,
    FaultSpec,
    WorkloadSpec,
    canonical_json,
    stack_sweep,
)
from .store import DEFAULT_STORE_DIR, ResultStore
from .telemetry import PointEvent, RunTelemetry, printer

__all__ = [
    "ExperimentSpec",
    "WorkloadSpec",
    "FaultSpec",
    "FAULT_KINDS",
    "stack_sweep",
    "canonical_json",
    "run_sweep",
    "execute_point",
    "map_parallel",
    "default_jobs",
    "JOBS_ENV",
    "DRAIN_NS",
    "ResultStore",
    "DEFAULT_STORE_DIR",
    "SweepResult",
    "SpecAggregate",
    "aggregate",
    "RunTelemetry",
    "PointEvent",
    "printer",
]
