"""The four end-to-end workloads: what each builds, runs and reports.

Every workload is a pure function of ``(name, seed, scale)``.  ``scale``
multiplies the simulated issue window (1.0 is the committed size, about
ten host seconds at the reference speed of ``hostspeed.py``); drains
stay fixed.  Modelled caches start empty.  Imports of ``repro`` happen
inside the constructors so a set-up probe can time them apart from
building (see :data:`IMPORTS`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, Optional

MS = 1_000_000
WORKLOADS = ("solar-fio", "luna-read4k", "solar-prod", "fleet")

#: Modules a workload needs, imported (and timed) before it is built.
IMPORTS = {
    "solar-fio": ("repro.ebs", "repro.workloads"),
    "luna-read4k": ("repro.ebs", "repro.workloads"),
    "solar-prod": ("repro.ebs", "repro.workloads"),
    "fleet": ("repro.dist.coordinator", "repro.dist.fleet", "repro.dist.shardsim"),
}

#: Simulated issue windows at scale 1.
WINDOW_MS = {"solar-fio": 200, "luna-read4k": 110, "solar-prod": 110, "fleet": 70}
#: Drain after a single deployment's window.  The fleet keeps the
#: ``FleetSpec`` default, also 10 ms.
DRAIN_MS = 10
#: Simulated time between two chances of a host-speed burst (single
#: deployments): a few host milliseconds, so bursts can come every ~50 ms.
STEP_NS = MS // 10

#: Worker processes the untraced fleet run shards over (the host's 2 CPUs).
FLEET_SHARDS = 2
COMPONENTS = ("sa", "fn", "bn", "ssd")


def window_ns(name: str, scale: float) -> int:
    return max(1, round(WINDOW_MS[name] * MS * scale))


class Deployment:
    """One EBS deployment under one load (solar-fio, luna-read4k, solar-prod)."""

    def __init__(self, name: str, seed: int, scale: float):
        from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
        from repro.workloads import FioJob, FioSpec, ProductionWorkload

        self.name = name
        self.window_ns = window_ns(name, scale)
        self.until_ns = self.window_ns + DRAIN_MS * MS
        stack = "luna" if name == "luna-read4k" else "solar"
        self.dep = EbsDeployment(DeploymentSpec(stack=stack, seed=seed))
        host = self.dep.compute_host_names()[0]
        vd_bytes = (1024 if name == "solar-prod" else 64) * 1024 * 1024
        self.vd = VirtualDisk(self.dep, "e2e-vd", host, vd_bytes)
        if name == "solar-prod":
            # Open loop: Poisson arrivals at 40 kIOPS, Figure 5 sizes, all
            # writes.  With Figure 3's 22% reads the rare 256 KiB reads sit
            # at the 99th percentile and move it 8% between seeds (NOISE.md).
            self.job = ProductionWorkload(
                self.dep.sim, self.vd, 40_000, self.window_ns, read_fraction=0.0
            )
        else:
            fio = (
                FioSpec(block_sizes=(4096, 16384), iodepth=8, read_fraction=0.5)
                if name == "solar-fio"
                else FioSpec(block_sizes=(4096,), iodepth=16, read_fraction=1.0)
            )
            fio = dataclasses.replace(fio, runtime_ns=self.window_ns, name="e2e")
            self.job = FioJob(self.dep.sim, self.vd, fio)
        self.job.start()

    def run(self, between: Callable[[], None]) -> None:
        """Run to the end of the drain in ``STEP_NS`` steps, calling
        ``between`` after each.  Stepping leaves the simulation unchanged:
        events fire in the same ``(time, seq)`` order either way."""
        for until in range(STEP_NS, self.until_ns + STEP_NS, STEP_NS):
            self.dep.run(until_ns=min(until, self.until_ns))
            between()

    def outcome(self) -> Dict[str, Any]:
        job, sim = self.job, self.dep.sim
        # FioJob counts submissions as ``issues``, ProductionWorkload as ``issued``.
        issued = job.issued if self.name == "solar-prod" else job.issues
        traces = self.dep.collector.traces
        ok = [t for t in traces if t.ok]
        digest = hashlib.sha256()
        for t in traces:
            c = t.components
            digest.update(
                f"{t.kind},{t.size_bytes},{t.submit_ns},{t.complete_ns},{t.ok},"
                f"{c['sa']},{c['fn']},{c['bn']},{c['ssd']};".encode()
            )
        counts = {
            "issued": issued,
            "completed": job.completed,
            "failed": job.failed,
            "inflight": len(self.vd.inflight),
            "traces": len(traces),
            "events": sim.events_processed,
            "end_ns": sim.now,
        }
        digest.update(json.dumps(counts, sort_keys=True).encode())
        checks = [
            ("no lost I/O", issued == job.completed + job.failed and not self.vd.inflight,
             f"issued {issued}, completed {job.completed}, failed {job.failed}, "
             f"in flight {len(self.vd.inflight)}"),
            ("no failed I/O", job.failed == 0, f"failed {job.failed}"),
            ("every I/O traced", len(traces) == issued and len(ok) == job.completed,
             f"{len(traces)} traces, {len(ok)} ok"),
        ]
        return summarize(
            counts, self.window_ns, sorted(t.total_ns for t in ok), ok, traces,
            checks, digest.hexdigest(),
        )


class Fleet:
    """``reference_fleet(4)`` through ``run_fleet``: sharded over worker
    processes untraced, one in-process shard when traced."""

    def __init__(self, name: str, seed: int, scale: float, shards: int = FLEET_SHARDS):
        from repro.dist.fleet import reference_fleet

        self.name = name
        self.window_ns = window_ns(name, scale)
        self.shards = shards
        self.spec = reference_fleet(4, runtime_ns=self.window_ns, seed=seed)
        self.result = None
        #: IoTraces, when a caller collects them (in-process runs only).
        self.traces: Optional[List[Any]] = None

    def build_all(self) -> None:
        """Build every deployment in this process (set-up probes only;
        :meth:`run` builds them inside the shard workers)."""
        from repro.dist.shardsim import ShardState

        ShardState(self.spec, list(range(len(self.spec.deployments))))

    def run(self, between: Callable[[], None]) -> None:
        """Run the fleet, calling ``between`` in the coordinator after
        every window barrier (the shards wait there anyway).  A window is
        1 ms simulated, about 120 host ms."""
        from repro.dist.coordinator import run_fleet

        self.result = run_fleet(self.spec, shards=self.shards, progress=lambda *_: between())

    def outcome(self) -> Dict[str, Any]:
        result = self.result
        arts = result.artifacts
        fg_issued = sum(a["issued"] for a in arts)
        fg_completed = sum(a["completed"] for a in arts)
        fg_failed = sum(a["failed"] for a in arts)
        inj_issued = sum(a["injected_issued"] for a in arts)
        inj_completed = sum(a["injected_completed"] for a in arts)
        inj_failed = sum(a["injected_failed"] for a in arts)
        counts = {
            "issued": fg_issued + inj_issued,
            "completed": fg_completed + inj_completed,
            "failed": fg_failed + inj_failed,
            "events": result.events_processed,
        }
        summary = result.summary
        checks = [
            ("no lost I/O",
             fg_issued == fg_completed + fg_failed and inj_issued == inj_completed + inj_failed,
             f"foreground {fg_issued} = {fg_completed} + {fg_failed}, "
             f"injected {inj_issued} = {inj_completed} + {inj_failed}"),
            ("no failed I/O", counts["failed"] == 0, f"failed {counts['failed']}"),
            ("summary balances",
             (summary["issued"], summary["completed"], summary["failed"])
             == (fg_issued, fg_completed, fg_failed),
             f"summary {summary['issued']}/{summary['completed']}/{summary['failed']}"),
        ]
        traces = self.traces
        out = summarize(
            counts, self.window_ns, None,
            [t for t in traces if t.ok] if traces is not None else None,
            traces, checks, result.digest,
        )
        # Foreground latency comes from the fleet's merged sketch; the
        # throughput counts foreground I/Os over the shared issue window.
        out["io_p50_us"] = summary["latency_p50_ns"] / 1e3
        out["io_p99_us"] = summary["latency_p99_ns"] / 1e3
        out["ios"] = summary["latency_count"]
        out["sim_kiops"] = fg_completed / (self.window_ns / 1e9) / 1e3
        out["dist"] = {
            "shards": result.shards,
            "windows": result.windows,
            "messages_routed": result.messages_routed,
            "messages_dropped": result.messages_dropped,
        }
        return out


def build(name: str, seed: int, scale: float, **kwargs: Any):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return (Fleet if name == "fleet" else Deployment)(name, seed, scale, **kwargs)


def summarize(
    counts: Dict[str, int],
    issue_window_ns: int,
    latencies: Optional[List[int]],
    ok_traces: Optional[List[Any]],
    traces: Optional[List[Any]],
    checks: List[tuple],
    digest: str,
) -> Dict[str, Any]:
    """The simulated outcome every workload reports, checks included.
    ``ok_traces``/``traces`` are None where the IoTraces are out of reach
    (the untraced fleet keeps them in its shard processes)."""
    from repro.metrics.stats import percentile

    completed = counts["completed"]
    if traces is not None:
        worst = max((abs(t.total_ns - sum(t.components.values())) for t in traces), default=0)
        checks = checks + [
            ("zero attribution residual", worst == 0,
             f"SA+FN+BN+SSD vs total: worst |residual| {worst} ns over {len(traces)} traces"),
        ]
    components = None
    if ok_traces:
        components = {}
        for comp in COMPONENTS:
            values = sorted(t.components[comp] for t in ok_traces)
            components[f"{comp}.p50_us"] = percentile(values, 50) / 1e3
            components[f"{comp}.p99_us"] = percentile(values, 99) / 1e3
    out: Dict[str, Any] = {
        "counts": counts,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "sim_digest": digest,
        "sim_kiops": completed / (issue_window_ns / 1e9) / 1e3,
        "events_per_io": counts["events"] / completed if completed else float("inf"),
        "components": components,
    }
    if latencies:
        out["io_p50_us"] = percentile(latencies, 50) / 1e3
        out["io_p99_us"] = percentile(latencies, 99) / 1e3
        out["ios"] = len(latencies)
    return out
