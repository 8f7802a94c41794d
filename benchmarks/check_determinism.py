"""Determinism pins: exact, machine-independent counts and digests.

Every simulated result is a pure function of its spec and seed, so three
reference runs must reproduce their committed values exactly, on any
host.  The pins are the constants below; there is no tolerance, no
timing and no environment knob.  A change that moves a pin edits the
constant and says why in CHANGES.md.

* **Kernel** — SOLAR under closed-loop fio (seed 42, iodepth 8,
  4+16 KiB, 50% reads) for 200 ms plus a 10 ms drain: event count and
  completed I/Os.
* **Fleet** — the 10 ms ``reference_fleet(4)`` with a 5 ms drain, run
  in-process and on 2 worker processes: result digest, event count and
  completed foreground I/Os, identical at both worker counts.
* **Scenario** — ``incast-burst``, ``rebuild-storm`` and the MSR and
  Alibaba sample traces replayed on LUNA and SOLAR: every report digest,
  their combined digest, and every SLO gate passing.

Events per completed I/O is printed beside each count: it is the
simulator's machine-independent cost.  Simulator speed is measured by
the host-normalized end-to-end benchmark (``benchmarks/e2e/run.py``).

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_determinism.py

Exit status 0 when every pin holds, 1 naming each drifted pin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys

from repro.dist import reference_fleet, run_fleet
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.lab.spec import canonical_json
from repro.scenario import (
    SloGate,
    get_scenario,
    import_trace,
    run_scenario,
    trace_scenario,
)
from repro.sim import MS
from repro.workloads import FioJob, FioSpec

KERNEL_EVENTS = 1_106_310
KERNEL_IOS = 18_127

FLEET_DIGEST = "92f23367aaecbf112097bf9723f94cf331d4fb28f18036e26895c2b944dd5ea4"
FLEET_EVENTS = 170_499
FLEET_IOS = 3_257
FLEET_WORKERS = (1, 2)

SCENARIO_COMBINED_DIGEST = "344b8a737230db03"
SCENARIO_DIGESTS = {
    "incast-burst": "d57885c94c1f375c",
    "rebuild-storm": "751b78968f6b3383",
    "msr@luna": "901972979d90d5c0",
    "msr@solar": "614b4feac14d9804",
    "alibaba@luna": "1985809d69a624ce",
    "alibaba@solar": "8d32dc60c4c1aa05",
}

CATALOG_SCENARIOS = ("incast-burst", "rebuild-storm")
DATA_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data"
)
IMPORTS = (("msr", "msr_sample.csv"), ("alibaba", "alibaba_sample.csv"))
REPLAY_STACKS = ("luna", "solar")


def run_kernel() -> tuple:
    """(events, completed I/Os) of the SOLAR fio reference workload."""
    runtime_ns = 200 * MS
    dep = EbsDeployment(DeploymentSpec(stack="solar", seed=42))
    # The fio RNG stream is keyed on the VD and job names.
    vd = VirtualDisk(dep, "bench-vd", dep.compute_host_names()[0], 64 * 1024 * 1024)
    job = FioJob(
        dep.sim,
        vd,
        FioSpec(
            block_sizes=(4096, 16384),
            iodepth=8,
            read_fraction=0.5,
            runtime_ns=runtime_ns,
            name="kernel-baseline",
        ),
    )
    job.start()
    dep.run(until_ns=runtime_ns + 10 * MS)
    return dep.sim.events_processed, job.completed


def run_reference_fleet(workers: int) -> tuple:
    """(digest, events, completed foreground I/Os) of the bench fleet."""
    spec = reference_fleet(deployments=4, runtime_ns=10 * MS, seed=42,
                           name="shard-bench")
    result = run_fleet(dataclasses.replace(spec, drain_ns=5 * MS), shards=workers)
    return result.digest, result.events_processed, result.summary["completed"]


def run_scenarios() -> dict:
    """Report of every pinned scenario, by name."""
    reports = {name: run_scenario(get_scenario(name)) for name in CATALOG_SCENARIOS}
    for fmt, filename in IMPORTS:
        trace = import_trace(os.path.join(DATA_DIR, filename), fmt)
        for stack in REPLAY_STACKS:
            name = f"{fmt}@{stack}"
            reports[name] = run_scenario(trace_scenario(
                name, f"imported {fmt} sample on {stack}", trace,
                stack=stack, slo=SloGate(min_completed_fraction=1.0),
            ))
    return reports


def main() -> int:
    drifted = []

    def expect(pin: str, got, pinned) -> None:
        if got != pinned:
            drifted.append(f"{pin}: pinned {pinned}, got {got}")

    events, ios = run_kernel()
    expect("kernel events", events, KERNEL_EVENTS)
    expect("kernel completed I/Os", ios, KERNEL_IOS)
    print(f"kernel    {events:,} events, {ios:,} I/Os, "
          f"{events / ios:.2f} events/io")

    for workers in FLEET_WORKERS:
        digest, events, ios = run_reference_fleet(workers)
        expect(f"fleet digest @{workers} workers", digest, FLEET_DIGEST)
        expect(f"fleet events @{workers} workers", events, FLEET_EVENTS)
        expect(f"fleet completed I/Os @{workers} workers", ios, FLEET_IOS)
        print(f"fleet @{workers}  {events:,} events, {ios:,} I/Os, "
              f"{events / ios:.2f} events/io, digest {digest[:8]}…")

    reports = run_scenarios()
    digests = {name: report["report_digest"] for name, report in reports.items()}
    for name, pinned in SCENARIO_DIGESTS.items():
        expect(f"scenario {name} digest", digests.get(name), pinned)
    combined = hashlib.sha256(canonical_json(digests)).hexdigest()[:16]
    expect("scenario combined digest", combined, SCENARIO_COMBINED_DIGEST)
    for name, report in reports.items():
        if not report["pass"]:
            drifted.append(f"scenario {name}: SLO gate failed")
    issued = sum(p["metrics"]["issued"] for r in reports.values() for p in r["points"])
    print(f"scenario  {len(reports)} reports, {issued:,} I/Os issued, "
          f"combined digest {combined}")

    for line in drifted:
        print(f"DRIFT {line}", file=sys.stderr)
    print("determinism pins " + ("DRIFTED" if drifted else "hold"))
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
