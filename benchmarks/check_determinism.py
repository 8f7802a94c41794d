"""Determinism pins: exact, machine-independent counts and digests.

Every simulated result is a pure function of its spec and seed, so the
reference runs below must reproduce their committed values exactly, on
any host.  The pins are the constants below; there is no tolerance, no
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
* **Replay** — the six ``tests/scenarios/*.json`` chaos replay reports,
  three lab points (fio on LUNA under a spine blackhole with telemetry,
  so I/Os hang; isolated writes on SOLAR; a reactive rebuild drill with
  telemetry), the ``python -m repro run --json`` output of the CI
  smoke's spec files (the ``kernel→luna`` rolling upgrade at seed 42
  with 4 servers, 2 waves and 32 MB VDs; the static-cap rebuild drill;
  the one-point SOLAR sweep) and the ``monitor --json`` summary of the
  CI smoke run: the canonical-JSON sha256 of each, first 16 hex digits.
* **CI fleet** — the ``run --json`` document of
  ``examples/specs/ci-fleet.json`` (4 deployments, 5 ms, seed 42) on 1
  and 4 worker processes: the fleet digest.
* **CLI** — the stdout (and exit status) of the quick ``compare``,
  ``latency`` and ``failover`` subcommands, hashed the same way.

Events per completed I/O is printed beside each count: it is the
simulator's machine-independent cost.  Simulator speed is measured by
the host-normalized end-to-end benchmark (``benchmarks/e2e/run.py``).

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_determinism.py

Exit status 0 when every pin holds, 1 naming each drifted pin.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import sys

from repro.__main__ import main as repro_main
from repro.chaos.harness import replay_scenario
from repro.chaos.scenario import ChaosScenario
from repro.dist import reference_fleet, run_fleet
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.lab.runner import execute_point
from repro.lab.spec import (
    ExperimentSpec,
    FaultSpec,
    RebuildSpec,
    TelemetrySpec,
    WorkloadSpec,
    canonical_json,
)
from repro.run import execute, load_spec, parse_set
from repro.scenario import (
    SloGate,
    get_scenario,
    import_trace,
    run_scenario,
    trace_scenario,
)
from repro.sim import MS
from repro.workloads import FioJob, FioSpec

KERNEL_EVENTS = 813_196
KERNEL_IOS = 18_121

FLEET_DIGEST = "19f8b9a74bf9d827fc719fa506c69578caf37559fd630e4ece0d35143d885586"
FLEET_EVENTS = 147_982
FLEET_IOS = 3_250
FLEET_WORKERS = (1, 2)

SCENARIO_COMBINED_DIGEST = "1f78498f0a482121"
SCENARIO_DIGESTS = {
    "incast-burst": "95490545d453b432",
    "rebuild-storm": "13bbf81f72f88bc7",
    "msr@luna": "235fa0c9c233108a",
    "msr@solar": "120ae33287bffee0",
    "alibaba@luna": "c4992f8342018390",
    "alibaba@solar": "dc1dc4fcb5b35f28",
}

REPLAY_DIGESTS = {
    "chaos fpga-bitflip-burst": "a11f34d4a1d9add6",
    "chaos migration-drain-fault": "8ed202c6a23944d5",
    "chaos overlapping-node-faults": "fbe531b6819b83f7",
    "chaos provision-on-dead-node": "eedd298e58f95d5f",
    "chaos rebuild-source-loss": "abd203eeb30ca221",
    "chaos silent-tor-hang": "1d95d1131b0a6db9",
    "lab fio@luna": "1135758a0a516802",
    "lab isolated@solar": "11f4c4590b74486d",
    "lab rebuild-reactive": "c414163c296b7ae3",
    "monitor": "b68b1de23a43bd59",
    "lab upgrade kernel->luna": "2868b86e91b380a9",
    "run rebuild (CI drill)": "d6f42f8d5df7f9da",
    "run sweep (CI point)": "80ab51e750b4871a",
}

#: ``run examples/specs/ci-fleet.json --json``: the fleet digest, equal
#: at every worker count.
CI_FLEET_DIGEST = "20d02432aea910fab820bdcb98f84df26d8618bfbdae62e6d9c89bc6f82cdf2a"
CI_FLEET_WORKERS = (1, 4)

#: The quick subcommands whose stdout and exit status are pinned.
CLI_DIGESTS = {
    "compare --size-kb 4": "b710db19f29a87de",
    "latency --stack solar --kind write --size-kb 16": "fb4070cf0ff582f9",
    "failover --stack luna --until-ms 1200": "9bccf532f6dd6f8a",
}

CATALOG_SCENARIOS = ("incast-burst", "rebuild-storm")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS_DIR = os.path.join(ROOT, "tests")
SPECS_DIR = os.path.join(ROOT, "examples", "specs")
DATA_DIR = os.path.join(TESTS_DIR, "data")
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


#: The pinned lab points: hangs under a fault with telemetry, the
#: isolated mode and a rebuild drill whose throttle reads the plane.
LAB_POINTS = {
    "lab fio@luna": ExperimentSpec(
        name="pin-fio",
        deployment=DeploymentSpec(stack="luna"),
        workload=WorkloadSpec(iodepth=4, runtime_ns=20 * MS),
        faults=(FaultSpec("switch_blackhole", "spine", 1.0,
                          start_ns=5 * MS, end_ns=15 * MS),),
        hang_threshold_ns=10 * MS,
        telemetry=TelemetrySpec(interval_ns=2 * MS),
        vd_size_mb=16,
    ),
    "lab isolated@solar": ExperimentSpec(
        name="pin-isolated",
        deployment=DeploymentSpec(stack="solar"),
        workload=WorkloadSpec(mode="isolated", count=20),
        vd_size_mb=16,
    ),
    "lab rebuild-reactive": ExperimentSpec(
        name="pin-rebuild",
        workload=WorkloadSpec(runtime_ns=20 * MS),
        vd_size_mb=8,
        telemetry=TelemetrySpec(),
        rebuild=RebuildSpec(policy="reactive", node_index=1, fail_at_ns=5 * MS),
    ),
}

#: The CI smoke steps' ``run`` invocations, each one spec file and the
#: ``--set`` edits CI gives it.
RUN_POINTS = {
    "lab upgrade kernel->luna": (
        "upgrade.json", "seeds=[42]", "upgrade.servers=4", "upgrade.waves=2",
        "vd_size_mb=32",
    ),
    "run rebuild (CI drill)": (
        "rebuild.json", "rebuild.node_index=1", "vd_size_mb=8",
        "workload.runtime_ns=20000000",
    ),
    "run sweep (CI point)": ("ci-sweep.json",),
}

#: The CI smoke step's ``monitor`` invocation.
MONITOR_ARGS = (
    "monitor", "--stack", "luna", "--duration-ms", "60", "--interval-ms", "10",
    "--hang-ms", "20", "--iodepth", "4", "--block-sizes-kb", "4", "--seed", "5",
    "--fault", "blackhole:spine:1.0@20", "--json",
)


def short_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj)).hexdigest()[:16]


def run_cli(argv) -> dict:
    """Exit status and stdout of one in-process ``python -m repro`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = repro_main(list(argv))
    return {"exit": status, "stdout": out.getvalue()}


def run_spec(name: str, *edits: str, workers: int = 1) -> dict:
    """The ``run --json`` document of one committed spec file, each edit
    a ``--set`` argument, run on ``workers`` worker processes."""
    kind, spec = load_spec(os.path.join(SPECS_DIR, name),
                           [parse_set(edit) for edit in edits])
    outcome = execute(kind, spec, workers)
    if outcome.status != 0:
        raise SystemExit(f"run {name} exited {outcome.status}")
    return json.loads(outcome.document)


def run_replays() -> dict:
    """Digest of every pinned replay, by pin name."""
    digests = {}
    for path in sorted(glob.glob(os.path.join(TESTS_DIR, "scenarios", "*.json"))):
        scenario = ChaosScenario.load(path)
        digests[f"chaos {scenario.name}"] = short_digest(replay_scenario(scenario))
    for name, spec in LAB_POINTS.items():
        digests[name] = short_digest(execute_point(spec, spec.seeds[0]))
    for name, (spec_file, *edits) in RUN_POINTS.items():
        digests[name] = short_digest(run_spec(spec_file, *edits))
    digests["monitor"] = short_digest(json.loads(run_cli(MONITOR_ARGS)["stdout"]))
    return digests


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

    for workers in CI_FLEET_WORKERS:
        digest = run_spec("ci-fleet.json", workers=workers)["digest"]
        expect(f"CI fleet digest @{workers} workers", digest, CI_FLEET_DIGEST)
        print(f"ci fleet @{workers}  digest {digest[:8]}…")

    replays = run_replays()
    for name, got in replays.items():
        expect(f"replay {name} digest", got, REPLAY_DIGESTS.get(name))
    for name in sorted(set(REPLAY_DIGESTS) - set(replays)):
        drifted.append(f"replay {name}: not run")
    print(f"replay    {len(replays)} digests")

    for command, pinned in CLI_DIGESTS.items():
        expect(f"cli {command}", short_digest(run_cli(command.split())), pinned)
    print(f"cli       {len(CLI_DIGESTS)} digests")

    for line in drifted:
        print(f"DRIFT {line}", file=sys.stderr)
    print("determinism pins " + ("DRIFTED" if drifted else "hold"))
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
