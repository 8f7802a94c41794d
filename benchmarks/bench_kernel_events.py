"""Event-kernel perf baseline: events/sec on a fixed reference workload.

ROADMAP item 1 notes the simulator has no recorded performance baseline,
so optimization PRs have nothing to demonstrate a win against.  This
bench runs one fixed, deterministic workload — a SOLAR deployment under
closed-loop fio for 200 simulated milliseconds — and records how fast the
event kernel chewed through it: total events, wall-clock seconds, and
events per wall-second.  The numbers land in two places:

* ``out/BENCH_kernel.json`` — the latest run (untracked scratch);
* ``BENCH_kernel_history.jsonl`` — the committed trajectory, one JSON
  line appended per official run, never overwritten.  This is what
  ``check_kernel_regression.py`` (and the CI smoke step) compares fresh
  runs against: a >20% events/sec drop versus the last committed entry
  fails the build.

The *simulated* side is asserted exactly (event count and completed I/Os
are pure functions of the workload); the *wall-clock* side is recorded,
not asserted — machine speed is not a correctness property.  Each entry
also records the host (CPU count and Python version), so a wall-clock
delta between entries names the machines it came from.

To profile the kernel on this exact workload, run this file as a script
under cProfile (see :func:`common.profile_once` for the in-process
variant)::

    cd benchmarks && PYTHONPATH=../src:. \
        python -m cProfile -s cumtime bench_kernel_events.py | head -40
"""

from __future__ import annotations

import json
import os
import platform
import time

from common import OUT_DIR, format_table, once, save_output

from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.sim import MS
from repro.workloads import FioJob, FioSpec

#: Bump when the reference workload changes — baselines only compare
#: within one workload version.
WORKLOAD_VERSION = 2
RUNTIME_NS = 200 * MS
SEED = 42

#: Committed events/sec trajectory (append-mode: one JSON line per run).
HISTORY_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_kernel_history.jsonl"
)


def run_reference_workload() -> dict:
    dep = EbsDeployment(DeploymentSpec(stack="solar", seed=SEED))
    vd = VirtualDisk(
        dep, "bench-vd", dep.compute_host_names()[0], 64 * 1024 * 1024
    )
    job = FioJob(
        dep.sim,
        vd,
        FioSpec(
            block_sizes=(4096, 16384),
            iodepth=8,
            read_fraction=0.5,
            runtime_ns=RUNTIME_NS,
            name="kernel-baseline",
        ),
    )
    job.start()
    wall_start = time.perf_counter()
    dep.run(until_ns=RUNTIME_NS + 10 * MS)
    wall_s = time.perf_counter() - wall_start
    return {
        "workload_version": WORKLOAD_VERSION,
        "stack": "solar",
        "seed": SEED,
        "runtime_ns": RUNTIME_NS,
        "sim_ns": dep.sim.now,
        "events": dep.sim.events_processed,
        "ios_completed": job.completed,
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(dep.sim.events_processed / wall_s, 1),
        "sim_time_ratio": round((dep.sim.now / 1e9) / wall_s, 4),
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
    }


def run_baseline() -> str:
    result = run_reference_workload()

    # The simulated side is deterministic; a drift here means the
    # reference workload changed and WORKLOAD_VERSION must bump.
    assert result["events"] > 100_000, (
        f"reference workload only produced {result['events']} events — "
        "too small to be a meaningful kernel baseline"
    )
    assert result["ios_completed"] > 1_000

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_kernel.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(HISTORY_PATH, "a") as handle:
        handle.write(json.dumps(result, sort_keys=True) + "\n")

    table = format_table(
        ["metric", "value"],
        [
            ["events", result["events"]],
            ["ios completed", result["ios_completed"]],
            ["simulated", f"{result['sim_ns'] / MS:.0f}ms"],
            ["wall clock", f"{result['wall_s']:.2f}s"],
            ["events/sec", f"{result['events_per_sec']:,.0f}"],
            ["sim-time ratio", f"{result['sim_time_ratio']:.4f}x"],
        ],
    )
    return (
        f"Event-kernel baseline (workload v{WORKLOAD_VERSION}, "
        f"written to {os.path.basename(path)}):\n" + table
    )


def test_kernel_events(benchmark):
    text = once(benchmark, run_baseline)
    print("\n" + text)
    save_output("kernel_events", text)


if __name__ == "__main__":
    # Script entry so `python -m cProfile -s cumtime bench_kernel_events.py`
    # profiles exactly the reference workload (no pytest frames on top).
    print(json.dumps(run_reference_workload(), indent=2, sort_keys=True))
