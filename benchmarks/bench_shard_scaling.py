"""Fleet scaling: aggregate events/sec vs worker-process count.

A fleet run is a set of independent deployment points, one simulator
each, fanned over worker processes (``repro.dist``, ARCHITECTURE §16).
This bench pins both halves of that design on a fixed reference fleet
(4 deployments, every cross-deployment event kind):

* **determinism** — the result digest on 1, 2 and 4 worker processes
  must be identical (asserted unconditionally, every run);
* **scaling** — aggregate events/sec should grow with the worker count.
  The 2- and 4-worker speedups over the in-process run are recorded
  beside the host's CPU count; the ≥2x bar at 4 workers is asserted
  only when the machine has ≥4 CPUs, since on smaller boxes parallel
  speedup is physically capped.

Results land in two places:

* ``out/BENCH_shard.json`` — the latest run (untracked scratch);
* ``BENCH_shard_history.jsonl`` — the committed trajectory, one JSON
  line per official run with the host's CPU count recorded alongside,
  so trajectory readers can tell a regression from a smaller machine.
  ``check_kernel_regression.py`` compares fresh runs against the last
  committed entry: digest and event count exactly, aggregate 4-worker
  events/sec within tolerance.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from common import OUT_DIR, format_table, once, save_output

from repro.dist import reference_fleet, run_fleet
from repro.sim import MS

#: Bump when the reference fleet changes — baselines only compare
#: within one fleet version.
FLEET_VERSION = 3
DEPLOYMENTS = 4
RUNTIME_NS = 10 * MS
SEED = 42
SHARD_COUNTS = (1, 2, 4)

#: Only judge the parallel-speedup bar on machines that can express it.
MIN_CPUS_FOR_SPEEDUP = 4
SPEEDUP_BAR = 2.0

#: Committed scaling trajectory (append-mode: one JSON line per run).
HISTORY_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_shard_history.jsonl"
)


def bench_fleet():
    spec = reference_fleet(
        deployments=DEPLOYMENTS, runtime_ns=RUNTIME_NS, seed=SEED,
        name="shard-bench",
    )
    return dataclasses.replace(spec, drain_ns=5 * MS)


def run_sharded_probe(shards: int) -> dict:
    """One measured run on ``shards`` worker processes."""
    wall_start = time.perf_counter()
    result = run_fleet(bench_fleet(), shards=shards)
    wall_s = time.perf_counter() - wall_start
    return {
        "shards": result.shards,
        "digest": result.digest,
        "events": result.events_processed,
        "messages_routed": result.messages_routed,
        "ios_completed": result.summary["completed"],
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(result.events_processed / result.wall_s, 1),
    }


def run_scaling_workload() -> dict:
    cpus = os.cpu_count() or 1
    runs = [run_sharded_probe(shards) for shards in SHARD_COUNTS]

    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, (
        f"worker counts produced different digests: "
        f"{ {run['shards']: run['digest'][:16] for run in runs} }"
    )
    events = {run["events"] for run in runs}
    assert len(events) == 1, f"event counts diverged across worker counts: {events}"

    by_shards = {run["shards"]: run for run in runs}
    speedup2 = by_shards[2]["events_per_sec"] / by_shards[1]["events_per_sec"]
    speedup = by_shards[4]["events_per_sec"] / by_shards[1]["events_per_sec"]
    if cpus >= MIN_CPUS_FOR_SPEEDUP:
        assert speedup >= SPEEDUP_BAR, (
            f"aggregate events/sec at 4 shards only {speedup:.2f}x the "
            f"1-shard rate on a {cpus}-CPU machine (bar: {SPEEDUP_BAR}x)"
        )

    return {
        "fleet_version": FLEET_VERSION,
        "deployments": DEPLOYMENTS,
        "runtime_ns": RUNTIME_NS,
        "seed": SEED,
        "cpus": cpus,
        "digest": runs[0]["digest"],
        "events": runs[0]["events"],
        "runs": runs,
        "speedup_2shard": round(speedup2, 3),
        "speedup_4shard": round(speedup, 3),
        "speedup_asserted": cpus >= MIN_CPUS_FOR_SPEEDUP,
    }


def run_baseline() -> str:
    entry = run_scaling_workload()

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_shard.json")
    with open(path, "w") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(HISTORY_PATH, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")

    rows = [
        [run["shards"], run["events"], f"{run['wall_s']:.2f}s",
         f"{run['events_per_sec']:,.0f}", run["digest"][:16]]
        for run in entry["runs"]
    ]
    table = format_table(
        ["workers", "events", "wall", "events/sec", "digest[:16]"], rows
    )
    judged = "asserted" if entry["speedup_asserted"] else (
        f"recorded only ({entry['cpus']} CPU(s) < {MIN_CPUS_FOR_SPEEDUP})"
    )
    return (
        f"Fleet scaling (fleet v{FLEET_VERSION}, digests identical, "
        f"speedup {entry['speedup_2shard']:.2f}x at 2 workers, "
        f"{entry['speedup_4shard']:.2f}x at 4 — {judged}):\n"
        + table
    )


def test_shard_scaling(benchmark):
    text = once(benchmark, run_baseline)
    print("\n" + text)
    save_output("shard_scaling", text)


if __name__ == "__main__":
    print(json.dumps(run_scaling_workload(), indent=2, sort_keys=True))
