"""Shard-plane scaling: aggregate events/sec vs shard count.

ROADMAP item 2's promise is that a fleet too large for one process can
be partitioned across workers *without changing a single artifact byte*.
This bench pins both halves of that promise on a fixed reference fleet
(4 deployments, every cross-shard event kind):

* **determinism** — the result digest at shard counts 1, 2 and 4 must be
  identical (asserted unconditionally, every run);
* **scaling** — aggregate events/sec should grow with shard count.  The
  ≥2x bar at 4 shards is asserted only when the machine has ≥4 CPUs; on
  smaller boxes (including 1-CPU dev containers, where parallel speedup
  is physically impossible) the ratio is recorded but not judged.

Results land in two places:

* ``out/BENCH_shard.json`` — the latest run (untracked scratch);
* ``BENCH_shard_history.jsonl`` — the committed trajectory, one JSON
  line per official run with the host's CPU count recorded alongside,
  so trajectory readers can tell a regression from a smaller machine.
  ``check_kernel_regression.py`` compares fresh runs against the last
  committed entry: digest and event count exactly, aggregate sharded
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
FLEET_VERSION = 2
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
    """One measured run at a given shard count."""
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
        f"shard counts produced different digests: "
        f"{ {run['shards']: run['digest'][:16] for run in runs} }"
    )
    events = {run["events"] for run in runs}
    assert len(events) == 1, f"event counts diverged across shard counts: {events}"

    by_shards = {run["shards"]: run for run in runs}
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
        ["shards", "events", "wall", "events/sec", "digest[:16]"], rows
    )
    judged = "asserted" if entry["speedup_asserted"] else (
        f"recorded only ({entry['cpus']} CPU(s) < {MIN_CPUS_FOR_SPEEDUP})"
    )
    return (
        f"Shard scaling (fleet v{FLEET_VERSION}, digests identical, "
        f"4-shard speedup {entry['speedup_4shard']:.2f}x — {judged}):\n"
        + table
    )


def test_shard_scaling(benchmark):
    text = once(benchmark, run_baseline)
    print("\n" + text)
    save_output("shard_scaling", text)


if __name__ == "__main__":
    print(json.dumps(run_scaling_workload(), indent=2, sort_keys=True))
