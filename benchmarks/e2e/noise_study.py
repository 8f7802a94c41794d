"""The noise studies behind the bounds in BENCHMARK.json (see NOISE.md).

    python3 benchmarks/e2e/noise_study.py [--runs 10] [--first-seed 1] [--out FILE]
    python3 benchmarks/e2e/noise_study.py --seed-pool 40 [--out FILE]

**Two sets** (the default).  Runs ``run.py`` on every workload, exactly
as the benchmark is driven (one workload, ``--seconds 10``, tracing
off), for two interleaved sets A and B of ``--runs`` runs each: A1 B1
A2 B2 ..., run *i* of both sets with seed ``first-seed + i``, so both
sets see the same slice of host drift and each seed is measured twice.
For every end-to-end metric x workload it prints each set's median and
spread (interquartile range over median, by ``statistics.quantiles(n=4)``),
the set-median difference, and the bound rule::

    rule = max(2 x |median_A - median_B| / median_A, spread_A, spread_B)

rounded up to a whole percent.  The raw host times and host-speed
slowdowns printed beside ``wall_s`` and ``setup_s`` get the same table,
so the normalization's effect can be read off.

**Seed pool** (``--seed-pool N``).  Each run of the benchmark takes
another seed, so the simulated metrics and memory spread between the
runs of a set however steady the host is.  This runs every workload once
for each of seeds 1..N (one untraced run each, no set-up probes), then
draws ``DRAWS`` pairs of disjoint ten-seed sets from the pool and
applies the rule above to each pair.  It prints the rule's median and
99th percentile over the draws; the bound is the 99th percentile,
rounded up.

Per-run values go to ``--out`` as JSON lines so the tables can be
re-derived: ``--from FILE`` prints either table from such a file
without running anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from run import END_TO_END, OUT_DIR, child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Host lines run.py prints in parentheses, read back as extra columns.
HOST_LINES = {
    "wall raw": "wall_raw_s",
    "wall slowdown": "wall_slowdown",
    "setup raw (median)": "setup_raw_s",
    "setup slowdown (median)": "setup_slowdown",
}
HOST_LINE = re.compile(r"^\s+\((.+?)\)\s+(\S+) ")
#: Metrics a seed-pool run measures: the seed-driven ones.
POOL_METRICS = ("peak_rss_mb", "sim_kiops", "io_p50_us", "io_p99_us", "events_per_io")
SET_RUNS = 10
DRAWS = 2000


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def rule(a: List[float], b: List[float]) -> float:
    ma, mb = statistics.median(a), statistics.median(b)
    return max(2 * abs(ma - mb) / ma, spread(a), spread(b))


def percent_up(share: float) -> int:
    return math.ceil(100 * share - 1e-9)


def one_run(workload: str, seed: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: a correctness check failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        match = HOST_LINE.match(line)
        if match and match.group(1) in HOST_LINES:
            values[HOST_LINES[match.group(1)]] = float(match.group(2))
    return values


def pool_run(workload: str, seed: int) -> Dict[str, float]:
    out = child("run", workload, str(seed), "1.0")
    if not all(c["ok"] for c in out["checks"]):
        raise SystemExit(f"{workload} seed {seed}: a correctness check failed")
    return {metric: out[metric] for metric in POOL_METRICS}


def two_sets_table(rows: List[dict], names: List[str]) -> None:
    columns = [*END_TO_END, *HOST_LINES.values()]
    print("| metric | workload | median A | median B | \\|A-B\\|/A | spread A | spread B | rule |")
    print("|---|---|---|---|---|---|---|---|")
    for metric in columns:
        for workload in names:
            a, b = ([r["metrics"][metric] for r in rows
                     if r["set"] == s and r["workload"] == workload] for s in "AB")
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"| {metric} | {workload} | {ma:.6g} | {mb:.6g} | {100 * abs(ma - mb) / ma:.2f}% "
                  f"| {100 * spread(a):.2f}% | {100 * spread(b):.2f}% | {percent_up(rule(a, b))}% |")
    # How strongly raw run time follows the kernel's slowdown (the
    # elasticity hostspeed.py applies), fitted over both sets.
    print("\n| workload | elasticity |")
    print("|---|---|")
    for workload in names:
        runs = [r["metrics"] for r in rows if r["workload"] == workload]
        fit = statistics.linear_regression(
            [math.log(m["wall_slowdown"]) for m in runs], [math.log(m["wall_raw_s"]) for m in runs]
        )
        print(f"| {workload} | {fit.slope:.2f} |")


def pool_table(rows: List[dict], names: List[str]) -> None:
    rng = random.Random(0)
    print("| metric | workload | seeds | spread over the pool | rule, median draw | rule, 99th pct |")
    print("|---|---|---|---|---|---|")
    for metric in POOL_METRICS:
        worst = 0.0
        for workload in names:
            values = [r["metrics"][metric] for r in rows if r["workload"] == workload]
            draws = []
            for _ in range(DRAWS):
                picked = rng.sample(values, 2 * SET_RUNS)
                draws.append(rule(picked[:SET_RUNS], picked[SET_RUNS:]))
            draws.sort()
            p99 = draws[int(0.99 * DRAWS)]
            worst = max(worst, p99)
            print(f"| {metric} | {workload} | {len(values)} | {100 * spread(values):.2f}% "
                  f"| {100 * draws[DRAWS // 2]:.2f}% | {100 * p99:.2f}% |")
        print(f"| {metric} | **bound** | | | | **{percent_up(worst)}%** |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=SET_RUNS)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed-pool", type=int, default=0, metavar="N")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=None)
    parser.add_argument("--from", dest="source", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    pool = args.seed_pool > 0
    out = args.out or os.path.join(OUT_DIR, "seed_pool.jsonl" if pool else "noise.jsonl")
    started = time.time()
    if args.source:
        with open(args.source) as handle:
            rows = [json.loads(line) for line in handle]
    else:
        rows = []
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w") as log:
            if pool:
                plan = [(None, w, seed) for w in names for seed in range(1, args.seed_pool + 1)]
            else:
                plan = [(s, w, args.first_seed + i)
                        for i in range(args.runs) for s in "AB" for w in names]
            for done, (set_name, workload, seed) in enumerate(plan, 1):
                metrics = pool_run(workload, seed) if pool else one_run(workload, seed)
                row = {"set": set_name, "workload": workload, "seed": seed, "metrics": metrics}
                rows.append(row)
                log.write(json.dumps(row) + "\n")
                log.flush()
                print(f"{done}/{len(plan)} done, {time.time() - started:.0f} s", file=sys.stderr)
    seeds = sorted({r["seed"] for r in rows})
    print(f"host: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"seeds {seeds[0]}-{seeds[-1]}, {len(rows)} runs\n")
    if rows[0]["set"] is None:
        pool_table(rows, names)
    else:
        two_sets_table(rows, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
