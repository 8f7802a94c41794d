"""Bench regression smoke: kernel events/sec and fleet throughput.

Two gates, both against committed append-mode trajectories:

**Kernel gate** — runs the fixed reference workload from
``bench_kernel_events.py`` once and compares it against the last
committed entry (same workload version) of ``BENCH_kernel_history.jsonl``:

* **determinism** — ``events`` and ``ios_completed`` are pure functions
  of the workload, so they must match the committed entry *exactly*; a
  drift means the workload changed and ``WORKLOAD_VERSION`` must bump;
* **throughput** — fresh ``events_per_sec`` must be within
  ``REPRO_BENCH_TOLERANCE`` (default 0.20) of the committed value.
  Wall-clock comparisons are only meaningful on comparable machines;
  on a much slower box, raise the tolerance or re-baseline with
  ``--update`` (which appends a fresh entry for committing).  The
  committed and the fresh host are printed beside the ratio.

**Shard gate** — runs the reference fleet from ``bench_shard_scaling.py``
once on 4 worker processes and compares against
``BENCH_shard_history.jsonl``: the result digest and event count exactly
(the fleet's byte-identity guarantee), and aggregate events/sec within
the same tolerance.
Skip with ``--no-shard`` when only the kernel gate is wanted.

**Scenario gate** (opt-in via ``--scenario``) — runs the CI-sized
scenario suite from ``bench_scenario_suite.py`` and compares against
``BENCH_scenario_history.jsonl``: the combined report digest exactly
(the behavior-envelope byte-identity guarantee), every SLO gate passing,
and suite throughput within the same tolerance.

CI wires this as the bench smoke step::

    cd benchmarks && PYTHONPATH=../src:. python check_kernel_regression.py

Exit status 0 on pass, 1 on regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench_kernel_events import HISTORY_PATH, WORKLOAD_VERSION, run_reference_workload
from bench_scenario_suite import (
    HISTORY_PATH as SCENARIO_HISTORY_PATH,
    SUITE_VERSION,
    run_suite_probe,
)
from bench_shard_scaling import (
    FLEET_VERSION,
    HISTORY_PATH as SHARD_HISTORY_PATH,
    run_sharded_probe,
)

DEFAULT_TOLERANCE = 0.20


def _load_entries(history_path: str, version_key: str, version: int,
                  bench_name: str) -> dict:
    if not os.path.exists(history_path):
        raise SystemExit(
            f"no committed trajectory at {history_path} — run "
            f"{bench_name} and commit {os.path.basename(history_path)}"
        )
    entries = []
    with open(history_path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    entries = [e for e in entries if e.get(version_key) == version]
    if not entries:
        raise SystemExit(
            f"no trajectory entry for {version_key}={version} in "
            f"{history_path} — re-baseline via {bench_name}"
        )
    return entries[-1]


def load_baseline(history_path: str = HISTORY_PATH) -> dict:
    """Latest committed trajectory entry for the current workload version."""
    return _load_entries(
        history_path, "workload_version", WORKLOAD_VERSION,
        "bench_kernel_events.py",
    )


def load_shard_baseline(history_path: str = SHARD_HISTORY_PATH) -> dict:
    """Latest committed shard-scaling entry for the current fleet version."""
    return _load_entries(
        history_path, "fleet_version", FLEET_VERSION, "bench_shard_scaling.py"
    )


def load_scenario_baseline(history_path: str = SCENARIO_HISTORY_PATH) -> dict:
    """Latest committed scenario-suite entry for the current suite version."""
    return _load_entries(
        history_path, "suite_version", SUITE_VERSION, "bench_scenario_suite.py"
    )


def host_label(entry: dict) -> str:
    """The host a kernel trajectory entry was measured on."""
    return f"{entry['cpus']} CPU(s), Python {entry['python']}"


def check_scenario(tolerance: float) -> list:
    """The scenario-suite gate's failures (empty on pass).

    Opt-in via ``--scenario``: report digests must match the committed
    trajectory exactly (byte-identical behavior envelope), every SLO
    gate must pass, and suite throughput stays within tolerance.
    """
    baseline = load_scenario_baseline()
    fresh = run_suite_probe()
    failures = []
    if not fresh["passes"]:
        failures.append("a suite scenario violated its SLO gates")
    if fresh["combined_digest"] != baseline["combined_digest"]:
        drifted = sorted(
            name
            for name in set(fresh["digests"]) | set(baseline["digests"])
            if fresh["digests"].get(name) != baseline["digests"].get(name)
        )
        failures.append(
            f"scenario report digests drifted: committed "
            f"{baseline['combined_digest']}, fresh {fresh['combined_digest']} "
            f"(changed: {', '.join(drifted)}) — the simulated behavior "
            "envelope changed; bump SUITE_VERSION and re-baseline"
        )
    floor = baseline["ios_per_sec"] * (1.0 - tolerance)
    if fresh["ios_per_sec"] < floor:
        failures.append(
            f"scenario suite I/Os/sec regressed >{tolerance:.0%}: committed "
            f"{baseline['ios_per_sec']:,.0f}, fresh "
            f"{fresh['ios_per_sec']:,.0f} (floor {floor:,.0f})"
        )
    print(
        f"scenario bench: committed {baseline['ios_per_sec']:,.0f} io/s, "
        f"fresh {fresh['ios_per_sec']:,.0f} io/s "
        f"({fresh['ios_per_sec'] / baseline['ios_per_sec']:.2f}x, "
        f"tolerance {tolerance:.0%}), digest "
        f"{'ok' if fresh['combined_digest'] == baseline['combined_digest'] else 'DRIFTED'}"
        f", gates {'pass' if fresh['passes'] else 'FAIL'}"
    )
    return failures


def check_shard(tolerance: float) -> list:
    """The shard gate's failures (empty on pass)."""
    baseline = load_shard_baseline()
    fresh = run_sharded_probe(4)
    failures = []
    if fresh["digest"] != baseline["digest"]:
        failures.append(
            f"sharded fleet digest drifted: committed {baseline['digest']}, "
            f"fresh {fresh['digest']} — the reference fleet's simulated "
            "outcome changed; bump FLEET_VERSION and re-baseline"
        )
    if fresh["events"] != baseline["events"]:
        failures.append(
            f"sharded fleet event count drifted: committed "
            f"{baseline['events']}, fresh {fresh['events']}"
        )
    committed_eps = next(
        run["events_per_sec"] for run in baseline["runs"] if run["shards"] == 4
    )
    floor = committed_eps * (1.0 - tolerance)
    if fresh["events_per_sec"] < floor:
        failures.append(
            f"aggregate sharded events/sec regressed >{tolerance:.0%}: "
            f"committed {committed_eps:,.0f}, fresh "
            f"{fresh['events_per_sec']:,.0f} (floor {floor:,.0f})"
        )
    print(
        f"shard bench: committed {committed_eps:,.0f} ev/s @4 shards "
        f"(on {baseline['cpus']} CPUs), fresh {fresh['events_per_sec']:,.0f} "
        f"ev/s ({fresh['events_per_sec'] / committed_eps:.2f}x, "
        f"tolerance {tolerance:.0%}), digest "
        f"{'ok' if fresh['digest'] == baseline['digest'] else 'DRIFTED'}"
    )
    return failures


def check(update: bool = False, tolerance: float | None = None,
          shard: bool = True, scenario: bool = False) -> int:
    if tolerance is None:
        tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE))
    baseline = load_baseline()
    fresh = run_reference_workload()

    failures = []
    for key in ("events", "ios_completed"):
        if fresh[key] != baseline[key]:
            failures.append(
                f"deterministic field {key!r} drifted: committed "
                f"{baseline[key]}, fresh {fresh[key]} — the reference "
                "workload changed; bump WORKLOAD_VERSION and re-baseline"
            )
    floor = baseline["events_per_sec"] * (1.0 - tolerance)
    if fresh["events_per_sec"] < floor:
        failures.append(
            f"events/sec regressed >{tolerance:.0%}: committed "
            f"{baseline['events_per_sec']:,.0f}, fresh "
            f"{fresh['events_per_sec']:,.0f} (floor {floor:,.0f})"
        )

    print(
        f"kernel bench: committed {baseline['events_per_sec']:,.0f} ev/s "
        f"on {host_label(baseline)}, fresh {fresh['events_per_sec']:,.0f} ev/s "
        f"on {host_label(fresh)} "
        f"({fresh['events_per_sec'] / baseline['events_per_sec']:.2f}x, "
        f"tolerance {tolerance:.0%})"
    )
    if shard:
        failures.extend(check_shard(tolerance))
    if scenario:
        failures.extend(check_scenario(tolerance))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)

    if update and not failures:
        with open(HISTORY_PATH, "a") as handle:
            handle.write(json.dumps(fresh, sort_keys=True) + "\n")
        print(f"appended fresh entry to {os.path.basename(HISTORY_PATH)}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="append the fresh result to the committed trajectory",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help=f"allowed events/sec drop (default {DEFAULT_TOLERANCE}, "
        "or REPRO_BENCH_TOLERANCE)",
    )
    parser.add_argument(
        "--no-shard", action="store_true",
        help="skip the sharded-fleet gate (kernel gate only)",
    )
    parser.add_argument(
        "--scenario", action="store_true",
        help="also run the scenario-suite gate (SLO gates + report-digest "
             "determinism against BENCH_scenario_history.jsonl)",
    )
    opts = parser.parse_args(argv)
    return check(update=opts.update, tolerance=opts.tolerance,
                 shard=not opts.no_shard, scenario=opts.scenario)


if __name__ == "__main__":
    sys.exit(main())
