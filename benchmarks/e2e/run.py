"""End-to-end benchmark: four workloads, seven metrics, a per-layer ledger.

    python3 benchmarks/e2e/run.py [--workload W] [--seed 42] [--seconds 10] [--trace [0|1]]

For each workload (all four unless ``--workload`` names one) this runs,
each in a fresh interpreter (``worker.py``):

1. one untimed warm-up set-up probe (absorbs ``.pyc`` compilation), then
   ``SETUP_PROBES`` timed probes -- ``setup_s`` is their median;
2. the workload untraced -- host wall time, peak RSS and the simulated
   outcome with its correctness checks;
3. with ``--trace``, the workload again under the per-layer ledger
   (``ledger.py``), which must reproduce the untraced ``sim_digest``.
   The ledger and a raw-span sample go to ``benchmarks/out/e2e/``.

Host times are given at the reference host speed (``hostspeed.py``).
Every metric is printed by name with its unit.  The last stdout line is
one JSON object: ``correct``, ``attempted`` (simulated I/Os issued),
``failed`` (issued - completed ok; all of them if a check failed) and
``metrics`` -- the end-to-end metrics, or with ``--trace`` the
per-layer ones.  A failed check exits 1.  ``--seed`` seeds the
simulation.  ``--seconds`` and ``--trace 0|1`` are the benchmark's
command interface (every run is driven as ``--workload W --seed N
--seconds 10 --trace 0|1``): ``--seconds`` scales every simulated issue
window, 10 being the committed size, and a bare ``--trace`` means 1.
See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from workloads import COMPONENTS, WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, "benchmarks", "out", "e2e")
#: Timed set-up probes per run.  Import time is the noisiest host time
#: measured: with 5 probes a set's spread reached 9% (NOISE.md).
SETUP_PROBES = 15
#: ``--seconds`` at which the simulated windows are the committed size.
REFERENCE_SECONDS = 10.0
CHILD_TIMEOUT_S = 170

#: name -> unit, in print order.  ``sim_us`` is simulated time; ``s`` is
#: host time at the reference host speed.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_kiops": "kIOPS",
    "io_p50_us": "sim_us",
    "io_p99_us": "sim_us",
    "events_per_io": "events/io",
}
#: Ledger layers reported as metrics.  ``rebuild`` and ``faults`` stay in
#: the ledger file only: no workload enters them through a class method.
METRIC_LAYERS = (
    "sim", "net", "core", "transport", "agent", "storage", "host", "metrics",
    "ebs", "workloads", "control", "telemetry", "dist",
)
#: A layer's self time is given as its share of all self time: shares
#: cancel host-speed drift between runs, and a layer a workload never
#: enters reads 0% rather than a constant 0 s.  Seconds are printed and
#: kept in the ledger file.
PER_LAYER = {
    **{
        f"{layer}.{stat}": unit
        for layer in METRIC_LAYERS
        for stat, unit in (("self_pct", "%"), ("calls_per_io", "calls/io"),
                           ("events_per_io", "events/io"))
    },
    "dist.windows": "count",
    "dist.parallel_eff": "ratio",
    "dist.messages_routed": "count",
    "dist.messages_dropped": "count",
    "setup.import_s": "s",
    "setup.build_s": "s",
    **{f"{c}.{p}_us": "sim_us" for c in COMPONENTS for p in ("p50", "p99")},
    "trace.overhead_x": "x",
}


class ChildError(RuntimeError):
    """A worker process failed or printed no result."""


def child(*args: str) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    # Children cache bytecode under OUT_DIR whatever the caller's
    # environment says: the warm-up probe compiles once, every timed probe
    # imports from .pyc, and no stale __pycache__ in the tree is read.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_DIR, "pycache")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(args)}: exit {proc.returncode}")
    return json.loads(lines[-1])


def setup_probes(workload: str, seed: int, scale: float) -> Dict[str, float]:
    args = ("probe", workload, str(seed), repr(scale))
    child(*args)  # warm-up: compiles .pyc after a fresh checkout
    probes = [child(*args) for _ in range(SETUP_PROBES)]
    return {
        "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.build_s": statistics.median(p["build_s"] for p in probes),
        "raw_s": statistics.median(p["raw_s"] for p in probes),
        "slowdown": statistics.median(p["slowdown"] for p in probes),
    }


def layer_metrics(ledger: Dict[str, Any], completed: int) -> Dict[str, float]:
    layers = ledger["layers"]
    all_events = sum(row["events"] for row in layers.values())
    self_total = sum(row["self_s"] for row in layers.values())
    out = {}
    for layer in METRIC_LAYERS:
        row = layers[layer]
        out[f"{layer}.self_pct"] = 100 * row["self_s"] / self_total
        out[f"{layer}.calls_per_io"] = row["calls"] / completed
        # The kernel dispatches every event; other layers count the
        # callbacks they defined.
        events = all_events if layer == "sim" else row["events"]
        out[f"{layer}.events_per_io"] = events / completed
    return out


def measure(workload: str, seed: int, scale: float, trace: bool) -> Dict[str, Any]:
    """One workload: set-up probes, the untraced run and (optionally)
    the traced run, folded into metrics and checks."""
    setup = setup_probes(workload, seed, scale)
    plain = child("run", workload, str(seed), repr(scale))
    checks: List[Tuple[str, bool, str]] = [
        (c["name"], c["ok"], c["detail"]) for c in plain["checks"]
    ]
    counts = plain["counts"]
    fleet = plain.get("dist")
    worker_cpu_s = plain["children_cpu_s"] if fleet else 0.0
    metrics = {
        "wall_s": plain["wall_s"],
        "setup_s": setup["setup_s"],
        "peak_rss_mb": plain["peak_rss_mb"],
        "sim_kiops": plain["sim_kiops"],
        "io_p50_us": plain["io_p50_us"],
        "io_p99_us": plain["io_p99_us"],
        "events_per_io": plain["events_per_io"],
    }
    host = {
        "wall raw": (plain["wall_raw_s"], "s"),
        "wall slowdown": (plain["slowdown"], "x"),
        "setup raw (median)": (setup["raw_s"], "s"),
        "setup slowdown (median)": (setup["slowdown"], "x"),
    }
    if fleet:
        host["shards' CPU"] = (worker_cpu_s, "s")
    layer: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    if trace:
        ledger_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.json")
        traced = child("run", workload, str(seed), repr(scale), "--ledger", ledger_path)
        checks += [(f"traced: {c['name']}", c["ok"], c["detail"]) for c in traced["checks"]]
        checks.append((
            "tracing leaves the simulation unchanged",
            traced["sim_digest"] == plain["sim_digest"],
            f"traced {traced['sim_digest'][:16]} vs untraced {plain['sim_digest'][:16]}",
        ))
        ledger = traced["ledger"]
        # The fleet is traced as one in-process shard: compare it with
        # the shards' summed CPU, the same work done serially.
        base_s = worker_cpu_s * plain["wall_s"] / plain["wall_raw_s"] if fleet else plain["wall_s"]
        layer = {
            **layer_metrics(ledger, counts["completed"]),
            "dist.windows": fleet["windows"] if fleet else 0,
            "dist.parallel_eff": (
                worker_cpu_s / (fleet["shards"] * plain["wall_raw_s"]) if fleet else 0.0
            ),
            "dist.messages_routed": fleet["messages_routed"] if fleet else 0,
            "dist.messages_dropped": fleet["messages_dropped"] if fleet else 0,
            "setup.import_s": setup["setup.import_s"],
            "setup.build_s": setup["setup.build_s"],
            **(traced["components"] or {}),
            "trace.overhead_x": traced["wall_s"] / base_s,
        }
        missing = [m for m in PER_LAYER if m not in layer]
        checks.append(("every per-layer metric measured", not missing, f"missing {missing}"))
        self_s = {name: row["self_s"] for name, row in ledger["layers"].items()}
        self_sum = sum(self_s.values())
        closure = (self_sum + ledger["wrapper_s"]) / traced["wall_raw_s"]
        checks.append((
            "layer self times + wrapper cost cover the traced wall",
            abs(closure - 1) <= 0.02,
            f"{self_sum:.4f} s + {ledger['wrapper_s']:.4f} s over {traced['wall_raw_s']:.4f} s",
        ))
        host["traced wall raw"] = (traced["wall_raw_s"], "s")
    correct = all(ok for _, ok, _ in checks)
    attempted = counts["issued"]
    failed = attempted - counts["completed"] if correct else attempted
    return {
        "workload": workload,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "sim_digest": plain["sim_digest"],
        "ios": plain["ios"],
        "metrics": metrics,
        "host": host,
        "layer": layer,
        "self_s": self_s,
    }


def report(result: Dict[str, Any], trace: bool) -> None:
    name = result["workload"]
    print(f"== {name}: sim_digest {result['sim_digest']}  ios {result['ios']}")
    for check, ok, detail in result["checks"]:
        print(f"  [{'ok' if ok else 'FAIL'}] {check}: {detail}")
    shown = [(m, v, END_TO_END[m]) for m, v in result["metrics"].items()]
    shown += [(f"({m})", v, unit) for m, (v, unit) in result["host"].items()]
    if trace:
        shown += [(m, result["layer"][m], PER_LAYER[m]) for m in PER_LAYER if m in result["layer"]]
    for metric, value, unit in shown:
        print(f"  {metric:<26} {value:>16.6f} {unit}")
    if trace:
        print("  host self time by layer (raw s):")
        for layer, seconds in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<12} {seconds:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    scale = args.seconds / REFERENCE_SECONDS
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = [measure(name, args.seed, scale, bool(args.trace)) for name in names]
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    values: Dict[str, float] = {}
    for result in results:
        source = result["layer"] if args.trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        values.update({f"{prefix}{m}": source[m] for m in units if m in source})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": value, "unit": units[name.rsplit("/", 1)[-1]]}
            for name, value in values.items()
        },
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
