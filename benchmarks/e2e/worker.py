"""One measurement in a fresh interpreter; prints one JSON line.

    python3 benchmarks/e2e/worker.py probe WORKLOAD SEED SCALE
    python3 benchmarks/e2e/worker.py run WORKLOAD SEED SCALE [--ledger PATH]

``probe`` times importing the workload's modules and building it (no
events run), with an import-shaped host-speed burst (``hostspeed.py``)
on either side.  ``run`` builds the workload, times its run from the
first event to the end of the drain with event-loop bursts interleaved,
and reports the simulated outcome with its checks.  Both report host
times at the reference speed, with the raw time and the slowdown beside
them.  With ``--ledger`` the run is traced (see ``ledger.py``) and the
full ledger, with its raw-span sample, is written to PATH.  ``run.py``
drives both; they are separate processes so every sample pays the same
imports and no run inherits another's heap.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path[:0] = [HERE, SRC]

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from ledger import Ledger  # noqa: E402


def probe(name: str, seed: int, scale: float) -> Dict[str, Any]:
    speed = HostSpeed("import")
    speed.burst()
    t0 = time.perf_counter()
    for module in workloads.IMPORTS[name]:
        importlib.import_module(module)
    t1 = time.perf_counter()
    workload = workloads.build(name, seed, scale)
    if name == "fleet":
        workload.build_all()
    t2 = time.perf_counter()
    speed.burst()
    return {
        "import_s": speed.at_reference(t1 - t0),
        "build_s": speed.at_reference(t2 - t1),
        "raw_s": t2 - t0,
        "slowdown": speed.slowdown,
    }


def _collect_traces(into: list):
    """Patch ``TraceCollector.record`` to also append to ``into``;
    returns the undo.  Used for the in-process fleet run, whose
    per-deployment collectors are otherwise out of reach."""
    from repro.metrics.trace import TraceCollector

    original = TraceCollector.record

    def record(self, trace):
        into.append(trace)
        return original(self, trace)

    TraceCollector.record = record
    return lambda: setattr(TraceCollector, "record", original)


def run(name: str, seed: int, scale: float, ledger_path: Optional[str]) -> Dict[str, Any]:
    for module in workloads.IMPORTS[name]:
        importlib.import_module(module)
    traced = ledger_path is not None
    fleet_traces: list = []
    undo = _collect_traces(fleet_traces) if traced and name == "fleet" else None
    ledger = Ledger().install() if traced else None
    try:
        kwargs = {"shards": 1} if traced and name == "fleet" else {}
        workload = workloads.build(name, seed, scale, **kwargs)
        speed = HostSpeed()
        speed.burst()
        if ledger is not None:
            ledger.reset()
        speed.start_phase()
        workload.run(speed.keep_share)
        wall_raw = speed.end_phase()
        speed.burst()
    finally:
        if ledger is not None:
            ledger.uninstall()
        if undo is not None:
            undo()
    if traced and name == "fleet":
        workload.traces = fleet_traces
    out = workload.outcome()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["wall_s"] = speed.at_reference(wall_raw)
    out["wall_raw_s"] = wall_raw
    out["slowdown"] = speed.slowdown
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = max(own.ru_maxrss, children.ru_maxrss) / 1024
    out["children_cpu_s"] = children.ru_utime + children.ru_stime
    if ledger is not None:
        full = ledger.to_dict()
        os.makedirs(os.path.dirname(ledger_path), exist_ok=True)
        with open(ledger_path, "w") as handle:
            json.dump({"workload": name, "seed": seed, "scale": scale,
                       "traced_wall_raw_s": wall_raw, **full}, handle)
        full.pop("span_sample")
        out["ledger"] = full
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("scale", type=float)
    parser.add_argument("--ledger", default=None)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        out = probe(args.workload, args.seed, args.scale)
    else:
        out = run(args.workload, args.seed, args.scale, args.ledger)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
