"""CLI surface of the scenario plane: ``python -m repro scenario``.

Five verbs::

    python -m repro scenario list
    python -m repro scenario run incast-burst rebuild-storm
    python -m repro scenario run --all --jobs 4
    python -m repro scenario run --trace boot.trace.gz --stack luna
    python -m repro scenario record incast-burst --out incast.trace.gz
    python -m repro scenario import msr.csv --format msr --out msr.trace.gz
    python -m repro scenario verify incast.trace.gz

``run`` executes catalog scenarios (or envelope files, or ad-hoc traces)
through the lab and gates every point on the scenario's SLO; the report
is canonical JSON, byte-identical across job counts.  Exit status 3
signals an SLO violation (matching the chaos harness's convention);
2 is a load/usage error.  Envelope files of ``kind: "chaos"`` delegate
to the chaos replayer, so one verb replays either kind.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..ebs import STACKS
from ..lab.spec import canonical_json
from .catalog import Scenario, SloGate, catalog_names, get_scenario, trace_scenario
from .envelope import load_envelope
from .importers import IMPORT_FORMATS, ImportOptions, import_trace
from .run import record_scenario, run_scenario
from .trace import FleetTrace, TraceFormatError

#: Exit status for "an SLO gate failed / a chaos invariant reproduced"
#: (same contract as ``python -m repro chaos``).
EXIT_VIOLATION = 3


def add_scenario_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "scenario",
        help="trace ingestion, recording, and the fleet-behavior catalog",
        description=(
            "Record simulated runs as replayable fleet traces, import "
            "public block-trace corpora, and run the curated catalog of "
            "SLO-gated fleet behaviors."
        ),
    )
    verbs = parser.add_subparsers(dest="verb")

    verbs.add_parser("list", help="catalog scenarios with digests and gates")

    p_run = verbs.add_parser(
        "run", help="run scenarios and gate their SLOs (exit 3 on failure)"
    )
    p_run.add_argument("names", nargs="*", metavar="NAME",
                       help="catalog scenario names")
    p_run.add_argument("--all", action="store_true",
                       help="run every catalog scenario")
    p_run.add_argument("--file", metavar="FILE",
                       help="run a scenario envelope file instead "
                            "(chaos-kind files replay through repro.chaos)")
    p_run.add_argument("--trace", metavar="FILE",
                       help="run a fleet-trace file as an ad-hoc scenario")
    p_run.add_argument("--stack", choices=STACKS, default="solar",
                       help="--trace: frontend stack to replay on")
    p_run.add_argument("--rate-scale", type=float, default=1.0,
                       help="--trace: arrival-rate multiplier (default 1.0)")
    p_run.add_argument("--size-scale", type=float, default=1.0,
                       help="--trace: I/O size multiplier (default 1.0)")
    p_run.add_argument("--max-records", type=int, default=None,
                       help="--trace: replay only the first N records")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: $REPRO_JOBS or 1)")

    p_rec = verbs.add_parser(
        "record", help="record a catalog scenario's I/O envelope as a trace"
    )
    p_rec.add_argument("name", metavar="NAME", help="catalog scenario name")
    p_rec.add_argument("--out", required=True, metavar="FILE",
                       help="trace file to write (.gz compresses)")
    p_rec.add_argument("--seed", type=int, default=None,
                       help="seed to record (default: the spec's first)")

    p_imp = verbs.add_parser(
        "import", help="import a public block trace as a fleet trace"
    )
    p_imp.add_argument("source", metavar="FILE",
                       help="CSV trace file (.gz transparently decompressed)")
    p_imp.add_argument("--format", required=True, choices=IMPORT_FORMATS)
    p_imp.add_argument("--out", required=True, metavar="FILE",
                       help="trace file to write (.gz compresses)")
    p_imp.add_argument("--name", default=None, help="trace name in the header")
    p_imp.add_argument("--vd-size-mb", type=int, default=256)
    p_imp.add_argument("--max-vds", type=int, default=4)
    p_imp.add_argument("--keep-one-in", type=int, default=1,
                       help="deterministic downsampling: keep ~1/N rows")
    p_imp.add_argument("--max-records", type=int, default=None)

    p_ver = verbs.add_parser(
        "verify", help="check a trace or envelope file's digest (exit 2 on "
                       "mismatch)"
    )
    p_ver.add_argument("files", nargs="+", metavar="FILE")


def cmd_scenario(args: argparse.Namespace) -> int:
    verb = args.verb or "list"
    return {
        "list": _list,
        "run": _run,
        "record": _record,
        "import": _import,
        "verify": _verify,
    }[verb](args)


def _list(_args: argparse.Namespace) -> int:
    for name in catalog_names():
        scenario = get_scenario(name)
        tags = ",".join(scenario.tags)
        print(f"{name:18s} {scenario.digest}  [{tags}]")
        print(f"{'':18s} {scenario.description}")
    return 0


def _gather(args: argparse.Namespace):
    """The Scenario list one ``run`` invocation asks for."""
    if args.file:
        return [load_envelope(args.file)]
    if args.trace:
        trace = FleetTrace.load(args.trace)
        if args.max_records is not None:
            trace = trace.subset(args.max_records)
        name = f"{trace.name}@{args.stack}"
        return [
            trace_scenario(
                name,
                f"ad-hoc replay of {args.trace}",
                trace,
                stack=args.stack,
                vd_size_mb=max(m.vd_size_mb for m in trace.meta.values()),
                # Ad-hoc replays gate only on completion: imported corpora
                # carry no calibrated latency envelope.
                slo=SloGate(min_completed_fraction=0.99),
                rate_scale=args.rate_scale,
                size_scale=args.size_scale,
            )
        ]
    names = catalog_names() if getattr(args, "all", False) else args.names
    if not names:
        raise ValueError("nothing to run: give scenario names, --all, "
                         "--file or --trace")
    return [get_scenario(name) for name in names]


def _run(args: argparse.Namespace) -> int:
    try:
        scenarios = _gather(args)
    except (OSError, ValueError, KeyError, TraceFormatError) as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2
    worst = 0
    for scenario in scenarios:
        if not isinstance(scenario, Scenario):
            # A chaos-kind envelope: delegate to the chaos replayer so one
            # verb replays either kind of the unified format.
            from ..chaos.harness import replay_scenario

            report = replay_scenario(scenario)
            print(canonical_json(report).decode().rstrip("\n"))
            if report["violations"]:
                worst = EXIT_VIOLATION
            continue
        report = run_scenario(scenario, jobs=args.jobs)
        print(canonical_json(report).decode().rstrip("\n"))
        if not report["pass"]:
            worst = EXIT_VIOLATION
            for point in report["points"]:
                for failure in point["slo_failures"]:
                    print(f"scenario: {scenario.name} seed={point['seed']}: "
                          f"{failure}", file=sys.stderr)
    return worst


def _record(args: argparse.Namespace) -> int:
    try:
        scenario = get_scenario(args.name)
        trace, artifact = record_scenario(scenario, seed=args.seed)
    except (KeyError, ValueError) as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2
    count = trace.dump(args.out)
    print(f"recorded {count} I/O(s) from {scenario.name!r} "
          f"(artifact {artifact['digest'][:16]}) to {args.out} "
          f"(trace digest {trace.digest})")
    return 0


def _import(args: argparse.Namespace) -> int:
    try:
        options = ImportOptions(
            vd_size_mb=args.vd_size_mb,
            max_vds=args.max_vds,
            keep_one_in=args.keep_one_in,
            max_records=args.max_records,
        )
        trace = import_trace(args.source, args.format, name=args.name,
                             options=options)
    except (OSError, ValueError, TraceFormatError) as exc:
        print(f"scenario: import failed: {exc}", file=sys.stderr)
        return 2
    count = trace.dump(args.out)
    streams = ", ".join(
        f"{s}({len(r)})" for s, r in sorted(trace.streams.items())
    )
    print(f"imported {count} record(s) into {args.out} "
          f"(digest {trace.digest}; streams: {streams})")
    return 0


def _verify(args: argparse.Namespace) -> int:
    status = 0
    for file in args.files:
        try:
            if _is_envelope(file):
                scenario = load_envelope(file)
                kind = "chaos" if not isinstance(scenario, Scenario) else "workload"
                print(f"{file}: ok ({kind} scenario, digest {scenario.digest})")
            else:
                trace = FleetTrace.load(file)
                print(f"{file}: ok (fleet trace, digest {trace.digest}, "
                      f"{trace.records_total} record(s))")
        except (OSError, ValueError, KeyError, TraceFormatError) as exc:
            print(f"{file}: FAILED: {exc}", file=sys.stderr)
            status = 2
    return status


def _is_envelope(path: str) -> bool:
    """Envelope files are one pretty-printed JSON object; trace files are
    JSONL whose header line carries ``fleet_trace``.  Sniff the cheap
    invariant (the first line) rather than parsing twice."""
    from .trace import _open_text

    with _open_text(Path(path), "rt") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                return "fleet_trace" not in json.loads(line)
            except json.JSONDecodeError:
                # Multi-line pretty JSON: the first line alone won't parse.
                return True
    return True
