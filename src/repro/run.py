"""The ``python -m repro run`` subcommand: spec in, artifact out.

Every whole-fleet experiment has a spec with a canonical JSON form, so
one command runs them all::

    python -m repro run examples/specs/sweep.json
    python -m repro run examples/specs/upgrade.json --set 'seeds=[42]' \\
        --set upgrade.servers=4 --set upgrade.waves=2
    REPRO_JOBS=4 python -m repro run examples/specs/fleet.json --check
    python -m repro run incast-burst rebuild-storm tests/scenarios/*.json

Each SPEC is a JSON file or a catalog scenario name.  A file's kind is
read off the key that kind must have
(:func:`repro.scenario.envelope.spec_kind`):

* ``deployment`` -- an :class:`~repro.lab.spec.ExperimentSpec`, or a JSON
  list of them (a stack sweep).  Plain, upgrade and rebuild points run
  through :func:`~repro.lab.runner.run_sweep` over the content-addressed
  store (``--store``, ``--no-store``, ``--force``);
* ``deployments`` -- a :class:`~repro.dist.fleet.FleetSpec`, run by
  :func:`~repro.dist.coordinator.run_fleet`;
* ``version`` -- a scenario envelope: ``workload`` envelopes (and catalog
  names) run through :func:`~repro.scenario.run.run_scenario`, ``chaos``
  envelopes through :func:`~repro.chaos.harness.replay_scenario`.

``--set dotted.key=value`` edits a lab or fleet file's parsed JSON
before it is validated: the value is parsed as JSON, else taken as a
string, and on a list it edits every element.  It sets exactly the key
it names, which must exist.  Envelopes and catalog names are
digest-verified on load and refuse edits.  Worker processes come from
``REPRO_JOBS``.

``--json`` prints documents that are pure functions of the spec: one
canonical lab artifact per line (spec x seed order), the scenario or
chaos report, or the fleet result without its wall-clock keys.
``--check`` re-runs each SPEC in-process on one worker with no store and
compares those bytes.

Exit status: 0 ok; 1 a point failed twice; 2 a load or usage error, an
upgrade point that hung or a rebuild that did not complete; 3 an SLO
gate, chaos invariant or analytic rollout check violated, or a
``--check`` mismatch.  With several SPECs the largest status wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .chaos.harness import ChaosConfig, replay_scenario
from .control.drill import artifact_to_result
from .control.upgrade import UpgradeResult, check_rollout_consistency
from .dist.coordinator import run_fleet
from .dist.fleet import FleetSpec
from .lab.cli import format_table
from .lab.results import SpecAggregate, aggregate
from .lab.runner import default_jobs, run_sweep
from .lab.spec import ExperimentSpec, canonical_json
from .lab.store import DEFAULT_STORE_DIR, ResultStore
from .lab.telemetry import ProgressFn, printer
from .scenario.catalog import get_scenario
from .scenario.envelope import ENVELOPE_KINDS, envelope_from_dict, spec_kind
from .scenario.run import run_scenario
from .sim import MS

#: An upgrade point hung, or a rebuild did not complete (as ``failover``).
EXIT_INCOMPLETE = 2
#: A SPEC that does not load, or a bad ``--set``.
EXIT_USAGE = 2
#: An SLO gate, chaos invariant or rollout check failed, or ``--check``
#: found the rerun's bytes differ.
EXIT_VIOLATION = 3

WAVE_HEADERS = (
    "wave", "kind", "mix", "ios", "mean us", "IOPS/srv", "availability", "migr",
)


class Outcome(NamedTuple):
    """One SPEC's run: its ``--json`` document, exit status, text summary
    and the stderr lines printed in either mode."""

    document: str
    status: int
    render: Callable[[], None]
    errors: List[str]


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def parse_set(text: str) -> Tuple[List[str], Any]:
    """``dotted.key=value`` -> (key path, value parsed as JSON, else str)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"--set needs dotted.key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def apply_set(payload: Dict[str, Any], path: Sequence[str], value: Any) -> None:
    """Set the existing key ``path`` names in a parsed spec object."""
    node = payload
    for depth, key in enumerate(path):
        if not (isinstance(node, dict) and key in node):
            raise ValueError(f"unknown key {'.'.join(path[:depth + 1])!r}")
        if depth == len(path) - 1:
            node[key] = value
        else:
            node = node[key]


def load_spec(arg: str, sets: Sequence[Tuple[List[str], Any]]) -> Tuple[str, Any]:
    """(kind, spec) of one SPEC argument; ValueError/OSError/KeyError/
    TypeError when it does not load."""
    if not os.path.isfile(arg):
        if arg.endswith(".json") or os.sep in arg:
            raise ValueError("no such spec file")
        if sets:
            raise ValueError("--set cannot edit a catalog scenario (digest-verified)")
        return "workload", get_scenario(arg)
    payload = json.loads(Path(arg).read_text())
    kind = spec_kind(payload)
    if kind in ENVELOPE_KINDS:
        if sets:
            raise ValueError(f"--set cannot edit a {kind} envelope (digest-verified)")
        scenario = envelope_from_dict(payload)
        if kind == "chaos":
            ChaosConfig.from_dict(scenario.config)  # a config the harness refuses
        return kind, scenario
    items = payload if isinstance(payload, list) else [payload]
    for path, value in sets:
        for item in items:
            apply_set(item, path, value)
    if kind == "fleet":
        return kind, FleetSpec.from_dict(payload)
    return kind, [ExperimentSpec.from_dict(item) for item in items]


# ----------------------------------------------------------------------
# Text renderers
# ----------------------------------------------------------------------
def _mix_cell(mix) -> str:
    parts = [
        f"{stack}:{share:.0%}"
        for stack, share in sorted(mix.items())
        if share > 0
    ]
    return " ".join(parts) if parts else "-"


def wave_rows(result: UpgradeResult) -> List[List[str]]:
    return [
        [
            str(w.index),
            w.kind,
            _mix_cell(w.mix),
            str(w.completed),
            f"{w.mean_latency_ns / 1000:.1f}",
            f"{w.iops_per_server:.0f}",
            f"{w.availability:.4%}",
            str(w.migrations),
        ]
        for w in result.waves
    ]


def _render_upgrade(seed: int, result: UpgradeResult) -> None:
    plan = result.plan
    print()
    print(f"rolling upgrade {plan.from_stack} -> {plan.to_stack}: "
          f"{plan.servers} servers, {plan.waves} waves/hop, "
          f"{plan.wave_window_ns / MS:g}ms windows, seed {seed}")
    print(format_table(WAVE_HEADERS, wave_rows(result)))
    first, last = result.waves[0], result.waves[-1]
    print(f"fleet latency {first.mean_latency_ns / 1000:.1f}us -> "
          f"{last.mean_latency_ns / 1000:.1f}us, "
          f"availability floor {result.availability_floor():.4%}, "
          f"{result.migrations} migrations, "
          f"{result.deferred} I/Os deferred, {result.hangs} hung")


def _fmt_ms(ns) -> str:
    return "n/a" if ns is None else f"{ns / MS:.2f}ms"


def _fmt_us(ns) -> str:
    return "n/a" if ns is None else f"{ns / 1000:.1f}us"


def _render_rebuild(spec: ExperimentSpec, artifact: Dict[str, Any]) -> None:
    rb = artifact["rebuild"]
    fg = rb["foreground"]
    print(f"{spec.deployment.stack} {spec.rebuild.policy}/{spec.rebuild.mode}: "
          f"victim {rb['victim']}, "
          f"{rb['bytes_rebuilt']} bytes over {rb['chunks_copied']} chunks")
    print(f"  detected {_fmt_ms(rb['detected_ns'])} after t0, recovery "
          f"{_fmt_ms(rb['recovery_ns'])}, ledger {rb['ledger']}")
    print(f"  foreground p99 {_fmt_us(fg['p99_ns'])} overall, "
          f"{_fmt_us(fg['p99_during_storm_ns'])} during the storm "
          f"({fg['samples_during_storm']} samples)")


# ----------------------------------------------------------------------
# One runner per kind
# ----------------------------------------------------------------------
def _run_lab(specs: List[ExperimentSpec], jobs: int, store: Optional[ResultStore],
             force: bool, progress: Optional[ProgressFn]) -> Outcome:
    sweep = run_sweep(specs, jobs=jobs, store=store, force=force, progress=progress)
    points = list(zip(sweep.points, sweep.artifacts))
    upgrades: Dict[int, UpgradeResult] = {}
    errors: List[str] = []
    status = 0
    for index, ((spec, seed, _digest), artifact) in enumerate(points):
        if spec.upgrade is not None:
            result = upgrades[index] = artifact_to_result(spec, artifact)
            problems = check_rollout_consistency(result)
            errors += [f"upgrade: inconsistent with analytic rollout: "
                       f"{spec.name} seed {seed}: {problem}" for problem in problems]
            if result.hangs:
                status = max(status, EXIT_INCOMPLETE)
            if problems:
                status = EXIT_VIOLATION
        elif spec.rebuild is not None and not artifact["rebuild"]["complete"]:
            errors.append(f"rebuild: {spec.name} seed {seed}: rebuild INCOMPLETE")
            status = max(status, EXIT_INCOMPLETE)

    def render() -> None:
        for index, ((spec, seed, _digest), artifact) in enumerate(points):
            if index in upgrades:
                _render_upgrade(seed, upgrades[index])
            elif spec.rebuild is not None:
                _render_rebuild(spec, artifact)
        plain = [spec for spec in specs if spec.upgrade is None and spec.rebuild is None]
        if plain:
            print()
            print(format_table(SpecAggregate.ROW_HEADERS, [
                aggregate(spec, sweep.artifacts_for(spec)).row() for spec in plain
            ]))
        print()
        print(sweep.telemetry.summary())
        if store is not None:
            print(f"artifacts: {store.root} ({store.writes} written, "
                  f"{store.hits} cache hits)")

    document = "".join(canonical_json(artifact).decode() for artifact in sweep.artifacts)
    return Outcome(document, status, render, errors)


def _run_fleet(spec: FleetSpec, jobs: int, quiet: bool) -> Outcome:
    result = run_fleet(spec, shards=jobs)

    def render() -> None:
        s = result.summary
        print(f"fleet {spec.name!r}: {s['deployments']} deployments, "
              f"{result.shards} worker process(es)")
        print(f"  digest        {result.digest}")
        print(f"  events        {result.events_processed} "
              f"({result.events_per_sec:,.0f}/s over {result.wall_s:.2f}s)")
        print(f"  messages      {result.messages_routed} routed")
        print(f"  foreground    {s['completed']}/{s['issued']} I/Os, "
              f"{s['failed']} failed, {s['hangs']} hung")
        print(f"  cross-dep     {s['injected_completed']}/{s['injected_issued']} "
              f"injected I/Os, {s['incidents']} incidents "
              f"({s['remote_incidents']} remote)")
        if s["latency_p99_ns"] is not None:
            print(f"  latency       p50 {s['latency_p50_ns'] / 1000:.1f}us  "
                  f"p99 {s['latency_p99_ns'] / 1000:.1f}us")
        if not quiet:
            print(f"  {'dep':>4s} {'stack':10s} {'done':>6s} {'inj':>5s} "
                  f"{'msgs i/o':>9s} {'events':>9s}")
            for a in result.artifacts:
                print(f"  d{a['index']:<3d} {a['stack']:10s} "
                      f"{a['completed']:>6d} {a['injected_completed']:>5d} "
                      f"{a['messages_in']:>4d}/{a['messages_out']:<4d} "
                      f"{a['events_processed']:>9d}")

    return Outcome(canonical_json(result.to_dict()).decode(), 0, render, [])


def _report(document: str) -> Callable[[], None]:
    """Scenario and chaos reports print the same text in either mode."""
    return lambda: print(document, end="")


def _run_workload(scenario, jobs: int) -> Outcome:
    report = run_scenario(scenario, jobs=jobs)
    document = canonical_json(report).decode()
    errors = [
        f"scenario: {scenario.name} seed={point['seed']}: {failure}"
        for point in report["points"]
        for failure in point["slo_failures"]
    ]
    return Outcome(document, 0 if report["pass"] else EXIT_VIOLATION,
                   _report(document), errors)


def _run_chaos(scenario) -> Outcome:
    report = replay_scenario(scenario)
    document = canonical_json(report).decode()
    return Outcome(document, EXIT_VIOLATION if report["violations"] else 0,
                   _report(document), [])


def execute(kind: str, spec: Any, jobs: int, store: Optional[ResultStore] = None,
            force: bool = False, progress: Optional[ProgressFn] = None,
            quiet: bool = True) -> Outcome:
    """Run one loaded SPEC through its kind's runner."""
    if kind == "lab":
        return _run_lab(spec, jobs, store, force, progress)
    if kind == "fleet":
        return _run_fleet(spec, jobs, quiet)
    if kind == "workload":
        return _run_workload(spec, jobs)
    return _run_chaos(spec)


# ----------------------------------------------------------------------
# The subcommand
# ----------------------------------------------------------------------
def add_run_parser(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "run",
        help="run lab, fleet and scenario specs (spec in, artifact out)",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("specs", nargs="+", metavar="SPEC",
                   help="spec JSON file or catalog scenario name")
    p.add_argument("--set", action="append", default=[], dest="sets",
                   metavar="KEY=VALUE",
                   help="edit a lab or fleet spec file before it is validated "
                        "(dotted key, JSON value); repeatable")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the canonical JSON documents")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress and the fleet table")
    p.add_argument("--check", action="store_true",
                   help="re-run in-process, one worker, no store, and compare "
                        "the JSON bytes (exit 3 on mismatch)")
    p.add_argument("--store", default=DEFAULT_STORE_DIR,
                   help=f"result store directory (default: {DEFAULT_STORE_DIR})")
    p.add_argument("--no-store", action="store_true",
                   help="do not read or write the result store")
    p.add_argument("--force", action="store_true",
                   help="re-simulate even when cached results exist")
    return p


def cmd_run(args: argparse.Namespace) -> int:
    loaded = []
    problems = []
    try:
        jobs = default_jobs()
        sets = [parse_set(text) for text in args.sets]
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for arg in args.specs:
        try:
            loaded.append((arg, *load_spec(arg, sets)))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"run: cannot load {arg!r}: {exc}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return EXIT_USAGE

    store = None if args.no_store else ResultStore(args.store)
    progress = None if (args.quiet or args.as_json) else printer()
    worst = 0
    for arg, kind, spec in loaded:
        try:
            outcome = execute(kind, spec, jobs, store, args.force, progress, args.quiet)
            reference = execute(kind, spec, 1) if args.check else None
        except RuntimeError as exc:
            print(f"run: {arg}: {exc}", file=sys.stderr)
            worst = max(worst, 1)
            continue
        for line in outcome.errors:
            print(line, file=sys.stderr)
        if args.as_json:
            print(outcome.document, end="")
        else:
            outcome.render()
        status = outcome.status
        if reference is not None:
            if reference.document != outcome.document:
                print(f"run: {arg}: DETERMINISM MISMATCH between {jobs} "
                      "worker(s) and the in-process rerun", file=sys.stderr)
                status = max(status, EXIT_VIOLATION)
            else:
                print("determinism   verified",
                      file=sys.stderr if args.as_json else sys.stdout)
        worst = max(worst, status)
    return worst
