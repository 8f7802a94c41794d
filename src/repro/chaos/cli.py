"""CLI surface of the chaos harness: ``python -m repro chaos``.

Two modes:

* ``--replay FILE`` — load a digest-verified scenario and re-run it,
  invariants after every step, printing a canonical-JSON report.  The
  report is a pure function of the scenario, so two replays of the same
  file are byte-identical.  Exit status 3 signals an invariant violation
  (regression scenarios in CI rely on 0).
* hunt (default) — run the hypothesis state machine for ``--examples``
  random walks of ``--steps`` rules each.  On a violation, the shrunken
  minimal counterexample is saved to ``--save`` (or printed) as a
  replayable scenario file, and the exit status is 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..lab.spec import canonical_json
from ..rebuild.throttle import REBUILD_POLICIES

#: Exit status for "the harness found / reproduced an invariant violation"
#: (distinct from argparse's 2 for usage errors).
EXIT_VIOLATION = 3


def add_chaos_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "chaos",
        help="property-based chaos harness for the control plane",
        description=(
            "Drive the control plane (faults, migrations, upgrades, "
            "foreground I/O) through random or replayed action sequences, "
            "checking the invariant suite after every step."
        ),
    )
    parser.add_argument(
        "--replay", metavar="FILE",
        help="replay one scenario JSON file instead of hunting",
    )
    parser.add_argument(
        "--examples", type=int, default=10,
        help="hunt: number of random action sequences (default 10)",
    )
    parser.add_argument(
        "--steps", type=int, default=25,
        help="hunt: rules per sequence (default 25)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="harness seed baked into the chaos config (default 0)",
    )
    parser.add_argument(
        "--derandomize", action="store_true",
        help="hunt: fixed hypothesis randomness (CI smoke mode)",
    )
    parser.add_argument(
        "--save", metavar="FILE",
        help="hunt: write the shrunken failing scenario here",
    )
    parser.add_argument(
        "--rebuild-policy", default="static", choices=REBUILD_POLICIES,
        help="hunt: throttle policy of the rebuild executor that "
             "re-copies a failed node's replicas (default static)",
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.replay:
        return _replay(args)
    return _hunt(args)


def _replay(args: argparse.Namespace) -> int:
    from .harness import ChaosConfig, replay_scenario
    from .scenario import ChaosScenario

    try:
        scenario = ChaosScenario.load(args.replay)
        ChaosConfig.from_dict(scenario.config)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # Unreadable file, bad JSON/schema, a digest mismatch or a config
        # the harness rejects: a usage error (2), distinct from a
        # reproduced violation (3).
        print(f"chaos: cannot load scenario {args.replay!r}: {exc}",
              file=sys.stderr)
        return 2
    report = replay_scenario(scenario)
    print(canonical_json(report).decode().rstrip("\n"))
    return EXIT_VIOLATION if report["violations"] else 0


def _hunt(args: argparse.Namespace) -> int:
    from .harness import ChaosConfig
    from .machine import hunt

    config = ChaosConfig(seed=args.seed, rebuild_policy=args.rebuild_policy)
    failure = hunt(
        config=config,
        max_examples=args.examples,
        stateful_step_count=args.steps,
        derandomize=args.derandomize,
    )
    if failure is None:
        print(canonical_json({
            "result": "ok",
            "examples": args.examples,
            "steps_per_example": args.steps,
            "seed": args.seed,
        }).decode().rstrip("\n"))
        return 0
    if args.save:
        failure.save(args.save)
        print(f"shrunken counterexample saved to {args.save} "
              f"(digest {failure.digest})", file=sys.stderr)
    else:
        print(json.dumps(failure.to_dict(), indent=2, sort_keys=True),
              file=sys.stderr)
    print(canonical_json({
        "result": "violation",
        "digest": failure.digest,
        "actions": len(failure.actions),
    }).decode().rstrip("\n"))
    return EXIT_VIOLATION
