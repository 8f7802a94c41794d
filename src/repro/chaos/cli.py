"""CLI surface of the chaos harness: ``python -m repro chaos``.

Runs the hypothesis state machine for ``--examples`` random walks of
``--steps`` rules each, the invariant suite checked after every step.
On a violation, the shrunken minimal counterexample is saved to
``--save`` (or printed) as a replayable scenario file, and the exit
status is 3.  Replay such a file with ``python -m repro run FILE``.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..lab.spec import canonical_json
from ..rebuild.throttle import REBUILD_POLICIES

#: Exit status for "the harness found an invariant violation"
#: (distinct from argparse's 2 for usage errors).
EXIT_VIOLATION = 3


def add_chaos_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "chaos",
        help="property-based chaos harness for the control plane",
        description=(
            "Drive the control plane (faults, migrations, upgrades, "
            "foreground I/O) through random action sequences, checking "
            "the invariant suite after every step."
        ),
    )
    parser.add_argument(
        "--examples", type=int, default=10,
        help="number of random action sequences (default 10)",
    )
    parser.add_argument(
        "--steps", type=int, default=25,
        help="rules per sequence (default 25)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="harness seed baked into the chaos config (default 0)",
    )
    parser.add_argument(
        "--derandomize", action="store_true",
        help="fixed hypothesis randomness (CI smoke mode)",
    )
    parser.add_argument(
        "--save", metavar="FILE",
        help="write the shrunken failing scenario here",
    )
    parser.add_argument(
        "--rebuild-policy", default="static", choices=REBUILD_POLICIES,
        help="throttle policy of the rebuild executor that "
             "re-copies a failed node's replicas (default static)",
    )


def cmd_chaos(args: argparse.Namespace) -> int:
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
