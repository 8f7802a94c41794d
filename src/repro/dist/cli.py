"""CLI surface of the fleet plane: ``python -m repro dist``.

Runs one fleet simulation, its deployments spread over worker processes,
and prints a human summary or (``--json``) the full result document.
The artifact digest is a pure function of the fleet spec — ``--check``
exploits that by running the same fleet in-process *and* in spawned
workers and comparing digests (exit 3 on mismatch, so CI can gate on
it).

Exit statuses: 0 ok, 2 usage errors (argparse or invalid spec values),
3 determinism mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..sim import MS
from .coordinator import run_fleet
from .fleet import FleetSpec, reference_fleet

EXIT_MISMATCH = 3


def add_dist_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "dist",
        help="fleet simulation (exits 3 if worker counts disagree)",
        description=(
            "Simulate a fleet of EBS deployments, each an independent "
            "point in its own simulator; cross-deployment effects "
            "(rebuild spillover, migrations, fabric incidents) are "
            "scheduled from the fleet spec.  Artifacts are byte-identical "
            "for every --shards."
        ),
    )
    parser.add_argument("--shards", type=int, default=1,
                        help="worker processes the deployments run on "
                             "(default 1 = in-process)")
    parser.add_argument("--deployments", type=int, default=4,
                        help="fleet size for the reference fleet (default 4)")
    parser.add_argument("--runtime-ms", type=int, default=20,
                        help="per-deployment fio runtime in ms (default 20)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--spec", type=argparse.FileType("r"), default=None,
                        metavar="FILE",
                        help="load a FleetSpec JSON instead of the "
                             "reference fleet (- for stdin)")
    parser.add_argument("--check", action="store_true",
                        help="also run in-process and compare digests "
                             "(exit 3 on mismatch)")
    parser.add_argument("--json", action="store_true",
                        help="print the full result document as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-deployment table")


def _build_spec(args) -> FleetSpec:
    if args.spec is not None:
        with args.spec as handle:
            return FleetSpec.from_json(handle.read())
    return reference_fleet(
        deployments=args.deployments,
        runtime_ns=args.runtime_ms * MS,
        seed=args.seed,
    )


def cmd_dist(args) -> int:
    try:
        spec = _build_spec(args)
        result = run_fleet(spec, shards=args.shards)
    except ValueError as exc:
        print(f"dist: {exc}", file=sys.stderr)
        return 2

    if args.check and result.shards != 1:
        reference = run_fleet(spec, shards=1)
        if reference.digest != result.digest:
            print(
                f"DETERMINISM MISMATCH: in-process {reference.digest} != "
                f"{result.shards} workers {result.digest}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH

    if args.json:
        doc = result.to_dict()
        if args.check:
            doc["checked_against_unsharded"] = result.shards != 1
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    s = result.summary
    print(f"fleet {spec.name!r}: {s['deployments']} deployments, "
          f"{result.shards} worker process(es)")
    print(f"  digest        {result.digest}")
    print(f"  events        {result.events_processed} "
          f"({result.events_per_sec:,.0f}/s over {result.wall_s:.2f}s)")
    print(f"  messages      {result.messages_routed} routed, "
          f"{result.messages_dropped} dropped past horizon")
    print(f"  foreground    {s['completed']}/{s['issued']} I/Os, "
          f"{s['failed']} failed, {s['hangs']} hung")
    print(f"  cross-dep     {s['injected_completed']}/{s['injected_issued']} "
          f"injected I/Os, {s['incidents']} incidents "
          f"({s['remote_incidents']} remote)")
    if s["latency_p99_ns"] is not None:
        print(f"  latency       p50 {s['latency_p50_ns'] / 1000:.1f}us  "
              f"p99 {s['latency_p99_ns'] / 1000:.1f}us")
    if not args.quiet:
        print(f"  {'dep':>4s} {'stack':10s} {'done':>6s} {'inj':>5s} "
              f"{'msgs i/o':>9s} {'events':>9s}")
        for a in result.artifacts:
            print(f"  d{a['index']:<3d} {a['stack']:10s} "
                  f"{a['completed']:>6d} {a['injected_completed']:>5d} "
                  f"{a['messages_in']:>4d}/{a['messages_out']:<4d} "
                  f"{a['events_processed']:>9d}")
    if args.check:
        state = "verified" if result.shards != 1 else "trivial (in-process only)"
        print(f"  determinism   {state}")
    return 0
