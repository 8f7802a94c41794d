"""Command-line interface: quick experiments without writing a script.

Usage::

    python -m repro info
    python -m repro latency --stack solar --kind write --size-kb 16
    python -m repro compare --size-kb 4
    python -m repro failover --stack luna --until-ms 2000
    python -m repro run examples/specs/sweep.json examples/specs/upgrade.json
    python -m repro monitor --stack luna --fault blackhole:spine:1.0@30

``run`` runs any lab, fleet or scenario spec file, or a catalog scenario
name (see :mod:`repro.run`); ``chaos`` hunts for control-plane invariant
violations and ``scenario`` records, imports and verifies traces.
``latency``, ``compare`` and ``failover`` each run one
:class:`~repro.lab.rig.Rig` with a 512 MB VD.  ``failover`` and ``run``
exit nonzero (2) when I/O hangs are detected, so scripts can gate on
them.
"""

from __future__ import annotations

import argparse
import sys

from .chaos.cli import add_chaos_parser, cmd_chaos
from .ebs import DeploymentSpec, STACKS
from .lab.rig import Rig
from .lab.spec import ExperimentSpec, FaultSpec
from .run import add_run_parser, cmd_run
from .scenario.cli import add_scenario_parser, cmd_scenario
from .sim import MS
from .telemetry.cli import add_monitor_parser, cmd_monitor


def _spec(stack: str, seed: int, **fields) -> ExperimentSpec:
    """A quick command's point: ``stack`` at ``seed`` with a 512 MB VD."""
    return ExperimentSpec(deployment=DeploymentSpec(stack=stack), seeds=(seed,),
                          vd_size_mb=512, **fields)


def _one_io(rig: Rig, vd, kind: str, size_bytes: int):
    done = []
    getattr(vd, kind)(0, size_bytes, done.append)
    rig.deployment.run()
    return done[0].trace


def cmd_info(_args) -> int:
    from . import __version__

    print(f"repro {__version__} — 'From Luna to Solar' (SIGCOMM 2022) reproduction")
    print(f"stacks: {', '.join(STACKS)}")
    print("subcommands: info | latency | compare | failover | run | monitor "
          "| chaos | scenario")
    return 0


def cmd_latency(args) -> int:
    rig = Rig(_spec(args.stack, args.seed), args.seed)
    trace = _one_io(rig, rig.add_vd("cli-vd"), args.kind, args.size_kb * 1024)
    print(f"{args.stack} {args.kind} {args.size_kb}KB: "
          f"{trace.total_ns / 1000:.1f}us total")
    for component, ns in trace.components.items():
        print(f"  {component:4s} {ns / 1000:8.2f}us")
    return 0


def cmd_compare(args) -> int:
    print(f"{'stack':12s} {'write (us)':>11s} {'read (us)':>10s}")
    for stack in STACKS:
        rig = Rig(_spec(stack, args.seed), args.seed)
        vd = rig.add_vd("cli-vd")
        w = _one_io(rig, vd, "write", args.size_kb * 1024)
        r = _one_io(rig, vd, "read", args.size_kb * 1024)
        print(f"{stack:12s} {w.total_ns / 1000:11.1f} {r.total_ns / 1000:10.1f}")
    return 0


def cmd_failover(args) -> int:
    until_ns = int(args.until_ms * MS)
    # Half the spine blackholed from 10 ms on; the spec's default 1 s hang
    # threshold is Table 2's "unanswered >= 1s".
    spec = _spec(args.stack, args.seed, until_ns=until_ns, faults=(
        FaultSpec("switch_blackhole", "spine", 0.5, 0, start_ns=10 * MS),))
    # Stop issuing one hang threshold before the window closes, so every
    # watched I/O's hang check still fires inside the run.  The old
    # ``until_ns // 4`` heuristic silently watched zero I/Os on short
    # windows, reporting a vacuous "0 hung".
    issue_until_ns = until_ns - spec.hang_threshold_ns
    if issue_until_ns < 0:
        print(
            f"failover: --until-ms {args.until_ms:g} is shorter than the "
            f"{spec.hang_threshold_ns // MS}ms hang threshold; no I/O could be "
            "watched to completion. Use a longer window.",
            file=sys.stderr,
        )
        return 2
    rig = Rig(spec, args.seed)
    vd = rig.add_vd("cli-vd")
    count = [0]

    def issue() -> None:
        if rig.sim.now > issue_until_ns:
            return
        io = vd.write((count[0] % 1000) * 4096, 4096, lambda io: None)
        rig.hangs.watch(io)
        count[0] += 1
        rig.sim.schedule(2 * MS, issue)

    issue()
    rig.run()
    print(f"{args.stack}: {rig.hangs.watched} I/Os under a 50% spine blackhole, "
          f"{rig.hangs.hangs} hung >= 1s")
    # Scriptable contract: nonzero when the stack hung I/Os.
    return 2 if rig.hangs.hangs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="version and capabilities")

    p_lat = sub.add_parser("latency", help="one I/O's latency breakdown")
    p_lat.add_argument("--stack", choices=STACKS, default="solar")
    p_lat.add_argument("--kind", choices=("read", "write"), default="write")
    p_lat.add_argument("--size-kb", type=int, default=4)
    p_lat.add_argument("--seed", type=int, default=0)

    p_cmp = sub.add_parser("compare", help="all stacks side by side")
    p_cmp.add_argument("--size-kb", type=int, default=4)
    p_cmp.add_argument("--seed", type=int, default=0)

    p_fo = sub.add_parser("failover", help="blackhole drill on one stack "
                          "(exits 2 if I/Os hang)")
    p_fo.add_argument("--stack", choices=STACKS, default="solar")
    p_fo.add_argument("--seed", type=int, default=0)
    p_fo.add_argument("--until-ms", type=float, default=2000.0,
                      help="simulated run window in ms (default: 2000; must "
                           "exceed the 1000ms hang threshold — I/Os are "
                           "issued until one threshold before the end)")

    add_run_parser(sub)
    add_monitor_parser(sub)
    add_chaos_parser(sub)
    add_scenario_parser(sub)

    args = parser.parse_args(argv)
    handlers = {
        "info": cmd_info,
        "latency": cmd_latency,
        "compare": cmd_compare,
        "failover": cmd_failover,
        "run": cmd_run,
        "monitor": cmd_monitor,
        "chaos": cmd_chaos,
        "scenario": cmd_scenario,
        None: cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
