"""The ``python -m repro monitor`` subcommand.

Runs a fio fleet workload on one deployment with the full telemetry
plane attached — streaming sketches, online slow-I/O diagnosis, alert
rules feeding the control plane's HealthMonitor — and renders a periodic
fleet dashboard while the simulation runs.  Typical usage::

    python -m repro monitor --stack solar --duration-ms 200
    python -m repro monitor --stack luna --fault blackhole:spine:1.0@30 \\
        --hang-ms 50 --interval-ms 20
    python -m repro monitor --json --jsonl /tmp/flight.jsonl

Each scrape interval prints one dashboard line (IOPS, window p50/p99,
hang count, active alerts); the run ends with a per-VD table, the
diagnosis engine's component/hang-location tallies, the incident log and
— with ``--json`` — a machine-readable summary.  Exit code is 0 on a
completed run regardless of alerts (monitoring observes, it does not
gate); bad arguments exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..ebs import DeploymentSpec, STACKS
from ..lab.cli import format_table, parse_fault
from ..lab.rig import Rig
from ..lab.spec import ExperimentSpec, TelemetrySpec, WorkloadSpec
from ..sim import MS
from .plane import DEFAULT_SLO_NS, TelemetryPlane
from .recorder import FlightRecorder
from .registry import Snapshot

#: Simulated slack past the fio deadline so in-flight I/Os and armed
#: hang checks resolve inside the run (the rig's drain, shortened).
DRAIN_NS = 20 * MS


def add_monitor_parser(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "monitor",
        help="run a workload under the live telemetry plane",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--stack", choices=STACKS, default="solar")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration-ms", type=float, default=200.0,
                   help="fio issue window in simulated ms (default: 200)")
    p.add_argument("--interval-ms", type=float, default=20.0,
                   help="telemetry scrape cadence in simulated ms (default: 20)")
    p.add_argument("--vds", type=int, default=2,
                   help="virtual disks, round-robin across compute hosts")
    p.add_argument("--vd-size-mb", type=int, default=64)
    p.add_argument("--iodepth", type=int, default=8)
    p.add_argument("--block-sizes-kb", default="4,16",
                   help="comma list of block sizes in KB (default: 4,16)")
    p.add_argument("--read-fraction", type=float, default=0.3)
    p.add_argument("--fault", action="append", default=[], metavar="SPEC",
                   help="kind:target:param@start_ms[-end_ms]; repeatable "
                        "(e.g. blackhole:spine:1.0@30)")
    p.add_argument("--slo-us", type=float, default=DEFAULT_SLO_NS / 1_000,
                   help="per-I/O latency SLO in us for slow-I/O diagnosis "
                        f"and the p99 alert (default: {DEFAULT_SLO_NS / 1_000:g})")
    p.add_argument("--hang-ms", type=float, default=50.0,
                   help="I/O hang threshold in simulated ms (default: 50; "
                        "Table 2 uses 1000, shortened here so short "
                        "monitoring drills still observe hangs)")
    p.add_argument("--accuracy", type=float, default=0.01,
                   help="sketch relative accuracy (default: 0.01)")
    p.add_argument("--jsonl", metavar="PATH",
                   help="write a JSONL flight record of scrapes/alerts/hangs")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the machine-readable summary as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the periodic dashboard lines")
    return p


def _dashboard_line(plane: TelemetryPlane, snapshot: Snapshot) -> str:
    row = plane.fleet_row(snapshot)
    p50 = "-" if row["p50_us"] is None else f"{row['p50_us']:.1f}us"
    p99 = "-" if row["p99_us"] is None else f"{row['p99_us']:.1f}us"
    alerts = ",".join(row["active_alerts"]) or "-"
    return (
        f"[{row['t_ns'] / MS:7.1f}ms] iops={row['iops']:>9.0f} "
        f"p50={p50:>9s} p99={p99:>9s} hangs={row['hangs']:<4d} "
        f"errors={row['errors']:<3d} alerts={alerts}"
    )


def cmd_monitor(args: argparse.Namespace) -> int:
    try:
        faults = tuple(parse_fault(text) for text in args.fault)
        block_sizes = tuple(
            int(float(kb) * 1024) for kb in args.block_sizes_kb.split(",")
        )
        if args.vds < 1:
            raise ValueError(f"need at least one VD, got {args.vds}")
        if args.duration_ms <= 0 or args.interval_ms <= 0:
            raise ValueError("duration and interval must be positive")
        duration_ns = int(args.duration_ms * MS)
        interval_ns = int(args.interval_ms * MS)
        hang_ns = int(args.hang_ms * MS)
        slo_ns = int(args.slo_us * 1_000)
        spec = ExperimentSpec(
            deployment=DeploymentSpec(stack=args.stack, compute_racks=1, compute_hosts_per_rack=2,
                                      storage_racks=2, storage_hosts_per_rack=4),
            workload=WorkloadSpec(block_sizes=block_sizes, iodepth=args.iodepth,
                                  read_fraction=args.read_fraction, runtime_ns=duration_ns),
            faults=faults, vd_size_mb=args.vd_size_mb, hang_threshold_ns=hang_ns,
            telemetry=TelemetrySpec(interval_ns, slo_ns, args.accuracy),
        )
    except ValueError as exc:
        print(f"monitor: {exc}", file=sys.stderr)
        return 2

    recorder: Optional[FlightRecorder] = (
        FlightRecorder(path=args.jsonl) if args.jsonl else None
    )
    rig = Rig(spec, args.seed, drain_ns=DRAIN_NS, recorder=recorder)
    plane, health = rig.plane, rig.health
    hosts = rig.deployment.compute_host_names()
    vds = [rig.add_vd(f"vd{i}", hosts[i % len(hosts)]) for i in range(args.vds)]
    jobs = [rig.fio_job(vd, f"monitor{i}") for i, vd in enumerate(vds)]

    if not (args.quiet or args.as_json):
        print(f"{args.stack}: {len(vds)} VDs, scrape every "
              f"{interval_ns / MS:g}ms, SLO {slo_ns / 1000:g}us, "
              f"hang threshold {hang_ns / MS:g}ms, "
              f"{len(faults)} scheduled fault(s)")
        plane.scraper.subscribe(
            lambda snapshot: print(_dashboard_line(plane, snapshot), flush=True)
        )
    for job in jobs:
        job.start()
    rig.start()
    rig.run()
    if recorder is not None:
        recorder.close()

    summary = {
        "schema": 1,
        "stack": args.stack,
        "seed": args.seed,
        "duration_ns": duration_ns,
        "sim_ns": rig.sim.now,
        "vds": len(vds),
        "issued": sum(job.issues for job in jobs),
        "watched": rig.hangs.watched,
        "faults": len(faults),
        "incidents": len(health.incidents),
        "telemetry": plane.summary(),
    }
    summary["alerts"] = summary["telemetry"]["alerts"]

    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    telemetry = summary["telemetry"]
    lat = telemetry["latency_ns"]
    print()
    rows = []
    for vd in vds:
        hist = plane.registry.histogram("vd.latency", vd=vd.vd_id).sketch
        done = plane.registry.counter("vd.completed", vd=vd.vd_id).value
        rows.append([
            vd.vd_id, vd.host_name, str(vd.reads), str(vd.writes), str(done),
            "-" if not hist.count else f"{hist.percentile(50) / 1000:.1f}",
            "-" if not hist.count else f"{hist.percentile(99) / 1000:.1f}",
            str(telemetry["slow_io"]["hangs_by_node"].get(vd.vd_id, 0)),
        ])
    print(format_table(
        ["vd", "host", "reads", "writes", "done", "p50 us", "p99 us", "hangs"],
        rows,
    ))
    print()
    print(f"fleet: {telemetry['completed']} I/Os"
          + ("" if lat["count"] == 0 else
             f", p50 {lat['p50'] / 1000:.1f}us, p99 {lat['p99'] / 1000:.1f}us")
          + f", {telemetry['hangs']} hung, {telemetry['errors']} failed, "
            f"{telemetry['scrapes']} scrapes, "
            f"{telemetry['sketch_buckets']} sketch buckets")
    slow = telemetry["slow_io"]
    print(f"diagnosis: {slow['violations']} SLO violations "
          f"{slow['slow_by_component']}, hang locations "
          f"{slow['hangs_by_component']} across {slow['affected_nodes']} VDs")
    for alert in telemetry["alerts"]:
        state = ("open" if alert["resolved_ns"] is None
                 else f"resolved@{alert['resolved_ns'] / MS:g}ms")
        print(f"alert: {alert['rule']} ({alert['metric']}={alert['value']:g}) "
              f"fired@{alert['fired_ns'] / MS:g}ms {state}")
    if not telemetry["alerts"]:
        print("alert: none fired")
    print(f"incidents: {len(health.incidents)} declared via HealthMonitor")
    if recorder is not None:
        print(f"flight record: {recorder.path} ({recorder.records} events)")
    return 0
