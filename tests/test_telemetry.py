"""Tests for repro.telemetry: sketches, registry/scraper, diagnosis,
alerts, the assembled plane, lab integration and the monitor CLI."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.health import TELEMETRY_ALERT, HealthMonitor
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.faults import IoHangMonitor
from repro.lab import canonical_json, run_sweep
from repro.lab.spec import ExperimentSpec, FaultSpec, TelemetrySpec, WorkloadSpec
from repro.lab.store import ResultStore
from repro.net.failures import switch_blackhole
from repro.sim import MS, SECOND, Simulator
from repro.telemetry import (
    ABOVE,
    AlertEvaluator,
    AlertRule,
    FlightRecorder,
    MetricRegistry,
    MetricScraper,
    QuantileSketch,
    SlowIoDiagnoser,
    TelemetryPlane,
    dominant_component,
)
from repro.telemetry.diagnosis import HANG, IO_ERROR, SLO_VIOLATION
from repro.telemetry.registry import Snapshot
from repro.workloads import FioJob, FioSpec


def lognormal_samples(n, seed=7):
    rng = random.Random(seed)
    return [max(1, int(rng.lognormvariate(11.0, 0.8))) for _ in range(n)]


def exact_percentile(values, p):
    from repro.metrics import percentile

    return percentile(sorted(values), p)


class TestQuantileSketch:
    def test_accuracy_within_two_percent_of_exact(self):
        samples = lognormal_samples(10_000)
        sketch = QuantileSketch(relative_accuracy=0.01)
        sketch.extend(samples)
        for p in (50, 95, 99):
            exact = exact_percentile(samples, p)
            rel = abs(sketch.percentile(p) - exact) / exact
            assert rel <= 0.02, f"p{p} off by {rel:.2%}"

    def test_memory_stays_bounded(self):
        sketch = QuantileSketch(relative_accuracy=0.01, max_buckets=64)
        sketch.extend(lognormal_samples(50_000))
        assert len(sketch) <= 65  # buckets + zero bucket
        assert sketch.count == 50_000

    def test_collapse_folds_lowest_buckets(self):
        sketch = QuantileSketch(relative_accuracy=0.01, max_buckets=8)
        # Values spanning many decades force more than 8 buckets.
        for exp in range(16):
            sketch.add(10.0**exp)
        assert len(sketch) <= 8
        assert sketch.collapsed > 0
        # Only the lowest buckets folded: the top of the distribution keeps
        # its guarantee (p99's rank falls on the 10^14 order statistic).
        assert sketch.quantile(1.0) == pytest.approx(10.0**15, rel=0.0101)
        assert sketch.percentile(99) == pytest.approx(10.0**14, rel=0.0101)

    def test_merge_matches_combined_stream(self):
        samples = lognormal_samples(4_000)
        combined = QuantileSketch()
        combined.extend(samples)
        a, b = QuantileSketch(), QuantileSketch()
        a.extend(samples[:1_000])
        b.extend(samples[1_000:])
        merged = QuantileSketch.merged([a, b])
        assert merged.count == combined.count
        assert merged.total == pytest.approx(combined.total)
        for p in (50, 95, 99):
            assert merged.percentile(p) == combined.percentile(p)

    def test_merge_rejects_accuracy_mismatch(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_serialization_round_trip(self):
        sketch = QuantileSketch()
        sketch.extend(lognormal_samples(1_000))
        sketch.add(0)  # exercise the zero bucket
        clone = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict(), sort_keys=True))
        )
        assert clone.count == sketch.count
        assert clone.quantile(0.0) == sketch.quantile(0.0)
        for p in (50, 95, 99):
            assert clone.percentile(p) == sketch.percentile(p)

    def test_zero_and_extremes(self):
        sketch = QuantileSketch()
        sketch.add(0, count=10)
        sketch.add(100)
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(1.0) == 100.0
        assert sketch.mean() == pytest.approx(100 / 11)

    def test_empty_and_invalid_inputs_rejected(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.quantile(0.5)
        with pytest.raises(ValueError):
            sketch.mean()
        with pytest.raises(ValueError):
            sketch.add(-1)
        with pytest.raises(ValueError):
            sketch.add(1, count=0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.5)

    @given(st.lists(st.integers(1, 10**9), min_size=1, max_size=300),
           st.floats(0, 1))
    @settings(max_examples=50)
    def test_quantiles_bounded_by_observed_extremes(self, values, q):
        sketch = QuantileSketch()
        sketch.extend(values)
        assert min(values) <= sketch.quantile(q) <= max(values)

    @given(st.lists(st.integers(1, 10**9), min_size=2, max_size=200))
    @settings(max_examples=30)
    def test_relative_error_guarantee(self, values):
        import math

        sketch = QuantileSketch(relative_accuracy=0.01)
        sketch.extend(values)
        ordered = sorted(values)
        for p in (50, 90, 99):
            # The sketch answers the order statistic at floor(rank) — no
            # interpolation — to within the configured relative accuracy.
            exact = ordered[math.floor(p / 100 * (len(ordered) - 1))]
            assert abs(sketch.percentile(p) - exact) <= 0.0101 * exact


class TestRegistryAndScraper:
    def test_counter_rates_and_gauge_pull(self):
        sim = Simulator(seed=1)
        registry = MetricRegistry()
        scraper = MetricScraper(sim, registry, interval_ns=1 * MS)
        done = registry.counter("fleet.completed")
        level = [3.0]
        registry.gauge("queue.depth", fn=lambda: level[0])
        done.inc(500)
        snap = scraper.scrape_once()
        assert snap.get("fleet.completed") == 500.0
        assert snap.get("fleet.completed.rate") == pytest.approx(500 / 1e-3)
        assert snap.get("queue.depth") == 3.0
        level[0] = 9.0
        done.inc(100)
        snap = scraper.scrape_once()
        assert snap.get("fleet.completed.rate") == pytest.approx(100 / 1e-3)
        assert snap.get("queue.depth") == 9.0

    def test_idle_histogram_window_yields_none_rows(self):
        sim = Simulator(seed=1)
        registry = MetricRegistry()
        scraper = MetricScraper(sim, registry, interval_ns=1 * MS)
        hist = registry.histogram("fleet.latency")
        hist.observe(120_000)
        busy = scraper.scrape_once()
        assert busy.get("fleet.latency.count") == 1.0
        assert busy.get("fleet.latency.p99") == pytest.approx(120_000, rel=0.02)
        idle = scraper.scrape_once()  # window was reset, nothing observed
        assert idle.get("fleet.latency.count") == 0.0
        assert idle.get("fleet.latency.p50") is None
        assert idle.get("fleet.latency.p99") is None
        # The cumulative sketch still holds the whole run.
        assert hist.sketch.count == 1

    def test_scrape_cadence_and_stop_bound(self):
        sim = Simulator(seed=1)
        registry = MetricRegistry()
        scraper = MetricScraper(sim, registry, interval_ns=2 * MS)
        ticks = []
        scraper.subscribe(lambda snap: ticks.append(snap.t_ns))
        scraper.start(until_ns=10 * MS)
        sim.run(until=1 * SECOND)
        assert ticks == [2 * MS, 4 * MS, 6 * MS, 8 * MS, 10 * MS]
        with pytest.raises(RuntimeError):
            scraper.start()

    def test_metric_type_conflicts_rejected(self):
        registry = MetricRegistry()
        registry.counter("fleet.completed")
        with pytest.raises(ValueError):
            registry.gauge("fleet.completed")
        registry.gauge("queue.depth", fn=lambda: 1.0)
        with pytest.raises(ValueError):
            registry.gauge("queue.depth", fn=lambda: 2.0)  # second reader

    def test_labels_distinguish_and_sort(self):
        registry = MetricRegistry()
        a = registry.counter("vd.completed", vd="vd1")
        b = registry.counter("vd.completed", vd="vd0")
        assert a is not b
        assert a.key == "vd.completed{vd=vd1}"
        assert [c.key for c in registry.counters()] == [
            "vd.completed{vd=vd0}", "vd.completed{vd=vd1}"
        ]


class TestSlowIoDiagnosis:
    def test_dominant_component_ties_and_empty(self):
        assert dominant_component({"sa": 5, "fn": 9, "bn": 2, "ssd": 1}) == "fn"
        assert dominant_component({"sa": 7, "fn": 7}) == "sa"  # COMPONENTS order
        assert dominant_component({}) == "fn"  # lost in the fabric
        assert dominant_component(dict.fromkeys(("sa", "fn", "bn", "ssd"), 0)) == "fn"

    def _trace(self, io_id, total_ns, ok=True, ssd=0, fn=0):
        from repro.metrics import IoTrace

        t = IoTrace(io_id, "write", 4096, 0)
        if ssd:
            t.add("ssd", ssd)
        if fn:
            t.add("fn", fn)
        t.complete(total_ns, ok=ok, error="" if ok else "boom")
        return t

    def test_slo_violation_blames_dominant_component(self):
        diag = SlowIoDiagnoser(slo_ns=500_000)
        assert diag.observe(self._trace(1, 100_000, ssd=60_000)) is None
        verdict = diag.observe(self._trace(2, 900_000, ssd=700_000, fn=100_000))
        assert verdict.reason == SLO_VIOLATION
        assert verdict.component == "ssd"
        assert verdict.share == pytest.approx(700 / 800)
        assert diag.violations == 1
        assert diag.slow_by_component["ssd"] == 1

    def test_error_trace_produces_error_verdict(self):
        diag = SlowIoDiagnoser(slo_ns=500_000)
        verdict = diag.observe(self._trace(3, 50_000, ok=False, fn=40_000))
        assert verdict.reason == IO_ERROR
        assert diag.errors == 1
        assert diag.violations == 0  # errors are not double-counted as slow

    def test_hang_tallies_by_component_and_node(self):
        from repro.agent.base import IoRequest

        diag = SlowIoDiagnoser(slo_ns=500_000)
        io = IoRequest(kind="write", vd_id="vd3", offset_bytes=0,
                       size_bytes=4096, on_complete=lambda io: None)
        verdict = diag.observe_hang(io)
        assert verdict.reason == HANG
        assert verdict.component == "fn"  # nothing attributed: fabric
        assert verdict.node == "vd3"
        assert diag.hangs_by_node == {"vd3": 1}
        diag.observe_hang(io, node="host-7")
        assert diag.hangs_by_node == {"vd3": 1, "host-7": 1}
        assert diag.affected_nodes() == 2
        summary = diag.summary()
        assert summary["hangs"] == 2
        assert summary["hangs_by_component"]["fn"] == 2

    def test_verdict_list_is_bounded(self):
        diag = SlowIoDiagnoser(slo_ns=1, max_verdicts=4)
        for i in range(10):
            diag.observe(self._trace(i, 1_000, ssd=500))
        assert len(diag.verdicts) == 4
        assert diag.dropped_verdicts == 6
        assert diag.violations == 10  # tallies keep counting past the cap


class TestAlerts:
    def _snap(self, index, t_ns, **rows):
        return Snapshot(index, t_ns, 1 * MS, dict(rows))

    def test_fire_and_resolve(self):
        rule = AlertRule("slo", "p99", 500_000.0, ABOVE)
        ev = AlertEvaluator([rule])
        assert ev.evaluate(self._snap(0, 1 * MS, p99=400_000.0)) == []
        fired = ev.evaluate(self._snap(1, 2 * MS, p99=900_000.0))
        assert len(fired) == 1 and fired[0].fired_ns == 2 * MS
        assert [a.rule.name for a in ev.active()] == ["slo"]
        ev.evaluate(self._snap(2, 3 * MS, p99=100_000.0))
        assert ev.active() == []
        assert ev.alerts[0].resolved_ns == 3 * MS

    def test_for_intervals_debounce(self):
        rule = AlertRule("slo", "p99", 10.0, ABOVE, for_intervals=3)
        ev = AlertEvaluator([rule])
        assert ev.evaluate(self._snap(0, 1, p99=50.0)) == []
        assert ev.evaluate(self._snap(1, 2, p99=50.0)) == []
        assert len(ev.evaluate(self._snap(2, 3, p99=50.0))) == 1
        # A clean window resets the streak entirely.
        ev2 = AlertEvaluator([rule])
        ev2.evaluate(self._snap(0, 1, p99=50.0))
        ev2.evaluate(self._snap(1, 2, p99=5.0))
        ev2.evaluate(self._snap(2, 3, p99=50.0))
        assert ev2.fired_count() == 0

    def test_missing_data_never_breaches(self):
        rule = AlertRule("slo", "p99", 10.0, ABOVE)
        ev = AlertEvaluator([rule])
        assert ev.evaluate(self._snap(0, 1, p99=None)) == []
        assert ev.evaluate(self._snap(1, 2)) == []  # row absent entirely
        assert ev.fired_count() == 0

    def test_alerts_declare_and_resolve_health_incidents(self):
        sim = Simulator(seed=1)
        health = HealthMonitor(sim)
        rule = AlertRule("hang-burst", "hangs.rate", 0.0, ABOVE)
        ev = AlertEvaluator([rule], health=health)
        ev.evaluate(self._snap(0, 5 * MS, **{"hangs.rate": 3.0}))
        assert len(health.incidents) == 1
        incident = health.incidents[0]
        assert incident.kind == TELEMETRY_ALERT
        assert incident.node == "hang-burst"
        assert incident.open
        ev.evaluate(self._snap(1, 6 * MS, **{"hangs.rate": 0.0}))
        assert incident.resolved_ns == 6 * MS

    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule("dup", "x", 1.0)
        with pytest.raises(ValueError):
            AlertEvaluator([rule, AlertRule("dup", "y", 2.0)])


class TestFlightRecorder:
    def test_writes_canonical_jsonl(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with FlightRecorder(path=str(path)) as rec:
            rec.record("scrape", 1 * MS, rows={"b": 2, "a": 1})
            rec.record("hang", 2 * MS, io_id=7)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"kind": "scrape", "t_ns": 1 * MS, "rows": {"a": 1, "b": 2}}
        assert lines[0].index('"a"') < lines[0].index('"b"')  # sorted keys
        assert rec.records == 2
        assert rec.by_kind == {"scrape": 1, "hang": 1}


def run_monitored_drill(hang_ms=20, duration_ms=40, seed=5):
    """A small luna fleet under a full spine blackhole, fully instrumented."""
    dep = EbsDeployment(DeploymentSpec(stack="luna", seed=seed,
                                       compute_racks=1, compute_hosts_per_rack=2))
    health = HealthMonitor(dep.sim)
    plane = TelemetryPlane(dep, interval_ns=5 * MS, slo_ns=500_000, health=health)
    hosts = dep.compute_host_names()
    vds = [VirtualDisk(dep, f"vd{i}", hosts[i % len(hosts)], 32 * 1024 * 1024)
           for i in range(2)]
    for vd in vds:
        plane.watch_vd(vd)
    monitor = IoHangMonitor(dep.sim, threshold_ns=hang_ms * MS,
                            on_hang=plane.on_hang)
    scenario = switch_blackhole("spine", 1.0)
    dep.sim.schedule_at(duration_ms // 2 * MS, scenario.apply, dep.topology)
    jobs = [
        FioJob(dep.sim, vd,
               FioSpec(block_sizes=(4096,), iodepth=4,
                       runtime_ns=duration_ms * MS, name=f"mon{i}"),
               on_issue=monitor.watch)
        for i, vd in enumerate(vds)
    ]
    for job in jobs:
        job.start()
    until = (duration_ms + hang_ms + 10) * MS
    plane.start(until_ns=until)
    dep.run(until_ns=until)
    return dep, plane, health, monitor


class TestTelemetryPlane:
    def test_end_to_end_fault_drill(self):
        dep, plane, health, monitor = run_monitored_drill()
        summary = plane.summary()
        assert summary["completed"] > 0
        assert summary["hangs"] == monitor.hangs > 0
        # Online diagnosis blames the frontend network for blackholed I/Os.
        assert summary["slow_io"]["hangs_by_component"]["fn"] == monitor.hangs
        # The hang burst fired an alert, which declared a health incident.
        assert any(a["rule"] == "hang-burst" for a in summary["alerts"])
        kinds = {i.kind for i in health.incidents}
        assert TELEMETRY_ALERT in kinds
        # Summary must survive canonical encoding (artifact contract).
        canonical_json(summary)

    def test_per_vd_and_agent_metrics_populated(self):
        dep, plane, _health, _monitor = run_monitored_drill()
        snap = plane.scraper.last
        assert snap.get("vd.completed{vd=vd0}") > 0
        assert snap.get("vd.inflight{vd=vd0}") is not None
        sa_rows = [k for k in snap.rows if k.startswith("sa.")]
        assert sa_rows, "agent scrape gauges missing"
        # Pull-based gauges read through to the live agent counters.
        agents_submitted = sum(
            a.ios_submitted for a in dep.agents.values()
        )
        gauge_total = sum(
            snap.rows[k] for k in sa_rows if k.startswith("sa.ios_submitted")
        )
        assert gauge_total == agents_submitted > 0

    def test_fleet_sketch_matches_collector_traces(self):
        dep, plane, _health, _monitor = run_monitored_drill()
        totals = [t.total_ns for t in dep.collector.completed()]
        summary = plane.summary()
        assert summary["completed"] == len(totals)
        for p, key in ((50, "p50"), (99, "p99")):
            exact = exact_percentile(totals, p)
            assert summary["latency_ns"][key] == pytest.approx(exact, rel=0.02)


class TestOnlineOfflineHangParity:
    def test_online_tally_matches_per_host_monitors(self):
        # Miniature Figure 8 methodology: per-host monitors count hangs
        # offline; the shared diagnoser tallies them online.  Same seed,
        # same I/Os — the tallies must agree exactly, host by host.
        dep = EbsDeployment(DeploymentSpec(stack="luna", seed=81,
                                           compute_racks=2,
                                           compute_hosts_per_rack=2))
        diagnoser = SlowIoDiagnoser(slo_ns=500_000)
        monitors, vds = {}, {}
        for i, host in enumerate(dep.compute_host_names()):
            vds[host] = VirtualDisk(dep, f"vd{i}", host, 32 * 1024 * 1024)
            monitors[host] = IoHangMonitor(
                dep.sim, threshold_ns=20 * MS,
                on_hang=lambda io, host=host: diagnoser.observe_hang(io, node=host),
            )
        dep.sim.schedule_at(5 * MS, switch_blackhole("spine", 1.0).apply,
                            dep.topology)
        counters = dict.fromkeys(vds, 0)

        def issue(host):
            if dep.sim.now > 60 * MS:
                return
            io = vds[host].write(counters[host] * 4096, 4096, lambda io: None)
            monitors[host].watch(io)
            counters[host] += 1
            dep.sim.schedule(2 * MS, issue, host)

        for host in vds:
            issue(host)
        dep.run(until_ns=120 * MS)
        offline = {h: m.hangs for h, m in monitors.items()}
        assert sum(offline.values()) > 0, "drill produced no hangs"
        online = {h: diagnoser.hangs_by_node.get(h, 0) for h in monitors}
        assert online == offline
        assert diagnoser.affected_nodes() == sum(
            1 for count in offline.values() if count
        )


class TestLabTelemetry:
    def _spec(self, **overrides):
        base = dict(
            workload=WorkloadSpec(iodepth=4, runtime_ns=10 * MS),
            seeds=(0, 1),
            name="tele",
            vd_size_mb=32,
            hang_threshold_ns=20 * MS,
            faults=(FaultSpec(kind="switch_blackhole", target="spine",
                              param=1.0, start_ns=5 * MS),),
            telemetry=TelemetrySpec(interval_ns=2 * MS),
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_spec_round_trips_and_keys_the_digest(self):
        spec = self._spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.point_digest(0) == spec.point_digest(0)
        # Telemetry parameters are simulation-affecting: they change the key.
        other = self._spec(telemetry=TelemetrySpec(interval_ns=4 * MS))
        assert other.point_digest(0) != spec.point_digest(0)
        plain = self._spec(telemetry=None)
        assert plain.point_digest(0) != spec.point_digest(0)

    def test_telemetry_spec_validation(self):
        with pytest.raises(ValueError):
            TelemetrySpec(interval_ns=0)
        with pytest.raises(ValueError):
            TelemetrySpec(slo_ns=-1)
        with pytest.raises(ValueError):
            TelemetrySpec(relative_accuracy=1.0)

    def test_upgrade_drills_reject_telemetry(self):
        from repro.lab.spec import UpgradeSpec

        with pytest.raises(ValueError):
            ExperimentSpec(upgrade=UpgradeSpec(), telemetry=TelemetrySpec())

    def test_upgrade_drills_reject_faults(self):
        from repro.lab.spec import FaultSpec, UpgradeSpec

        with pytest.raises(ValueError, match="fault schedules"):
            ExperimentSpec(
                upgrade=UpgradeSpec(), faults=(FaultSpec(kind="random_drop"),)
            )

    def test_artifact_grows_consistent_telemetry_section(self):
        from repro.lab.runner import execute_point

        spec = self._spec(seeds=(0,))
        artifact = execute_point(spec, 0)
        t = artifact["telemetry"]
        assert t["hangs"] == artifact["hangs"]
        assert t["completed"] == artifact["completed"]
        assert t["slow_io"]["hangs_by_component"]["fn"] == artifact["hangs"] > 0
        canonical_json(artifact)
        # The plain artifact shape is untouched when telemetry is off.
        plain = execute_point(self._spec(seeds=(0,), telemetry=None), 0)
        assert "telemetry" not in plain

    def test_serial_and_parallel_artifacts_byte_identical(self, tmp_path):
        spec = self._spec()
        serial = ResultStore(tmp_path / "serial")
        parallel = ResultStore(tmp_path / "parallel")
        run_sweep(spec, jobs=1, store=serial)
        run_sweep(spec, jobs=2, store=parallel)
        serial_files = sorted(p.name for p in (tmp_path / "serial").rglob("*.json"))
        parallel_files = sorted(
            p.name for p in (tmp_path / "parallel").rglob("*.json")
        )
        assert serial_files == parallel_files and serial_files
        for name in serial_files:
            a = next((tmp_path / "serial").rglob(name)).read_bytes()
            b = next((tmp_path / "parallel").rglob(name)).read_bytes()
            assert a == b, f"artifact {name} differs across process counts"


class TestMonitorCli:
    def test_json_run_surfaces_injected_fault_alert(self, capsys):
        from repro.__main__ import main

        code = main([
            "monitor", "--stack", "luna", "--duration-ms", "60",
            "--interval-ms", "10", "--hang-ms", "20", "--iodepth", "4",
            "--block-sizes-kb", "4", "--seed", "5",
            "--fault", "blackhole:spine:1.0@20", "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["telemetry"]["hangs"] > 0
        assert any(a["rule"] == "hang-burst" for a in summary["alerts"])
        assert summary["incidents"] > 0

    def test_human_output_and_flight_record(self, capsys, tmp_path):
        from repro.__main__ import main

        flight = tmp_path / "flight.jsonl"
        code = main([
            "monitor", "--stack", "solar", "--duration-ms", "30",
            "--interval-ms", "10", "--iodepth", "2", "--block-sizes-kb", "4",
            "--jsonl", str(flight),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet:" in out and "diagnosis:" in out
        kinds = {json.loads(line)["kind"] for line in flight.read_text().splitlines()}
        assert "scrape" in kinds

    def test_bad_arguments_exit_2(self, capsys):
        from repro.__main__ import main

        assert main(["monitor", "--vds", "0"]) == 2
        assert main(["monitor", "--fault", "nonsense"]) == 2
        assert main(["monitor", "--slo-us", "0"]) == 2
        assert main(["monitor", "--accuracy", "1"]) == 2
        assert main(["monitor", "--vd-size-mb", "0"]) == 2
