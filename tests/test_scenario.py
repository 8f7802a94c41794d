"""The scenario plane: traces, recorders, importers, catalog, envelopes.

The headline invariants under test:

* **FleetTrace** files are versioned, digest-keyed and self-verifying —
  tampering is detected at load time, malformed lines name their line
  number, and the digest is a pure function of the workload content
  (provenance excluded).
* **Round-trip determinism** — record -> replay -> record is
  byte-identical, per stack, and the gated report digest matches
  between serial and pooled execution.
* **Importers** normalize MSR/Alibaba rows to nanoseconds with
  deterministic downsampling; the sample corpora replay end to end on
  both LUNA and SOLAR.
* **Catalog** scenarios (all six) pass their SLO gates.
* **Envelope** v2 unifies chaos and workload scenarios; legacy v1 chaos
  files still load and replay byte-identically.
"""

import dataclasses
import gzip
import io
import json
from pathlib import Path

import pytest

from repro.chaos.harness import replay_scenario
from repro.chaos.scenario import ChaosScenario
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.lab.spec import canonical_json
from repro.lab.store import ResultStore
from repro.scenario import (
    CATALOG,
    ENVELOPE_VERSION,
    FleetTrace,
    FleetTraceRecorder,
    ImportOptions,
    Scenario,
    SloGate,
    StreamMeta,
    TraceFormatError,
    catalog_names,
    from_records,
    get_scenario,
    import_trace,
    load_envelope,
    record_scenario,
    run_scenario,
    trace_scenario,
)
from repro.scenario.envelope import envelope_kind
from repro.sim import US
from repro.workloads.replay import IoRecord

DATA_DIR = Path(__file__).parent / "data"
CHAOS_DIR = Path(__file__).parent / "scenarios"


def mini_trace(name="mini", vd_size_mb=32):
    """A small deterministic two-stream trace."""
    a = [IoRecord(i * 50 * US, "read", (i * 13 % 512) * 4096, 4096) for i in range(12)]
    b = [
        IoRecord(i * 80 * US, "write", (i * 7 % 64) * 65536, 65536) for i in range(6)
    ]
    return FleetTrace(
        name=name,
        streams={"vd0": a, "vd1": b},
        meta={s: StreamMeta(vd_size_mb=vd_size_mb) for s in ("vd0", "vd1")},
    )


def source_trace():
    """A single-stream trace whose offsets/sizes replay unclamped on a
    32MB VD — the precondition for byte-identical round trips."""
    records = []
    for i in range(40):
        size = 4096 if i % 5 else 128 * 1024
        records.append(
            IoRecord(i * 120 * US, "read" if i % 3 else "write",
                     (i * 37 % 4096) * 4096, size)
        )
    return from_records("rt-source", records, vd_size_mb=32)


# ----------------------------------------------------------------------
# FleetTrace: format, digest, transforms
# ----------------------------------------------------------------------
class TestFleetTrace:
    def test_roundtrip_plain_and_gzip(self, tmp_path):
        trace = mini_trace()
        for filename in ("t.trace", "t.trace.gz"):
            path = tmp_path / filename
            written = trace.dump(path)
            assert written == trace.records_total
            again = FleetTrace.load(path)
            assert again.digest == trace.digest
            assert again.streams == trace.streams
            assert again.meta == trace.meta
            assert again.epoch_ns == trace.epoch_ns

    def test_gz_path_is_actually_gzipped(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        mini_trace().dump(path)
        with gzip.open(path, "rt", encoding="ascii") as fp:
            header = json.loads(fp.readline())
        assert header["fleet_trace"] == 1

    def test_tamper_detection(self, tmp_path):
        path = tmp_path / "t.trace"
        mini_trace().dump(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["z"] += 4096  # grow one I/O without re-deriving the digest
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="digest mismatch"):
            FleetTrace.load(path)
        # verify=False is the hand-edit escape hatch: digest re-derived.
        edited = FleetTrace.load(path, verify=False)
        assert edited.digest != mini_trace().digest

    def test_malformed_lines_name_line_numbers(self, tmp_path):
        path = tmp_path / "t.trace"
        mini_trace().dump(path)
        lines = path.read_text().splitlines()

        def write(mutated):
            path.write_text("\n".join(mutated) + "\n")

        write([lines[0], lines[1], "{not json"])
        with pytest.raises(TraceFormatError, match="line 3"):
            FleetTrace.load(path)
        write([lines[0], lines[1], "[1, 2]"])
        with pytest.raises(TraceFormatError, match="line 3.*got list") as caught:
            FleetTrace.load(path)
        assert caught.value.line_no == 3
        write([lines[0], '{"s": "vd0", "t": 0, "k": "read", "o": 0}'])
        with pytest.raises(TraceFormatError, match="line 2.*missing key"):
            FleetTrace.load(path)
        write([lines[0], '{"s": "ghost", "t": 0, "k": "read", "o": 0, "z": 4096}'])
        with pytest.raises(TraceFormatError, match="line 2.*ghost"):
            FleetTrace.load(path)
        write([lines[0], lines[1],
               '{"s": "vd0", "t": 0, "k": "read", "o": 0, "z": 4096, "x": 1}'])
        with pytest.raises(TraceFormatError, match="line 3.*unknown record keys"):
            FleetTrace.load(path)

    def test_header_errors(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty trace"):
            FleetTrace.load(path)
        path.write_text('{"fleet_trace": 99}\n')
        with pytest.raises(TraceFormatError, match="version 99"):
            FleetTrace.load(path)
        header = json.dumps(mini_trace().header(), sort_keys=True)
        path.write_text(header + "\n")  # header but zero records
        with pytest.raises(TraceFormatError, match="no records"):
            FleetTrace.load(path)

    def test_canonical_order_makes_digest_order_invariant(self):
        records = [
            IoRecord(2 * US, "read", 8192, 4096),
            IoRecord(0, "write", 0, 4096),
            IoRecord(2 * US, "read", 4096, 4096),
        ]
        forward = from_records("t", list(records))
        backward = from_records("t", list(reversed(records)))
        assert forward.digest == backward.digest
        assert forward.streams == backward.streams

    def test_digest_excludes_provenance_but_not_vd_size(self):
        rows = [IoRecord(0, "read", 0, 4096)]
        a = FleetTrace("a", {"vd0": list(rows)},
                       {"vd0": StreamMeta(vd_size_mb=64, source="run-1")})
        b = FleetTrace("b", {"vd0": list(rows)},
                       {"vd0": StreamMeta(vd_size_mb=64, source="run-2")})
        c = FleetTrace("c", {"vd0": list(rows)},
                       {"vd0": StreamMeta(vd_size_mb=128, source="run-1")})
        assert a.digest == b.digest  # provenance is not workload content
        assert a.digest != c.digest  # the replayed VD shape is

    def test_merged_rows_global_order(self):
        rows = mini_trace().merged_rows()
        assert list(rows) == sorted(rows)
        assert len(rows) == mini_trace().records_total

    def test_subset_is_deterministic_prefix(self):
        trace = mini_trace()
        sub = trace.subset(5)
        assert sub.records_total == 5
        assert sub.digest == trace.subset(5).digest
        merged = trace.merged_rows()
        assert sub.merged_rows() == merged[:5]
        assert trace.subset(10_000).digest == trace.digest
        with pytest.raises(ValueError, match="max_records"):
            trace.subset(0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one stream"):
            FleetTrace("t", streams={})
        with pytest.raises(ValueError, match="no records"):
            FleetTrace("t", streams={"vd0": []})
        with pytest.raises(ValueError, match="unknown streams"):
            FleetTrace("t", streams={"vd0": [IoRecord(0, "read", 0, 4096)]},
                       meta={"ghost": StreamMeta()})
        with pytest.raises(ValueError, match="vd_size_mb"):
            StreamMeta(vd_size_mb=0)


# ----------------------------------------------------------------------
# FleetTraceRecorder: multi-stream capture against one epoch
# ----------------------------------------------------------------------
class TestFleetTraceRecorder:
    def _deploy(self):
        dep = EbsDeployment(DeploymentSpec(stack="solar", seed=0))
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0],
                         16 * 1024 * 1024)
        return dep, vd

    def test_capture_and_epoch_skip(self):
        dep, vd = self._deploy()
        recorder = FleetTraceRecorder("cap", epoch_ns=100 * US)
        recorder.watch_vd(vd)
        recorder.watch_collector(dep.collector)
        dep.sim.schedule(0, vd.read, 0, 4096, lambda io: None)
        dep.sim.schedule(200 * US, vd.read, 4096, 4096, lambda io: None)
        dep.run()
        assert recorder.skipped_before_epoch == 1
        assert recorder.captured == 1
        assert recorder.collector_seen == 2  # collector saw both completions
        trace = recorder.trace()
        assert trace.epoch_ns == 100 * US
        assert trace.streams["vd0"] == [IoRecord(100 * US, "read", 4096, 4096)]
        assert trace.meta["vd0"].vd_size_mb == 16

    def test_duplicate_stream_rejected(self):
        _dep, vd = self._deploy()
        recorder = FleetTraceRecorder("cap")
        recorder.watch_vd(vd, stream="s")
        with pytest.raises(ValueError, match="already being recorded"):
            recorder.watch_vd(vd, stream="s")

    def test_empty_capture_refused(self):
        with pytest.raises(ValueError, match="captured no I/O"):
            FleetTraceRecorder("idle").trace()
        with pytest.raises(ValueError, match="negative"):
            FleetTraceRecorder("cap", epoch_ns=-5)


# ----------------------------------------------------------------------
# Round-trip determinism: the tentpole invariant
# ----------------------------------------------------------------------
def roundtrip(stack):
    """record -> replay -> record; returns (source, first, second)."""
    src = source_trace()
    first, _ = record_scenario(
        trace_scenario("rt", "round trip", src, stack=stack, vd_size_mb=32),
        name="cap",
    )
    second, _ = record_scenario(
        trace_scenario("rt", "round trip", first, stack=stack, vd_size_mb=32),
        name="cap",
    )
    return src, first, second


class TestRoundTrip:
    @pytest.mark.parametrize("stack", ["luna", "solar"])
    def test_record_replay_record_byte_identical(self, stack):
        src, first, second = roundtrip(stack)
        # The capture reproduces the source workload exactly...
        assert first.merged_rows() == src.merged_rows()
        # ...and the round trip is byte-identical, digest included.
        assert first.digest == second.digest
        a, b = io.StringIO(), io.StringIO()
        first.dump(a)
        second.dump(b)
        assert a.getvalue() == b.getvalue()

    def test_report_digest_serial_vs_pooled(self, tmp_path):
        scenario = trace_scenario(
            "rt-jobs", "pool invariance", source_trace(),
            vd_size_mb=32, seeds=(0, 1, 2),
        )
        serial = run_scenario(
            scenario, jobs=1, store=ResultStore(str(tmp_path / "serial"))
        )
        pooled = run_scenario(
            scenario, jobs=4, store=ResultStore(str(tmp_path / "pooled"))
        )
        assert serial["report_digest"] == pooled["report_digest"]
        assert canonical_json(serial) == canonical_json(pooled)

    def test_cached_rerun_reports_identically(self, tmp_path):
        scenario = get_scenario("incast-burst")
        store = ResultStore(str(tmp_path))
        first = run_scenario(scenario, store=store)
        second = run_scenario(scenario, store=store)  # all cache hits
        assert canonical_json(first) == canonical_json(second)

    def test_drill_scenarios_cannot_be_recorded(self):
        with pytest.raises(ValueError, match="cannot be observed"):
            record_scenario(get_scenario("rebuild-storm"))


# ----------------------------------------------------------------------
# SLO gates
# ----------------------------------------------------------------------
class TestSloGate:
    ARTIFACT = {
        "issued": 100, "completed": 100, "failed": 0, "hangs": 0,
        "latency_ns": [100_000] * 98 + [900_000, 2_000_000],
    }

    def test_metrics_units(self):
        m = SloGate().metrics(self.ARTIFACT)
        assert m["p50_us"] == 100.0
        # p99 interpolates between the 900us and 2000us tail samples.
        assert m["p99_us"] == 911.0
        assert m["completed_fraction"] == 1.0

    def test_latency_bound_violation(self):
        failures = SloGate(max_p99_us=500.0).evaluate(self.ARTIFACT)
        assert len(failures) == 1 and "exceeds SLO 500.0us" in failures[0]
        assert SloGate(max_p99_us=1000.0).evaluate(self.ARTIFACT) == []

    def test_missing_latency_fails_loudly(self):
        artifact = {"issued": 10, "completed": 10}
        failures = SloGate(max_p50_us=100.0).evaluate(artifact)
        assert failures == ["p50_us unmeasurable: artifact has no latency samples"]
        # ...but a gate with no latency bounds does not care.
        assert SloGate().evaluate(artifact) == []

    def test_counting_bounds(self):
        artifact = dict(self.ARTIFACT, completed=90, failed=6, hangs=2)
        failures = SloGate(min_completed_fraction=0.95).evaluate(artifact)
        assert any("below 95.00%" in f for f in failures)
        assert any("hung" in f for f in failures)
        assert any("failed" in f for f in failures)
        assert SloGate(min_completed_fraction=0.5, max_hangs=2,
                       max_failed=6).evaluate(artifact) == []

    def test_rebuild_gate(self):
        gate = SloGate(min_completed_fraction=0.0, require_rebuild_complete=True)
        assert gate.evaluate({"issued": 1, "completed": 1}) == [
            "rebuild section missing from artifact"
        ]
        incomplete = {"issued": 1, "completed": 1,
                      "rebuild": {"complete": False, "ledger": {"started": 3}}}
        assert "rebuild incomplete" in gate.evaluate(incomplete)[0]
        done = {"issued": 1, "completed": 1, "rebuild": {"complete": True}}
        assert gate.evaluate(done) == []

    def test_validation_and_roundtrip(self):
        with pytest.raises(ValueError, match="positive"):
            SloGate(max_p99_us=0)
        with pytest.raises(ValueError, match="out of"):
            SloGate(min_completed_fraction=1.5)
        with pytest.raises(ValueError, match="negative"):
            SloGate(max_hangs=-1)
        gate = SloGate(max_p99_us=123.0, max_hangs=2)
        assert SloGate.from_dict(gate.to_dict()) == gate


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_catalog_has_six_stable_scenarios(self):
        assert len(CATALOG) >= 6
        for name in catalog_names():
            first, again = get_scenario(name), get_scenario(name)
            assert first.name == name
            assert len(first.digest) == 16
            assert first.digest == again.digest  # pure function of the seed

    def test_unknown_scenario_lists_the_catalog(self):
        with pytest.raises(KeyError, match="incast-burst"):
            get_scenario("nope")

    def test_digest_covers_verdict_inputs_only(self):
        scenario = get_scenario("incast-burst")
        renamed = dataclasses.replace(
            scenario, description="different words", tags=("other",)
        )
        assert renamed.digest == scenario.digest
        regated = dataclasses.replace(
            scenario, slo=dataclasses.replace(scenario.slo, max_hangs=5)
        )
        assert regated.digest != scenario.digest

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_catalog_scenario_passes_its_gates(self, name, tmp_path):
        report = run_scenario(get_scenario(name),
                              store=ResultStore(str(tmp_path)))
        assert report["pass"], report["points"]
        assert report["scenario_digest"] == get_scenario(name).digest
        assert len(report["report_digest"]) == 16


# ----------------------------------------------------------------------
# Importers
# ----------------------------------------------------------------------
class TestImporters:
    def test_msr_units_and_rebase(self):
        lines = [  # Windows filetime ticks: 100ns each
            "1000000,hm,0,Read,8192,1000,50",
            "1000010,hm,0,Write,0,4096,50",
        ]
        trace = import_trace(lines, "msr")
        records = trace.streams["vd0"]
        assert [r.at_ns for r in records] == [0, 1000]  # 10 ticks = 1us
        assert [r.kind for r in records] == ["read", "write"]
        assert records[0].size_bytes == 4096  # 1000B up-aligned to a block

    def test_alibaba_units_and_opcode_map(self):
        lines = [  # microsecond timestamps
            "419,R,4096,4096,7000",
            "419,W,8192,8192,7003",
        ]
        trace = import_trace(lines, "alibaba")
        records = trace.streams["vd0"]
        assert [r.at_ns for r in records] == [0, 3000]
        assert [r.kind for r in records] == ["read", "write"]

    def test_header_row_skipped(self):
        lines = ["Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
                 "5,hm,0,Read,0,4096,1"]
        assert import_trace(lines, "msr").records_total == 1

    def test_malformed_rows_name_line_numbers(self):
        with pytest.raises(TraceFormatError, match="line 2.*7 comma"):
            import_trace(["5,hm,0,Read,0,4096,1", "too,short"], "msr")
        with pytest.raises(TraceFormatError, match="line 1.*Read|Write"):
            import_trace(["5,hm,0,Zap,0,4096,1"], "msr")
        with pytest.raises(TraceFormatError, match="line 1.*non-numeric"):
            import_trace(["x,hm,0,Read,0,4096,1"], "msr")
        with pytest.raises(TraceFormatError, match="line 2.*opcode"):
            import_trace(["419,R,0,4096,1", "419,X,0,4096,2"], "alibaba")
        with pytest.raises(TraceFormatError, match="no importable"):
            import_trace([], "msr")
        with pytest.raises(ValueError, match="format"):
            import_trace(["x"], "ext4")

    def test_devices_map_to_vds_first_seen_round_robin(self):
        lines = [f"{i},dev{i % 3},0,Read,0,4096,1" for i in range(9)]
        trace = import_trace(lines, "msr",
                             options=ImportOptions(max_vds=2))
        assert sorted(trace.streams) == ["vd0", "vd1"]
        # dev0 and dev2 share vd0 (round robin past the cap), dev1 -> vd1.
        assert trace.meta["vd0"].source == "msr:dev0.0+dev2.0"
        assert trace.meta["vd1"].source == "msr:dev1.0"

    def test_downsampling_is_deterministic(self):
        lines = [f"{i * 10},hm,0,Read,{i * 4096},4096,1" for i in range(200)]
        options = ImportOptions(keep_one_in=4)
        once = import_trace(lines, "msr", options=options)
        twice = import_trace(lines, "msr", options=options)
        assert once.digest == twice.digest
        assert 0 < once.records_total < 200

    def test_max_records_cap(self):
        lines = [f"{i * 10},hm,0,Read,0,4096,1" for i in range(50)]
        trace = import_trace(lines, "msr",
                             options=ImportOptions(max_records=7))
        assert trace.records_total == 7

    def test_offsets_wrap_into_the_target_vd(self):
        huge_offset = 50 * 1024 * 1024 * 1024
        trace = import_trace(
            [f"5,hm,0,Read,{huge_offset},4096,1"], "msr",
            options=ImportOptions(vd_size_mb=16),
        )
        record = trace.streams["vd0"][0]
        assert record.offset_bytes + record.size_bytes <= 16 * 1024 * 1024
        assert record.offset_bytes % 4096 == 0

    def test_options_validation(self):
        for bad in (dict(vd_size_mb=0), dict(max_vds=0),
                    dict(keep_one_in=0), dict(max_records=0)):
            with pytest.raises(ValueError):
                ImportOptions(**bad)

    @pytest.mark.parametrize("fmt,filename", [
        ("msr", "msr_sample.csv"), ("alibaba", "alibaba_sample.csv"),
    ])
    @pytest.mark.parametrize("stack", ["luna", "solar"])
    def test_sample_corpus_imports_and_replays(self, fmt, filename, stack,
                                               tmp_path):
        trace = import_trace(DATA_DIR / filename, fmt)
        assert trace.records_total == 40
        assert len(trace.streams) > 1  # multi-device -> multi-VD
        report = run_scenario(
            trace_scenario(
                f"{fmt}-{stack}", "sample replay", trace, stack=stack,
                vd_size_mb=256, slo=SloGate(min_completed_fraction=1.0),
            ),
            store=ResultStore(str(tmp_path)),
        )
        assert report["pass"], report["points"]


# ----------------------------------------------------------------------
# The unified scenario envelope (chaos + workload)
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_workload_envelope_roundtrip(self, tmp_path):
        scenario = trace_scenario("env-rt", "envelope round trip",
                                  mini_trace(), slo=SloGate(max_hangs=1))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
        again = load_envelope(path)
        assert isinstance(again, Scenario)
        assert again.digest == scenario.digest
        assert again.slo == scenario.slo
        assert again.spec == scenario.spec

    def test_committed_chaos_files_are_v2_envelopes(self):
        files = sorted(CHAOS_DIR.glob("*.json"))
        assert len(files) == 6
        for path in files:
            payload = json.loads(path.read_text())
            assert payload["version"] == ENVELOPE_VERSION
            assert payload["kind"] == "chaos"
            scenario = load_envelope(path)
            assert isinstance(scenario, ChaosScenario)

    def test_v1_chaos_payload_loads_and_replays_identically(self):
        path = min(CHAOS_DIR.glob("*.json"))
        v2_payload = json.loads(path.read_text())
        v1_payload = {k: v for k, v in v2_payload.items() if k != "kind"}
        v1_payload["version"] = 1
        old = ChaosScenario.from_dict(v1_payload)
        new = ChaosScenario.from_dict(v2_payload)
        assert old.digest == new.digest
        old_report = json.dumps(replay_scenario(old), sort_keys=True)
        new_report = json.dumps(replay_scenario(new), sort_keys=True)
        assert old_report == new_report  # legacy files replay byte-identically

    def test_envelope_kind_dispatch_errors(self):
        assert envelope_kind({"version": 1}) == "chaos"
        assert envelope_kind({"version": 2, "kind": "workload"}) == "workload"
        with pytest.raises(ValueError, match="kind"):
            envelope_kind({"version": 2, "kind": "mystery"})
        with pytest.raises(ValueError, match="version"):
            envelope_kind({"version": 99})
        with pytest.raises(ValueError, match="not a workload"):
            Scenario.from_dict({"version": 2, "kind": "chaos"})
        with pytest.raises(ValueError, match="not a chaos"):
            ChaosScenario.from_dict({"version": 2, "kind": "workload"})

    def test_workload_digest_tamper_detected(self):
        payload = trace_scenario("t", "d", mini_trace()).to_dict()
        payload["digest"] = "0" * 16
        with pytest.raises(ValueError, match="digest mismatch"):
            Scenario.from_dict(payload)
