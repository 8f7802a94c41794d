"""Tests for the command-line interface."""

import dataclasses
import json
from pathlib import Path

import pytest

import repro.run as repro_run
from repro.__main__ import main
from repro.lab.spec import ExperimentSpec, WorkloadSpec, canonical_json
from repro.run import load_spec, parse_set
from repro.workloads import IoRecord


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Luna to Solar" in out

    def test_no_command_defaults_to_info(self, capsys):
        assert main([]) == 0
        assert "stacks" in capsys.readouterr().out

    def test_latency_breakdown(self, capsys):
        assert main(["latency", "--stack", "luna", "--size-kb", "4"]) == 0
        out = capsys.readouterr().out
        for component in ("sa", "fn", "bn", "ssd"):
            assert component in out

    def test_bad_stack_rejected(self):
        with pytest.raises(SystemExit):
            main(["latency", "--stack", "quic"])

    def test_failover_solar_zero_hangs(self, capsys):
        assert main(["failover", "--stack", "solar"]) == 0
        out = capsys.readouterr().out
        assert "0 hung" in out

    def test_failover_luna_hangs_exit_nonzero(self, capsys):
        # The scriptable contract: hangs detected -> exit code 2.
        assert main(["failover", "--stack", "luna", "--until-ms", "1200"]) == 2
        out = capsys.readouterr().out
        assert "hung >= 1s" in out
        assert "0 hung" not in out

    def test_failover_until_ms_bounds_the_run(self, capsys):
        assert main(["failover", "--stack", "solar", "--until-ms", "1200"]) == 0
        short = capsys.readouterr().out
        assert main(["failover", "--stack", "solar"]) == 0
        full = capsys.readouterr().out
        watched = lambda text: int(text.split(":")[1].split()[0])  # noqa: E731
        assert watched(short) < watched(full)

    def test_failover_window_shorter_than_threshold_errors(self, capsys):
        # Regression: the old `until // 4` issue window silently watched
        # zero I/Os on short runs and reported a vacuous "0 hung".  A
        # window that cannot watch a single I/O to its hang deadline is
        # now a usage error, not a fake pass.
        assert main(["failover", "--stack", "solar", "--until-ms", "800"]) == 2
        captured = capsys.readouterr()
        assert "shorter than the 1000ms hang threshold" in captured.err
        assert "0 hung" not in captured.out

    def test_failover_watches_at_least_one_io(self, capsys):
        # The issue window is until - threshold, so any accepted window
        # watches a non-vacuous number of I/Os.
        assert main(["failover", "--stack", "solar", "--until-ms", "1100"]) == 0
        out = capsys.readouterr().out
        watched = int(out.split(":")[1].split()[0])
        assert watched >= 1


SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"
SCENARIOS = Path(__file__).resolve().parent / "scenarios"


def sweep_args(seeds="0,1", *extra):
    return [
        "run", str(SPECS / "ci-sweep.json"), "--set", f"seeds=[{seeds}]",
        "--set", "workload.block_sizes=[4096]", "--set", "name=clitest/solar",
        *extra,
    ]


class TestSweepCli:
    def test_sweep_simulates_then_serves_from_cache(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        args = sweep_args("0,1", "--store", str(tmp_path / "lab"))
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "simulated" in first
        assert "clitest/solar" in first
        assert "2 simulated, 0 cached" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 2 cached" in second
        # identical aggregate rows either way
        row = [line for line in first.splitlines() if line.startswith("clitest/solar")]
        assert row == [line for line in second.splitlines()
                       if line.startswith("clitest/solar")]

    def test_sweep_json_output(self, tmp_path, capsys):
        args = sweep_args("0", "--store", str(tmp_path / "lab"), "--json")
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # one artifact per point
        artifact = json.loads(lines[0])
        assert artifact["stack"] == "solar"
        assert artifact["completed"] > 0
        assert canonical_json(artifact).decode().rstrip("\n") == lines[0]

    def test_sweep_rejects_unknown_stack(self, capsys):
        assert main(sweep_args("0", "--set", "deployment.stack=quic",
                               "--no-store")) == 2
        err = capsys.readouterr().err
        assert "stack must be one of" in err and "quic" in err

    def test_sweep_no_store_skips_artifacts(self, capsys):
        assert main(sweep_args("0", "--no-store")) == 0
        out = capsys.readouterr().out
        assert "artifacts:" not in out


def upgrade_args(*extra):
    return [
        "run", str(SPECS / "upgrade.json"), "--set", "upgrade.servers=4",
        "--set", "upgrade.waves=2", "--set", "vd_size_mb=32", *extra,
    ]


class TestUpgradeCli:
    def test_upgrade_drill_runs_clean(self, capsys):
        assert main(upgrade_args("--set", "seeds=[42]", "--no-store")) == 0
        out = capsys.readouterr().out
        assert "rolling upgrade kernel -> luna" in out
        assert "availability" in out
        assert "0 hung" in out
        # One row per wave: baseline + 2 upgrade waves + settle.
        assert out.count("upgrade   ") >= 2
        assert "baseline" in out and "settle" in out

    def test_upgrade_served_from_cache_second_time(self, tmp_path, capsys):
        args = upgrade_args("--set", "seeds=[7]", "--store", str(tmp_path / "lab"))
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "1 written" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "1 cache hits" in second
        # The rendered wave tables are identical either way.
        tail = lambda text: text.splitlines()[1:10]  # noqa: E731
        assert tail(first) == tail(second)

    def test_upgrade_json_output(self, capsys):
        # Exit 0: no hung I/O and consistent with the analytic rollout.
        assert main(upgrade_args("--set", "seeds=[0]", "--no-store", "--json")) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["hangs"] == 0
        assert artifact["waves"][-1]["mix"]["luna"] == 1.0
        assert len(artifact["waves"]) == 4
        assert all(0.9 <= w["availability"] <= 1.0 for w in artifact["waves"])

    def test_upgrade_rejects_backward_rollout(self, capsys):
        assert main(upgrade_args("--set", "upgrade.from_stack=luna",
                                 "--no-store")) == 2
        assert "forward" in capsys.readouterr().err

    def test_inconsistent_rollout_exits_3(self, capsys, monkeypatch):
        # An upgrade that disagrees with the analytic rollout is a
        # violation, even in text mode and with no hung I/O.
        monkeypatch.setattr(repro_run, "check_rollout_consistency",
                            lambda result: ["wave 2 regressed"])
        assert main(upgrade_args("--set", "seeds=[42]", "--no-store")) == 3
        captured = capsys.readouterr()
        assert "0 hung" in captured.out
        assert "wave 2 regressed" in captured.err


class TestRunLoader:
    @pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")),
                             ids=lambda path: path.name)
    def test_example_specs_load_and_validate(self, path):
        kind, spec = load_spec(str(path), [])
        assert kind == ("fleet" if "fleet" in path.name else "lab")
        assert spec

    def test_unknown_key_exits_2(self, capsys):
        assert main(sweep_args("0", "--set", "workload.bogus=1")) == 2
        assert "unknown key 'workload.bogus'" in capsys.readouterr().err

    def test_set_on_an_envelope_exits_2(self, capsys):
        path = str(sorted(SCENARIOS.glob("*.json"))[0])
        assert main(["run", path, "--set", "name=x"]) == 2
        err = capsys.readouterr().err
        assert path in err and "chaos envelope" in err

    def test_set_on_a_catalog_name_exits_2(self, capsys):
        assert main(["run", "incast-burst", "--set", "name=x"]) == 2
        assert "catalog scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"deployment": {}, "deployments": []},
        {"version": 2, "deployment": {}},
        {"workload": {}},
        [],
        "solar",
    ], ids=["lab+fleet", "envelope+lab", "no-marker", "empty-list", "string"])
    def test_ambiguous_or_unknown_file_exits_2(self, tmp_path, capsys, payload):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        [0, "zzz", 0, 4096],
        [0, "read", -4096, 4096],
        [0, "read", 0, 0],
    ], ids=["bad-kind", "negative-offset", "zero-size"])
    def test_bad_trace_record_exits_2(self, tmp_path, capsys, row):
        # A trace row is an IoRecord from the moment the spec loads, so
        # a bad one is a usage error, not a failed run.
        spec = ExperimentSpec(workload=WorkloadSpec(
            mode="trace", records=(IoRecord(0, "write", 0, 4096),)))
        payload = spec.to_dict()
        payload["workload"]["records"].append(row)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path), "--no-store"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_missing_file_and_unknown_name_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "no such spec file" in capsys.readouterr().err
        assert main(["run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_set_edits_the_digest_as_a_hand_built_spec(self, capsys):
        path = SPECS / "ci-sweep.json"
        by_hand = dataclasses.replace(
            ExperimentSpec.from_json(path.read_text()), vd_size_mb=32)
        assert main(["run", str(path), "--set", "vd_size_mb=32",
                     "--no-store", "--json"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["digest"] == by_hand.point_digest(0)
        unedited = ExperimentSpec.from_json(path.read_text())
        assert artifact["digest"] != unedited.point_digest(0)

    def test_set_value_falls_back_to_a_string(self):
        assert parse_set("name=sweep/x") == (["name"], "sweep/x")
        assert parse_set("seeds=[1,2]") == (["seeds"], [1, 2])
        assert parse_set("a.b=0.5") == (["a", "b"], 0.5)
        with pytest.raises(ValueError):
            parse_set("novalue")


class TestRunExecution:
    def test_fleet_json_is_independent_of_workers(self, capsys, monkeypatch):
        documents = []
        for workers in ("1", "2"):
            monkeypatch.setenv("REPRO_JOBS", workers)
            assert main(["run", str(SPECS / "ci-fleet.json"), "--json"]) == 0
            documents.append(capsys.readouterr().out)
        assert documents[0] == documents[1]
        doc = json.loads(documents[0])
        assert not {"wall_s", "events_per_sec", "shards"} & set(doc)
        assert doc["summary"]["completed"] > 0

    def test_check_verifies_a_lab_spec(self, tmp_path, capsys):
        assert main(sweep_args("0", "--store", str(tmp_path / "lab"),
                               "--check", "--quiet")) == 0
        assert "determinism   verified" in capsys.readouterr().out

    def test_check_mismatch_exits_3(self, capsys, monkeypatch):
        calls = []

        def flaky(spec, jobs):
            calls.append(jobs)
            return repro_run.Outcome(f"{len(calls)}\n", 0, lambda: None, [])

        monkeypatch.setattr(repro_run, "_run_workload", flaky)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert main(["run", "incast-burst", "--check"]) == 3
        assert "DETERMINISM MISMATCH" in capsys.readouterr().err
        assert calls == [3, 1]  # the rerun is in-process

    def test_several_specs_exit_with_the_largest_status(self, capsys, monkeypatch):
        statuses = iter([2, 0])
        monkeypatch.setattr(repro_run, "_run_chaos", lambda spec: (
            repro_run.Outcome("{}\n", next(statuses), lambda: None, [])))
        first, second = sorted(SCENARIOS.glob("*.json"))[:2]
        assert main(["run", str(first), str(second), "--json"]) == 2
        assert capsys.readouterr().out == "{}\n{}\n"
