"""Tests for the repro.chaos property-based chaos harness.

Three layers:

* scenario format — digest-verified round trips, tamper detection;
* harness + invariant suite — the suite passes on the fixed control
  plane and *fails* when a known-fixed bug is re-introduced in memory
  (the suite must be able to catch what it claims to catch);
* regression scenarios — every file under ``tests/scenarios/`` replays
  with zero violations and a byte-identical report.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.chaos import (
    ChaosAction,
    ChaosConfig,
    ChaosHarness,
    ChaosScenario,
    InvariantViolation,
    block_payload,
    replay_scenario,
)
from repro.lab.spec import canonical_json
from repro.profiles import BLOCK_SIZE

SCENARIO_DIR = Path(__file__).parent / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))

#: The recipe that reproduced the mid-drain wedge before the drain
#: timeout existed: kill both storage nodes holding server 1's first
#: segment, strand writes in flight, then migrate.
DRAIN_FAULT_ACTIONS = [
    ("advance", {"ticks": 1}),
    ("fail_node", {"stack": "luna", "node": 1}),
    ("fail_node", {"stack": "luna", "node": 2}),
    *[("write", {"server": 1}) for _ in range(8)],
    ("migrate", {"server": 1}),
]


def run_actions(harness, actions):
    for rule, args in actions:
        harness.apply(rule, **args)


@functools.lru_cache(maxsize=None)
def replay_file(path):
    """One committed scenario and its replay report (replayed once)."""
    scenario = ChaosScenario.load(path)
    return scenario, replay_scenario(scenario)


# ----------------------------------------------------------------------
# Scenario format
# ----------------------------------------------------------------------
class TestScenarioFormat:
    def _scenario(self):
        return ChaosScenario(
            name="fmt",
            config=ChaosConfig().to_dict(),
            actions=[
                ChaosAction("advance", {"ticks": 3}),
                ChaosAction("fail_node", {"stack": "luna", "node": 1}),
            ],
            description="format round-trip",
        )

    def test_round_trip(self, tmp_path):
        scenario = self._scenario()
        path = scenario.save(tmp_path / "fmt.json")
        loaded = ChaosScenario.load(path)
        assert loaded == scenario
        assert loaded.digest == scenario.digest

    def test_digest_fills_in_when_empty(self):
        scenario = self._scenario()
        assert len(scenario.digest) == 16

    def test_tampered_actions_detected_at_load(self, tmp_path):
        path = self._scenario().save(tmp_path / "fmt.json")
        payload = json.loads(path.read_text())
        payload["actions"][0]["args"]["ticks"] = 99  # edit without re-digesting
        with pytest.raises(ValueError, match="digest mismatch"):
            ChaosScenario.from_dict(payload)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos rule"):
            ChaosAction("explode", {})

    def test_non_scalar_arg_rejected(self):
        with pytest.raises(ValueError, match="int or str"):
            ChaosAction("advance", {"ticks": True})

    def test_unsupported_version_rejected(self):
        payload = self._scenario().to_dict()
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            ChaosScenario.from_dict(payload)

    def test_config_round_trips(self):
        config = ChaosConfig(seed=9, stacks=("kernel", "solar"))
        assert ChaosConfig.from_dict(config.to_dict()) == config

    def test_io_size_other_than_a_block_rejected(self):
        # Chaos I/Os are always one block: any other size would be dropped.
        with pytest.raises(ValueError, match="io_size_bytes"):
            ChaosConfig(io_size_bytes=2 * BLOCK_SIZE)

    def test_vd_size_not_whole_mib_rejected(self):
        # VDs are provisioned in whole MiB.
        with pytest.raises(ValueError, match="vd_size_bytes"):
            ChaosConfig(vd_size_bytes=8 * 1024 * 1024 + BLOCK_SIZE)


class TestBlockPayload:
    def test_deterministic_full_block(self):
        a = block_payload("vd", 5, 17)
        assert len(a) == BLOCK_SIZE
        assert a == block_payload("vd", 5, 17)

    def test_distinct_per_identity(self):
        base = block_payload("vd", 5, 17)
        assert base != block_payload("vd", 6, 17)
        assert base != block_payload("vd", 5, 18)
        assert base != block_payload("other", 5, 17)


# ----------------------------------------------------------------------
# Harness + invariant suite on the fixed control plane
# ----------------------------------------------------------------------
class TestHarness:
    def test_invalid_actions_defer_not_crash(self):
        harness = ChaosHarness(ChaosConfig())
        harness.apply("fail_node", stack="nope", node=0)
        harness.apply("clear_node", stack="luna", node=7)  # nothing failed
        harness.apply("clear_tor", stack="luna", index=0)
        assert harness.deferred_actions == 3
        harness.verify()

    def test_node_fault_cap_enforced(self):
        harness = ChaosHarness(ChaosConfig())
        for node in range(4):
            harness.apply("fail_node", stack="luna", node=node)
        # Only max_node_faults_per_stack (2) land; the rest defer.
        assert len(harness.failed_nodes("luna")) == 2
        assert harness.deferred_actions == 2

    def test_drain_fault_aborts_within_budget(self):
        harness = ChaosHarness(ChaosConfig())
        run_actions(harness, DRAIN_FAULT_ACTIONS)
        harness.apply("advance", ticks=12)
        assert harness.cluster.migrator.aborted == 1
        assert harness.cluster.migrator.completed == 0
        harness.verify()
        harness.quiesce()
        harness.verify_final()

    def test_suite_catches_wedged_drain(self):
        # Re-introduce the pre-fix bug in memory: no drain timeout means
        # the stranded migration pauses the VD forever.  The budget
        # invariant must flag the wedge while it is LIVE.
        harness = ChaosHarness(ChaosConfig())
        harness.cluster.migrator.drain_timeout_ns = None
        run_actions(harness, DRAIN_FAULT_ACTIONS)
        harness.apply("advance", ticks=12)
        with pytest.raises(InvariantViolation, match="migration-budget"):
            harness.verify()

    def test_suite_catches_unresolved_incidents(self):
        # Pre-fix bug two: hang incidents never resolved on completion.
        harness = ChaosHarness(ChaosConfig())
        harness.monitor.note_io_completed = lambda io: None
        run_actions(harness, DRAIN_FAULT_ACTIONS[:-1])  # faults + writes
        harness.apply("advance", ticks=10)
        harness.apply("clear_node", stack="luna", node=1)
        harness.apply("clear_node", stack="luna", node=2)
        harness.quiesce()
        with pytest.raises(InvariantViolation, match="incident-resolution"):
            harness.verify_final()

    def test_suite_catches_provision_on_dead_node(self):
        # Pre-fix bug three: provision ignored the evacuation quarantine
        # and placed fresh segments on a node known to be dead.
        harness = ChaosHarness(ChaosConfig())
        table = harness.cluster.rigs["solar"].deployment.segment_table
        original = type(table).provision

        def provision_everywhere(*args, **kwargs):
            evacuated = table._evacuated
            table._evacuated = set()
            try:
                return original(table, *args, **kwargs)
            finally:
                table._evacuated = evacuated

        table.provision = provision_everywhere
        harness.apply("fail_node", stack="solar", node=0)
        harness.apply("advance", ticks=10)
        harness.apply("migrate", server=2)
        harness.apply("advance", ticks=4)
        with pytest.raises(InvariantViolation, match="replica-policy"):
            harness.verify()

    def test_bitflips_detected_and_durability_holds(self):
        harness = ChaosHarness(ChaosConfig())
        harness.apply("migrate", server=0)
        harness.apply("advance", ticks=1)
        harness.apply("set_bitflip", permille=200)
        for _ in range(20):
            harness.apply("write", server=0)
        harness.apply("advance", ticks=2)
        assert harness.injector.total_injected > 0
        harness.verify()
        harness.apply("set_bitflip", permille=0)
        harness.quiesce()
        harness.verify_final()

    def test_report_is_canonical_scalars(self):
        harness = ChaosHarness(ChaosConfig())
        harness.apply("advance", ticks=2)
        report = harness.report()
        canonical_json(report)  # raises if anything non-JSON leaked in


# ----------------------------------------------------------------------
# Replay + committed regression scenarios
# ----------------------------------------------------------------------
class TestReplay:
    def test_committed_scenarios_exist(self):
        assert len(SCENARIO_FILES) >= 3

    @pytest.mark.parametrize(
        "path", SCENARIO_FILES, ids=[p.stem for p in SCENARIO_FILES]
    )
    def test_regression_scenario_replays_clean(self, path):
        scenario, report = replay_file(path)
        assert report["violations"] == []
        assert report["steps_applied"] == len(scenario.actions)
        assert report["digest"] == scenario.digest

    @pytest.mark.parametrize(
        "path", SCENARIO_FILES, ids=[p.stem for p in SCENARIO_FILES]
    )
    def test_every_stack_rebuilds_and_settles(self, path):
        # Every node failover re-replicates through the rebuild planner,
        # so each stack keeps a ledger, and after quiesce nothing is
        # still copying or stalled.
        scenario, report = replay_file(path)
        ledgers = report["rebuild_ledgers"]
        assert sorted(ledgers) == sorted(ChaosConfig.from_dict(scenario.config).stacks)
        for ledger in ledgers.values():
            assert ledger["active"] == ledger["stalled"] == 0
            assert ledger["started"] == ledger["completed"] + ledger["requeued"]

    def test_replay_byte_identical(self):
        scenario = ChaosScenario.load(SCENARIO_FILES[0])
        first = canonical_json(replay_scenario(scenario))
        second = canonical_json(replay_scenario(scenario))
        assert first == second

    def test_drain_fault_scenario_exercises_abort(self):
        path = SCENARIO_DIR / "migration-drain-fault.json"
        report = replay_scenario(ChaosScenario.load(path))
        assert report["migrations_aborted"] == 1
        assert report["hangs"] > 0

    def test_replay_counts_deferred_actions(self):
        # Actions that were no-ops when recorded (clearing a fault that
        # is not applied) replay as the same no-ops, not errors.
        scenario = ChaosScenario(
            name="deferred",
            config=ChaosConfig().to_dict(),
            actions=[
                ChaosAction("clear_node", {"stack": "luna", "node": 0}),
                ChaosAction("advance", {"ticks": 2}),
            ],
        )
        report = replay_scenario(scenario)
        assert report["violations"] == []
        assert report["deferred_actions"] == 1


# ----------------------------------------------------------------------
# Hypothesis state machine (derandomized smoke)
# ----------------------------------------------------------------------
class TestMachine:
    def test_derandomized_hunt_is_clean(self):
        from repro.chaos.machine import hunt

        failure = hunt(
            ChaosConfig(), max_examples=3, stateful_step_count=10,
            derandomize=True,
        )
        assert failure is None

    def test_hunt_captures_shrunken_counterexample(self, monkeypatch):
        # When the suite trips, hunt() must return the shrunken action
        # sequence as a digest-valid scenario instead of raising.  The
        # violation here is synthetic (any two applied actions trip it)
        # so the capture path is exercised deterministically.
        from repro.chaos import harness as harness_mod
        from repro.chaos.machine import hunt

        original = harness_mod.ChaosHarness.verify

        def tripping_verify(self):
            original(self)
            if len(self.log) >= 2:
                raise InvariantViolation(
                    "synthetic", "forced failure for the capture-path test"
                )

        monkeypatch.setattr(harness_mod.ChaosHarness, "verify", tripping_verify)
        failure = hunt(
            ChaosConfig(), max_examples=5, stateful_step_count=10,
            derandomize=True,
        )
        assert failure is not None
        assert len(failure.actions) >= 2
        assert ChaosScenario.from_dict(failure.to_dict()).digest == failure.digest


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestChaosCli:
    def test_replay_exit_zero_and_json(self, capsys):
        path = str(SCENARIO_FILES[0])
        assert main(["chaos", "--replay", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == []

    def test_replay_deterministic_output(self, capsys):
        path = str(SCENARIO_FILES[0])
        main(["chaos", "--replay", path])
        first = capsys.readouterr().out
        main(["chaos", "--replay", path])
        assert capsys.readouterr().out == first

    def test_hunt_smoke_exit_zero(self, capsys):
        assert main([
            "chaos", "--examples", "2", "--steps", "8", "--derandomize",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["result"] == "ok"

    def test_tampered_file_rejected(self, tmp_path, capsys):
        payload = json.loads(SCENARIO_FILES[0].read_text())
        payload["actions"].append({"rule": "advance", "args": {"ticks": 1}})
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        assert main(["chaos", "--replay", str(bad)]) == 2
        assert "digest mismatch" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["chaos", "--replay", str(tmp_path / "nope.json")]) == 2
        assert "cannot load scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [{"bogus_knob": 1}, {"stacks": ["luna"]}, {"rebuild_policy": ""}],
        ids=["unknown-key", "one-stack", "no-rebuild-policy"],
    )
    def test_invalid_config_rejected(self, tmp_path, capsys, override):
        # Digest-valid files whose config the harness refuses are a usage
        # error, not a traceback.
        path = tmp_path / "bad-config.json"
        ChaosScenario(
            name="bad-config",
            config={**ChaosConfig().to_dict(), **override},
            actions=[ChaosAction("advance", {"ticks": 1})],
        ).save(path)
        assert main(["chaos", "--replay", str(path)]) == 2
        assert "cannot load scenario" in capsys.readouterr().err
