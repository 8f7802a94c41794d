"""Self-test of the end-to-end benchmark at about 2 ms of simulated time.

    python -m pytest benchmarks/e2e

Not collected by the repository's own test run (``testpaths = tests``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger  # noqa: E402

#: ``--seconds`` giving about 2 ms of simulated issue window (solar-fio).
SECONDS = 0.1
SCALE = SECONDS / run.REFERENCE_SECONDS


def _noop() -> None:
    return None


def _digest(name: str, seed: int) -> str:
    workload = workloads.build(name, seed, SCALE, **({"shards": 1} if name == "fleet" else {}))
    workload.run(_noop)
    return workload.outcome()["sim_digest"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace else run.END_TO_END
    text = proc.stdout
    for workload in workloads.WORKLOADS:
        for metric, unit in units.items():
            assert result["metrics"][f"{workload}/{metric}"]["unit"] == unit
            assert f"  {metric} " in text
    assert len(result["metrics"]) == len(units) * len(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(name):
    first = _digest(name, 7)
    assert _digest(name, 7) == first
    assert _digest(name, 8) != first


def test_stepping_leaves_the_simulation_unchanged():
    stepped = workloads.build("solar-fio", 3, SCALE)
    stepped.run(_noop)
    whole = workloads.build("solar-fio", 3, SCALE)
    whole.dep.run(until_ns=whole.until_ns)
    assert stepped.outcome()["sim_digest"] == whole.outcome()["sim_digest"]


@pytest.mark.parametrize("name", ["solar-fio", "fleet"])
def test_tracing_keeps_the_simulation_and_unpatches(name, tmp_path):
    probe = Ledger().install()
    originals = {}
    for owner, attr, original in probe.patched:
        # The schedule methods are wrapped twice (event and call spans);
        # the first entry holds the class's own function.
        originals.setdefault((owner, attr), original)
    probe.uninstall()
    assert len(originals) > 100
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())

    plain = worker.run(name, 5, SCALE, None)
    traced = worker.run(name, 5, SCALE, str(tmp_path / "ledger.json"))
    assert traced["sim_digest"] == plain["sim_digest"]
    for key in ("counts", "sim_kiops", "io_p50_us", "io_p99_us", "events_per_io"):
        assert traced[key] == plain[key]
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    written = json.loads((tmp_path / "ledger.json").read_text())
    assert written["span_sample"] and written["layers"]["net"]["calls"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_self_times_sum_to_the_traced_wall(name, tmp_path):
    traced = worker.run(name, 5, SCALE, str(tmp_path / "ledger.json"))
    ledger = traced["ledger"]
    self_sum = sum(row["self_s"] for row in ledger["layers"].values())
    assert self_sum + ledger["wrapper_s"] == pytest.approx(traced["wall_raw_s"], rel=0.02)


def test_a_failing_check_exits_nonzero(monkeypatch, capsys):
    probe = {"import_s": 0.1, "build_s": 0.01, "raw_s": 0.11, "slowdown": 1.0}
    plain = {
        "checks": [{"name": "no lost I/O", "ok": False, "detail": "issued 10, completed 9"}],
        "counts": {"issued": 10, "completed": 9},
        "sim_digest": "0" * 64, "ios": 9, "wall_s": 1.0, "wall_raw_s": 1.0,
        "slowdown": 1.0, "peak_rss_mb": 30.0, "sim_kiops": 1.0, "io_p50_us": 50.0,
        "io_p99_us": 90.0, "events_per_io": 100.0,
    }
    monkeypatch.setattr(run, "child", lambda mode, *args: probe if mode == "probe" else plain)
    assert run.main(["--workload", "solar-fio", "--seconds", str(SECONDS)]) == 1
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 10


def test_exits_nonzero_without_the_simulator(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "solar-fio", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
