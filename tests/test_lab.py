"""The experiment lab: specs, content-addressed store, parallel runner.

The load-bearing guarantees:

* a point artifact is a pure function of (spec, seed, version) — running
  the same sweep with ``jobs=1`` and ``jobs=4`` produces byte-identical
  artifacts;
* a cache hit skips simulation entirely (observable via run telemetry);
* a crashed/failed worker task is retried once, serially.
"""

import json
import os

import pytest

from repro.ebs import DeploymentSpec
from repro.lab import (
    ExperimentSpec,
    FaultSpec,
    ResultStore,
    WorkloadSpec,
    aggregate,
    canonical_json,
    execute_point,
    map_parallel,
    run_sweep,
    stack_sweep,
)
from repro.lab.runner import _simulate_point
from repro.metrics.stats import mean_ci
from repro.sim import MS

#: Smallest deployment that still replicates writes 3 ways.
SMALL = DeploymentSpec(
    compute_racks=1, compute_hosts_per_rack=1,
    storage_racks=2, storage_hosts_per_rack=2,
)


def small_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        deployment=SMALL,
        workload=WorkloadSpec(mode="fio", iodepth=4, runtime_ns=2 * MS),
        seeds=(0, 1),
        name="lab-test",
        vd_size_mb=64,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestSpec:
    def test_json_round_trip(self):
        spec = small_spec(
            faults=(FaultSpec(kind="switch_blackhole", target="spine", param=0.5),),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_digest_stable_and_seed_dependent(self):
        spec = small_spec()
        assert spec.point_digest(0) == spec.point_digest(0)
        assert spec.point_digest(0) != spec.point_digest(1)

    def test_digest_covers_simulation_inputs(self):
        base = small_spec()
        assert base.with_stack("luna").point_digest(0) != base.point_digest(0)
        deeper = small_spec(workload=WorkloadSpec(mode="fio", iodepth=8, runtime_ns=2 * MS))
        assert deeper.point_digest(0) != base.point_digest(0)

    def test_name_is_not_part_of_the_digest(self):
        assert (
            small_spec(name="a").point_digest(0) == small_spec(name="b").point_digest(0)
        )

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValueError):
            small_spec().point_digest(99)

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(mode="nope")
        with pytest.raises(ValueError):
            WorkloadSpec(mode="fio", iodepth=0)
        with pytest.raises(ValueError):
            WorkloadSpec(mode="trace", records=())
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor-strike")
        with pytest.raises(ValueError):
            FaultSpec(kind="random_drop", start_ns=10, end_ns=5)

    @pytest.mark.parametrize("fields", [
        {"block_sizes": ()},
        {"block_sizes": (1000,)},
        {"block_sizes": (4096, 0)},
        {"read_fraction": 1.5},
        {"read_fraction": -0.1},
        {"pattern": "zzz"},
        {"iodepth": 0},
        {"runtime_ns": 0},
    ], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
    def test_fio_workload_refused_when_built(self, fields):
        # The job's own checks run when the spec is built, so a bad
        # value fails at load time instead of inside the point.
        with pytest.raises(ValueError):
            WorkloadSpec(mode="fio", **fields)

    def test_stack_sweep_names(self):
        specs = stack_sweep(small_spec(name="t"), ["luna", "solar"])
        assert [s.name for s in specs] == ["t/luna", "t/solar"]
        assert [s.deployment.stack for s in specs] == ["luna", "solar"]


class TestStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ResultStore(str(tmp_path))
        digest = "ab" * 32
        assert store.get(digest) is None
        assert store.misses == 1
        store.put(digest, b'{"x":1}\n')
        assert store.get(digest) == b'{"x":1}\n'
        assert store.hits == 1
        assert list(store.digests()) == [digest]
        assert len(store) == 1

    def test_rejects_non_digest_keys(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.path_for("../../etc/passwd")

    def test_no_partial_files_visible(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("cd" * 32, b"payload")
        shard = tmp_path / "cd"
        assert [p.name for p in shard.iterdir()] == ["cd" * 32 + ".json"]


class TestParallelDeterminism:
    def test_serial_and_parallel_artifacts_byte_identical(self, tmp_path):
        spec = small_spec()
        serial = ResultStore(str(tmp_path / "serial"))
        parallel = ResultStore(str(tmp_path / "parallel"))
        run_sweep(spec, jobs=1, store=serial)
        run_sweep(spec, jobs=2, store=parallel)
        digests = [d for _, _, d in spec.points()]
        assert len(digests) == 2
        for digest in digests:
            with open(serial.path_for(digest), "rb") as fh:
                serial_bytes = fh.read()
            with open(parallel.path_for(digest), "rb") as fh:
                parallel_bytes = fh.read()
            assert serial_bytes == parallel_bytes
            # and the payload is the canonical encoding of its artifact
            assert canonical_json(json.loads(serial_bytes)) == serial_bytes

    def test_cache_hit_skips_simulation(self, tmp_path):
        spec = small_spec(seeds=(3,))
        store = ResultStore(str(tmp_path))
        first = run_sweep(spec, jobs=1, store=store)
        assert first.telemetry.simulated == 1
        assert first.telemetry.cache_hits == 0
        second = run_sweep(spec, jobs=1, store=store)
        assert second.telemetry.simulated == 0
        assert second.telemetry.cache_hits == 1
        assert second.artifacts == first.artifacts
        # force re-simulates but must reproduce the same artifact
        third = run_sweep(spec, jobs=1, store=store, force=True)
        assert third.telemetry.simulated == 1
        assert third.artifacts == first.artifacts

    def test_worker_entry_point_matches_in_process_execution(self):
        spec = small_spec(seeds=(5,))
        assert _simulate_point(spec.to_json(), 5) == execute_point(spec, 5)

    def test_artifacts_stable_across_interpreter_invocations(self, tmp_path):
        """Re-running a point in a fresh interpreter must reproduce the exact
        bytes — i.e. nothing in the simulator may depend on PYTHONHASHSEED.

        (Regression: LUNA's core pinning used builtin ``hash`` on a string
        key, so core collisions — and with them timings — changed whenever
        the salt did.  jobs=1 vs jobs=N tests cannot catch this: forked
        workers inherit the parent's salt.)
        """
        import subprocess
        import sys

        spec = small_spec(seeds=(5,)).with_stack("luna")
        script = (
            "import sys, json\n"
            "from repro.lab import ExperimentSpec, execute_point, canonical_json\n"
            "spec = ExperimentSpec.from_json(sys.argv[1])\n"
            "sys.stdout.buffer.write(canonical_json(execute_point(spec, 5)))\n"
        )
        outputs = []
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH", ""),
            ]))
            proc = subprocess.run(
                [sys.executable, "-c", script, spec.to_json()],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == canonical_json(execute_point(spec, 5))

    def test_progress_events_stream(self, tmp_path):
        spec = small_spec(seeds=(0,))
        events = []
        run_sweep(spec, jobs=1, store=ResultStore(str(tmp_path)), progress=events.append)
        assert [e.status for e in events] == ["simulated"]
        run_sweep(spec, jobs=1, store=ResultStore(str(tmp_path)), progress=events.append)
        assert [e.status for e in events] == ["simulated", "cached"]


# -- map_parallel crash handling (module level: workers must pickle these) --
def _square(x):
    return x * x


def _fail_once(marker_path, x):
    """Crashes on first call (per marker file), succeeds on retry."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as fh:
            fh.write("crashed")
        raise RuntimeError("simulated worker crash")
    return x + 100


def _always_fail(_x):
    raise ValueError("deterministic failure")


class TestMapParallel:
    def test_results_in_input_order(self):
        assert map_parallel(_square, [(i,) for i in range(5)], jobs=2) == [
            0, 1, 4, 9, 16,
        ]

    def test_serial_path(self):
        assert map_parallel(_square, [(3,)], jobs=1) == [9]

    def test_crashed_worker_retried_once(self, tmp_path):
        markers = [str(tmp_path / "crash-a"), str(tmp_path / "crash-b")]
        statuses = []
        out = map_parallel(
            _fail_once,
            [(markers[0], 7), (markers[1], 8)],
            jobs=2,
            on_result=lambda i, status, wall, result: statuses.append(status),
        )
        assert out == [107, 108]
        assert "retried" in statuses

    def test_deterministic_failure_propagates(self):
        with pytest.raises(ValueError, match="deterministic failure"):
            map_parallel(_always_fail, [(1,)], jobs=2)


class TestWorkloadModes:
    def test_isolated_mode(self):
        spec = small_spec(
            workload=WorkloadSpec(mode="isolated", count=10, size_bytes=16384),
            seeds=(0,),
        )
        artifact = execute_point(spec, 0)
        assert artifact["completed"] == 10
        assert len(artifact["latency_ns"]) == 10
        assert artifact["component_ns"]["fn"] > 0

    def test_isolated_io_larger_than_vd_rejected(self):
        spec = small_spec(
            workload=WorkloadSpec(mode="isolated", count=1, size_bytes=2 * 1024 ** 3),
            seeds=(0,),
            vd_size_mb=64,
        )
        with pytest.raises(ValueError, match="exceeds VD"):
            execute_point(spec, 0)

    def test_trace_mode_replays_every_record(self):
        records = tuple(
            (i * 100_000, "write" if i % 2 else "read", i * 4096, 4096)
            for i in range(8)
        )
        spec = small_spec(
            workload=WorkloadSpec(mode="trace", records=records), seeds=(1,)
        )
        artifact = execute_point(spec, 1)
        assert artifact["issued"] == 8
        assert artifact["completed"] == 8

    def test_fault_schedule_produces_hangs_on_luna(self):
        spec = ExperimentSpec(
            deployment=DeploymentSpec(
                stack="luna",
                compute_racks=1, compute_hosts_per_rack=1,
                storage_racks=2, storage_hosts_per_rack=4,
            ),
            workload=WorkloadSpec(mode="fio", iodepth=4, runtime_ns=30 * MS),
            faults=(
                FaultSpec(
                    kind="switch_blackhole", target="spine", param=0.5,
                    start_ns=5 * MS,
                ),
            ),
            seeds=(91,),
            name="hangs",
            vd_size_mb=64,
        )
        artifact = execute_point(spec, 91)
        assert artifact["watched"] > 50
        assert artifact["hangs"] > 0


class TestArtifactSchema:
    @pytest.mark.parametrize("workload", [
        WorkloadSpec(mode="fio", iodepth=4, runtime_ns=1 * MS),
        WorkloadSpec(mode="isolated", count=2),
        WorkloadSpec(mode="trace", records=((0, "write", 0, 4096),)),
    ], ids=["fio", "isolated", "trace"])
    def test_plain_points_write_the_schema_version(self, workload):
        from repro.lab.spec import SCHEMA_VERSION

        spec = small_spec(workload=workload, seeds=(0,))
        assert execute_point(spec, 0)["schema"] == SCHEMA_VERSION


class TestRig:
    """Where a hung I/O goes: through the plane when the spec has one,
    straight to the health monitor otherwise — one incident either way."""

    @staticmethod
    def _hung_rig(telemetry):
        from repro.control.health import IO_HANG
        from repro.lab.rig import Rig

        spec = ExperimentSpec(
            deployment=DeploymentSpec(
                stack="luna",
                compute_racks=1, compute_hosts_per_rack=1,
                storage_racks=2, storage_hosts_per_rack=4,
            ),
            workload=WorkloadSpec(mode="fio", iodepth=4, runtime_ns=10 * MS),
            faults=(FaultSpec(kind="switch_blackhole", target="spine",
                              param=1.0, start_ns=2 * MS),),
            hang_threshold_ns=5 * MS,
            telemetry=telemetry,
            vd_size_mb=16,
        )
        rig = Rig(spec, 0)
        rig.fio_job(rig.add_vd("rig-vd"), "rig").start()
        rig.start()
        rig.run()
        assert rig.hangs.hangs > 0
        assert len(rig.health.incidents_of(IO_HANG)) == rig.hangs.hangs
        return rig

    def test_without_a_plane_hangs_reach_health(self):
        assert self._hung_rig(None).plane is None

    def test_with_a_plane_hangs_pass_through_it(self):
        from repro.lab.spec import TelemetrySpec

        rig = self._hung_rig(TelemetrySpec())
        assert rig.plane.summary()["hangs"] == rig.hangs.hangs

    def test_run_bound_pays_the_hang_window_only_under_faults(self):
        from repro.lab.rig import DRAIN_NS, Rig

        spec = small_spec(seeds=(0,))
        assert Rig(spec, 0).until_ns == 2 * MS + DRAIN_NS
        faulted = small_spec(seeds=(0,), faults=(FaultSpec(kind="random_drop"),))
        assert Rig(faulted, 0).until_ns == 2 * MS + DRAIN_NS + faulted.hang_threshold_ns


class TestAggregation:
    def test_pooled_latency_and_ci(self):
        spec = small_spec()
        result = run_sweep(spec, jobs=1)
        agg = aggregate(spec, result.artifacts)
        per_seed_counts = [len(a["latency_ns"]) for a in result.artifacts]
        assert agg.latency.count == sum(per_seed_counts)
        assert agg.completed == sum(a["completed"] for a in result.artifacts)
        mean, half = agg.mean_us_ci
        assert mean > 0 and half >= 0
        assert agg.iops > 0
        assert set(agg.component_means_us) == {"sa", "fn", "bn", "ssd"}

    def test_mean_ci_small_sample(self):
        mean, half = mean_ci([10.0, 12.0])
        assert mean == 11.0
        # df=1 -> t=12.706; half = t * (sqrt(2)/sqrt(2)) = 12.706
        assert half == pytest.approx(12.706, rel=1e-3)
        assert mean_ci([5.0]) == (5.0, 0.0)
        with pytest.raises(ValueError):
            mean_ci([])

    def test_aggregate_wrong_artifact_count_rejected(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            aggregate(spec, [])
