"""Tests for the EBS assembly: deployments, virtual disks, the software
SA, RPC service, and the evolution model."""

import gc

import pytest

from repro.agent.base import IoRequest
from repro.ebs import (
    DEFAULT_ROLLOUT,
    DeploymentSpec,
    EbsDeployment,
    QUARTERS,
    StackSteadyState,
    VirtualDisk,
    fleet_evolution,
)
from repro.profiles import BLOCK_SIZE
from repro.sim import MS
from repro.workloads import FioSpec, run_fio


def deploy(stack="luna", **kwargs):
    dep = EbsDeployment(DeploymentSpec(stack=stack, seed=7, **kwargs))
    vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 128 * 1024 * 1024)
    return dep, vd


def one_io(dep, vd, kind, offset=0, size=BLOCK_SIZE, data=None):
    done = []
    if kind == "write":
        vd.write(offset, size, done.append, data=data)
    else:
        vd.read(offset, size, done.append)
    dep.run()
    assert done
    return done[0]


class TestDeploymentSpec:
    def test_stack_validated(self):
        with pytest.raises(ValueError):
            DeploymentSpec(stack="quic")

    def test_default_hosting_per_stack(self):
        assert DeploymentSpec(stack="kernel").effective_hosting == "vm"
        assert DeploymentSpec(stack="luna").effective_hosting == "vm"
        assert DeploymentSpec(stack="solar").effective_hosting == "bare_metal"
        assert DeploymentSpec(stack="solar_star").effective_hosting == "bare_metal"

    def test_bn_default(self):
        # Figure 6 caption: kernel era is kernel-TCP end to end; LUNA and
        # SOLAR run RDMA in the BN.
        assert DeploymentSpec(stack="kernel").effective_bn == "kernel"
        assert DeploymentSpec(stack="luna").effective_bn == "rdma"
        assert DeploymentSpec(stack="solar").effective_bn == "rdma"


class TestEndToEnd:
    @pytest.mark.parametrize("stack", ["kernel", "luna", "rdma", "solar", "solar_star"])
    def test_write_and_read_complete(self, stack):
        dep, vd = deploy(stack)
        w = one_io(dep, vd, "write")
        r = one_io(dep, vd, "read")
        assert w.trace.ok and r.trace.ok
        assert w.trace.total_ns > 0 and r.trace.total_ns > 0

    def test_latency_ordering_matches_figure6(self):
        """Median-style single-I/O ordering: kernel >> luna > solar."""
        totals = {}
        for stack in ("kernel", "luna", "solar"):
            dep, vd = deploy(stack)
            totals[stack] = one_io(dep, vd, "write").trace.total_ns
        assert totals["kernel"] > 2 * totals["luna"]
        assert totals["luna"] > totals["solar"]

    def test_sa_reduction_luna_to_solar(self):
        """Figure 6c: SOLAR cuts the SA's (clean-run) latency hard."""
        sa = {}
        for stack in ("luna", "solar"):
            dep, vd = deploy(stack)
            sa[stack] = one_io(dep, vd, "write").trace.components["sa"]
        assert sa["solar"] < sa["luna"] * 0.45

    def test_multi_block_io(self):
        dep, vd = deploy("luna")
        io = one_io(dep, vd, "write", size=64 * 1024)
        assert io.trace.ok

    def test_io_spanning_segments(self):
        dep, vd = deploy("solar")
        # Segment = 2MB; write across the first boundary.
        io = one_io(dep, vd, "write", offset=2 * 1024 * 1024 - 2 * BLOCK_SIZE,
                    size=4 * BLOCK_SIZE)
        assert io.trace.ok

    def test_many_concurrent_ios(self):
        dep, vd = deploy("solar")
        done = []
        for i in range(40):
            vd.write(i * BLOCK_SIZE, BLOCK_SIZE, done.append)
        dep.run()
        assert len(done) == 40 and all(io.trace.ok for io in done)

    def test_traces_collected(self):
        dep, vd = deploy("luna")
        one_io(dep, vd, "write")
        one_io(dep, vd, "read")
        assert len(dep.collector.traces) == 2
        assert dep.collector.breakdown_us(50, "write")["fn"] > 0

    def test_write_payload_round_trips_through_storage(self):
        dep, vd = deploy("luna")
        payload = bytes([i % 251 for i in range(BLOCK_SIZE)])
        one_io(dep, vd, "write", data=payload)
        stored = [s for c in dep.chunk_servers.values() for s in c.store.values()]
        assert stored and all(data == payload for data, _crc in stored)

    def test_encrypted_payload_is_ciphertext_at_rest(self):
        dep, vd = deploy("luna", encrypt_payloads=True)
        payload = b"\x00" * BLOCK_SIZE
        one_io(dep, vd, "write", data=payload)
        stored = [s for c in dep.chunk_servers.values() for s in c.store.values()]
        assert stored and all(data != payload for data, _crc in stored)

    def test_vd_range_checks(self):
        dep, vd = deploy("luna")
        with pytest.raises(ValueError):
            vd.write(vd.size_bytes, BLOCK_SIZE, lambda io: None)
        with pytest.raises(ValueError):
            vd.write(1, BLOCK_SIZE, lambda io: None)

    def test_unknown_host_rejected(self):
        dep, _vd = deploy("luna")
        with pytest.raises(KeyError):
            dep.agent_for("cp/r9/h9")

    def test_base_rtt_estimate_positive(self):
        dep, _vd = deploy("solar")
        rtt = dep.base_rtt_ns(dep.compute_host_names()[0],
                              sorted(dep.storage_servers)[0])
        assert 5_000 < rtt < 50_000  # microseconds-scale fabric


class TestNoCyclicGarbage:
    """An I/O leaves nothing for the cyclic collector: every RPC drops
    its completion callback once it has fired, so no I/O's state is
    kept alive by a reference cycle."""

    @pytest.mark.parametrize("stack", ["kernel", "luna", "rdma", "solar", "solar_star"])
    def test_fio_run_leaves_no_unreachable_objects(self, stack):
        dep, vd = deploy(stack)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = run_fio(dep.sim, [vd], FioSpec(
                block_sizes=(4096, 16384), iodepth=8, read_fraction=0.5,
                runtime_ns=2 * MS,
            ))["vd0"]
            unreachable = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert result.completed > 50
        assert unreachable == 0


class TestIoRequestValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            IoRequest("erase", "vd", 0, 4096, lambda io: None)

    def test_alignment_checked(self):
        with pytest.raises(ValueError):
            IoRequest("read", "vd", 100, 4096, lambda io: None)

    def test_payload_only_on_writes(self):
        with pytest.raises(ValueError):
            IoRequest("read", "vd", 0, 4096, lambda io: None, data=b"x" * 4096)

    def test_block_count(self):
        io = IoRequest("read", "vd", 0, 10_000, lambda io: None)
        assert io.num_blocks == 3


class TestEvolution:
    def _steady(self):
        return {
            "kernel": StackSteadyState(avg_latency_us=250.0, iops_per_server=70_000),
            "luna": StackSteadyState(avg_latency_us=90.0, iops_per_server=190_000),
            "solar": StackSteadyState(avg_latency_us=65.0, iops_per_server=240_000),
        }

    def test_latency_monotonically_improves(self):
        points = fleet_evolution(self._steady())
        latencies = [p.avg_latency_us for p in points]
        assert all(a >= b for a, b in zip(latencies, latencies[1:]))

    def test_headline_reduction_and_iops_scaleup(self):
        # Figure 7: 72% average-latency reduction, ~3x IOPS over the window.
        points = fleet_evolution(self._steady())
        reduction = 1 - points[-1].avg_latency_us / points[0].avg_latency_us
        assert reduction > 0.60
        assert points[-1].iops_per_server / points[0].iops_per_server > 2.0

    def test_normalization(self):
        points = fleet_evolution(self._steady())
        assert points[0].latency_vs_19q1 == pytest.approx(1.0)
        assert points[-1].iops_vs_21q4 == pytest.approx(1.0)

    def test_rollout_rows_sum_to_one(self):
        for quarter in QUARTERS:
            assert sum(DEFAULT_ROLLOUT[quarter].values()) == pytest.approx(1.0)

    def test_missing_stack_rejected(self):
        with pytest.raises(KeyError):
            fleet_evolution({"kernel": StackSteadyState(1, 1)})
