"""Reproducibility guarantees: identical seeds give identical runs.

Every experiment in this repository is expected to be exactly
reproducible from its seed — that is what makes the benchmark assertions
meaningful.  These tests run whole deployments twice and compare
event-level outcomes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.sim import MS
from repro.workloads import FioSpec, run_fio


def run_deployment(stack: str, seed: int, drop_rate: float = 0.0):
    dep = EbsDeployment(DeploymentSpec(stack=stack, seed=seed))
    vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 128 * 1024 * 1024)
    if drop_rate:
        for sw in dep.topology.switches_by_tier("spine"):
            sw.set_drop_rate(drop_rate)
    results = run_fio(dep.sim, [vd],
                      FioSpec(block_sizes=(4096, 16384), iodepth=8,
                              read_fraction=0.3, runtime_ns=4 * MS))
    r = results["vd0"]
    return (
        r.completed,
        r.bytes_moved,
        tuple(r.latency.samples),
        dep.sim.events_processed,
    )


class TestDeterminism:
    @pytest.mark.parametrize("stack", ["kernel", "luna", "solar"])
    def test_identical_seed_identical_run(self, stack):
        assert run_deployment(stack, seed=1234) == run_deployment(stack, seed=1234)

    def test_identical_under_loss(self):
        a = run_deployment("solar", seed=77, drop_rate=0.2)
        b = run_deployment("solar", seed=77, drop_rate=0.2)
        assert a == b

    def test_different_seed_different_run(self):
        assert run_deployment("solar", seed=1) != run_deployment("solar", seed=2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_any_seed_is_reproducible(self, seed):
        dep_a = EbsDeployment(DeploymentSpec(stack="solar", seed=seed))
        vd_a = VirtualDisk(dep_a, "v", dep_a.compute_host_names()[0], 64 * 1024 * 1024)
        done_a = []
        vd_a.write(0, 16 * 1024, done_a.append)
        dep_a.run()

        dep_b = EbsDeployment(DeploymentSpec(stack="solar", seed=seed))
        vd_b = VirtualDisk(dep_b, "v", dep_b.compute_host_names()[0], 64 * 1024 * 1024)
        done_b = []
        vd_b.write(0, 16 * 1024, done_b.append)
        dep_b.run()

        assert done_a[0].trace.total_ns == done_b[0].trace.total_ns
        assert done_a[0].trace.components == done_b[0].trace.components
