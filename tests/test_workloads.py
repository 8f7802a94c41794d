"""Tests for workload generation: fio driver, production shapes, access
patterns and trace replay."""

import random

import pytest

from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.profiles import BLOCK_SIZE
from repro.sim import MS
from repro.workloads import (
    EBS_TX_SHARE,
    FioSpec,
    IO_SIZE_PMF,
    IoRecord,
    ProductionWorkload,
    SequentialPattern,
    SizeDistribution,
    ZipfianPattern,
    diurnal_iops,
    replay,
    run_fio,
    synthesize_day,
    synthesize_week,
    weekly_modulation,
)


class TestSizeDistribution:
    def test_pmf_sums_to_one(self):
        assert sum(p for _s, p in IO_SIZE_PMF) == pytest.approx(1.0)

    def test_figure5_shape(self):
        """Figure 5: ~40% of I/Os at 4KB, everything <= 256KB, modes at
        4K/16K/64K."""
        dist = SizeDistribution()
        cdf = dict(dist.cdf())
        assert cdf[4096] == pytest.approx(0.40)
        assert max(s for s, _p in IO_SIZE_PMF) == 256 * 1024
        probs = dict(IO_SIZE_PMF)
        assert probs[16 * 1024] > probs[8 * 1024]
        assert probs[64 * 1024] > probs[32 * 1024]

    def test_sampling_matches_pmf(self):
        dist = SizeDistribution()
        rng = random.Random(1)
        n = 20_000
        counts = {}
        for _ in range(n):
            s = dist.sample(rng)
            counts[s] = counts.get(s, 0) + 1
        assert counts[4096] / n == pytest.approx(0.40, abs=0.02)

    def test_bad_pmf_rejected(self):
        with pytest.raises(ValueError):
            SizeDistribution(pmf=((4096, 0.5),))

    def test_mean_bytes(self):
        assert SizeDistribution().mean_bytes() > 4096


class TestDiurnal:
    def test_peak_at_evening(self):
        assert diurnal_iops(20.0) > diurnal_iops(4.0)

    def test_range_bounded(self):
        for h in range(24):
            v = diurnal_iops(float(h), 100, 200)
            assert 100 <= v <= 200

    def test_invalid_hour(self):
        with pytest.raises(ValueError):
            diurnal_iops(24.0)

    def test_weekend_dip(self):
        assert weekly_modulation(6) < weekly_modulation(2)
        with pytest.raises(ValueError):
            weekly_modulation(7)


class TestSynthesis:
    def test_week_has_expected_buckets(self):
        samples = synthesize_week(seed=1)
        assert len(samples) == 7 * 24

    def test_write_dominates_read(self):
        # Figure 3: WRITE is 3-4x READ.
        samples = synthesize_week(seed=1)
        w = sum(s.write_iops for s in samples)
        r = sum(s.read_iops for s in samples)
        assert 2.5 < w / r < 4.5

    def test_ebs_is_majority_of_tx(self):
        samples = synthesize_week(seed=1)
        ebs = sum(s.ebs_tx_gbps for s in samples)
        total = sum(s.all_tx_gbps for s in samples)
        assert ebs / total == pytest.approx(EBS_TX_SHARE, abs=0.02)

    def test_day_series_reaches_peak(self):
        series = synthesize_day(seed=2)
        assert len(series) == 24 * 60
        peak = max(v for _t, v in series)
        trough = min(v for _t, v in series)
        assert peak > 150_000  # Figure 4: up to ~200K IOPS
        assert trough < 90_000

    def test_deterministic_by_seed(self):
        assert synthesize_day(seed=3) == synthesize_day(seed=3)
        assert synthesize_day(seed=3) != synthesize_day(seed=4)


class TestFio:
    def _deploy(self):
        dep = EbsDeployment(DeploymentSpec(stack="solar", seed=21))
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 128 * 1024 * 1024)
        return dep, vd

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FioSpec(iodepth=0)
        with pytest.raises(ValueError):
            FioSpec(read_fraction=1.5)
        with pytest.raises(ValueError):
            FioSpec(block_sizes=(1000,))

    def test_run_produces_stats(self):
        dep, vd = self._deploy()
        results = run_fio(dep.sim, [vd], FioSpec(iodepth=8, runtime_ns=5 * MS))
        r = results["vd0"]
        assert r.completed > 10
        assert r.iops > 0 and r.throughput_mbps > 0
        assert r.latency.count == r.completed

    def test_iodepth_respected(self):
        dep, vd = self._deploy()
        from repro.workloads.fio import FioJob

        job = FioJob(dep.sim, vd, FioSpec(iodepth=4, runtime_ns=5 * MS))
        job.start()
        assert job.inflight == 4
        dep.run()
        assert job.inflight == 0

    def test_mixed_read_write(self):
        dep, vd = self._deploy()
        results = run_fio(
            dep.sim, [vd],
            FioSpec(iodepth=8, read_fraction=0.2, runtime_ns=5 * MS),
        )
        assert results["vd0"].completed > 0

    def test_double_start_rejected(self):
        dep, vd = self._deploy()
        from repro.workloads.fio import FioJob

        job = FioJob(dep.sim, vd, FioSpec(iodepth=1, runtime_ns=1 * MS))
        job.start()
        with pytest.raises(RuntimeError):
            job.start()


class TestProductionWorkload:
    def test_open_loop_generation(self):
        dep = EbsDeployment(DeploymentSpec(stack="luna", seed=33))
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 128 * 1024 * 1024)
        load = ProductionWorkload(dep.sim, vd, target_iops=20_000,
                                  duration_ns=10 * MS)
        load.start()
        dep.run()
        assert load.issued == pytest.approx(200, rel=0.5)
        assert load.completed + load.failed == load.issued
        assert load.write_latency.count > load.read_latency.count  # W >> R

    def test_target_iops_validated(self):
        dep = EbsDeployment(DeploymentSpec(stack="luna", seed=33))
        vd = VirtualDisk(dep, "vd1", dep.compute_host_names()[0], 64 * 1024 * 1024)
        with pytest.raises(ValueError):
            ProductionWorkload(dep.sim, vd, target_iops=0, duration_ns=1)


class TestFioPatterns:
    def _deploy(self):
        dep = EbsDeployment(DeploymentSpec(stack="solar", seed=22))
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 128 * 1024 * 1024)
        return dep, vd

    def test_sequential_pattern_runs(self):
        dep, vd = self._deploy()
        results = run_fio(dep.sim, [vd], FioSpec(iodepth=4, runtime_ns=3 * MS,
                                                 pattern="sequential"))
        assert results["vd0"].completed > 0

    def test_zipfian_pattern_runs(self):
        dep, vd = self._deploy()
        results = run_fio(dep.sim, [vd], FioSpec(iodepth=4, runtime_ns=3 * MS,
                                                 pattern="zipfian"))
        assert results["vd0"].completed > 0

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            FioSpec(pattern="fractal")

    def test_default_pattern_unchanged(self):
        # Regression guard: the default spec must behave exactly as the
        # pre-pattern implementation (uniform offsets from the same RNG).
        assert FioSpec().pattern == "random"


class TestPatterns:
    DISK = 64 * 1024 * 1024

    def test_sequential_is_monotonic_then_wraps(self):
        pattern = SequentialPattern(self.DISK)
        offsets = [pattern.next_offset(BLOCK_SIZE) for _ in range(5)]
        assert offsets == [i * BLOCK_SIZE for i in range(5)]
        pattern_end = SequentialPattern(self.DISK, start_offset=self.DISK - BLOCK_SIZE)
        assert pattern_end.next_offset(BLOCK_SIZE) == self.DISK - BLOCK_SIZE
        assert pattern_end.next_offset(BLOCK_SIZE) == 0  # wrapped

    def test_zipfian_is_skewed(self):
        pattern = ZipfianPattern(self.DISK, random.Random(2), theta=0.9)
        counts: dict = {}
        for _ in range(5_000):
            offset = pattern.next_offset(BLOCK_SIZE)
            counts[offset] = counts.get(offset, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # The hottest block gets far more than a uniform share.
        assert top[0] > 5_000 / len(counts) * 5

    def test_zipfian_validation(self):
        with pytest.raises(ValueError):
            ZipfianPattern(self.DISK, random.Random(1), theta=1.5)

    @pytest.mark.parametrize("make", [
        lambda disk: SequentialPattern(disk),
        lambda disk: ZipfianPattern(disk, random.Random(1)),
    ], ids=["sequential", "zipfian"])
    def test_io_too_large_rejected(self, make):
        pattern = make(BLOCK_SIZE)
        with pytest.raises(ValueError):
            pattern.next_offset(2 * BLOCK_SIZE)


class TestReplay:
    def _deployment(self):
        dep = EbsDeployment(DeploymentSpec(stack="solar", seed=5))
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 128 * 1024 * 1024)
        return dep, vd

    def test_record_validation(self):
        with pytest.raises(ValueError):
            IoRecord(0, "erase", 0, 4096)
        with pytest.raises(ValueError):
            IoRecord(-1, "read", 0, 4096)

    def test_replay_reissues_everything(self):
        dep, vd = self._deployment()
        records = [
            IoRecord(i * 100_000, "write" if i % 3 else "read", i * 4096, 4096)
            for i in range(30)
        ]
        result = replay(dep.sim, vd, records)
        dep.run()
        assert result.issued == 30
        assert result.completed == 30
        assert result.latency.count == 30

    def test_replay_respects_time_scale(self):
        dep, vd = self._deployment()
        records = [IoRecord(1 * MS, "write", 0, 4096)]
        replay(dep.sim, vd, records, time_scale=3.0)
        first_event = dep.sim.peek_time()
        assert first_event >= 3 * MS

    def test_replay_clamps_out_of_range_offsets(self):
        dep, vd = self._deployment()
        records = [IoRecord(0, "write", 10**12, 4096)]
        result = replay(dep.sim, vd, records)
        dep.run()
        assert result.completed == 1

    def test_time_scale_validated(self):
        dep, vd = self._deployment()
        with pytest.raises(ValueError):
            replay(dep.sim, vd, [], time_scale=0)

    @pytest.mark.parametrize("size_scale, size", [(2.5, 8192), (0.001, 4096)])
    def test_replay_respects_size_scale(self, size_scale, size):
        # Scaled sizes re-align down to 4 KiB, and never below one block.
        dep, vd = self._deployment()
        issued = []
        result = replay(dep.sim, vd, [IoRecord(0, "write", 0, 4096)],
                        size_scale=size_scale,
                        on_issue=lambda io: issued.append(io.size_bytes))
        dep.run()
        assert issued == [size]
        assert result.issued_bytes == size
        assert result.completed == 1

    @pytest.mark.parametrize("size_scale", [0, -1.0])
    def test_size_scale_validated(self, size_scale):
        dep, vd = self._deployment()
        with pytest.raises(ValueError, match="size scale"):
            replay(dep.sim, vd, [], size_scale=size_scale)

    def test_same_records_replay_faster_on_solar(self):
        """Replay one I/O population on LUNA and on SOLAR: same records,
        different latency — the cross-stack methodology of Figure 6."""
        rng = random.Random(8)
        records = [
            IoRecord(0, "read" if rng.random() < 0.2 else "write",
                     (i * 7919 % 1000) * 4096, 4096)
            for i in range(40)
        ]
        results = {}
        for stack in ("luna", "solar"):
            dep = EbsDeployment(DeploymentSpec(stack=stack, seed=8))
            vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0],
                             128 * 1024 * 1024)
            result = replay(dep.sim, vd, records)
            dep.run()
            assert result.completed == 40
            results[stack] = result.latency.mean()
        assert results["solar"] < results["luna"]
