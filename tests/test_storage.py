"""Tests for the storage substrate: blocks, crypto, SSD, segment/QoS
tables, chunk/block servers, BN."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.server import StorageServer
from repro.net import Endpoint
from repro.profiles import BLOCK_SIZE, DEFAULT, bytes_time_ns
from repro.sim import Simulator, US
from repro.storage import (
    BackendNetwork,
    BlockCipher,
    BlockServer,
    BLOCKS_PER_SEGMENT,
    ChunkRequest,
    ChunkServer,
    DataBlock,
    QosSpec,
    QosTable,
    SegmentTable,
    SsdDevice,
    TokenBucket,
    UnmappedAddressError,
    split_into_blocks,
)


class TestDataBlock:
    def test_crc_of_real_payload(self):
        import zlib

        data = b"\xab" * BLOCK_SIZE
        block = DataBlock("vd", 0, BLOCK_SIZE, data)
        assert block.crc == zlib.crc32(data)

    def test_synthetic_crc_is_deterministic(self):
        assert DataBlock("vd", 7).crc == DataBlock("vd", 7).crc
        assert DataBlock("vd", 7).crc != DataBlock("vd", 8).crc

    def test_payload_length_validated(self):
        with pytest.raises(ValueError):
            DataBlock("vd", 0, BLOCK_SIZE, b"short")

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            DataBlock("vd", 0, 0)
        with pytest.raises(ValueError):
            DataBlock("vd", 0, BLOCK_SIZE + 1)

    def test_with_data_copies_identity(self):
        block = DataBlock("vd", 3)
        filled = block.with_data(b"\x01" * BLOCK_SIZE)
        assert (filled.vd_id, filled.lba) == ("vd", 3)
        assert filled.data is not None

    def test_split_into_blocks(self):
        blocks = split_into_blocks("vd", 2 * BLOCK_SIZE, 3 * BLOCK_SIZE)
        assert [b.lba for b in blocks] == [2, 3, 4]

    def test_split_partial_tail(self):
        blocks = split_into_blocks("vd", 0, BLOCK_SIZE + 100)
        assert [b.size_bytes for b in blocks] == [BLOCK_SIZE, 100]

    def test_split_rejects_misaligned_offset(self):
        with pytest.raises(ValueError):
            split_into_blocks("vd", 1, BLOCK_SIZE)


class TestCipher:
    def test_round_trip(self):
        cipher = BlockCipher(b"key")
        data = bytes(range(256)) * 16
        ct = cipher.encrypt("vd", 5, data)
        assert ct != data
        assert cipher.decrypt("vd", 5, ct) == data

    def test_tweak_differs_per_lba(self):
        cipher = BlockCipher(b"key")
        data = b"\x00" * 64
        assert cipher.encrypt("vd", 1, data) != cipher.encrypt("vd", 2, data)

    def test_key_differs(self):
        data = b"\x00" * 64
        assert BlockCipher(b"k1").encrypt("vd", 1, data) != BlockCipher(b"k2").encrypt(
            "vd", 1, data
        )

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            BlockCipher(b"")

    @given(st.binary(min_size=1, max_size=512), st.integers(0, 1_000_000))
    @settings(max_examples=30)
    def test_round_trip_property(self, data, lba):
        cipher = BlockCipher(b"prop")
        assert cipher.decrypt("vd", lba, cipher.encrypt("vd", lba, data)) == data


class LinearScanSsd(SsdDevice):
    """The reference: the scan over channel horizons the heap replaced."""

    def __init__(self, sim, name, profile):
        super().__init__(sim, name, profile)
        self.free_at = [0] * max(1, profile.channels)

    def _occupy(self, service_ns, size_bytes, not_before):
        transfer_ns = bytes_time_ns(size_bytes, self.profile.device_gbps)
        index = min(range(len(self.free_at)), key=self.free_at.__getitem__)
        start = max(not_before, self.free_at[index])
        done = start + service_ns + transfer_ns
        self.free_at[index] = done
        return done


class TestSsd:
    def test_write_uses_cache_latency(self):
        sim = Simulator(seed=1)
        ssd = SsdDevice(sim, "s", DEFAULT.ssd)
        done = []
        ssd.submit_write(4096, sim.now, lambda: done.append(sim.now))
        sim.run()
        # Write cache: "tens of us" — well under NAND read latency.
        assert 3_000 < done[0] < 60_000

    def test_read_is_slower_than_write_on_average(self):
        # §2.3: writes hit the SSD write cache; reads usually pay NAND.
        def mean_latency(op_name):
            sim = Simulator(seed=2)
            ssd = SsdDevice(sim, "s", DEFAULT.ssd)
            finishes = []
            for _ in range(60):
                getattr(ssd, op_name)(4096, sim.now, lambda: finishes.append(sim.now))
                sim.run()
            deltas = [b - a for a, b in zip([0] + finishes, finishes)]
            return sum(deltas) / len(deltas)

        assert mean_latency("submit_read") > mean_latency("submit_write") * 1.5

    def test_channels_allow_parallelism(self):
        sim = Simulator(seed=3)
        profile = DEFAULT.ssd
        ssd = SsdDevice(sim, "s", profile)
        finish = []
        for _ in range(profile.channels):
            ssd.submit_write(4096, sim.now, lambda: finish.append(sim.now))
        sim.run()
        # All ops ran concurrently: the last completion is far below
        # channels * single-op latency.
        assert max(finish) < profile.write_cache_ns * 4

    @settings(max_examples=150, deadline=None)
    @given(
        channels=st.sampled_from([1, 2, 16]),
        seed=st.integers(0, 3),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from([1, 4, 16]),
                st.sampled_from([0, 0, 1, 3_000, 20_000]),
                st.sampled_from([0, 0, 500, 5_000, 40_000]),
            ),
            max_size=60,
        ),
    )
    def test_channel_heap_matches_a_linear_scan(self, channels, seed, ops):
        profile = dataclasses.replace(DEFAULT.ssd, channels=channels)

        def run(cls):
            sim = Simulator(seed=seed)
            ssd = cls(sim, "s", profile)
            done = []
            for is_write, blocks, gap, lead in ops:
                sim.run(until=sim.now + gap)
                submit = ssd.submit_write if is_write else ssd.submit_read
                done.append(submit(blocks * BLOCK_SIZE, sim.now + lead))
            return done, ssd._rng.getstate(), ssd

        done, rng, ssd = run(SsdDevice)
        ref_done, ref_rng, ref = run(LinearScanSsd)
        assert (done, rng) == (ref_done, ref_rng)
        # Each channel holds the same horizon: ties went to the lowest index.
        assert sorted(ssd._channels) == sorted((t, i) for i, t in enumerate(ref.free_at))

    def test_invalid_sizes_rejected(self):
        ssd = SsdDevice(Simulator(), "s", DEFAULT.ssd)
        with pytest.raises(ValueError):
            ssd.submit_write(0, 0)
        with pytest.raises(ValueError):
            ssd.submit_read(-1, 0)


class TestSegmentTable:
    def _provision(self, size_mb=64):
        table = SegmentTable()
        segments = table.provision(
            "vd0", size_mb * 1024 * 1024, ["bs0", "bs1", "bs2"],
            ["c0", "c1", "c2", "c3", "c4"],
        )
        return table, segments

    def test_segments_cover_vd_contiguously(self):
        _table, segments = self._provision()
        expected_start = 0
        for seg in segments:
            assert seg.start_lba == expected_start
            expected_start = seg.end_lba
        assert expected_start == 64 * 1024 * 1024 // BLOCK_SIZE

    def test_segment_size_is_2mb(self):
        _table, segments = self._provision()
        assert segments[0].num_blocks == BLOCKS_PER_SEGMENT == 512

    def test_three_distinct_replicas(self):
        _table, segments = self._provision()
        for seg in segments:
            assert len(set(seg.replicas)) == 3

    def test_lookup_binary_search(self):
        table, segments = self._provision()
        assert table.lookup("vd0", 0) is segments[0]
        assert table.lookup("vd0", BLOCKS_PER_SEGMENT) is segments[1]
        assert table.lookup("vd0", segments[-1].end_lba - 1) is segments[-1]

    def test_lookup_out_of_range(self):
        table, segments = self._provision()
        with pytest.raises(UnmappedAddressError):
            table.lookup("vd0", segments[-1].end_lba)

    def test_unknown_vd(self):
        table, _ = self._provision()
        with pytest.raises(UnmappedAddressError):
            table.lookup("ghost", 0)

    def test_extent_splitting_across_segments(self):
        table, _segments = self._provision()
        extents = table.extents("vd0", BLOCKS_PER_SEGMENT - 2, 5)
        assert [(e.start_lba, e.num_blocks) for e in extents] == [
            (BLOCKS_PER_SEGMENT - 2, 2),
            (BLOCKS_PER_SEGMENT, 3),
        ]

    def test_single_extent_common_case(self):
        # §4.5: "the chance of I/O splitting is typically low".
        table, _ = self._provision()
        assert len(table.extents("vd0", 10, 16)) == 1

    def test_double_provision_rejected(self):
        table, _ = self._provision()
        with pytest.raises(ValueError):
            table.provision("vd0", 2 * 1024 * 1024, ["bs0"], ["c0", "c1", "c2"])

    def test_placement_is_deterministic(self):
        _t1, segs1 = self._provision()
        _t2, segs2 = self._provision()
        assert [s.block_server for s in segs1] == [s.block_server for s in segs2]

    def test_needs_enough_chunk_servers(self):
        table = SegmentTable()
        with pytest.raises(ValueError):
            table.provision("vd", 2 * 1024 * 1024, ["bs0"], ["c0", "c1"])

    @given(st.integers(0, 16_384 - 64), st.integers(1, 64))
    @settings(max_examples=40)
    def test_extents_cover_exactly_property(self, start, count):
        table, _ = self._provision()
        extents = table.extents("vd0", start, count)
        covered = sum(e.num_blocks for e in extents)
        assert covered == count
        assert extents[0].start_lba == start
        for a, b in zip(extents, extents[1:]):
            assert a.start_lba + a.num_blocks == b.start_lba


class TestSegmentEvacuation:
    SERVERS = ["bs0", "bs1", "bs2", "bs3", "bs4"]

    def _provision(self, size_mb=64):
        table = SegmentTable()
        table.provision(
            "vd0", size_mb * 1024 * 1024, self.SERVERS, self.SERVERS
        )
        return table

    def test_contains_and_vd_ids(self):
        table = self._provision()
        assert "vd0" in table
        assert "ghost" not in table
        assert table.vd_ids() == ["vd0"]

    def test_evacuation_clears_the_server(self):
        table = self._provision()
        victim = "bs0"
        before = len(table.segments_on(victim))
        assert before > 0
        healthy = [s for s in self.SERVERS if s != victim]
        changed = table.begin_rebuild(victim, healthy)[0]
        assert sum(changed.values()) == before
        assert table.segments_on(victim) == []
        # Placement invariants survive: host + 3 distinct replicas, none
        # of them the victim.
        for seg in table.segments_of("vd0"):
            assert seg.block_server != victim
            assert victim not in seg.replicas
            assert len(set(seg.replicas)) == 3

    def test_lookup_still_covers_vd_after_evacuation(self):
        table = self._provision()
        table.begin_rebuild("bs1", ["bs0", "bs2", "bs3", "bs4"])
        last = table.segments_of("vd0")[-1]
        assert table.lookup("vd0", 0) is table.segments_of("vd0")[0]
        assert table.lookup("vd0", last.end_lba - 1) is last

    def test_evacuation_is_deterministic(self):
        t1, t2 = self._provision(), self._provision()
        healthy = ["bs1", "bs2", "bs3", "bs4"]
        t1.begin_rebuild("bs0", healthy)
        t2.begin_rebuild("bs0", healthy)
        assert [
            (s.block_server, s.replicas) for s in t1.segments_of("vd0")
        ] == [(s.block_server, s.replicas) for s in t2.segments_of("vd0")]

    def test_idle_server_evacuation_is_noop(self):
        table = self._provision()
        assert table.begin_rebuild("not-hosting-anything", ["bs0"])[0] == {}

    def test_empty_replacements_rejected(self):
        table = self._provision()
        with pytest.raises(ValueError):
            table.begin_rebuild("bs0", [])

    def test_self_evacuation_rejected(self):
        table = self._provision()
        with pytest.raises(ValueError):
            table.begin_rebuild("bs0", ["bs0", "bs1"])

    def test_no_available_replica_rejected(self):
        # Every replacement already replicates some segment of a 3-server
        # table, so the victim's replica slot cannot be re-homed.
        table = SegmentTable()
        table.provision(
            "vd0", 2 * 1024 * 1024, ["bs0", "bs1", "bs2"], ["bs0", "bs1", "bs2"]
        )
        with pytest.raises(ValueError):
            table.begin_rebuild("bs0", ["bs1", "bs2"])

    def test_double_evacuation_is_idempotent(self):
        # Overlapping incidents (heartbeat loss + I/O hangs on one node)
        # can both trigger failover; the second evacuation must not move
        # or double-count anything.
        table = self._provision()
        healthy = [s for s in self.SERVERS if s != "bs0"]
        first = table.begin_rebuild("bs0", healthy)[0]
        snapshot = [
            (s.block_server, s.replicas) for s in table.segments_of("vd0")
        ]
        assert sum(first.values()) > 0
        assert table.begin_rebuild("bs0", healthy)[0] == {}
        assert [
            (s.block_server, s.replicas) for s in table.segments_of("vd0")
        ] == snapshot

    def test_evacuated_server_excluded_from_provision(self):
        table = self._provision()
        table.begin_rebuild("bs0", [s for s in self.SERVERS if s != "bs0"])
        assert table.evacuated == frozenset({"bs0"})
        segments = table.provision(
            "vd1", 8 * 1024 * 1024, self.SERVERS, self.SERVERS
        )
        for seg in segments:
            assert seg.block_server != "bs0"
            assert "bs0" not in seg.replicas

    def test_evacuated_servers_excluded_as_replacements(self):
        table = self._provision()
        table.begin_rebuild("bs0", [s for s in self.SERVERS if s != "bs0"])
        # bs0 sneaking into the replacement list must be ignored, not
        # receive segments back while still quarantined.
        table.begin_rebuild("bs1", ["bs0", "bs2", "bs3", "bs4"])
        assert table.segments_on("bs0") == []

    def test_restore_lifts_quarantine(self):
        table = self._provision()
        healthy = [s for s in self.SERVERS if s != "bs0"]
        table.begin_rebuild("bs0", healthy)
        table.restore("bs0")
        assert table.evacuated == frozenset()
        segments = table.provision(
            "vd1", 8 * 1024 * 1024, ["bs0"], ["bs0", "bs1", "bs2"]
        )
        assert all(seg.block_server == "bs0" for seg in segments)
        # A restored server that dies again evacuates normally.
        assert sum(table.begin_rebuild("bs0", healthy)[0].values()) > 0


class TestQos:
    def test_token_bucket_admits_within_rate(self):
        bucket = TokenBucket(rate_per_s=1000, burst=10)
        assert bucket.reserve(0, 1) == 0

    def test_token_bucket_delays_over_burst(self):
        bucket = TokenBucket(rate_per_s=1000, burst=2)
        bucket.reserve(0, 2)
        delay = bucket.reserve(0, 1)
        assert delay > 0
        # 1 token at 1000/s = 1ms.
        assert delay == pytest.approx(1_000_000, rel=0.01)

    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate_per_s=1000, burst=5)
        bucket.reserve(0, 5)
        assert bucket.reserve(10_000_000, 5) == 0  # 10ms → 10 tokens (cap 5)

    def test_time_backwards_rejected(self):
        bucket = TokenBucket(1000, 5)
        bucket.reserve(1000, 1)
        with pytest.raises(ValueError):
            bucket.reserve(500, 1)

    def test_qos_table_dual_buckets(self):
        table = QosTable()
        table.install("vd", QosSpec(iops_limit=100, bandwidth_bps=8_000_000,
                                    burst_ios=1, burst_bytes=1_000_000))
        assert table.admit("vd", 0, 4096) == 0
        assert table.admit("vd", 0, 4096) > 0  # IOPS bucket exhausted

    def test_uninstalled_vd_rejected(self):
        with pytest.raises(KeyError):
            QosTable().admit("ghost", 0, 4096)

    def test_bandwidth_constrains_large_io(self):
        table = QosTable()
        table.install("vd", QosSpec(iops_limit=1e9, bandwidth_bps=8e6,
                                    burst_ios=1e9, burst_bytes=4096))
        table.admit("vd", 0, 4096)
        delay = table.admit("vd", 0, 4096)
        assert delay > 0


def _storage_stack(sim, n_chunks=3):
    chunks = {}
    for i in range(n_chunks):
        server = StorageServer(sim, Endpoint(sim, f"chunk{i}"), "chunk")
        chunks[server.name] = ChunkServer(sim, server, DEFAULT.ssd)
    bs_server = StorageServer(sim, Endpoint(sim, "bs0"), "block")
    bn = BackendNetwork(sim, DEFAULT, "rdma")
    block_server = BlockServer(sim, bs_server, bn, chunks, DEFAULT.ssd)
    table = SegmentTable()
    segments = table.provision("vd", 8 * 1024 * 1024, ["bs0"], list(chunks))
    return block_server, chunks, table, segments


class TestChunkAndBlockServers:
    def test_write_replicates_to_all_chunks(self):
        sim = Simulator(seed=4)
        block_server, chunks, _table, segments = _storage_stack(sim)
        block = DataBlock("vd", 0, BLOCK_SIZE, b"\x07" * BLOCK_SIZE)
        acks = []
        block_server.handle_write(segments[0], block, block.crc,
                                  lambda ok, replies: acks.append((ok, replies)))
        sim.run()
        assert acks and acks[0][0] is True
        stored = sum(
            (segments[0].segment_id, 0) in c.store for c in chunks.values()
        )
        assert stored == 3  # three copies, §2.2

    def test_read_returns_written_payload(self):
        sim = Simulator(seed=4)
        block_server, chunks, _t, segments = _storage_stack(sim)
        payload = b"\x3c" * BLOCK_SIZE
        block = DataBlock("vd", 2, BLOCK_SIZE, payload)
        block_server.handle_write(segments[0], block, block.crc, lambda ok, r: None)
        sim.run()
        got = []
        block_server.handle_read(segments[0], "vd", 2, BLOCK_SIZE, got.append)
        sim.run()
        assert got[0].data == payload
        assert got[0].crc == block.crc

    def test_read_of_unwritten_space_returns_zeros(self):
        sim = Simulator(seed=4)
        block_server, _c, _t, segments = _storage_stack(sim)
        got = []
        block_server.handle_read(segments[0], "vd", 99, BLOCK_SIZE, got.append)
        sim.run()
        assert got[0].data == bytes(BLOCK_SIZE)

    def test_reply_carries_service_time(self):
        sim = Simulator(seed=4)
        block_server, _c, _t, segments = _storage_stack(sim)
        got = []
        block_server.handle_read(segments[0], "vd", 0, BLOCK_SIZE, got.append)
        sim.run()
        assert got[0].service_ns > 0

    def test_landing_writes_hold_only_those_in_flight(self):
        # A write-only stream never reads its chunk store, yet blocks that
        # completed before a later write arrives must have left the
        # landing heap, or memory grows with every write.
        sim = Simulator(seed=4)
        block_server, chunks, _t, segments = _storage_stack(sim)
        for lba in range(200):
            block = DataBlock("vd", lba % 16, BLOCK_SIZE)
            sim.schedule_at_fire(lba * 100 * US, block_server.handle_write,
                                 segments[0], block, block.crc, lambda ok, r: None)
        sim.run(until=200 * 100 * US - 1)
        assert all(len(c._landing) <= 1 for c in chunks.values())
        sim.run()
        assert all(len(c.store) == 16 for c in chunks.values())

    def test_bad_chunk_request_kind(self):
        with pytest.raises(ValueError):
            ChunkRequest("erase", "seg", "vd", 0, BLOCK_SIZE)

    def test_bn_one_way_scales_with_size(self):
        sim = Simulator(seed=1)
        bn = BackendNetwork(sim, DEFAULT, "rdma")
        small = sum(bn.one_way_ns(64) for _ in range(20)) / 20
        large = sum(bn.one_way_ns(256 * 1024) for _ in range(20)) / 20
        assert large > small + 10 * US

    def test_bn_kernel_slower_than_rdma(self):
        sim = Simulator(seed=1)
        rdma = BackendNetwork(sim, DEFAULT, "rdma")
        kern = BackendNetwork(sim, DEFAULT, "kernel")
        r = sum(rdma.one_way_ns(4096) for _ in range(20)) / 20
        k = sum(kern.one_way_ns(4096) for _ in range(20)) / 20
        assert k > r * 2

    def test_bn_mode_validation(self):
        with pytest.raises(ValueError):
            BackendNetwork(Simulator(), DEFAULT, "quic")
