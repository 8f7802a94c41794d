"""The event folds are exact: each folded resource behaves like the
event-per-step reference it replaced, kept here.

* A chunk server reserves its CPU job and its SSD operation in one call,
  and a write replies at once with its SSD completion time; the
  reference fires a CPU-done event, submits to the SSD from it, and
  stores the block and replies from an SSD-done event.
* A DMA engine starts its PCIe transfer at ``now + setup_ns`` at the
  earliest; the reference fires a setup event and starts the transfer
  from it.
* The DPU runs one event at DMA done + pipeline latency; the reference
  fires a DMA-done event and an FPGA-done event from it.
* A block server's replica replies land on one join; the reference
  gives every reply an event of its own and acks from the last one.

The BN draws both jitters of an RPC at send.  Every event a fold removes
is ranked in the reference where its chain started: it is queued under
a ``seq`` reserved there, as the folded event takes its own there.
Random arrival streams drive both sides from identically scheduled
events, foreign events share their nanoseconds, and everything the rest
of the model can see must match: reply times and order, what every read
returns, the stores, the random-stream positions, the SSD's channels and
the link's state.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpu_offload import SolarOffload
from repro.core.tables import AddrEntry
from repro.faults.fpga_errors import BitFlipInjector
from repro.host import DmaEngine, PcieLink
from repro.host.dpu import AliDpu
from repro.host.server import StorageServer
from repro.net.endpoint import Endpoint
from repro.profiles import BLOCK_SIZE, DEFAULT
from repro.sim import Simulator
from repro.storage import BackendNetwork, BlockServer, DataBlock, Segment
from repro.storage.chunk_server import (
    CHUNK_REQUEST_KINDS,
    ChunkReply,
    ChunkRequest,
    ChunkServer,
    _synthetic_crc,
)
from repro.storage.segment_table import BLOCKS_PER_SEGMENT


def reserve(sim):
    """Take the ``seq`` a schedule call made now would take."""
    seq = sim._seq
    sim._seq = seq + 1
    return seq


def ranked(sim, seq, fn, *args):
    """Call ``fn``, whose one schedule call takes ``seq``, reserved earlier."""
    resume = sim._seq
    sim._seq = seq
    fn(*args)
    sim._seq = resume


class EventPerStepChunkServer(ChunkServer):
    """The reference: a CPU-done event, then an SSD-done event for every
    kind; a write stores its block and replies from its SSD-done event,
    due now.  The SSD-done event and a write's reply take ``seq``s
    reserved on arrival."""

    def handle(self, request, reply):
        sim = self.sim
        ssd_seq, reply_seq = reserve(sim), reserve(sim)
        core = self.server.cpu.least_loaded()
        core.submit(self.profile.chunk_cpu_ns, self._after_cpu, request, reply,
                    sim.now, ssd_seq, reply_seq)

    def _after_cpu(self, request, reply, start_ns, ssd_seq, reply_seq):
        reads = request.kind in ("read", "rebuild_read")
        submit = self.ssd.submit_read if reads else self.ssd.submit_write
        done = submit(request.size_bytes, self.sim.now)
        self.sim._queue_as(ssd_seq, done, self._ssd_done, (request, reply, start_ns, reply_seq))

    def _ssd_done(self, request, reply, start_ns, reply_seq):
        sim = self.sim
        if request.kind != "write":
            finish = {
                "read": self._finish_read,
                "rebuild_read": self._finish_rebuild_read,
                "rebuild_write": self._finish_rebuild_write,
            }[request.kind]
            finish(request, reply, start_ns, -1)  # nothing ever waits to land here
            return
        payload = request.data if self.store_payloads else None
        crc = request.crc if request.crc is not None else _synthetic_crc(request)
        self._store[(request.segment_id, request.lba)] = (payload, crc)
        value = ChunkReply(True, "write", request.segment_id, request.lba, request.size_bytes,
                           service_ns=sim.now - start_ns)
        ranked(sim, reply_seq, reply, value, 64, sim.now)


#: One arrival: (gap after the previous one, chunk request kind or
#: ``None`` for a foreign CPU job, size in blocks, foreign cost, core,
#: LBA).  A 55 us gap lets a later 4 KiB write complete on its SSD in
#: the same nanosecond as an earlier NAND read when SSD times are fixed.
ARRIVALS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 500, 2_000, 4_000, 9_000, 55_000]),
        st.sampled_from(CHUNK_REQUEST_KINDS + (None,)),
        st.sampled_from([1, 1, 4, 16]),
        st.integers(0, 12_000),
        st.integers(0, 7),
        st.integers(0, 3),
    ),
    max_size=60,
)
#: One foreign event, due when a request's reply is: (which request,
#: when it is queued).  It is queued at the request's arrival (its seq
#: then comes before the arrival's own, since these are queued first) or
#: 1 ns after it (its seq comes between the arrival and the SSD
#: completion), or a fixed lead before it is due.
FOREIGN = st.lists(
    st.tuples(
        st.integers(0, 999),
        st.one_of(
            st.tuples(st.just("arrival"), st.sampled_from([0, 1])),
            st.tuples(st.just("lead"), st.sampled_from([0, 1, 700, 20_000])),
        ),
    ),
    max_size=20,
)
#: SSD profiles: the default, and fixed service times (ties are common).
SSD_PROFILES = {
    "default": DEFAULT.ssd,
    "fixed": dataclasses.replace(DEFAULT.ssd, write_cache_sigma=0.0, nand_read_sigma=0.0,
                                 read_cache_hit_ratio=0.0),
}


def place(timings, foreign):
    """``(queue_ns, due_ns)`` per foreign event, from ``(sent, due)``
    pairs noted by a reference run without foreign events."""
    placed = []
    for pick, (how, value) in foreign:
        if not timings:
            break
        sent_ns, due_ns = timings[pick % len(timings)]
        placed.append((min(due_ns, sent_ns + value) if how == "arrival"
                       else max(0, due_ns - value), due_ns))
    return placed


def run_chunk_server(cls, arrivals, cores, channels, seed, ssd="default", foreign=(),
                     cpu_cost=None):
    """Fired replies and foreign events, the SSD's channels and stream
    state, the store, and each request's ``(arrival, reply due)``.
    ``cpu_cost`` maps a request kind to its CPU cost (default: the
    profile's single ``chunk_cpu_ns``)."""
    sim = Simulator(seed=seed)
    server = StorageServer(sim, Endpoint(sim, "c0"), "chunk", cores=cores)
    profile = dataclasses.replace(SSD_PROFILES[ssd], channels=channels)
    chunk = cls(sim, server, profile)
    fired = []
    timings = []

    def record(chunk_reply, frame_bytes):
        fired.append((sim.now, chunk_reply.kind, chunk_reply.lba, chunk_reply.service_ns,
                      frame_bytes, chunk_reply.crc, chunk_reply.entries))

    def arrive(index, kind, blocks, cost, core, lba):
        if kind is None:
            server.cpu.cores[core % cores].submit(cost)
            return
        if cpu_cost is not None:
            chunk.profile = dataclasses.replace(profile, chunk_cpu_ns=cpu_cost[kind])
        arrived_ns = sim.now

        def reply(chunk_reply, frame_bytes, at_ns):
            timings.append((arrived_ns, at_ns))
            sim.schedule_at_fire(at_ns, record, chunk_reply, frame_bytes)

        entries = [(lba, None, index)] if kind == "rebuild_write" else []
        chunk.handle(
            ChunkRequest(kind, "seg", "vd", lba, blocks * BLOCK_SIZE, crc=index,
                         entries=entries),
            reply,
        )

    at = 0
    for index, (gap, kind, blocks, cost, core, lba) in enumerate(arrivals):
        at += gap
        sim.schedule_at_fire(at, arrive, index, kind, blocks, cost, core, lba)
    for index, (queue_ns, due_ns) in enumerate(foreign):
        sim.schedule_at_fire(queue_ns, sim.schedule_at_fire, due_ns, fired.append,
                             (due_ns, "foreign", index))
    sim.run()
    return (fired, list(chunk.ssd._channels), chunk.ssd._rng.getstate(), chunk.store,
            sorted(timings))


@settings(max_examples=200, deadline=None)
@given(arrivals=ARRIVALS, cores=st.integers(1, 3), channels=st.sampled_from([1, 2, 16]),
       seed=st.integers(0, 3), ssd=st.sampled_from(sorted(SSD_PROFILES)), foreign=FOREIGN)
def test_chunk_server_matches_cpu_done_event_reference(arrivals, cores, channels, seed, ssd,
                                                       foreign):
    # The reference's timings, found without foreign events, place them;
    # both runs then get the same ones.
    timings = run_chunk_server(EventPerStepChunkServer, arrivals, cores, channels, seed, ssd)[4]
    placed = place(timings, foreign)
    folded = run_chunk_server(ChunkServer, arrivals, cores, channels, seed, ssd, placed)
    reference = run_chunk_server(EventPerStepChunkServer, arrivals, cores, channels, seed, ssd,
                                 placed)
    assert folded == reference


def test_a_write_landing_with_a_read_is_visible_only_to_later_arrivals():
    # Fixed SSD times on two channels: a 4 KiB NAND read of block 0 that
    # arrives 55 us before a write of block 0 completes in the same
    # nanosecond as the write and misses it, as the reference's SSD-done
    # events, ranked by arrival, say.  A second read, arriving with the
    # write, completes later and sees it.
    arrivals = [(0, "read", 1, 0, 0, 0), (55_000, "write", 1, 0, 0, 0),
                (0, "read", 1, 0, 0, 0)]
    fired, _, _, store, timings = run_chunk_server(ChunkServer, arrivals, 3, 2, 0, "fixed")
    reference = run_chunk_server(EventPerStepChunkServer, arrivals, 3, 2, 0, "fixed")
    assert (fired, store, timings) == (reference[0], reference[3], reference[4])
    (_, first_read_done), (_, write_done), _ = timings
    assert first_read_done == write_done
    # The write is request 1, so its block carries crc 1.
    assert [f[5] for f in fired if f[1] == "read"][0] != 1
    assert [f[5] for f in fired if f[1] == "read"][1] == 1


def test_reference_tells_unequal_cpu_costs_apart():
    # The premise matters: when a write costs more CPU than a read, a
    # read arriving later on another core reaches the SSD first in the
    # reference, and the fold (reserving the SSD on arrival) is not exact.
    costs = {"write": 10_000, "read": 1_000, "rebuild_read": 1_000, "rebuild_write": 1_000}
    arrivals = [(0, "write", 1, 0, 0, 0), (100, "read", 1, 0, 0, 0)]
    folded = run_chunk_server(ChunkServer, arrivals, 2, 1, 0, cpu_cost=costs)
    reference = run_chunk_server(EventPerStepChunkServer, arrivals, 2, 1, 0, cpu_cost=costs)
    assert folded != reference


class SetupEventDma(DmaEngine):
    """The reference: the transfer starts from a setup event."""

    def _move(self, size_bytes, callback, *args):
        self.sim.schedule_fire(self.setup_ns, self.pcie.transfer, size_bytes, callback, *args)


DMA_OPS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 100, 700, 3_000]),
        st.booleans(),
        st.sampled_from([0, 64, 4096, 16384, 65536]),
    ),
    max_size=60,
)


def run_dma(cls, ops, setup_ns):
    """Completions (time, index), link state and returned times of one run."""
    sim = Simulator()
    pcie = PcieLink(sim, "p", gbps=12.0, per_transfer_latency_ns=900)
    dma = cls(sim, "dma", pcie, setup_ns=setup_ns)
    done = []
    returned = {}

    def issue(index, is_read, size):
        move = dma.read_from_guest if is_read else dma.write_to_guest
        returned[index] = move(size, lambda: done.append((sim.now, index)))

    at = 0
    for index, (gap, is_read, size) in enumerate(ops):
        at += gap
        sim.schedule_at_fire(at, issue, index, is_read, size)
    sim.run()
    link = (pcie.busy_until, pcie.bytes_moved, pcie.transfers, dma.reads, dma.writes)
    return done, link, returned


@settings(max_examples=150, deadline=None)
@given(ops=DMA_OPS, setup_ns=st.sampled_from([0, 200, 700]))
def test_dma_matches_setup_event_reference(ops, setup_ns):
    done, link, returned = run_dma(DmaEngine, ops, setup_ns)
    ref_done, ref_link, _ = run_dma(SetupEventDma, ops, setup_ns)
    assert (done, link) == (ref_done, ref_link)
    # The folded engine returns each operation's completion time.
    assert all(returned[index] == t for t, index in done)


class EventPerStepOffload(SolarOffload):
    """The reference: a DMA-done event, then an FPGA-done event queued
    from it under a ``seq`` reserved at issue.  The egress CRC, SEC and
    fault work runs in the FPGA-done event, as in the fold."""

    def _after_dma(self, dma_done, fn, *args):
        sim = self.sim
        fpga_seq = reserve(sim)
        sim.schedule_at_fire(dma_done, self._dma_done, fpga_seq, fn, args)

    def _dma_done(self, fpga_seq, fn, args):
        sim = self.sim
        sim._queue_as(fpga_seq, sim.now + self.dpu.fpga.pipeline_latency_ns, fn, args)


#: One DPU operation: (gap after the previous one, egress or ingress,
#: size in bytes, whether an ingress block has an Addr entry).
DPU_OPS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 300, 1_000, 2_300, 5_000]),
        st.booleans(),
        st.sampled_from([512, BLOCK_SIZE]),
        st.sampled_from([True, True, False]),
    ),
    max_size=40,
)


def run_offload(cls, ops, seed, flip_rate, foreign=()):
    """Fired completions and foreign events, the link's and injector's
    state, and each operation's ``(issue, completion)``."""
    sim = Simulator(seed=seed)
    dpu = AliDpu(sim, "dpu", DEFAULT.dpu, DEFAULT.pcie,
                 fpga_pipeline_ns=DEFAULT.solar.fpga_pipeline_ns)
    injector = BitFlipInjector(sim.rng.stream("faults"), flip_rate, flip_rate)
    offload = cls(sim, dpu, DEFAULT, fault_injector=injector)
    segment = Segment("seg", "vd", 0, BLOCKS_PER_SEGMENT, "bs", ("c0",))
    offload.install_vd("vd", [segment])
    fired = []
    timings = []

    def completed(index, issued_ns, result):
        timings.append((issued_ns, sim.now))
        fired.append((sim.now, index, dataclasses.astuple(result)))

    def issue(index, egress, size, mapped):
        payload = bytes([index % 251]) * size
        if egress:
            block = DataBlock("vd", index, size, data=payload)
            offload.write_block_datapath(block, segment,
                                         lambda res, i=index, t=sim.now: completed(i, t, res))
            return
        if mapped:
            offload.addr_table.install(AddrEntry(index, 0, index * BLOCK_SIZE, size, "vd", index))
        offload.read_block_datapath(index, 0, payload, index,
                                    lambda res, i=index, t=sim.now: completed(i, t, res))

    at = 0
    for index, (gap, egress, size, mapped) in enumerate(ops):
        at += gap
        sim.schedule_at_fire(at, issue, index, egress, size, mapped)
    for index, (queue_ns, due_ns) in enumerate(foreign):
        sim.schedule_at_fire(queue_ns, sim.schedule_at_fire, due_ns, fired.append,
                             (due_ns, "foreign", index))
    sim.run()
    host = dpu.host_pcie
    state = (host.busy_until, host.bytes_moved, host.transfers, injector.rng.getstate(),
             injector.payload_flips, injector.crc_flips)
    return fired, state, sorted(timings)


@settings(max_examples=200, deadline=None)
@given(ops=DPU_OPS, seed=st.integers(0, 3), flip_rate=st.sampled_from([0.0, 0.3]),
       foreign=FOREIGN)
def test_offload_matches_dma_then_fpga_event_reference(ops, seed, flip_rate, foreign):
    timings = run_offload(EventPerStepOffload, ops, seed, flip_rate)[2]
    placed = place(timings, foreign)
    folded = run_offload(SolarOffload, ops, seed, flip_rate, placed)
    assert folded == run_offload(EventPerStepOffload, ops, seed, flip_rate, placed)


class EventPerReplyBlockServer(BlockServer):
    """The reference: each replica reply is an event, drawn at send by
    the reference itself, and the last to land acks the block.  It also
    notes, per block, when each replica's request arrived and when its
    reply landed, in ``timings``."""

    def _fan_out_write(self, segment, block, crc, on_done):
        request = ChunkRequest("write", segment.segment_id, block.vd_id, block.lba,
                               block.size_bytes, data=block.data, crc=crc)
        sim, bn = self.sim, self.bn
        gauss = bn._rng.gauss
        replies = []
        timing = []
        self.timings.append(timing)

        def landed(arrived_ns, reply):
            timing.append((arrived_ns, sim.now))
            replies.append(reply)
            if len(replies) == len(segment.replicas):
                on_done(all(r.ok for r in replies), replies)

        def send(chunk, factor):
            def handle(request):
                arrived_ns = sim.now

                def reply(value, size_bytes, at_ns):
                    delay = max(1, int(bn._base(size_bytes) * factor))
                    sim.schedule_at_fire(at_ns + delay, landed, arrived_ns, value)

                chunk.handle(request, reply)

            return handle

        bn.calls += len(segment.replicas)
        size = block.size_bytes + 128
        for replica in segment.replicas:
            request_ns = max(1, int(bn._base(size) * math.exp(gauss(0.0, 0.05))))
            factor = math.exp(gauss(0.0, 0.05))
            sim.schedule_fire(request_ns, send(self._chunk(replica), factor), request)


#: One write: (gap after the previous one, replicas, size in bytes).
WRITES = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 2_000, 15_000]), st.integers(1, 3),
              st.sampled_from([512, BLOCK_SIZE])),
    min_size=1,
    max_size=30,
)


def run_block_server(cls, chunk_cls, writes, reads, seed, ssd_sigma, placed=()):
    """Acks and foreign reads in fired order, the stores, RNG states,
    the event count and the reference's per-replica ``(arrived,
    landed)`` times.  Each foreign read is due at a placed instant and
    reads a written block from one of its replicas, through the same BN
    and chunk servers as the writes.  ``ssd_sigma`` 0 makes the replicas'
    SSD times differ only by the BN jitter, so the last reply to land is
    often not the last one sent."""
    sim = Simulator(seed=seed)
    profile = dataclasses.replace(DEFAULT.ssd, write_cache_sigma=ssd_sigma)
    chunks = {}
    for i in range(3):
        server = StorageServer(sim, Endpoint(sim, f"chunk{i}"), "chunk", cores=2)
        chunks[server.name] = chunk_cls(sim, server, profile)
    bn = BackendNetwork(sim, DEFAULT, "rdma")
    block_server = cls(sim, StorageServer(sim, Endpoint(sim, "bs0"), "block", cores=2),
                       bn, chunks, DEFAULT.ssd)
    block_server.timings = []
    names = tuple(chunks)
    fired = []

    def ack(index, ok, replies):
        fired.append((sim.now, "ack", index, ok,
                      [(r.segment_id, r.lba, r.service_ns) for r in replies]))

    def write(index, replicas, size):
        segment = Segment(f"seg{replicas}", "vd", 0, 1024, "bs0", names[:replicas])
        block = DataBlock("vd", index, size)
        block_server.handle_write(segment, block, block.crc,
                                  lambda ok, replies: ack(index, ok, replies))

    def read(index, block_index, replica):
        fired.append((sim.now, "foreign", index))
        _gap, replicas, size = writes[block_index]
        chunk = chunks[names[replica % replicas]]
        bn.call(chunk.handle, ChunkRequest("read", f"seg{replicas}", "vd", block_index, size),
                128, lambda reply: fired.append((sim.now, "read", index, reply.service_ns,
                                                 reply.crc)))

    at = 0
    for index, (gap, replicas, size) in enumerate(writes):
        at += gap
        sim.schedule_at_fire(at, write, index, replicas, size)
    for index, ((queue_ns, due_ns), (block_index, replica)) in enumerate(zip(placed, reads)):
        sim.schedule_at_fire(queue_ns, sim.schedule_at_fire, due_ns, read, index,
                             block_index % len(writes), replica)
    sim.run()
    streams = [bn._rng.getstate()] + [c.ssd._rng.getstate() for c in chunks.values()]
    stores = [c.store for c in chunks.values()]
    return fired, stores, streams, sim.events_processed, block_server.timings


#: Which block a foreign read reads, and from which of its replicas.
READS = st.lists(st.tuples(st.integers(0, 999), st.integers(0, 2)), min_size=20, max_size=20)


@settings(max_examples=150, deadline=None)
@given(writes=WRITES, foreign=FOREIGN, reads=READS, seed=st.integers(0, 3),
       ssd_sigma=st.sampled_from([0.0, DEFAULT.ssd.write_cache_sigma]))
def test_block_server_fan_out_matches_event_per_reply_reference(writes, foreign, reads, seed,
                                                                ssd_sigma):
    # The reference's reply times, found without foreign reads, place the
    # foreign reads, due when a reply lands; both runs then get the same
    # ones.
    timings = run_block_server(EventPerReplyBlockServer, EventPerStepChunkServer, writes, [],
                               seed, ssd_sigma)[4]
    placed = place([replica for block in timings for replica in block], foreign)
    fired, stores, streams, events, _ = run_block_server(
        BlockServer, ChunkServer, writes, reads, seed, ssd_sigma, placed
    )
    ref_fired, ref_stores, ref_streams, ref_events, _ = run_block_server(
        EventPerReplyBlockServer, EventPerStepChunkServer, writes, reads, seed, ssd_sigma, placed
    )
    assert (fired, stores, streams) == (ref_fired, ref_stores, ref_streams)
    # Gone per block: each replica's CPU-done, SSD-done and reply events
    # but one, folded into the join; per foreign read, its CPU-done event.
    folded = sum(3 * replicas - 1 for _, replicas, _ in writes) + len(placed)
    assert events == ref_events - folded
