"""The event folds are exact: each folded resource behaves like the
two-event reference it replaced, kept here.

* A chunk server reserves its CPU job and its SSD operation in one call;
  the reference fires a CPU-done event and submits to the SSD from it.
* A DMA engine starts its PCIe transfer at ``now + setup_ns`` at the
  earliest; the reference fires a setup event and starts the transfer
  from it.
* A block server's replica replies land on one join; the reference
  gives every reply an event of its own and acks from the last one.

Random arrival streams drive both sides from identically scheduled
events, and everything the rest of the model can see must match: reply
times and order, the SSD's channel state and random-stream position, the
link's state.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import DmaEngine, PcieLink
from repro.host.server import StorageServer
from repro.net.endpoint import Endpoint
from repro.profiles import BLOCK_SIZE, DEFAULT
from repro.sim import Simulator
from repro.storage import BackendNetwork, BlockServer, DataBlock, Segment
from repro.storage.chunk_server import CHUNK_REQUEST_KINDS, ChunkRequest, ChunkServer


class TwoEventChunkServer(ChunkServer):
    """The reference: the SSD operation is submitted from a CPU-done event."""

    def handle(self, request, reply):
        start_ns = self.sim.now
        core = self.server.cpu.least_loaded()
        core.submit(self.profile.chunk_cpu_ns, self._after_cpu, request, reply, start_ns)

    def _after_cpu(self, request, reply, start_ns):
        finish, submit = {
            "write": (self._finish_write, self.ssd.submit_write),
            "read": (self._finish_read, self.ssd.submit_read),
            "rebuild_read": (self._finish_rebuild_read, self.ssd.submit_read),
            "rebuild_write": (self._finish_rebuild_write, self.ssd.submit_write),
        }[request.kind]
        submit(request.size_bytes, self.sim.now, finish, request, reply, start_ns)


class SetupEventDma(DmaEngine):
    """The reference: the transfer starts from a setup event."""

    def _move(self, size_bytes, callback, *args):
        self.sim.schedule_fire(self.setup_ns, self.pcie.transfer, size_bytes, callback, *args)


#: One arrival: (gap after the previous one, chunk request kind or
#: ``None`` for a foreign CPU job, size in blocks, foreign cost, core).
ARRIVALS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 500, 2_000, 4_000, 9_000]),
        st.sampled_from(CHUNK_REQUEST_KINDS + (None,)),
        st.sampled_from([1, 4, 16]),
        st.integers(0, 12_000),
        st.integers(0, 7),
    ),
    max_size=60,
)


def run_chunk_server(cls, arrivals, cores, channels, seed, cpu_cost=None):
    """Replies, SSD channels and SSD stream state of one run.
    ``cpu_cost`` maps a request kind to its CPU cost (default: the
    profile's single ``chunk_cpu_ns``)."""
    sim = Simulator(seed=seed)
    server = StorageServer(sim, Endpoint(sim, "c0"), "chunk", cores=cores)
    profile = dataclasses.replace(DEFAULT.ssd, channels=channels)
    chunk = cls(sim, server, profile)
    replies = []

    def reply(chunk_reply, frame_bytes):
        replies.append((sim.now, chunk_reply.kind, chunk_reply.lba,
                        chunk_reply.service_ns, frame_bytes))

    def arrive(index, kind, blocks, cost, core):
        if kind is None:
            server.cpu.cores[core % cores].submit(cost)
            return
        if cpu_cost is not None:
            chunk.profile = dataclasses.replace(profile, chunk_cpu_ns=cpu_cost[kind])
        entries = [(index, None, index)] if kind == "rebuild_write" else []
        chunk.handle(
            ChunkRequest(kind, "seg", "vd", index % 8, blocks * BLOCK_SIZE,
                         crc=index, entries=entries),
            reply,
        )

    at = 0
    for index, (gap, kind, blocks, cost, core) in enumerate(arrivals):
        at += gap
        sim.schedule_at_fire(at, arrive, index, kind, blocks, cost, core)
    sim.run()
    return replies, list(chunk.ssd._channels), chunk.ssd._rng.getstate(), chunk.store


@settings(max_examples=150, deadline=None)
@given(arrivals=ARRIVALS, cores=st.integers(1, 3), channels=st.sampled_from([1, 2, 16]),
       seed=st.integers(0, 3))
def test_chunk_server_matches_cpu_done_event_reference(arrivals, cores, channels, seed):
    assert run_chunk_server(ChunkServer, arrivals, cores, channels, seed) == run_chunk_server(
        TwoEventChunkServer, arrivals, cores, channels, seed
    )


def test_reference_tells_unequal_cpu_costs_apart():
    # The premise matters: when a write costs more CPU than a read, a
    # read arriving later on another core reaches the SSD first in the
    # reference, and the fold (reserving the SSD on arrival) is not exact.
    costs = {"write": 10_000, "read": 1_000, "rebuild_read": 1_000, "rebuild_write": 1_000}
    arrivals = [(0, "write", 1, 0, 0), (100, "read", 1, 0, 0)]
    folded = run_chunk_server(ChunkServer, arrivals, 2, 1, 0, cpu_cost=costs)
    reference = run_chunk_server(TwoEventChunkServer, arrivals, 2, 1, 0, cpu_cost=costs)
    assert folded != reference


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


class EventPerReplyBlockServer(BlockServer):
    """The reference: each replica reply is an event, and the last to
    land acks the block.  It also notes when each reply was sent and
    when it landed, per block, in ``timings``."""

    def _fan_out_write(self, segment, block, crc, on_done):
        request = ChunkRequest("write", segment.segment_id, block.vd_id, block.lba,
                               block.size_bytes, data=block.data, crc=crc)
        replies = []
        timing = []
        self.timings.append(timing)

        def landed(sent_reply):
            sent_ns, reply = sent_reply
            timing.append((sent_ns, self.sim.now))
            replies.append(reply)
            if len(replies) == len(segment.replicas):
                on_done(all(r.ok for r in replies), replies)

        def noting_send(chunk):
            def handle(request, reply):
                chunk.handle(request, lambda value, size: reply((self.sim.now, value), size))
            return handle

        for replica in segment.replicas:
            self.bn.call(noting_send(self._chunk(replica)), request,
                         block.size_bytes + 128, landed)


#: One write: (gap after the previous one, replicas, size in bytes).
WRITES = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 2_000, 15_000]), st.integers(1, 3),
              st.sampled_from([512, BLOCK_SIZE])),
    min_size=1,
    max_size=30,
)
#: One foreign read, due when a block's last reply lands (its ack):
#: (which block, when it is queued).  It is queued either at one of that
#: block's reply sends (or 1 ns after), which puts its seq between the
#: replies' seqs, or a fixed lead before it is due.
FOREIGN = st.lists(
    st.tuples(
        st.integers(0, 999),
        st.one_of(
            st.tuples(st.just("send"), st.integers(0, 2), st.sampled_from([0, 1])),
            st.tuples(st.just("lead"), st.sampled_from([0, 1, 700, 20_000]), st.just(0)),
        ),
    ),
    max_size=20,
)


def run_block_server(cls, writes, foreign, seed, ssd_sigma, timings=()):
    """Acks and foreign reads in fired order, RNG states and event count.
    ``timings`` are the reference's per-block (sent, landed) reply times,
    from which each foreign read takes its due and queueing instants; it
    draws from the same BN and SSD streams as the writes.  ``ssd_sigma``
    0 makes the replicas' SSD times differ only by the BN jitter, so the
    last reply to land is often not the last one sent."""
    sim = Simulator(seed=seed)
    profile = dataclasses.replace(DEFAULT.ssd, write_cache_sigma=ssd_sigma)
    chunks = {}
    for i in range(3):
        server = StorageServer(sim, Endpoint(sim, f"chunk{i}"), "chunk", cores=2)
        chunks[server.name] = ChunkServer(sim, server, profile)
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

    def read(index):
        fired.append((sim.now, "foreign", index))
        chunk = chunks[names[index % 3]]
        bn.call(chunk.handle, ChunkRequest("read", "seg3", "vd", index, BLOCK_SIZE), 128,
                lambda reply: fired.append((sim.now, "read", index, reply.service_ns)))

    def arm(due_ns, index):
        sim.schedule_at_fire(due_ns, read, index)

    at = 0
    for index, (gap, replicas, size) in enumerate(writes):
        at += gap
        sim.schedule_at_fire(at, write, index, replicas, size)
    for index, (pick, (how, value, nudge)) in enumerate(foreign):
        if not timings:
            break
        timing = timings[pick % len(timings)]
        due_ns = max(landed for _, landed in timing)
        if how == "send":
            queue_ns = min(due_ns, timing[value % len(timing)][0] + nudge)
        else:
            queue_ns = max(0, due_ns - value)
        sim.schedule_at_fire(queue_ns, arm, due_ns, index)
    sim.run()
    streams = [bn._rng.getstate()] + [c.ssd._rng.getstate() for c in chunks.values()]
    return fired, streams, sim.events_processed, block_server.timings


@settings(max_examples=150, deadline=None)
@given(writes=WRITES, foreign=FOREIGN, seed=st.integers(0, 3),
       ssd_sigma=st.sampled_from([0.0, DEFAULT.ssd.write_cache_sigma]))
def test_block_server_fan_out_matches_event_per_reply_reference(writes, foreign, seed,
                                                                ssd_sigma):
    # The reference's reply times, found without foreign reads, place the
    # foreign reads; both runs then get the same ones.
    timings = run_block_server(EventPerReplyBlockServer, writes, [], seed, ssd_sigma)[3]
    fired, streams, events, _ = run_block_server(
        BlockServer, writes, foreign, seed, ssd_sigma, timings
    )
    ref_fired, ref_streams, ref_events, _ = run_block_server(
        EventPerReplyBlockServer, writes, foreign, seed, ssd_sigma, timings
    )
    assert (fired, streams) == (ref_fired, ref_streams)
    # Only the no-op replies are gone: all but one per block.
    assert events == ref_events - sum(replicas - 1 for _, replicas, _ in writes)
