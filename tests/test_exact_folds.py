"""The event folds are exact: each folded resource behaves like the
two-event reference it replaced, kept here.

* A chunk server reserves its CPU job and its SSD operation in one call;
  the reference fires a CPU-done event and submits to the SSD from it.
* A DMA engine starts its PCIe transfer at ``now + setup_ns`` at the
  earliest; the reference fires a setup event and starts the transfer
  from it.

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
