"""Reliable byte-stream transport engine.

This is the packet-level machinery shared by the kernel-TCP and LUNA
models (and, with different constants, the RDMA RC model): segmentation
to MSS, cumulative ACKs, fast retransmit on duplicate ACKs, RTO with
exponential backoff, slow start + AIMD congestion control, and CPU cost
accounting per TSO-sized chunk.

The crucial *structural* property all stream stacks share — and the one
SOLAR abandons (§4.4) — is that each connection lives on **one fixed
5-tuple**: ECMP pins it to a single network path, so a blackhole on that
path stalls the connection until timers grind through retries.  Multi-path
escape is impossible without changing the connection's identity.

Simplifications (documented, and deliberately favourable to the
baselines): no 3-way handshake (production uses persistent connections),
pure ACKs are not CPU-charged, and retransmissions bypass the CPU charge.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional

from ..host.cpu import CpuComplex, CpuCore
from ..net.endpoint import Endpoint
from ..net.packet import Packet
from ..sim.engine import Simulator
from .base import RpcCallback, RpcExchange, RpcTransport

_msg_ids = itertools.count(1)

ACK_BYTES = 64


@dataclass(frozen=True)
class StreamConfig:
    """Constants of one stream stack flavour."""

    proto: str
    mss: int
    tso_bytes: int
    header_overhead: int
    stack_latency_ns: int
    per_packet_cpu_ns: int
    per_byte_cpu_ns: float
    min_rto_ns: int
    max_rto_ns: int
    init_cwnd: int
    max_cwnd: int = 256
    connections_per_pair: int = 8
    dupack_threshold: int = 3
    max_retries: int = 120
    base_port: int = 10_000
    server_port: int = 5_000

    def __post_init__(self) -> None:
        if self.mss <= 0 or self.tso_bytes < self.mss:
            raise ValueError(f"bad segmentation config: mss={self.mss}, tso={self.tso_bytes}")


@dataclass(slots=True)
class Message:
    """One direction's application message (request or response)."""

    exchange: RpcExchange
    kind: str  # "req" | "resp"
    size: int
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    # --- sender state ---
    produced: int = 0  # bytes whose CPU cost has been paid
    next_offset: int = 0  # next new byte to put on the wire
    cum_acked: int = 0
    retries: int = 0
    failed: bool = False
    # --- receiver state ---
    received: Dict[int, int] = field(default_factory=dict)  # offset -> length
    cum_received: int = 0
    delivered: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"empty message for rpc {self.exchange.rpc_id}")


class _Side:
    """Per-direction sender state of one connection."""

    __slots__ = (
        "endpoint", "cpu", "transport", "queue", "current", "cwnd",
        "ssthresh", "rto_ns", "rto_timers", "rto_timer", "dupacks", "recover_until",
    )

    def __init__(self, endpoint: Endpoint, cpu: CpuComplex, transport: "StreamTransport"):
        self.endpoint = endpoint
        self.cpu = cpu
        self.transport = transport
        self.queue: Deque[Message] = deque()
        self.current: Optional[Message] = None
        self.cwnd: float = 0.0  # set from config at connection start
        self.ssthresh: float = 0.0
        self.rto_ns: int = 0
        self.rto_timers = transport.sim.timers()
        self.rto_timer: Optional[list] = None
        self.dupacks = 0
        self.recover_until = -1


class StreamConnection:
    """A single bidirectional connection on a fixed 5-tuple."""

    def __init__(
        self,
        sim: Simulator,
        config: StreamConfig,
        client: "StreamTransport",
        server: "StreamTransport",
        sport: int,
    ):
        self.sim = sim
        self.config = config
        self.sport = sport
        self.dport = config.server_port
        self.sides: Dict[str, _Side] = {
            client.endpoint.name: _Side(client.endpoint, client.cpu, client),
            server.endpoint.name: _Side(server.endpoint, server.cpu, server),
        }
        for side in self.sides.values():
            side.cwnd = float(config.init_cwnd)
            side.ssthresh = float(config.max_cwnd)
            side.rto_ns = config.min_rto_ns
        self._client_name = client.endpoint.name
        self._server_name = server.endpoint.name

    def _peer(self, name: str) -> str:
        return self._server_name if name == self._client_name else self._client_name

    def _ports(self, sender: str) -> tuple[int, int]:
        """(sport, dport) seen from the sender — mirrored for the server
        so both directions hash consistently as one 'connection'."""
        if sender == self._client_name:
            return self.sport, self.dport
        return self.dport, self.sport

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_message(self, sender: str, message: Message) -> None:
        side = self.sides[sender]
        side.queue.append(message)
        self._pump(sender)

    def queued_messages(self, sender: str) -> int:
        side = self.sides[sender]
        return len(side.queue) + (1 if side.current else 0)

    def _pump(self, sender: str) -> None:
        side = self.sides[sender]
        if side.current is not None or not side.queue:
            return
        side.current = side.queue.popleft()
        side.dupacks = 0
        side.recover_until = -1
        # TX stack traversal, then start producing chunks.
        self.sim.schedule_fire(self.config.stack_latency_ns, self._produce_chunk, sender)

    def _produce_chunk(self, sender: str) -> None:
        side = self.sides[sender]
        msg = side.current
        if msg is None or msg.failed:
            return
        if msg.produced >= msg.size:
            return
        chunk = min(self.config.tso_bytes, msg.size - msg.produced)
        cost = self.config.per_packet_cpu_ns + self.config.per_byte_cpu_ns * chunk
        core = side.transport.pick_core(self)
        core.submit(int(cost), self._chunk_ready, sender, chunk)

    def _chunk_ready(self, sender: str, chunk: int) -> None:
        side = self.sides[sender]
        msg = side.current
        if msg is None or msg.failed:
            return
        msg.produced += chunk
        self._try_send(sender)
        self._produce_chunk(sender)  # pipeline the next chunk's CPU

    def _try_send(self, sender: str) -> None:
        side = self.sides[sender]
        msg = side.current
        if msg is None or msg.failed:
            return
        window = int(side.cwnd) * self.config.mss
        while (
            msg.next_offset < msg.produced
            and msg.next_offset - msg.cum_acked < window
        ):
            length = min(self.config.mss, msg.size - msg.next_offset)
            self._emit(sender, msg, msg.next_offset, length)
            msg.next_offset += length
        if msg.next_offset > msg.cum_acked:
            self._arm_rto(sender)

    def _emit(self, sender: str, msg: Message, offset: int, length: int) -> None:
        side = self.sides[sender]
        delay = side.transport.emit_delay_ns(self)
        if delay > 0:
            self.sim.schedule_fire(delay, self._emit_now, sender, msg, offset, length)
        else:
            self._emit_now(sender, msg, offset, length)

    def _emit_now(self, sender: str, msg: Message, offset: int, length: int) -> None:
        side = self.sides[sender]
        sport, dport = self._ports(sender)
        packet = Packet(
            src=sender,
            dst=self._peer(sender),
            sport=sport,
            dport=dport,
            proto=self.config.proto,
            size_bytes=length + self.config.header_overhead,
            headers={
                "stream": {
                    "conn": self,
                    "msg": msg,
                    "offset": offset,
                    "length": length,
                }
            },
        )
        side.endpoint.send(packet)

    # ------------------------------------------------------------------
    # Receiving data
    # ------------------------------------------------------------------
    def on_data(self, packet: Packet, header: Dict[str, Any]) -> None:
        """A data segment arrived; ``header`` is its ``stream`` header."""
        msg: Message = header["msg"]
        receiver = packet.dst
        offset, length = header["offset"], header["length"]
        if offset not in msg.received:
            msg.received[offset] = length
            while msg.cum_received in msg.received:
                msg.cum_received += msg.received[msg.cum_received]
        self._send_ack(receiver, msg)
        if msg.cum_received >= msg.size and not msg.delivered:
            msg.delivered = True
            self._deliver(receiver, msg)

    def _send_ack(self, receiver: str, msg: Message) -> None:
        side = self.sides[receiver]
        sport, dport = self._ports(receiver)
        ack = Packet(
            src=receiver,
            dst=self._peer(receiver),
            sport=sport,
            dport=dport,
            proto=self.config.proto,
            size_bytes=ACK_BYTES,
            headers={"stream_ack": {"conn": self, "msg": msg, "cum": msg.cum_received}},
        )
        side.endpoint.send(ack)

    def _deliver(self, receiver: str, msg: Message) -> None:
        """Charge RX CPU + stack latency, then hand up to the transport."""
        side = self.sides[receiver]
        chunks = (msg.size + self.config.tso_bytes - 1) // self.config.tso_bytes
        cost = int(
            chunks * self.config.per_packet_cpu_ns
            + self.config.per_byte_cpu_ns * msg.size
        )
        core = side.transport.pick_core(self)
        done = core.submit(cost)
        self.sim.schedule_at_fire(
            done + self.config.stack_latency_ns,
            side.transport._deliver_message,
            self,
            msg,
        )

    # ------------------------------------------------------------------
    # ACK processing / loss recovery
    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet, header: Dict[str, Any]) -> None:
        """An ACK arrived; ``header`` is its ``stream_ack`` header."""
        msg: Message = header["msg"]
        sender = packet.dst  # the ACK's destination is the data sender
        side = self.sides[sender]
        if side.current is not msg:
            return  # stale ACK for an already-completed message
        cum = header["cum"]
        if cum > msg.cum_acked:
            msg.cum_acked = cum
            side.dupacks = 0
            side.rto_ns = self.config.min_rto_ns
            msg.retries = 0
            self._grow_cwnd(side)
            if msg.cum_acked >= msg.size:
                self._sender_done(sender, msg)
                return
            self._arm_rto(sender)
            self._try_send(sender)
        else:
            side.dupacks += 1
            if (
                side.dupacks >= self.config.dupack_threshold
                and msg.cum_acked >= side.recover_until
            ):
                # Fast retransmit: resend the missing segment, halve cwnd.
                side.recover_until = msg.next_offset
                side.ssthresh = max(2.0, side.cwnd / 2)
                side.cwnd = side.ssthresh
                side.dupacks = 0
                length = min(self.config.mss, msg.size - msg.cum_acked)
                self._emit(sender, msg, msg.cum_acked, length)

    def _grow_cwnd(self, side: _Side) -> None:
        if side.cwnd < side.ssthresh:
            side.cwnd += 1.0  # slow start
        else:
            side.cwnd += 1.0 / side.cwnd  # congestion avoidance
        side.cwnd = min(side.cwnd, float(self.config.max_cwnd))

    def _sender_done(self, sender: str, msg: Message) -> None:
        side = self.sides[sender]
        self._cancel_rto(side)
        side.current = None
        self._pump(sender)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_rto(self, sender: str) -> None:
        side = self.sides[sender]
        self._cancel_rto(side)
        side.rto_timer = side.rto_timers.add(side.rto_ns, self._on_rto, sender)

    def _cancel_rto(self, side: _Side) -> None:
        if side.rto_timer is not None:
            side.rto_timers.cancel(side.rto_timer)
            side.rto_timer = None

    def _on_rto(self, sender: str) -> None:
        side = self.sides[sender]
        side.rto_timer = None
        msg = side.current
        if msg is None or msg.failed:
            return
        msg.retries += 1
        if msg.retries > self.config.max_retries:
            msg.failed = True
            side.current = None
            side.transport._message_failed(self, msg)
            self._pump(sender)
            return
        # Timeout: collapse the window, back off, resend from the hole.
        side.ssthresh = max(2.0, side.cwnd / 2)
        side.cwnd = 1.0
        side.rto_ns = min(side.rto_ns * 2, self.config.max_rto_ns)
        length = min(self.config.mss, msg.size - msg.cum_acked)
        self._emit(sender, msg, msg.cum_acked, length)
        self._arm_rto(sender)


class StreamTransport(RpcTransport):
    """Client+server endpoint of a stream stack on one host."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: Endpoint,
        cpu: CpuComplex,
        config: StreamConfig,
    ):
        super().__init__(f"{config.proto}@{endpoint.name}")
        self.sim = sim
        self.endpoint = endpoint
        self.cpu = cpu
        self.config = config
        self.proto = config.proto
        self._pools: Dict[str, list[StreamConnection]] = {}
        self._rr = itertools.count()
        #: LUNA: each connection's pinned core, resolved on its first chunk.
        self._pinned: Dict[StreamConnection, CpuCore] = {}
        endpoint.on_proto(config.proto, self._on_packet)

    # ------------------------------------------------------------------
    def emit_delay_ns(self, conn: StreamConnection) -> int:
        """Extra per-packet NIC delay hook (see the RDMA scalability
        penalty in :mod:`repro.transport.rdma`).  Default: none."""
        return 0

    def pick_core(self, conn: StreamConnection):
        """LUNA pins each connection to a core (share-nothing, §3.2);
        the kernel model steers to the least-loaded core (softirq-ish)."""
        if self.config.proto == "luna":
            core = self._pinned.get(conn)
            if core is None:
                core = self._pinned[conn] = self.cpu.pinned(f"conn/{conn.sport}")
            return core
        return self.cpu.least_loaded()

    @property
    def active_connections(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    def _connection_to(self, server: "StreamTransport") -> StreamConnection:
        pool = self._pools.setdefault(server.endpoint.name, [])
        if len(pool) < self.config.connections_per_pair:
            conn = StreamConnection(
                self.sim, self.config, self, server,
                sport=self.config.base_port + len(pool),
            )
            pool.append(conn)
            return conn
        # Prefer the connection with the least queued work.
        start = next(self._rr) % len(pool)
        rotated = pool[start:] + pool[:start]
        return min(rotated, key=lambda c: c.queued_messages(self.endpoint.name))

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def call(
        self,
        server: "StreamTransport",
        payload: Any,
        request_bytes: int,
        response_hint: int,
        on_done: RpcCallback,
    ) -> RpcExchange:
        exchange = RpcExchange(
            client=self.endpoint.name,
            server=server.endpoint.name,
            payload=payload,
            request_bytes=request_bytes,
            response_hint=response_hint,
            on_done=on_done,
            issued_ns=self.sim.now,
        )
        self.rpcs_sent += 1
        conn = self._connection_to(server)
        conn.send_message(self.endpoint.name, Message(exchange, "req", request_bytes))
        return exchange

    # ------------------------------------------------------------------
    # Packet demux
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        header = packet.headers.get("stream_ack")
        if header is not None:
            header["conn"].on_ack(packet, header)
        else:
            header = packet.header("stream")
            header["conn"].on_data(packet, header)

    # ------------------------------------------------------------------
    # Message completion hooks (called by connections)
    # ------------------------------------------------------------------
    def _deliver_message(self, conn: StreamConnection, msg: Message) -> None:
        exchange = msg.exchange
        if msg.kind == "req":
            exchange.request_delivered_ns = self.sim.now

            def respond(response_bytes: int, response_payload: Any) -> None:
                if exchange.responded_ns is not None:
                    raise RuntimeError(f"rpc {exchange.rpc_id} responded twice")
                exchange.responded_ns = self.sim.now
                exchange.response_bytes = response_bytes
                exchange.response_payload = response_payload
                conn.send_message(
                    self.endpoint.name, Message(exchange, "resp", response_bytes)
                )

            self._dispatch(exchange, respond)
        else:
            exchange.completed_ns = self.sim.now
            exchange.ok = True
            self.rpcs_completed += 1
            exchange._fire_done(True)

    def _message_failed(self, conn: StreamConnection, msg: Message) -> None:
        exchange = msg.exchange
        exchange.completed_ns = self.sim.now
        exchange.ok = False
        exchange.error = f"{msg.kind} message exhausted retries"
        self.rpcs_failed += 1
        exchange._fire_done(False)
