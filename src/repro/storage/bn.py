"""Backend network (BN) model.

§2.1: the BN is the small two-layer Clos inside one storage cluster; it is
uniform hardware, so AliCloud runs RDMA there for every generation under
study (Figure 6's caption: "The BN of LUNA and SOLAR is RDMA"), while the
"Kernel" configuration uses kernel TCP end to end.

Because the paper's comparisons only vary the *frontend* stack, the BN is
modelled as a calibrated request/response latency channel rather than a
second packet-level fabric: one-way delay = stack traversal + per-hop
switching + wire time + small jitter, both jitters of an RPC (request
and reply) drawn when the request is sent.  This keeps BN identical across the
compared systems — exactly the experimental control the paper uses — at a
fraction of the simulation cost.  (DESIGN.md records this substitution.)
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Sequence, Tuple

from ..profiles import Profiles, bytes_time_ns
from ..sim.engine import Simulator

#: Intra-cluster hop count: ToR -> spine -> ToR.
_BN_HOPS = 3

BN_MODES = ("rdma", "kernel")


class BackendNetwork:
    """Request/response transport between block and chunk servers."""

    def __init__(self, sim: Simulator, profiles: Profiles, mode: str = "rdma"):
        if mode not in BN_MODES:
            raise ValueError(f"BN mode must be one of {BN_MODES}, got {mode!r}")
        self.sim = sim
        self.profiles = profiles
        self.mode = mode
        self._rng = sim.rng.stream(f"bn/{mode}")
        self.calls = 0
        # Profiles are frozen dataclasses, so the size-independent part of
        # the delay is a constant of this BN — precomputed once instead of
        # chased through four profile attributes per RPC.
        net = profiles.network
        if mode == "rdma":
            stack = profiles.rdma.stack_latency_ns
        else:
            stack = profiles.kernel_tcp.stack_latency_ns
        self._fixed_ns = (
            2 * stack  # sender + receiver stack traversal
            + _BN_HOPS * (net.switch_forward_ns + net.link_propagation_ns)
            + net.link_propagation_ns
        )
        self._header_bytes = net.header_overhead_bytes
        self._fabric_gbps = net.fabric_gbps
        #: ``fixed + wire`` by message size: a run sends a handful of sizes.
        self._base_ns: Dict[int, int] = {}

    def _base(self, size_bytes: int) -> int:
        """``fixed + wire`` for a message of the given size."""
        base = self._base_ns.get(size_bytes)
        if base is None:
            base = self._base_ns[size_bytes] = self._fixed_ns + bytes_time_ns(
                size_bytes + self._header_bytes, self._fabric_gbps
            )
        return base

    def one_way_ns(self, size_bytes: int) -> int:
        """Sampled one-way delay for a message of the given size."""
        return max(1, int(self._base(size_bytes) * math.exp(self._rng.gauss(0.0, 0.05))))

    def _send(self, request_size: int) -> Tuple[int, float]:
        """The request's one-way delay and its reply's jitter factor.

        Both are drawn at send, so the draw order is the call order and
        never the order in which callees reply.  The reply applies the
        factor to the base delay of its own size when the callee answers.
        """
        request_ns = self.one_way_ns(request_size)
        return request_ns, math.exp(self._rng.gauss(0.0, 0.05))

    def call(
        self,
        handler: Callable[[Any, Callable[[Any, int, int], None]], None],
        request: Any,
        request_size: int,
        on_reply: Callable[[Any], None],
    ) -> None:
        """One RPC over the BN.

        ``handler(request, reply)`` runs at the callee after the request's
        one-way delay; the callee finishes by calling ``reply(value,
        size_bytes, at_ns)``, which delivers ``value`` to ``on_reply`` the
        response's one-way delay after ``at_ns`` (now or later: a callee
        that knows when its work completes replies at once).
        """
        self.calls += 1
        sim = self.sim
        base = self._base
        request_ns, factor = self._send(request_size)

        def reply(value: Any, size_bytes: int, at_ns: int) -> None:
            sim.schedule_at_fire(
                at_ns + max(1, int(base(size_bytes) * factor)), on_reply, value
            )

        sim.schedule_fire(request_ns, handler, request, reply)

    def fan_out(
        self,
        handlers: Sequence[Callable[[Any, Callable[[Any, int, int], None]], None]],
        request: Any,
        request_size: int,
        on_all: Callable[..., None],
        *args: Any,
    ) -> None:
        """One RPC per handler, all with the same request, answered once.

        ``on_all(*args, replies)`` runs after the last reply lands, with
        every reply in landing order.  Each reply arrives at a
        :class:`~repro.sim.engine.Join` in place of an event of its own,
        the same draws as :meth:`call` per handler, in handler order.
        """
        self.calls += len(handlers)
        sim = self.sim
        base = self._base
        arrive = sim.join(len(handlers), on_all, *args).arrive

        def replier(factor: float) -> Callable[[Any, int, int], None]:
            def reply(value: Any, size_bytes: int, at_ns: int) -> None:
                arrive(at_ns + max(1, int(base(size_bytes) * factor)), value)

            return reply

        for handler in handlers:
            request_ns, factor = self._send(request_size)
            sim.schedule_fire(request_ns, handler, request, replier(factor))
