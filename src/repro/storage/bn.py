"""Backend network (BN) model.

§2.1: the BN is the small two-layer Clos inside one storage cluster; it is
uniform hardware, so AliCloud runs RDMA there for every generation under
study (Figure 6's caption: "The BN of LUNA and SOLAR is RDMA"), while the
"Kernel" configuration uses kernel TCP end to end.

Because the paper's comparisons only vary the *frontend* stack, the BN is
modelled as a calibrated request/response latency channel rather than a
second packet-level fabric: one-way delay = stack traversal + per-hop
switching + wire time + small jitter.  This keeps BN identical across the
compared systems — exactly the experimental control the paper uses — at a
fraction of the simulation cost.  (DESIGN.md records this substitution.)
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Sequence

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

    def one_way_ns(self, size_bytes: int) -> int:
        """Sampled one-way delay for a message of the given size."""
        base = self._base_ns.get(size_bytes)
        if base is None:
            base = self._base_ns[size_bytes] = self._fixed_ns + bytes_time_ns(
                size_bytes + self._header_bytes, self._fabric_gbps
            )
        jitter = math.exp(self._rng.gauss(0.0, 0.05))
        return max(1, int(base * jitter))

    def call(
        self,
        handler: Callable[[Any, Callable[[Any, int], None]], None],
        request: Any,
        request_size: int,
        on_reply: Callable[[Any], None],
    ) -> None:
        """One RPC over the BN.

        ``handler(request, reply)`` runs at the callee after the request's
        one-way delay; the callee finishes by calling ``reply(value,
        size_bytes)``, which delivers ``value`` to ``on_reply`` after the
        response's one-way delay.
        """
        self.calls += 1

        def reply(value: Any, size_bytes: int) -> None:
            self.sim.schedule_fire(self.one_way_ns(size_bytes), on_reply, value)

        self.sim.schedule_fire(self.one_way_ns(request_size), handler, request, reply)

    def fan_out(
        self,
        handlers: Sequence[Callable[[Any, Callable[[Any, int], None]], None]],
        request: Any,
        request_size: int,
        on_all: Callable[..., None],
        *args: Any,
    ) -> None:
        """One RPC per handler, all with the same request, answered once.

        ``on_all(*args, replies)`` runs after the last reply lands, with
        every reply in landing order.  Each reply draws its delay when
        the callee replies and arrives at a :class:`~repro.sim.engine.Join`
        in place of an event of its own: the same draws in the same order
        as :meth:`call`, and the join fires where the last reply's event
        would have fired.
        """
        self.calls += len(handlers)
        sim = self.sim
        arrive = sim.join(len(handlers), on_all, *args).arrive
        one_way_ns = self.one_way_ns

        def reply(value: Any, size_bytes: int) -> None:
            arrive(sim.now + one_way_ns(size_bytes), value)

        for handler in handlers:
            sim.schedule_fire(one_way_ns(request_size), handler, request, reply)
