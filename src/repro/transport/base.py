"""Common RPC transport interface.

The SA speaks "storage RPC" (Figure 1) to block servers over whichever FN
stack a deployment uses.  Every stack implements the same client/server
contract:

* client: ``call(server, payload, request_bytes, response_hint, on_done)``;
* server: ``register_handler(fn)`` where ``fn(payload, rpc, respond)``
  eventually calls ``respond(response_bytes, response_payload)``.

``payload`` is the EBS-level object (a block write, a read request...).
Packets carry object references to their exchange — a standard simulation
shortcut; all *timing* still comes from real packet traversal of the
fabric, and all *loss* from real drops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

_rpc_ids = itertools.count(1)

#: Called when an RPC finishes: (exchange, ok).
RpcCallback = Callable[["RpcExchange", bool], None]
#: Server handler: (payload, exchange, respond).
RpcHandler = Callable[[Any, "RpcExchange", Callable[[int, Any], None]], None]


@dataclass
class RpcExchange:
    """One request/response exchange, shared by client and server sides."""

    client: str
    server: str
    payload: Any
    request_bytes: int
    response_hint: int  # expected response size (client-side bookkeeping)
    #: Fires once, then is dropped (see :meth:`_fire_done`).
    on_done: Optional[RpcCallback]
    rpc_id: int = field(default_factory=lambda: next(_rpc_ids))
    issued_ns: int = 0
    #: Set when the request message is fully delivered to the server.
    request_delivered_ns: Optional[int] = None
    #: Set when the server calls respond().
    responded_ns: Optional[int] = None
    completed_ns: Optional[int] = None
    response_payload: Any = None
    response_bytes: int = 0
    ok: bool = False
    error: str = ""
    #: Server-side annotations (storage_ns, ssd_ns, ...) for trace splitting.
    meta: Dict[str, Any] = field(default_factory=dict)

    def _fire_done(self, ok: bool) -> None:
        """Call ``on_done`` once and drop it.

        The caller's callback usually holds the state that holds this
        exchange, so keeping it would leave every RPC a reference cycle
        for the cyclic collector.  Both directions can end an exchange
        (the request exhausts its retries after the server got it, and
        then the response does too); the second end calls nothing.
        """
        on_done = self.on_done
        if on_done is not None:
            self.on_done = None
            on_done(self, ok)

    @property
    def rpc_latency_ns(self) -> int:
        if self.completed_ns is None:
            raise ValueError(f"rpc {self.rpc_id} not complete")
        return self.completed_ns - self.issued_ns

    @property
    def server_time_ns(self) -> int:
        """Time the exchange spent inside the server handler."""
        if self.request_delivered_ns is None or self.responded_ns is None:
            return 0
        return self.responded_ns - self.request_delivered_ns

    @property
    def network_time_ns(self) -> int:
        """RPC latency minus server handler time: the FN component."""
        return self.rpc_latency_ns - self.server_time_ns


class TransportError(RuntimeError):
    """Raised on transport misuse (unknown server, double respond, ...)."""


class RpcTransport:
    """Base class with the server-registry plumbing shared by all stacks."""

    #: Packet proto tag; subclasses override ("tcp", "luna", "rdma", "solar").
    proto = "rpc"

    def __init__(self, name: str):
        self.name = name
        self._handler: Optional[RpcHandler] = None
        self.rpcs_sent = 0
        self.rpcs_completed = 0
        self.rpcs_failed = 0

    def register_handler(self, handler: RpcHandler) -> None:
        if self._handler is not None:
            raise TransportError(f"{self.name}: handler already registered")
        self._handler = handler

    def _dispatch(self, exchange: RpcExchange, respond: Callable[[int, Any], None]) -> None:
        if self._handler is None:
            raise TransportError(
                f"{self.name}: inbound RPC {exchange.rpc_id} but no handler registered"
            )
        self._handler(exchange.payload, exchange, respond)

    # -- client API (implemented by subclasses) -------------------------
    def call(
        self,
        server: str,
        payload: Any,
        request_bytes: int,
        response_hint: int,
        on_done: RpcCallback,
    ) -> RpcExchange:
        raise NotImplementedError
