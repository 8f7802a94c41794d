"""Explicit path probing with INT — the §4.5 roadmap item.

"There are indeed some cases in which the recovery is slow because
multiple paths go through the same failure points, and we plan to make
the path selection more explicit with INT probing."

A :class:`PathProber` periodically sends a tiny probe datagram down each
path of a :class:`~repro.core.multipath.MultipathManager`.  The server
echoes it, returning the forward path's INT records.  The prober then

* feeds each path's *probed queue depth* into selection (congested paths
  are deprioritized before they ever delay a data packet), and
* detects dead paths proactively: consecutive unanswered probes put the
  path on probation without burning data-packet timeouts.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..net.packet import Packet
from ..sim.engine import Simulator
from ..transport.udp import DatagramSocket

PROBE_OP = "path_probe"
PROBE_ECHO_OP = "path_probe_echo"
PROBE_BYTES = 64

_probe_ids = itertools.count(1)


class PathProber:
    """Active prober for one (client, server) multipath set."""

    def __init__(
        self,
        sim: Simulator,
        socket: DatagramSocket,
        server: str,
        server_port: int,
        manager,
        interval_ns: int = 2_000_000,  # 2ms probe cadence
        lost_probe_limit: int = 3,
    ):
        self.sim = sim
        self.socket = socket
        self.server = server
        self.server_port = server_port
        self.manager = manager
        self.interval_ns = interval_ns
        self.lost_probe_limit = lost_probe_limit
        self.probes_sent = 0
        self.echoes_received = 0
        self.paths_failed_by_probe = 0
        self._outstanding: dict[int, tuple] = {}
        self._lost_streak: dict[int, int] = {}
        self._timers = sim.timers()
        self._timer: Optional[list] = None
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("prober already running")
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timers.cancel(self._timer)
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        for path in self.manager.paths:
            self._probe_path(path)
        self._timer = self._timers.add(self.interval_ns, self._tick)

    def _probe_path(self, path) -> None:
        probe_id = next(_probe_ids)
        self.probes_sent += 1
        self._outstanding[probe_id] = (path, self.sim.now)
        self.socket.send(
            self.server,
            sport=path.path_id,
            dport=self.server_port,
            size_bytes=PROBE_BYTES,
            headers={"solar": {"op": PROBE_OP, "probe_id": probe_id,
                               "path_id": path.path_id, "prober": self}},
            int_records=[],  # echoed back as the path's probed congestion
        )
        # A probe unanswered by the next tick counts as lost.
        self.sim.schedule_fire(self.interval_ns, self._check_probe, probe_id)

    def _check_probe(self, probe_id: int) -> None:
        entry = self._outstanding.pop(probe_id, None)
        if entry is None:
            return  # echoed in time
        path, _sent = entry
        streak = self._lost_streak.get(path.path_id, 0) + 1
        self._lost_streak[path.path_id] = streak
        if streak >= self.lost_probe_limit and path.healthy(self.sim.now):
            # Proactive probation: no data packet had to time out.
            path.failed_until_ns = self.sim.now + self.manager.profile.path_probation_ns
            self.manager.path_shifts += 1
            self.paths_failed_by_probe += 1
            self._lost_streak[path.path_id] = 0

    # ------------------------------------------------------------------
    def on_echo(self, packet: Packet) -> None:
        header = packet.header("solar")
        entry = self._outstanding.pop(header["probe_id"], None)
        if entry is None:
            return  # late echo; already counted lost
        path, sent_ns = entry
        self.echoes_received += 1
        self._lost_streak[path.path_id] = 0
        rtt = self.sim.now - sent_ns
        path.srtt_ns = 0.875 * path.srtt_ns + 0.125 * rtt
        # Forward-path INT echoed by the server: worst queue defines the
        # path's probed congestion.
        records = header.get("int_echo", [])
        path.probed_queue_bytes = max((r.queue_bytes for r in records), default=0)
        # A healthy echo clears any pending probation early.
        if not path.healthy(self.sim.now):
            path.failed_until_ns = self.sim.now


def handle_probe(endpoint, packet: Packet) -> None:
    """Server-side probe echo: bounce the probe with its INT records."""
    header = packet.header("solar")
    echo = packet.reply_shell(PROBE_BYTES)
    echo.headers["solar"] = {
        "op": PROBE_ECHO_OP,
        "probe_id": header["probe_id"],
        "path_id": header["path_id"],
        "prober": header["prober"],
        "int_echo": list(packet.int_records),
    }
    endpoint.send(echo)
