"""Multi-path transport state (§4.5 'Multi-path transport').

SOLAR keeps several (default 4) persistent paths toward each block server.
A path is just a UDP source port: ECMP's consistent hashing maps each port
to a stable route through the fabric, so changing ports changes paths
without any network cooperation.  Per path, SOLAR tracks the congestion
window (HPCC), smoothed RTT, in-flight bytes and a consecutive-timeout
counter; packets favour the path with the lowest average RTT, and
consecutive timeouts put a path on probation ("infers a path failure and
shifts traffic to other paths accordingly").

Because SOLAR keeps *no per-connection state in hardware*, all of this
lives in the DPU-CPU control plane and multiplying paths does not touch
the FPGA's resource budget — the scalability argument of §4.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..net.packet import IntRecord
from ..profiles import SolarProfile
from ..sim.engine import Simulator
from .congestion import HpccCongestionControl

#: Base of the UDP source-port range used as path identifiers.
PATH_PORT_BASE = 40_000


@dataclass
class PathState:
    """One persistent path toward one block server."""

    path_id: int  # the UDP source port
    cc: HpccCongestionControl
    srtt_ns: float
    rto_ns: int
    inflight_bytes: int = 0
    consecutive_timeouts: int = 0
    failed_until_ns: int = 0
    packets_sent: int = 0
    packets_acked: int = 0
    timeouts: int = 0
    next_seq: int = 0
    highest_acked_seq: int = -1
    #: Outstanding per-path sequence numbers -> opaque packet state, used
    #: for out-of-order loss detection ("Packet loss is detected via
    #: out-of-order arrivals or timeout happened in the same path", §4.5).
    outstanding: dict = field(default_factory=dict)
    #: Worst queue depth observed by the most recent INT probe on this
    #: path (0 until probing runs) — see :mod:`repro.core.probing`.
    probed_queue_bytes: int = 0

    def healthy(self, now_ns: int) -> bool:
        return now_ns >= self.failed_until_ns

    def window_open(self, size_bytes: int) -> bool:
        return self.inflight_bytes + size_bytes <= self.cc.window_bytes

    def take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq


class MultipathManager:
    """Path set and selection policy for one (client, block server) pair."""

    def __init__(
        self,
        sim: Simulator,
        profile: SolarProfile,
        base_rtt_ns: int,
        mtu_bytes: int,
        line_gbps: float,
        num_paths: Optional[int] = None,
    ):
        self.sim = sim
        self.profile = profile
        self.base_rtt_ns = base_rtt_ns
        self.line_gbps = line_gbps
        count = num_paths if num_paths is not None else profile.num_paths
        if count < 1:
            raise ValueError(f"need at least one path, got {count}")
        self.mtu_bytes = mtu_bytes
        self.paths: List[PathState] = [
            PathState(
                path_id=PATH_PORT_BASE + i,
                cc=HpccCongestionControl(base_rtt_ns, mtu_bytes, line_gbps),
                srtt_ns=float(base_rtt_ns),
                rto_ns=profile.min_rto_ns,
            )
            for i in range(count)
        ]
        self._next_port = PATH_PORT_BASE + count
        self.path_shifts = 0
        self.path_rotations = 0

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def pick(self, size_bytes: int) -> Optional[PathState]:
        """Choose a path for a packet: healthy + window room, lowest RTT.

        Returns None when every healthy path's window is full (the caller
        queues the packet until an ACK opens a window).  If *all* paths are
        on probation, the least-recently-failed one is used anyway — there
        is nothing better to try, and probing it is how we discover
        recovery.
        """
        healthy = [p for p in self.paths if p.healthy(self.sim.now)]
        if not healthy:
            return min(self.paths, key=lambda p: p.failed_until_ns)
        open_paths = [p for p in healthy if p.window_open(size_bytes)]
        if not open_paths:
            return None
        return min(open_paths, key=self._path_cost)

    def _path_cost(self, path: PathState) -> float:
        """Expected delay of a path: smoothed RTT plus the drain time of
        whatever queue the last INT probe saw on it (0 without probing)."""
        drain_ns = path.probed_queue_bytes * 8 / self.line_gbps  # bytes -> ns
        return path.srtt_ns + drain_ns

    def best_alternative(self, avoid: PathState, size_bytes: int) -> PathState:
        """Path for a retransmission: prefer anything but ``avoid``."""
        candidates = [
            p for p in self.paths if p is not avoid and p.healthy(self.sim.now)
        ]
        if candidates:
            return min(candidates, key=self._path_cost)
        return avoid

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def on_ack(
        self,
        path: PathState,
        sent_ns: int,
        size_bytes: int,
        int_records: List[IntRecord],
        seq: int,
    ) -> None:
        rtt = self.sim.now - sent_ns
        path.srtt_ns = 0.875 * path.srtt_ns + 0.125 * rtt
        path.rto_ns = max(
            self.profile.min_rto_ns, min(int(path.srtt_ns * 4), self.profile.max_rto_ns)
        )
        path.inflight_bytes = max(0, path.inflight_bytes - size_bytes)
        path.consecutive_timeouts = 0
        path.packets_acked += 1
        if seq > path.highest_acked_seq:
            path.highest_acked_seq = seq
        path.cc.on_ack(int_records, self.sim.now)

    def on_timeout(self, path: PathState, size_bytes: int) -> bool:
        """Record a timeout; returns True if the path was declared failed."""
        path.inflight_bytes = max(0, path.inflight_bytes - size_bytes)
        path.timeouts += 1
        path.consecutive_timeouts += 1
        path.cc.on_timeout()
        path.rto_ns = min(path.rto_ns * 2, self.profile.max_rto_ns)
        if path.consecutive_timeouts >= self.profile.path_failure_timeouts:
            if path.healthy(self.sim.now):
                self.path_shifts += 1
            if self.profile.rotate_failed_paths:
                self._rotate(path)
            else:
                path.failed_until_ns = self.sim.now + self.profile.path_probation_ns
            path.consecutive_timeouts = 0
            return True
        return False

    def _rotate(self, path: PathState) -> None:
        """Re-key a failed path onto a fresh UDP source port.

        A 'persistent path' is just a port number; when consecutive
        timeouts condemn one, picking a new port re-rolls the ECMP hash at
        every hop — the cheapest possible way to escape a failure point
        that *all* current paths happen to share (the slow-recovery case
        §4.5 admits).  The path restarts with fresh CC/RTT state and a
        brief backoff so a cascade of rotations cannot spin hot.
        """
        self.path_rotations += 1
        path.path_id = self._next_port
        self._next_port += 1
        path.cc = HpccCongestionControl(
            self.base_rtt_ns, self.mtu_bytes, self.line_gbps
        )
        path.srtt_ns = float(self.base_rtt_ns)
        # Carry some backoff across rotations (a re-rolled port is just as
        # dead during a full outage, so retry pressure must stay bounded),
        # but cap it low enough that probing a *healthy* re-roll never
        # stalls recovery past the sub-second goal.  A healthy rotation
        # re-floors the RTO on its first ACK.
        path.rto_ns = min(max(path.rto_ns, self.profile.min_rto_ns),
                          8 * self.profile.min_rto_ns)
        path.inflight_bytes = 0
        path.outstanding.clear()
        path.next_seq = 0
        path.highest_acked_seq = -1
        path.probed_queue_bytes = 0
        path.failed_until_ns = self.sim.now + self.profile.min_rto_ns

    def on_sent(self, path: PathState, size_bytes: int) -> None:
        path.inflight_bytes += size_bytes
        path.packets_sent += 1

    # ------------------------------------------------------------------
    def path_by_id(self, path_id: int) -> PathState:
        for path in self.paths:
            if path.path_id == path_id:
                return path
        raise KeyError(f"unknown path id {path_id}")
