"""Store-and-forward switch model with ECMP, INT, and failure modes.

Failure modes (the Table 2 / Figure 8 scenarios):

* **fail-stop** (``set_up(False)``): the whole switch drops everything —
  routing around it happens naturally because neighbors' ECMP candidate
  sets exclude downed channels once the failure detector marks them;
* **port failure**: an individual channel goes down (handled by
  :class:`repro.net.link.Channel`);
* **blackhole**: the switch silently drops a *subset* of flows chosen by
  consistent hash — the paper's hardest case ("the traffic blackhole on a
  subset of traffic is hard to detect and mitigate via network
  operations", §4.7);
* **reboot**: fail-stop for a duration, then recovery.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..profiles import NetworkProfile
from ..sim.engine import Simulator
from .ecmp import flow_hash, pick
from .link import LINK_STATE_EPOCH, Channel
from .packet import FiveTuple, IntRecord, Packet


class Switch:
    """A single switch; forwarding policy is delegated to the topology."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tier: str,
        profile: NetworkProfile,
        next_hops: Optional[Callable[["Switch", Packet], List[str]]] = None,
    ):
        self.sim = sim
        self.name = name
        self.tier = tier
        self.profile = profile
        #: Read by each ingress channel: delivery waits out the pipeline.
        self.ingress_delay_ns = profile.switch_forward_ns
        #: neighbor name -> egress channel toward that neighbor.
        self.ports: Dict[str, Channel] = {}
        self._next_hops = next_hops
        self.up = True
        self.blackhole_fraction = 0.0
        self.blackhole_salt = ""
        self.drop_rate = 0.0
        #: Down, blackholing or dropping: the one flag ``receive`` tests
        #: before the three fault checks.  Kept by the ``set_*`` methods.
        self._faulty = False
        self._drop_rng = sim.rng.stream(f"switch/{name}/drop")
        #: Forwarding table: 5-tuple -> egress channel (``None``: no
        #: route), filled on a flow's first packet and cleared whenever
        #: ``LINK_STATE_EPOCH`` moves.  Routing is a pure function of
        #: (switch, dst, link state) and the ECMP pick of the flow, so
        #: this is exact, not approximate.
        self._fib: Dict[FiveTuple, Optional[Channel]] = {}
        self._fib_epoch = -1
        self.rx_packets = 0
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_blackhole = 0
        self.dropped_down = 0
        self.dropped_ttl = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, neighbor_name: str, egress: Channel) -> None:
        self.ports[neighbor_name] = egress
        LINK_STATE_EPOCH[0] += 1

    # ------------------------------------------------------------------
    # Failure controls
    # ------------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        self.up = up
        self._refresh_faulty()

    def set_blackhole(self, fraction: float, salt: str = "bh") -> None:
        """Silently drop ``fraction`` of flows (consistent per flow)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"blackhole fraction out of range: {fraction}")
        self.blackhole_fraction = fraction
        self.blackhole_salt = salt
        self._refresh_faulty()

    def set_drop_rate(self, rate: float) -> None:
        """Drop packets uniformly at random (Table 2's 'packet drop rate'
        scenario — e.g. a failing line card corrupting frames)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate out of range: {rate}")
        self.drop_rate = rate
        self._refresh_faulty()

    def _refresh_faulty(self) -> None:
        self._faulty = (
            not self.up or self.blackhole_fraction > 0.0 or self.drop_rate > 0.0
        )

    def reboot(self, downtime_ns: int) -> None:
        """Fail-stop now, come back after ``downtime_ns``."""
        self.set_up(False)
        self.sim.schedule_fire(downtime_ns, self.set_up, True)

    def _blackholes(self, packet: Packet) -> bool:
        h = flow_hash(packet.flow, f"{self.name}|{self.blackhole_salt}")
        return (h / 0xFFFFFFFF) < self.blackhole_fraction

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, ingress: Channel) -> None:
        """Forward ``packet`` now.

        The ingress channel delivers ``ingress_delay_ns`` after the wire,
        so this runs once the forwarding pipeline is done: liveness and
        routing are judged at that instant.
        """
        self.rx_packets += 1
        if self._faulty:
            if not self.up:
                self.dropped_down += 1
                return
            if self.blackhole_fraction > 0.0 and self._blackholes(packet):
                self.dropped_blackhole += 1
                return
            if self.drop_rate > 0.0 and self._drop_rng.random() < self.drop_rate:
                self.dropped_blackhole += 1
                return
        if packet.ttl <= 0:
            self.dropped_ttl += 1
            return
        packet.ttl -= 1
        fib = self._fib
        if self._fib_epoch != LINK_STATE_EPOCH[0]:
            fib.clear()
            self._fib_epoch = LINK_STATE_EPOCH[0]
        flow = packet.flow
        try:
            egress = fib[flow]
        except KeyError:
            egress = fib[flow] = self._route(packet, flow)
        if egress is None:
            self.dropped_no_route += 1
            return
        records = packet.int_records
        if records is not None:
            # HPCC-style telemetry (§4.8), only on packets whose receiver
            # reads it.
            queued, tx_bytes = egress._int_sample()
            records.append(
                IntRecord(self.name, self.sim.now, queued, tx_bytes, egress.gbps)
            )
        self.forwarded += 1
        egress.send(packet)

    def _route(self, packet: Packet, flow: FiveTuple) -> Optional[Channel]:
        """The flow's egress under the current link state: ECMP over the
        live ports toward ``packet.dst``, or None when none is up."""
        if self._next_hops is None:
            raise RuntimeError(f"switch {self.name} has no routing function")
        ports = self.ports
        candidates = [
            name for name in self._next_hops(self, packet)
            if name in ports and ports[name].up
        ]
        if not candidates:
            return None
        return ports[pick(flow, candidates, salt=self.name)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        if self.blackhole_fraction:
            state += f" blackhole={self.blackhole_fraction:.0%}"
        return f"<Switch {self.name} ({self.tier}) {state}>"
