"""Clos fabric builder for the EBS frontend network.

The FN (§2.1) spans compute and storage clusters — and possibly multiple
data centers in a region — so the builder produces a four-tier hierarchy:

    host ── ToR(pair) ── spine(per pod) ── core(per DC) ── DC router

* every host is dual-homed to its rack's ToR pair (§3.3);
* each pod (PoD, §2.1) is a two-layer Clos of ToRs and spines;
* cores interconnect the pods of one data center;
* DC routers interconnect data centers (only built when needed).

Forwarding is classic up/down ECMP; the topology owns the membership maps
and supplies each switch's next-hop candidate function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..profiles import NetworkProfile
from ..sim.engine import Simulator
from .endpoint import Endpoint
from .link import Link
from .packet import Packet
from .switch import Switch


@dataclass(frozen=True)
class PodSpec:
    """One pod's shape.  ``role`` tags it compute or storage for callers."""

    name: str
    racks: int
    hosts_per_rack: int
    spines: int = 2
    tors_per_rack: int = 2
    role: str = "compute"
    dc: str = "dc0"

    def __post_init__(self) -> None:
        if min(self.racks, self.hosts_per_rack, self.spines, self.tors_per_rack) < 1:
            raise ValueError(f"degenerate pod spec: {self}")


@dataclass
class ClosTopology:
    sim: Simulator
    profile: NetworkProfile
    pods: List[PodSpec]
    cores_per_dc: int = 2
    dc_routers: int = 2

    hosts: Dict[str, Endpoint] = field(default_factory=dict)
    switches: Dict[str, Switch] = field(default_factory=dict)
    links: List[Link] = field(default_factory=list)

    _host_loc: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    _rack_hosts: Dict[Tuple[str, int], List[str]] = field(default_factory=dict)
    _rack_tors: Dict[Tuple[str, int], List[str]] = field(default_factory=dict)
    _pod_spines: Dict[str, List[str]] = field(default_factory=dict)
    _pod_dc: Dict[str, str] = field(default_factory=dict)
    _dc_cores: Dict[str, List[str]] = field(default_factory=dict)
    _dcr_names: List[str] = field(default_factory=list)
    _switch_pod: Dict[str, str] = field(default_factory=dict)
    _switch_dc: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_switch(self, name: str, tier: str, pod: str = "", dc: str = "") -> Switch:
        switch = Switch(self.sim, name, tier, self.profile, self._next_hops)
        self.switches[name] = switch
        if pod:
            self._switch_pod[name] = pod
        if dc:
            self._switch_dc[name] = dc
        return switch

    def _wire(self, a, b, gbps: float) -> Link:
        link = Link(
            self.sim,
            a,
            b,
            gbps,
            self.profile.link_propagation_ns,
            self.profile.queue_capacity_bytes,
        )
        self.links.append(link)
        for node, channel in ((a, link.ab), (b, link.ba)):
            if isinstance(node, Switch):
                node.connect(link.other(node).name, channel)
            else:
                node.add_uplink(channel)
        return link

    def _build(self) -> None:
        dcs = sorted({pod.dc for pod in self.pods})
        multi_dc = len(dcs) > 1
        for dc in dcs:
            self._dc_cores[dc] = [
                self._new_switch(f"{dc}/core{i}", "core", dc=dc).name
                for i in range(self.cores_per_dc)
            ]
        if multi_dc:
            self._dcr_names = [
                self._new_switch(f"dcr{i}", "dc_router").name
                for i in range(self.dc_routers)
            ]
            for dc in dcs:
                for core in self._dc_cores[dc]:
                    for dcr in self._dcr_names:
                        self._wire(self.switches[core], self.switches[dcr],
                                   self.profile.fabric_gbps)

        for pod in self.pods:
            self._pod_dc[pod.name] = pod.dc
            spines = [
                self._new_switch(f"{pod.name}/spine{i}", "spine", pod.name, pod.dc)
                for i in range(pod.spines)
            ]
            self._pod_spines[pod.name] = [s.name for s in spines]
            for spine in spines:
                for core in self._dc_cores[pod.dc]:
                    self._wire(spine, self.switches[core], self.profile.fabric_gbps)
            for rack in range(pod.racks):
                key = (pod.name, rack)
                tors = [
                    self._new_switch(f"{pod.name}/r{rack}/tor{j}", "tor", pod.name, pod.dc)
                    for j in range(pod.tors_per_rack)
                ]
                self._rack_tors[key] = [t.name for t in tors]
                for tor in tors:
                    for spine in spines:
                        self._wire(tor, spine, self.profile.fabric_gbps)
                self._rack_hosts[key] = []
                for h in range(pod.hosts_per_rack):
                    host = Endpoint(self.sim, f"{pod.name}/r{rack}/h{h}")
                    self.hosts[host.name] = host
                    self._host_loc[host.name] = key
                    self._rack_hosts[key].append(host.name)
                    for tor in tors:
                        self._wire(host, tor, self.profile.access_gbps)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _next_hops(self, switch: Switch, packet: Packet) -> List[str]:
        loc = self._host_loc.get(packet.dst)
        if loc is None:
            return []
        dpod, drack = loc
        ddc = self._pod_dc[dpod]
        tier = switch.tier
        if tier == "tor":
            pod = self._switch_pod[switch.name]
            if (dpod, drack) == (pod, self._tor_rack(switch.name)):
                return [packet.dst]
            return self._pod_spines[pod]
        if tier == "spine":
            pod = self._switch_pod[switch.name]
            if dpod == pod:
                # A ToR whose host-facing port died withdraws the host
                # route (loss-of-light -> /32 withdrawal), so spines only
                # consider ToRs that can still reach the destination.
                tors = self._rack_tors[(dpod, drack)]
                reachable = [
                    t for t in tors
                    if packet.dst in self.switches[t].ports
                    and self.switches[t].ports[packet.dst].up
                ]
                return reachable or tors
            return self._dc_cores[self._switch_dc[switch.name]]
        if tier == "core":
            dc = self._switch_dc[switch.name]
            if ddc == dc:
                return self._pod_spines[dpod]
            return self._dcr_names
        if tier == "dc_router":
            return self._dc_cores[ddc]
        raise RuntimeError(f"unknown switch tier {tier!r}")

    @staticmethod
    def _tor_rack(tor_name: str) -> int:
        # "<pod>/r<rack>/tor<j>"
        return int(tor_name.split("/")[1][1:])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def hosts_in_pod(self, pod_name: str) -> List[Endpoint]:
        return [
            self.hosts[name]
            for (pod, _rack), names in sorted(self._rack_hosts.items())
            if pod == pod_name
            for name in names
        ]

    def pods_by_role(self, role: str) -> List[PodSpec]:
        return [pod for pod in self.pods if pod.role == role]

    def switches_by_tier(self, tier: str) -> List[Switch]:
        return [s for name, s in sorted(self.switches.items()) if s.tier == tier]

    def tor_of_host(self, host_name: str, index: int = 0) -> Switch:
        pod, rack = self._host_loc[host_name]
        return self.switches[self._rack_tors[(pod, rack)][index]]

    def path_hops(self, src: str, dst: str) -> int:
        """Number of switch hops on a (representative) src→dst path."""
        spod, srack = self._host_loc[src]
        dpod, drack = self._host_loc[dst]
        if (spod, srack) == (dpod, drack):
            return 1  # ToR only
        if spod == dpod:
            return 3  # ToR, spine, ToR
        if self._pod_dc[spod] == self._pod_dc[dpod]:
            return 5  # ToR, spine, core, spine, ToR
        return 7  # + DC routers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClosTopology pods={len(self.pods)} hosts={len(self.hosts)} "
            f"switches={len(self.switches)}>"
        )
