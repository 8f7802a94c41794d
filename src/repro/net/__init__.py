"""Network substrate: packets, links, switches, ECMP, Clos topology,
in-band telemetry and failure scenarios."""

from .ecmp import flow_hash, pick
from .endpoint import Endpoint
from .failures import (
    FailureScenario,
    random_drop,
    switch_blackhole,
    switch_failure,
    switch_reboot,
    table2_scenarios,
    tor_port_failure,
)
from .link import Channel, Link
from .packet import FiveTuple, IntRecord, Packet
from .switch import Switch
from .topology import ClosTopology, PodSpec

__all__ = [
    "Packet",
    "IntRecord",
    "FiveTuple",
    "Channel",
    "Link",
    "Switch",
    "Endpoint",
    "ClosTopology",
    "PodSpec",
    "flow_hash",
    "pick",
    "FailureScenario",
    "tor_port_failure",
    "switch_failure",
    "switch_reboot",
    "switch_blackhole",
    "random_drop",
    "table2_scenarios",
]
