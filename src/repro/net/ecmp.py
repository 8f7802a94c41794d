"""ECMP consistent hashing.

Switches pick among equal-cost next hops by hashing the packet's 5-tuple
with a per-switch salt.  The hash is *consistent*: the same flow always
takes the same next hop at the same switch, which is exactly why a LUNA
connection pinned to one 5-tuple cannot escape a blackhole (§3.3), and why
SOLAR can steer traffic just by changing the UDP source port (§4.5).
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Sequence, TypeVar

from .packet import FiveTuple

T = TypeVar("T")


@lru_cache(maxsize=65536)
def flow_hash(flow: FiveTuple, salt: str = "") -> int:
    """Deterministic 32-bit hash of a 5-tuple (+ optional per-switch salt).

    Memoized: an armed blackhole hashes every packet of a flow with the
    same salt, and forwarding tables re-pick every flow after each
    link-state change.
    """
    src, dst, sport, dport, proto = flow
    key = f"{salt}|{src}|{dst}|{sport}|{dport}|{proto}".encode("utf-8")
    return zlib.crc32(key) & 0xFFFFFFFF


def pick(flow: FiveTuple, candidates: Sequence[T], salt: str = "") -> T:
    """Pick one candidate for this flow; deterministic for a fixed set."""
    if not candidates:
        raise ValueError("ECMP pick from an empty candidate set")
    return candidates[flow_hash(flow, salt) % len(candidates)]
