"""FPGA hardware-error injection (§4.4, Figure 11).

"Bit flipping in FPGA can corrupt data and table entries in memory and
distort the execution logic towards an unexpected outcome."  The injector
implements the :class:`repro.core.dpu_offload.FaultInjector` protocol with
independent rates for the two CRC-relevant corruption points:

* payload bits flipped as they pass the datapath (after the CRC engine
  read them — detectable, the common case);
* the computed CRC value itself flipped (detectable);

plus a root-cause generator for Figure 11's corruption-event mix, which
also covers the non-FPGA classes (software bugs, config errors, MCE).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Figure 11's root-cause shares of corruption events caught by software
#: CRC over two years (FPGA flapping explicitly "37%" in §4.4).
ROOT_CAUSE_WEIGHTS: Dict[str, float] = {
    "software_bug": 0.31,
    "fpga_flapping": 0.37,
    "config_error": 0.19,
    "mce_error": 0.13,
}


def flip_bit(data: bytes, bit_index: int) -> bytes:
    """Return ``data`` with one bit flipped."""
    if not data:
        raise ValueError("cannot flip a bit in empty data")
    byte_index, bit = divmod(bit_index % (len(data) * 8), 8)
    out = bytearray(data)
    out[byte_index] ^= 1 << bit
    return bytes(out)


class BitFlipInjector:
    """Stochastic payload/CRC corrupter for the SOLAR offload datapath."""

    def __init__(
        self,
        rng: random.Random,
        payload_flip_rate: float = 0.0,
        crc_flip_rate: float = 0.0,
    ):
        for rate in (payload_flip_rate, crc_flip_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate out of range: {rate}")
        self.rng = rng
        self.payload_flip_rate = payload_flip_rate
        self.crc_flip_rate = crc_flip_rate
        self.payload_flips = 0
        self.crc_flips = 0
        self.stage_log: List[Tuple[str, str]] = []

    def corrupt_payload(self, payload: bytes, stage: str) -> bytes:
        if payload and self.rng.random() < self.payload_flip_rate:
            self.payload_flips += 1
            self.stage_log.append(("payload", stage))
            return flip_bit(payload, self.rng.randrange(len(payload) * 8))
        return payload

    def corrupt_crc(self, crc: int, stage: str) -> int:
        if self.rng.random() < self.crc_flip_rate:
            self.crc_flips += 1
            self.stage_log.append(("crc", stage))
            return crc ^ (1 << self.rng.randrange(32))
        return crc

    @property
    def total_injected(self) -> int:
        return self.payload_flips + self.crc_flips


@dataclass(frozen=True)
class CorruptionEvent:
    """One corruption incident with its root cause (Figure 11 unit)."""

    event_id: int
    root_cause: str
    detected_by_software_crc: bool


class CorruptionEventGenerator:
    """Draws corruption incidents with Figure 11's root-cause mix.

    Every event in Figure 11 was *mitigated by software CRC* — the figure
    counts detected events by cause — so detection is true by construction
    here; the datapath-level experiments (see
    ``benchmarks/bench_fig11_corruption.py``) independently verify that
    the aggregation check actually catches injected flips.
    """

    def __init__(self, rng: random.Random, weights: Optional[Dict[str, float]] = None):
        self.rng = rng
        self.weights = dict(weights or ROOT_CAUSE_WEIGHTS)
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"root-cause weights sum to {total}")
        self._causes = list(self.weights)
        self._cum: List[float] = []
        acc = 0.0
        for cause in self._causes:
            acc += self.weights[cause]
            self._cum.append(acc)
        self._next_id = 1

    def draw(self) -> CorruptionEvent:
        r = self.rng.random()
        for cause, cum in zip(self._causes, self._cum):
            if r <= cum:
                break
        event = CorruptionEvent(self._next_id, cause, True)
        self._next_id += 1
        return event

    def draw_many(self, count: int) -> List[CorruptionEvent]:
        return [self.draw() for _ in range(count)]
