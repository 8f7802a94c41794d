"""FPGA device model: resource budget and pipeline timing.

Two aspects of the paper's FPGA reality are modelled here:

* **resources** — the FPGA is shared with other hypervisor functions, so
  SOLAR's modules must fit a small LUT/BRAM slice (Table 3 totals 8.5% LUT
  and 18.2% BRAM).  Modules register their utilization here and
  over-subscription is a hard error at construction time.
* **timing** — the pipeline is line-rate with a fixed per-packet latency
  (§4.5: packet processing "at line-rate without buffering").

FPGAs are also "error-prone due to random hardware failures (e.g., bit
flipping)" (§4.4, Figure 11: 37% of corruption events); those faults are
injected by :mod:`repro.faults.fpga_errors`, and the CRC aggregation
defence (``repro.core.crc_agg``) is validated against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from ..sim.engine import Simulator


@dataclass(frozen=True)
class FpgaModuleSpec:
    """Resource utilization of one pipeline module, in percent of device."""

    name: str
    lut_pct: float
    bram_pct: float

    def __post_init__(self) -> None:
        if self.lut_pct < 0 or self.bram_pct < 0:
            raise ValueError(f"negative resource use: {self}")


class FpgaResourceError(RuntimeError):
    """Raised when registered modules exceed the device's resource budget."""


class FpgaDevice:
    """A programmable accelerator with a resource budget."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        pipeline_latency_ns: int = 1_000,
        lut_budget_pct: float = 100.0,
        bram_budget_pct: float = 100.0,
    ):
        self.sim = sim
        self.name = name
        self.pipeline_latency_ns = pipeline_latency_ns
        self.lut_budget_pct = lut_budget_pct
        self.bram_budget_pct = bram_budget_pct
        self.modules: Dict[str, FpgaModuleSpec] = {}

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------
    def register_module(self, spec: FpgaModuleSpec) -> None:
        if spec.name in self.modules:
            raise FpgaResourceError(f"module {spec.name!r} registered twice")
        lut = self.lut_used_pct + spec.lut_pct
        bram = self.bram_used_pct + spec.bram_pct
        if lut > self.lut_budget_pct or bram > self.bram_budget_pct:
            raise FpgaResourceError(
                f"registering {spec.name!r} exceeds budget: "
                f"LUT {lut:.1f}/{self.lut_budget_pct}%, "
                f"BRAM {bram:.1f}/{self.bram_budget_pct}%"
            )
        self.modules[spec.name] = spec

    @property
    def lut_used_pct(self) -> float:
        return sum(m.lut_pct for m in self.modules.values())

    @property
    def bram_used_pct(self) -> float:
        return sum(m.bram_pct for m in self.modules.values())

    def resource_report(self) -> Dict[str, Dict[str, float]]:
        """Per-module + total LUT/BRAM utilization (the Table 3 rows)."""
        report = {
            name: {"lut_pct": spec.lut_pct, "bram_pct": spec.bram_pct}
            for name, spec in sorted(self.modules.items())
        }
        report["Total"] = {
            "lut_pct": round(self.lut_used_pct, 3),
            "bram_pct": round(self.bram_used_pct, 3),
        }
        return report

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def process(
        self, callback: Callable[..., Any], *args: Any, extra_ns: int = 0
    ) -> None:
        """Complete a pipeline traversal after the fixed pipeline latency."""
        self.sim.schedule_fire(self.pipeline_latency_ns + extra_ns, callback, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FpgaDevice {self.name} LUT {self.lut_used_pct:.1f}% "
            f"BRAM {self.bram_used_pct:.1f}%>"
        )
