"""DMA engine: moves data between guest memory and a device over PCIe.

§4.2: the DPU "provides a DMA engine that can read/write data directly
from/to the guest memory via PCIe".  SOLAR's FPGA pipeline uses this engine
to place READ blocks into guest memory (and fetch WRITE blocks) without
touching the DPU CPU (Figure 13).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.engine import Simulator
from .pcie import PcieLink


class DmaEngine:
    """A DMA engine bound to one PCIe link, with per-operation setup cost.
    Both methods return the completion time, when the callback fires."""

    def __init__(self, sim: Simulator, name: str, pcie: PcieLink, setup_ns: int = 700):
        self.sim = sim
        self.name = name
        self.pcie = pcie
        self.setup_ns = setup_ns
        self.reads = 0
        self.writes = 0

    def read_from_guest(
        self, size_bytes: int, callback: Optional[Callable[..., Any]] = None, *args: Any
    ) -> int:
        """Fetch bytes from guest memory (used on the WRITE datapath)."""
        self.reads += 1
        return self._move(size_bytes, callback, *args)

    def write_to_guest(
        self, size_bytes: int, callback: Optional[Callable[..., Any]] = None, *args: Any
    ) -> int:
        """Place bytes into guest memory (used on the READ datapath)."""
        self.writes += 1
        return self._move(size_bytes, callback, *args)

    def _move(
        self, size_bytes: int, callback: Optional[Callable[..., Any]], *args: Any
    ) -> int:
        # The setup bounds the transfer's start instead of being an event.
        # Exact: the link carries only this engine's transfers and each
        # pays the same setup, so they reach the link in call order with
        # the start a setup event would have given them.
        return self.pcie.transfer(
            size_bytes, callback, *args, not_before=self.sim.now + self.setup_ns
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DmaEngine {self.name} via {self.pcie.name}>"
