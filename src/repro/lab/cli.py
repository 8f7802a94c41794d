"""Command-line helpers the subcommands share: the fault grammar
(``--fault kind:target:param@start_ms[-end_ms]``) and the plain-text
table every summary prints.
"""

from __future__ import annotations

from typing import Sequence

from ..sim import MS
from .spec import FAULT_KINDS, FaultSpec

#: Shorthand fault names accepted on the command line.
_FAULT_ALIASES = {
    "blackhole": "switch_blackhole",
    "drop": "random_drop",
    "reboot": "switch_reboot",
    "failure": "switch_failure",
    "port": "tor_port_failure",
}


def parse_fault(text: str) -> FaultSpec:
    """``kind:target:param@start_ms[-end_ms]`` (times in milliseconds)."""
    spec_part, _, when = text.partition("@")
    fields = spec_part.split(":")
    if not 1 <= len(fields) <= 4:
        raise ValueError(f"bad fault {text!r}")
    kind = _FAULT_ALIASES.get(fields[0], fields[0])
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {fields[0]!r}; one of {FAULT_KINDS} "
            f"(or shorthand {tuple(_FAULT_ALIASES)})"
        )
    kwargs = {"kind": kind}
    if len(fields) > 1 and fields[1]:
        kwargs["target"] = fields[1]
    if len(fields) > 2 and fields[2]:
        kwargs["param"] = float(fields[2])
    if len(fields) > 3 and fields[3]:
        kwargs["index"] = int(fields[3])
    if when:
        start_text, _, end_text = when.partition("-")
        kwargs["start_ns"] = int(float(start_text) * MS)
        if end_text:
            kwargs["end_ns"] = int(float(end_text) * MS)
    return FaultSpec(**kwargs)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)
