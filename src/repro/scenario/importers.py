"""Importers for public block-trace formats -> FleetTrace.

Two formats cover the public corpora the ROADMAP names:

* **MSR Cambridge** (SNIA IOTTA): headerless CSV rows of
  ``Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`` with
  the timestamp in Windows filetime units (100ns ticks) and Type spelt
  ``Read``/``Write``;
* **Alibaba block traces** (alibaba/block-traces): CSV rows of
  ``device_id,opcode,offset,length,timestamp`` with ``R``/``W`` opcodes
  and microsecond timestamps.

The import pipeline is the same for both: stream the file line by line
(never materializing it), normalize units to nanoseconds rebased to the
earliest arrival, map devices onto at most ``max_vds`` virtual disks in
first-seen order, wrap offsets into the target VD, align sizes to 4KB,
and (optionally) downsample deterministically so a multi-GB public
trace shrinks to a CI-sized subset that is the *same* subset on every
machine.  Malformed rows raise
:class:`~repro.scenario.trace.TraceFormatError` with the line number.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..workloads.replay import IoRecord
from .trace import (
    TRACE_ALIGN,
    FleetTrace,
    StreamMeta,
    TraceFormatError,
    _open_text,
)

#: Cap on a single imported I/O (public traces carry the odd huge blob;
#: a 4MB ceiling keeps replay cost bounded without changing the mix).
MAX_IMPORT_IO_BYTES = 4 * 1024 * 1024

IMPORT_FORMATS = ("msr", "alibaba")


@dataclass(frozen=True)
class ImportOptions:
    """Shared import knobs (all deterministic)."""

    #: Target VD size each device's offsets are wrapped into.
    vd_size_mb: int = 256
    #: Devices are mapped onto at most this many VD streams
    #: (first-seen order, round-robin past the cap).
    max_vds: int = 4
    #: Keep ~1/N of the rows, selected by a stable per-row hash
    #: (1 = keep everything).
    keep_one_in: int = 1
    #: Hard cap on imported records (applied after downsampling);
    #: None = unbounded.
    max_records: Optional[int] = None

    def __post_init__(self) -> None:
        if self.vd_size_mb <= 0:
            raise ValueError(f"vd_size_mb must be positive: {self.vd_size_mb}")
        if self.max_vds < 1:
            raise ValueError(f"max_vds must be >= 1: {self.max_vds}")
        if self.keep_one_in < 1:
            raise ValueError(f"keep_one_in must be >= 1: {self.keep_one_in}")
        if self.max_records is not None and self.max_records < 1:
            raise ValueError(f"max_records must be >= 1: {self.max_records}")


def _keep(line_no: int, keep_one_in: int) -> bool:
    """Deterministic pseudo-random row selection: a crc32 of the line
    number, so the kept subset is machine-independent and does not alias
    with periodic patterns the way a plain stride would."""
    if keep_one_in == 1:
        return True
    return zlib.crc32(b"repro.scenario/%d" % line_no) % keep_one_in == 0


#: One parsed row: (raw_time, device_key, kind, offset, size).
_Row = Tuple[int, str, str, int, int]


def _parse_msr(line: str, line_no: int) -> _Row:
    parts = line.split(",")
    if len(parts) != 7:
        raise TraceFormatError(
            f"MSR row needs 7 comma-separated fields, got {len(parts)}", line_no
        )
    ts, host, disk, kind, offset, size, _response = (p.strip() for p in parts)
    if kind not in ("Read", "Write"):
        raise TraceFormatError(f"MSR Type must be Read|Write, got {kind!r}", line_no)
    try:
        # Windows filetime: 100ns ticks.
        return (int(ts) * 100, f"{host}.{disk}", kind.lower(),
                int(offset), int(size))
    except ValueError as exc:
        raise TraceFormatError(f"non-numeric MSR field: {exc}", line_no) from exc


def _parse_alibaba(line: str, line_no: int) -> _Row:
    parts = line.split(",")
    if len(parts) != 5:
        raise TraceFormatError(
            f"Alibaba row needs 5 comma-separated fields, got {len(parts)}",
            line_no,
        )
    device, opcode, offset, length, ts = (p.strip() for p in parts)
    if opcode not in ("R", "W"):
        raise TraceFormatError(
            f"Alibaba opcode must be R|W, got {opcode!r}", line_no
        )
    try:
        # Microsecond timestamps.
        return (int(ts) * 1000, device, "read" if opcode == "R" else "write",
                int(offset), int(length))
    except ValueError as exc:
        raise TraceFormatError(f"non-numeric Alibaba field: {exc}", line_no) from exc


_PARSERS = {"msr": _parse_msr, "alibaba": _parse_alibaba}

#: Header lines some exports carry; skipped case-insensitively.
_HEADER_PREFIXES = ("timestamp,", "device_id,")


def _iter_rows(
    source: Union[str, Path, Iterable[str]], fmt: str, options: ImportOptions
) -> Iterator[_Row]:
    parse = _PARSERS[fmt]
    if isinstance(source, (str, Path)):
        with _open_text(source, "rt") as fp:
            yield from _iter_rows(fp, fmt, options)
        return
    for line_no, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        if line_no == 1 and line.lower().startswith(_HEADER_PREFIXES):
            continue
        if not _keep(line_no, options.keep_one_in):
            continue
        yield parse(line, line_no)


def import_trace(
    source: Union[str, Path, Iterable[str]],
    fmt: str,
    name: Optional[str] = None,
    options: ImportOptions = ImportOptions(),
) -> FleetTrace:
    """Import one public-format block trace as a FleetTrace.

    ``source`` is a path (``.gz`` transparently decompressed) or any
    iterable of lines; ``fmt`` is one of :data:`IMPORT_FORMATS`.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"format must be one of {IMPORT_FORMATS}, got {fmt!r}")
    vd_bytes = options.vd_size_mb * 1024 * 1024
    device_vd: Dict[str, int] = {}
    device_of_vd: Dict[int, List[str]] = {}
    raw: List[Tuple[int, int, str, int, int]] = []  # (t, vd, kind, off, size)
    for t_raw, device, kind, offset, size in _iter_rows(source, fmt, options):
        vd_index = device_vd.setdefault(device, len(device_vd) % options.max_vds)
        devices = device_of_vd.setdefault(vd_index, [])
        if device not in devices:
            devices.append(device)
        # Unit normalization: sizes up-aligned to 4KB and capped; offsets
        # wrapped into the target VD and down-aligned.
        size = max(TRACE_ALIGN, min(size, MAX_IMPORT_IO_BYTES))
        size = (size + TRACE_ALIGN - 1) // TRACE_ALIGN * TRACE_ALIGN
        offset = offset % max(TRACE_ALIGN, vd_bytes - size)
        offset -= offset % TRACE_ALIGN
        raw.append((t_raw, vd_index, kind, offset, size))
        if options.max_records is not None and len(raw) >= options.max_records:
            break
    if not raw:
        raise TraceFormatError(f"no importable records in {fmt} source")
    t0 = min(row[0] for row in raw)
    streams: Dict[str, List[IoRecord]] = {}
    for t_raw, vd_index, kind, offset, size in raw:
        streams.setdefault(f"vd{vd_index}", []).append(
            IoRecord(at_ns=t_raw - t0, kind=kind,
                     offset_bytes=offset, size_bytes=size)
        )
    meta = {
        f"vd{vd_index}": StreamMeta(
            vd_size_mb=options.vd_size_mb,
            source=f"{fmt}:" + "+".join(devices),
        )
        for vd_index, devices in device_of_vd.items()
        if f"vd{vd_index}" in streams
    }
    if name is None:
        name = f"{fmt}-import"
    return FleetTrace(
        name=name,
        streams=streams,
        meta=meta,
        description=f"imported from a {fmt} block trace "
                    f"({len(device_vd)} device(s), keep_one_in="
                    f"{options.keep_one_in})",
    )
