"""The FleetTrace format: versioned, digest-keyed, multi-stream JSONL.

One :class:`FleetTrace` holds the I/O envelope of a whole run — any
number of named streams (one per virtual disk), each a list of
:class:`~repro.workloads.replay.IoRecord` rows against a shared epoch.
The serialization is an ATLAHS-style application-centric trace: the
file says *what* the guests asked for (arrival time, kind, offset,
size), never how the stack answered, so one trace replays against any
stack/topology/deployment and latency comparisons across generations
stay credible.

On disk a trace is JSON lines — a header object first, then one compact
record per line::

    {"fleet_trace": 1, "name": ..., "digest": ..., "streams": {...}}
    {"s": "vd0", "t": 0, "k": "read", "o": 4096, "z": 4096}

Compact keys and sorted order keep the files small and gzip-friendly;
paths ending in ``.gz`` are compressed transparently.  The header digest
is the sha256 of the canonical content (same canonicalization
`repro.lab` keys its result store by), so a trace file is
self-verifying: editing records without re-deriving the digest is
detected at load time, and two traces with the same digest are the same
workload.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..lab.spec import canonical_json
from ..workloads.replay import IoRecord

#: Bump when the on-disk trace layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Block alignment every stored offset/size respects.
TRACE_ALIGN = 4096

#: Compact record keys: stream, time, kind, offset, siZe.
_RECORD_KEYS = ("s", "t", "k", "o", "z")


class TraceFormatError(ValueError):
    """A malformed trace file: carries the offending line number.

    One typed error for every parse-time failure (bad JSON, missing
    keys, invalid field values), so callers catch one exception class
    instead of the union of ``json.JSONDecodeError``/``TypeError``/
    ``ValueError`` the underlying decode can raise.
    """

    def __init__(self, message: str, line_no: Optional[int] = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class StreamMeta:
    """Per-stream metadata: the VD shape a replayer should provision."""

    vd_size_mb: int = 256
    #: Free-form provenance hint ("recorded", "msr:hm.1", "alibaba:419").
    source: str = ""

    def __post_init__(self) -> None:
        if self.vd_size_mb <= 0:
            raise ValueError(f"vd_size_mb must be positive: {self.vd_size_mb}")

    def to_dict(self) -> Dict[str, Any]:
        return {"vd_size_mb": self.vd_size_mb, "source": self.source}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StreamMeta":
        return cls(
            vd_size_mb=int(payload["vd_size_mb"]),
            source=str(payload.get("source", "")),
        )


@dataclass
class FleetTrace:
    """A named, digest-keyed collection of per-VD I/O streams."""

    name: str
    streams: Dict[str, List[IoRecord]] = field(default_factory=dict)
    meta: Dict[str, StreamMeta] = field(default_factory=dict)
    description: str = ""
    #: The epoch all ``at_ns`` offsets are relative to, as recorded.
    #: Purely documentary — offsets are already rebased to zero.
    epoch_ns: int = 0
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError("a fleet trace needs at least one stream")
        for stream, records in self.streams.items():
            if not records:
                raise ValueError(f"stream {stream!r} has no records")
            self.meta.setdefault(stream, StreamMeta())
        extra = set(self.meta) - set(self.streams)
        if extra:
            raise ValueError(f"metadata for unknown streams: {sorted(extra)}")
        # Canonical in-memory order: records per stream by (arrival,
        # kind, offset, size), IoRecord's own order.  The full key (not
        # arrival alone) matters: recorders observe I/Os in *completion*
        # order, and a canonical total order is what makes record ->
        # replay -> record round trips byte-identical.
        for records in self.streams.values():
            records.sort()
        expected = self.content_digest()
        if not self.digest:
            self.digest = expected
        elif self.digest != expected:
            raise TraceFormatError(
                f"trace {self.name!r} digest mismatch: header says "
                f"{self.digest}, content hashes to {expected} — the file "
                "was edited without re-deriving its digest"
            )

    # -- derived ---------------------------------------------------------
    @property
    def records_total(self) -> int:
        return sum(len(r) for r in self.streams.values())

    def content_digest(self) -> str:
        """sha256 over the canonical content: records plus the stream
        metadata that shapes a replay (VD size).  Provenance (``source``)
        stays out — recording the same workload from two runs must yield
        the same digest, or record -> replay -> record round trips would
        never be byte-identical."""
        material = {
            "version": TRACE_SCHEMA_VERSION,
            "streams": {
                stream: {
                    "meta": {"vd_size_mb": self.meta[stream].vd_size_mb},
                    "records": [
                        [r.at_ns, r.kind, r.offset_bytes, r.size_bytes]
                        for r in records
                    ],
                }
                for stream, records in sorted(self.streams.items())
            },
        }
        return hashlib.sha256(canonical_json(material)).hexdigest()[:16]

    # -- transforms ------------------------------------------------------
    def merged_rows(self) -> Tuple[IoRecord, ...]:
        """Every stream interleaved into one record tuple — the single-VD
        stream `repro.lab`'s trace workload replays.  Records are globally
        ordered by (arrival, stream name, record) so the merge is a pure
        function of the trace."""
        rows = sorted(
            (r.at_ns, stream, r)
            for stream, records in sorted(self.streams.items())
            for r in records
        )
        return tuple(r for _t, _s, r in rows)

    def subset(self, max_records: int) -> "FleetTrace":
        """The trace's deterministic CI-sized prefix: the first
        ``max_records`` rows in global arrival order, per-stream shares
        proportional to the original mix (streams that lose all their
        rows are dropped)."""
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        flat = [
            (r.at_ns, stream, r)
            for stream, records in sorted(self.streams.items())
            for r in records
        ]
        flat.sort(key=lambda row: (row[0], row[1]))
        streams: Dict[str, List[IoRecord]] = {}
        for _at, stream, record in flat[:max_records]:
            streams.setdefault(stream, []).append(record)
        return FleetTrace(
            name=self.name,
            streams=streams,
            meta={s: self.meta[s] for s in streams},
            description=self.description,
            epoch_ns=self.epoch_ns,
        )

    # -- serialization ---------------------------------------------------
    def header(self) -> Dict[str, Any]:
        return {
            "fleet_trace": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "epoch_ns": self.epoch_ns,
            "digest": self.digest,
            "records": self.records_total,
            "streams": {
                stream: self.meta[stream].to_dict() for stream in sorted(self.streams)
            },
        }

    def dump(self, target: Union[str, Path, io.TextIOBase]) -> int:
        """Write header + records as JSONL; ``.gz`` paths are gzipped.
        Returns the number of record lines written."""
        if isinstance(target, (str, Path)):
            with _open_text(target, "wt") as fp:
                return self.dump(fp)
        target.write(json.dumps(self.header(), sort_keys=True) + "\n")
        count = 0
        for stream in sorted(self.streams):
            for r in self.streams[stream]:
                target.write(
                    json.dumps(
                        {"s": stream, "t": r.at_ns, "k": r.kind,
                         "o": r.offset_bytes, "z": r.size_bytes},
                        sort_keys=True,
                    )
                    + "\n"
                )
                count += 1
        return count

    @classmethod
    def load(
        cls, source: Union[str, Path, io.TextIOBase], verify: bool = True
    ) -> "FleetTrace":
        """Parse a trace file; malformed lines raise
        :class:`TraceFormatError` with the
        offending line number.  ``verify=False`` skips the digest check
        (for hand-edited work-in-progress files)."""
        if isinstance(source, (str, Path)):
            with _open_text(source, "rt") as fp:
                return cls.load(fp, verify=verify)
        lines = iter(enumerate(source, 1))
        header: Optional[Dict[str, Any]] = None
        for line_no, line in lines:
            line = line.strip()
            if not line:
                continue
            header = _parse_json_object(line, line_no)
            break
        if header is None:
            raise TraceFormatError("empty trace file (no header line)")
        version = header.get("fleet_trace")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceFormatError(
                f"unsupported fleet_trace version {version!r} "
                f"(this build reads version {TRACE_SCHEMA_VERSION})",
                line_no=1,
            )
        try:
            meta = {
                stream: StreamMeta.from_dict(payload)
                for stream, payload in header.get("streams", {}).items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"bad stream metadata: {exc}", line_no=1) from exc
        streams: Dict[str, List[IoRecord]] = {}
        for line_no, line in lines:
            line = line.strip()
            if not line:
                continue
            payload = _parse_json_object(line, line_no)
            unknown = set(payload) - set(_RECORD_KEYS)
            if unknown:
                raise TraceFormatError(
                    f"unknown record keys {sorted(unknown)}", line_no
                )
            try:
                stream = payload["s"]
                record = IoRecord(
                    at_ns=payload["t"],
                    kind=payload["k"],
                    offset_bytes=payload["o"],
                    size_bytes=payload["z"],
                )
            except KeyError as exc:
                raise TraceFormatError(f"record missing key {exc}", line_no) from exc
            except (TypeError, ValueError) as exc:
                raise TraceFormatError(f"bad record: {exc}", line_no) from exc
            if stream not in meta:
                raise TraceFormatError(
                    f"record names stream {stream!r} absent from the header",
                    line_no,
                )
            streams.setdefault(stream, []).append(record)
        if not streams:
            raise TraceFormatError("trace has a header but no records")
        missing = set(meta) - set(streams)
        if missing:
            raise TraceFormatError(
                f"header streams with no records: {sorted(missing)}"
            )
        try:
            return cls(
                name=str(header.get("name", "trace")),
                streams=streams,
                meta=meta,
                description=str(header.get("description", "")),
                epoch_ns=int(header.get("epoch_ns", 0)),
                digest=str(header.get("digest", "")) if verify else "",
            )
        except TraceFormatError:
            raise
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from exc


def _open_text(path: Union[str, Path], mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode, encoding="ascii")
    return open(path, mode, encoding="ascii")


def _parse_json_object(line: str, line_no: int) -> Dict[str, Any]:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}", line_no) from exc
    if not isinstance(payload, dict):
        raise TraceFormatError(
            f"expected an object, got {type(payload).__name__}", line_no
        )
    return payload


def from_records(
    name: str,
    records: Iterable[IoRecord],
    stream: str = "vd0",
    vd_size_mb: int = 256,
    description: str = "",
) -> FleetTrace:
    """Wrap one flat record list as a one-stream trace."""
    return FleetTrace(
        name=name,
        streams={stream: list(records)},
        meta={stream: StreamMeta(vd_size_mb=vd_size_mb)},
        description=description,
    )
