"""Replay a FleetTrace as a `repro.dist` fleet.

One trace stream becomes one :class:`~repro.dist.fleet.FleetDeployment`
carrying the stream's rows as ``trace_rows`` — each deployment replays
its stream in its own simulator, as an independent point, so the
fleet-level run is byte-identical for every ``--shards`` value.
"""

from __future__ import annotations

from typing import Sequence

from ..dist.fleet import FleetDeployment, FleetSpec
from .trace import FleetTrace


def fleet_from_trace(
    trace: FleetTrace,
    stacks: Sequence[str] = ("solar",),
    seed: int = 0,
    name: str = "",
) -> FleetSpec:
    """One deployment per trace stream, replaying that stream's rows.

    ``stacks`` is cycled across streams (sorted by name), so
    ``("solar", "luna")`` alternates generations the way the reference
    fleet does.  Stream VD sizes come from the trace metadata.
    """
    if not stacks:
        raise ValueError("fleet_from_trace needs at least one stack")
    deployments = tuple(
        FleetDeployment(
            stack=stacks[i % len(stacks)],
            seed=seed + i,
            vd_size_mb=trace.meta[stream].vd_size_mb,
            trace_rows=tuple(
                (r.at_ns, r.kind, r.offset_bytes, r.size_bytes)
                for r in trace.streams[stream]
            ),
        )
        for i, stream in enumerate(sorted(trace.streams))
    )
    return FleetSpec(
        deployments=deployments,
        name=name or f"trace-{trace.name}",
    )
