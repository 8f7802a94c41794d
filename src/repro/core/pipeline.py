"""A P4-style match-action pipeline interpreter.

§4.6: "the data path of SA can be expressed with the P4 language and
executed on the P4-compatible pipeline."  This module makes that claim
executable: a :class:`Pipeline` is an ordered list of named stages, each
either a match-action step (table lookup keyed on header fields, applying
an action to the packet context) or a fixed-function step (CRC, SEC, DMA
descriptor generation).  The SOLAR SA datapath programs built in
:mod:`repro.core.dpu_offload` run on this interpreter.

Pipelines are *logic only*: they mutate a :class:`PipelineContext` and
take zero simulated time.  Timing (the fixed line-rate pipeline latency)
is charged by the :class:`repro.host.fpga.FpgaDevice` that hosts the
pipeline, whose resource budget :mod:`repro.core.dpu_offload` fills with
Table 3's per-module rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .tables import MatchActionTable


@dataclass
class PipelineContext:
    """Mutable per-packet state threaded through the stages."""

    fields: Dict[str, Any] = field(default_factory=dict)
    #: Set by a stage to drop the packet (with a reason) — remaining
    #: stages are skipped.
    dropped: Optional[str] = None
    #: Trace of stage names executed, for tests and debugging.
    executed: List[str] = field(default_factory=list)

    def require(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise KeyError(
                f"pipeline context missing field {name!r}; present: "
                f"{sorted(self.fields)}"
            ) from None

    def drop(self, reason: str) -> None:
        self.dropped = reason


class Stage:
    """One pipeline stage: a named callable."""

    def __init__(self, name: str, action: Callable[[PipelineContext], None]):
        self.name = name
        self.action = action

    def process(self, ctx: PipelineContext) -> None:
        ctx.executed.append(self.name)
        self.action(ctx)


class MatchActionStage(Stage):
    """A stage that looks up a table and applies hit/miss actions."""

    def __init__(
        self,
        name: str,
        table: MatchActionTable,
        key_fn: Callable[[PipelineContext], Any],
        on_hit: Callable[[PipelineContext, Any], None],
        on_miss: Optional[Callable[[PipelineContext], None]] = None,
    ):
        self.table = table
        self.key_fn = key_fn
        self.on_hit = on_hit
        self.on_miss = on_miss
        super().__init__(name, self._run)

    def _run(self, ctx: PipelineContext) -> None:
        value = self.table.lookup(self.key_fn(ctx))
        if value is not None:
            self.on_hit(ctx, value)
        elif self.on_miss is not None:
            self.on_miss(ctx)
        else:
            ctx.drop(f"{self.name}: table miss")


class Pipeline:
    """An ordered stage list with short-circuit on drop."""

    def __init__(self, name: str, stages: List[Stage]):
        if not stages:
            raise ValueError(f"pipeline {name!r} has no stages")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"pipeline {name!r} has duplicate stage names: {names}")
        self.name = name
        self.stages = stages
        self.packets_in = 0
        self.packets_dropped = 0

    def process(self, ctx: PipelineContext) -> PipelineContext:
        self.packets_in += 1
        for stage in self.stages:
            if ctx.dropped is not None:
                break
            stage.process(ctx)
        if ctx.dropped is not None:
            self.packets_dropped += 1
        return ctx

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"pipeline {self.name!r} has no stage {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pipeline {self.name!r} stages={[s.name for s in self.stages]}>"
