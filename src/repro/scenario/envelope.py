"""The unified scenario envelope: one file layout, two kinds.

Chaos counterexamples (``kind: "chaos"``, replayed through
`repro.chaos`) and workload scenarios (``kind: "workload"``, run through
this package) serialize into the same JSON envelope::

    {"version": 2, "kind": "chaos"|"workload", "name": ..., "digest": ..., ...}

:func:`load_envelope` sniffs the kind and returns the right object;
callers that only accept one kind dispatch on the returned type.
:func:`spec_kind` extends the sniffing to every spec file ``python -m
repro run`` reads.  Version-1 files — the pre-envelope chaos-only layout the harness wrote
before the scenario plane existed — still load (as chaos), with their
digests unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .catalog import ENVELOPE_VERSION, Scenario

ENVELOPE_KINDS = ("chaos", "workload")


def envelope_kind(payload: Dict[str, Any]) -> str:
    """The kind a parsed envelope payload declares ("chaos" for the
    legacy v1 layout, which predates the discriminator)."""
    version = payload.get("version")
    if version == 1:
        return "chaos"
    if version != ENVELOPE_VERSION:
        raise ValueError(
            f"unsupported scenario version {version!r} "
            f"(this build reads versions 1 and {ENVELOPE_VERSION})"
        )
    kind = payload.get("kind")
    if kind not in ENVELOPE_KINDS:
        raise ValueError(
            f"unknown scenario kind {kind!r}; one of {ENVELOPE_KINDS}"
        )
    return kind


#: The key each spec-file kind must have at its top level.
_SPEC_MARKERS = {"version": "envelope", "deployments": "fleet", "deployment": "lab"}


def spec_kind(payload: Any) -> str:
    """The kind of a parsed spec file: ``"lab"`` (an experiment spec, or
    a JSON list of them), ``"fleet"``, or an envelope's ``"chaos"`` /
    ``"workload"``.  Read off the one marker key the kind must have; a
    payload with none or several is refused rather than guessed."""
    if isinstance(payload, list):
        if payload and all(isinstance(item, dict) and spec_kind(item) == "lab"
                           for item in payload):
            return "lab"
        raise ValueError("a spec list must hold one or more lab experiment specs")
    if not isinstance(payload, dict):
        raise ValueError(f"a spec must be a JSON object or list, got {type(payload).__name__}")
    markers = [key for key in _SPEC_MARKERS if key in payload]
    if len(markers) != 1:
        raise ValueError(
            f"cannot tell the spec kind: it needs exactly one of the keys "
            f"{sorted(_SPEC_MARKERS)}, found {sorted(markers)}"
        )
    kind = _SPEC_MARKERS[markers[0]]
    return envelope_kind(payload) if kind == "envelope" else kind


def load_envelope(path: Union[str, Path]):
    """Load one scenario file of either kind (see :func:`envelope_from_dict`)."""
    return envelope_from_dict(json.loads(Path(path).read_text()))


def envelope_from_dict(payload: Any):
    """A :class:`~repro.scenario.catalog.Scenario` or a
    :class:`~repro.chaos.scenario.ChaosScenario`; both are digest-
    verified on load.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"scenario file must hold a JSON object, got "
            f"{type(payload).__name__}"
        )
    if envelope_kind(payload) == "chaos":
        # Lazy import keeps chaos (hypothesis-adjacent) out of trace-only
        # workflows; the dependency direction stays scenario -> chaos.
        from ..chaos.scenario import ChaosScenario

        return ChaosScenario.from_dict(payload)
    return Scenario.from_dict(payload)
