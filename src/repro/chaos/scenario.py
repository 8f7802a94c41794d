"""Chaos scenarios: serialized fault/action sequences with stable digests.

A :class:`ChaosScenario` is the replayable artifact of the chaos harness:
the harness configuration plus the exact ordered list of actions a run
(random walk or shrunken hypothesis counterexample) applied.  Everything
in it is JSON scalars and simulated time — no wall clock, no process
state — so one scenario replays byte-identically anywhere.

The digest is the sha256 of the canonical JSON of ``{config, actions}``
(same canonicalization `repro.lab` keys its result store by), so a
scenario file is self-verifying: editing the actions without updating the
digest is detected at load time, and two scenarios with the same digest
are the same experiment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from ..lab.spec import canonical_json

#: Version of the unified scenario envelope.  Since v2, chaos
#: counterexamples and `repro.scenario` workload scenarios share one
#: envelope layout ({version, kind, name, digest, ...}), discriminated
#: by ``kind`` — chaos files carry ``kind: "chaos"``.  v1 files (the
#: pre-envelope chaos-only layout) still load; the digest function is
#: unchanged, so migrated files keep their digests and replay reports.
SCENARIO_VERSION = 2

#: Action names the harness can apply (see ChaosHarness._do_*).
ACTION_RULES = (
    "advance",
    "write",
    "read",
    "fail_node",
    "clear_node",
    "fail_tor",
    "clear_tor",
    "set_bitflip",
    "migrate",
    "fail_rebuild_source",
)


@dataclass(frozen=True)
class ChaosAction:
    """One applied harness action: a rule name plus scalar arguments."""

    rule: str
    args: Dict[str, Union[int, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule not in ACTION_RULES:
            raise ValueError(f"unknown chaos rule {self.rule!r}; options: {ACTION_RULES}")
        for key, value in self.args.items():
            if not isinstance(value, (int, str)) or isinstance(value, bool):
                raise ValueError(
                    f"action arg {key}={value!r} must be an int or str "
                    "(scenario files hold only JSON scalars)"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {"rule": self.rule, "args": dict(sorted(self.args.items()))}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChaosAction":
        return cls(rule=payload["rule"], args=dict(payload.get("args", {})))


def scenario_digest(config: Dict[str, Any], actions: Sequence[ChaosAction]) -> str:
    """Stable content digest of one scenario (config + action list)."""
    body = canonical_json(
        {"config": config, "actions": [action.to_dict() for action in actions]}
    )
    return hashlib.sha256(body).hexdigest()[:16]


@dataclass
class ChaosScenario:
    """A named, digest-verified, replayable chaos sequence."""

    name: str
    config: Dict[str, Any]
    actions: List[ChaosAction]
    description: str = ""
    digest: str = ""

    def __post_init__(self) -> None:
        expected = scenario_digest(self.config, self.actions)
        if not self.digest:
            self.digest = expected
        elif self.digest != expected:
            raise ValueError(
                f"scenario {self.name!r} digest mismatch: header says "
                f"{self.digest}, content hashes to {expected} — the file "
                "was edited without re-deriving its digest"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SCENARIO_VERSION,
            "kind": "chaos",
            "name": self.name,
            "description": self.description,
            "digest": self.digest,
            "config": self.config,
            "actions": [action.to_dict() for action in self.actions],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChaosScenario":
        version = payload.get("version")
        if version == 1:
            # Pre-envelope layout: chaos-only, no ``kind`` discriminator.
            # The content digest is computed identically, so legacy files
            # replay byte-for-byte the same.
            pass
        elif version == SCENARIO_VERSION:
            kind = payload.get("kind")
            if kind != "chaos":
                raise ValueError(
                    f"not a chaos scenario (kind={kind!r}); "
                    "workload scenarios load via repro.scenario"
                )
        else:
            raise ValueError(
                f"unsupported scenario version {version!r} "
                f"(this build reads versions 1 and {SCENARIO_VERSION})"
            )
        return cls(
            name=payload["name"],
            config=dict(payload["config"]),
            actions=[ChaosAction.from_dict(a) for a in payload["actions"]],
            description=payload.get("description", ""),
            digest=payload.get("digest", ""),
        )

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ChaosScenario":
        payload = json.loads(Path(path).read_text())
        return cls.from_dict(payload)
