"""repro.chaos — stateful property-based chaos testing of the control plane.

The operational promises the paper's §5 machinery makes (three live
replicas, no acked write lost, incidents auto-resolve, bounded migration
downtime, monitoring that agrees with itself) are exactly the kind of
claims single-scenario tests under-exercise: the bugs live in the
*interleavings* — a fault landing mid-drain, overlapping incidents on one
host, a VD provisioned while its target node is dead.  This package turns
those promises into an executable invariant suite and lets hypothesis
search the interleaving space:

* :mod:`~repro.chaos.harness` — the live cluster + fault levers + audit
  books, driven through one ``apply(rule, **args)`` entry point;
* :mod:`~repro.chaos.invariants` — the promise suite, checked after every
  applied action;
* :mod:`~repro.chaos.machine` — the hypothesis ``RuleBasedStateMachine``
  (import requires hypothesis);
* :mod:`~repro.chaos.scenario` — digest-verified replayable scenario
  files; shrunken counterexamples become named regression tests under
  ``tests/scenarios/``;
* :mod:`~repro.chaos.cli` — ``python -m repro chaos`` (the hunt); a
  scenario file replays with ``python -m repro run FILE``.
"""

from .harness import ChaosConfig, ChaosHarness, block_payload, replay_scenario
from .invariants import InvariantSuite, InvariantViolation
from .scenario import ACTION_RULES, ChaosAction, ChaosScenario, scenario_digest

__all__ = [
    "ChaosConfig",
    "ChaosHarness",
    "block_payload",
    "replay_scenario",
    "InvariantSuite",
    "InvariantViolation",
    "ACTION_RULES",
    "ChaosAction",
    "ChaosScenario",
    "scenario_digest",
]
