"""Stateful property-based chaos: hypothesis drives the live cluster.

:class:`ControlPlaneMachine` is a hypothesis ``RuleBasedStateMachine``
whose rules are the :class:`~repro.chaos.harness.ChaosHarness` actions:
inject/clear node and ToR faults, kill rebuild sources, flip FPGA bits, start live migrations,
issue foreground I/O, advance the simulated clock.  The full
:class:`~repro.chaos.invariants.InvariantSuite` runs after **every** rule
(hypothesis's ``@invariant``), and the quiesced-cluster checks run at
teardown — so any interleaving of faults and control-plane operations
that breaks a promise is found, shrunk to a minimal action sequence, and
exported as a replayable :class:`~repro.chaos.scenario.ChaosScenario`.

The machine never talks to the cluster directly: every rule goes through
``harness.apply``, the same entry point the scenario replayer uses, so a
shrunken counterexample replays exactly what hypothesis executed.
"""

from __future__ import annotations

from typing import Optional, Type

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from .harness import ChaosConfig, ChaosHarness
from .invariants import InvariantViolation
from .scenario import ChaosScenario

#: The shrunken action log of the most recent invariant violation, set by
#: whichever machine instance tripped it last.  Hypothesis replays the
#: shrinking candidates through fresh machine instances and finishes with
#: the minimal failing run, so after a failed hunt this holds the minimal
#: counterexample — ready to export as a regression scenario.
LAST_FAILURE: Optional[ChaosScenario] = None

#: Bit-flip intensity levels the machine chooses between (permille).
BITFLIP_LEVELS = (0, 5, 20)


def _capture(harness: ChaosHarness) -> None:
    global LAST_FAILURE
    LAST_FAILURE = harness.scenario(
        "last-failure", description="auto-captured failing action sequence"
    )


class ControlPlaneMachine(RuleBasedStateMachine):
    """Rules = chaos actions; invariants = the full suite, every step."""

    #: Overridden by :func:`machine_for` to parameterize the harness.
    CONFIG = ChaosConfig()

    def __init__(self):
        super().__init__()
        self.harness = ChaosHarness(self.CONFIG)

    # -- helpers -------------------------------------------------------
    def _apply(self, rule_name: str, **args) -> None:
        self.harness.apply(rule_name, **args)

    def _stacks(self):
        return self.CONFIG.stacks

    # -- rules ---------------------------------------------------------
    @rule(ticks=st.integers(min_value=1, max_value=8))
    def advance_clock(self, ticks: int) -> None:
        self._apply("advance", ticks=ticks)

    @rule(server=st.integers(min_value=0, max_value=15))
    def foreground_write(self, server: int) -> None:
        self._apply("write", server=server)

    @rule(
        server=st.integers(min_value=0, max_value=15),
        block=st.integers(min_value=0, max_value=4095),
    )
    def foreground_read(self, server: int, block: int) -> None:
        self._apply("read", server=server, block=block)

    @rule(
        stack=st.sampled_from(ChaosConfig().stacks),
        node=st.integers(min_value=0, max_value=15),
    )
    def fail_node(self, stack: str, node: int) -> None:
        self._apply("fail_node", stack=stack, node=node)

    @precondition(lambda self: bool(self.harness._faults))
    @rule(
        stack=st.sampled_from(ChaosConfig().stacks),
        node=st.integers(min_value=0, max_value=15),
    )
    def clear_node(self, stack: str, node: int) -> None:
        self._apply("clear_node", stack=stack, node=node)

    @rule(
        stack=st.sampled_from(ChaosConfig().stacks),
        index=st.integers(min_value=0, max_value=7),
    )
    def fail_tor(self, stack: str, index: int) -> None:
        self._apply("fail_tor", stack=stack, index=index)

    @precondition(lambda self: bool(self.harness._faults))
    @rule(
        stack=st.sampled_from(ChaosConfig().stacks),
        index=st.integers(min_value=0, max_value=7),
    )
    def clear_tor(self, stack: str, index: int) -> None:
        self._apply("clear_tor", stack=stack, index=index)

    @rule(permille=st.sampled_from(BITFLIP_LEVELS))
    def set_bitflip(self, permille: int) -> None:
        self._apply("set_bitflip", permille=permille)

    @rule(server=st.integers(min_value=0, max_value=15))
    def start_migration(self, server: int) -> None:
        self._apply("migrate", server=server)

    @rule(
        stack=st.sampled_from(ChaosConfig().stacks),
        node=st.integers(min_value=0, max_value=15),
    )
    def fail_rebuild_source(self, stack: str, node: int) -> None:
        self._apply("fail_rebuild_source", stack=stack, node=node)

    # -- the suite, after every rule ------------------------------------
    @invariant()
    def control_plane_promises_hold(self) -> None:
        try:
            self.harness.verify()
        except InvariantViolation:
            _capture(self.harness)
            raise

    def teardown(self) -> None:
        try:
            self.harness.quiesce()
            self.harness.verify_final()
        except InvariantViolation:
            _capture(self.harness)
            raise


def machine_for(config: ChaosConfig) -> Type[ControlPlaneMachine]:
    """A machine class bound to ``config`` (hypothesis instantiates the
    class itself, so parameterization happens via subclassing)."""
    return type("ConfiguredControlPlaneMachine", (ControlPlaneMachine,), {
        "CONFIG": config,
    })


def hunt(
    config: Optional[ChaosConfig] = None,
    max_examples: int = 20,
    stateful_step_count: int = 30,
    derandomize: bool = False,
    database=None,
) -> Optional[ChaosScenario]:
    """Run a property hunt; return the shrunken failing scenario, if any.

    Returns ``None`` when every example passed.  On failure the shrunken
    counterexample (the minimal rule sequence hypothesis converged on) is
    returned instead of raising, so callers can save it as a regression
    scenario file.
    """
    global LAST_FAILURE
    LAST_FAILURE = None
    machine = machine_for(config) if config is not None else ControlPlaneMachine
    kwargs = dict(
        max_examples=max_examples,
        stateful_step_count=stateful_step_count,
        derandomize=derandomize,
        deadline=None,
    )
    if database is not None:
        kwargs["database"] = database
    hunt_settings = settings(**kwargs)
    try:
        run_state_machine_as_test(machine, settings=hunt_settings)
    except InvariantViolation:
        return LAST_FAILURE
    return None
