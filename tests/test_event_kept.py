"""Model code schedules through one spelling, and only the kernel
touches the queue.

Kernel events are fire-and-forget.  ``Simulator.schedule``/
``schedule_at`` are aliases of ``schedule_fire``/``schedule_at_fire``,
kept because outside tools (the end-to-end ledger) call and wrap them by
name; ``src`` uses the ``_fire`` names only, and a timeout that may be
cancelled goes in a ``Timers`` queue (``Simulator.timers()``).

The ``schedule*`` methods are the one seam through which events enter
the queue, so no module outside ``repro/sim/engine.py`` may read or
write ``._heap`` or ``._seq``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_simulator(node: ast.expr) -> bool:
    """``sim`` or ``<anything>.sim``: how model code names its simulator."""
    return (isinstance(node, ast.Name) and node.id == "sim") or (
        isinstance(node, ast.Attribute) and node.attr == "sim"
    )


def _event_calls(path: Path, root: Path = SRC) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(root)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("schedule", "schedule_at")
        and _is_simulator(node.func.value)
    ]


def test_no_event_scheduled():
    found = [site for path in sorted(SRC.rglob("*.py")) for site in _event_calls(path)]
    # src uses one spelling, the ``_fire`` names; the aliases exist for
    # outside tools.
    assert found == [], f"use schedule_fire/schedule_at_fire or Simulator.timers(): {found}"


def test_guard_sees_a_kept_event(tmp_path):
    module = tmp_path / "model.py"
    module.write_text(
        "def arm(self, dep):\n"
        "    self.timer = self.sim.schedule(5, self.tick)\n"
        "    timers.append(dep.sim.schedule_at(9, self.tick))\n"
        "    self.sim.schedule_fire(5, self.tick)\n"
        "    self.timer = self.timers.add(5, self.tick)\n"
        "    fault.schedule(self.sim, topology)\n"
        "    self.sim.schedule(5, self.tick)\n"
    )
    assert sorted(_event_calls(module, tmp_path)) == ["model.py:2", "model.py:3", "model.py:7"]


KERNEL = Path("repro", "sim", "engine.py")


def _queue_touches(path: Path, root: Path = SRC) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("_heap", "_seq")
    )
    return [f"{path.relative_to(root)}:{line}" for line in lines]


def test_only_the_kernel_touches_the_queue():
    found = [
        site
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC) != KERNEL
        for site in _queue_touches(path)
    ]
    assert found == [], f"schedule through Simulator.schedule*/join: {found}"


def test_guard_sees_a_queue_touch(tmp_path):
    module = tmp_path / "model.py"
    module.write_text(
        "def cut_in(self, entry):\n"
        "    self.sim._heap.append(entry)\n"
        "    seq = self.sim._seq\n"
        "    self.sim._seq = seq + 1\n"
        "    self.heap = self.sim.schedule_fire(5, self.tick)\n"
    )
    assert _queue_touches(module, tmp_path) == ["model.py:2", "model.py:3", "model.py:4"]
