"""An ``Event`` is allocated only where a caller keeps it.

``Simulator.schedule``/``schedule_at`` return a cancellable
:class:`~repro.sim.events.Event`; ``schedule_fire``/``schedule_at_fire``
queue the same callback in the same ``(time, seq)`` order without one.
A call whose result is thrown away pays for an object nobody can
cancel, so model code must use the ``_fire`` form there.

No model code keeps one either: a timeout that may be cancelled goes in
a ``Timers`` queue (``Simulator.timers()``), so no module under ``src``
calls ``schedule``/``schedule_at`` at all.  The methods stay, because
tests and outside tools call and wrap them by name.

Only the kernel touches the queue: the ``schedule*`` methods are the
one seam through which events enter it, so no module outside
``repro/sim/engine.py`` may read or write ``._heap`` or ``._seq``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_simulator(node: ast.expr) -> bool:
    """``sim`` or ``<anything>.sim``: how model code names its simulator."""
    return (isinstance(node, ast.Name) and node.id == "sim") or (
        isinstance(node, ast.Attribute) and node.attr == "sim"
    )


def _discarded_events(path: Path, root: Path = SRC) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(root)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in ("schedule", "schedule_at")
        and _is_simulator(node.value.func.value)
    ]


def test_no_discarded_event():
    found = [site for path in sorted(SRC.rglob("*.py")) for site in _discarded_events(path)]
    assert found == [], f"use schedule_fire/schedule_at_fire: {found}"


def test_guard_sees_a_discarded_event(tmp_path):
    module = tmp_path / "model.py"
    module.write_text(
        "def arm(self, dep):\n"
        "    self.sim.schedule(5, self.tick)\n"
        "    dep.sim.schedule_at(9, self.tick)\n"
        "    self.timer = self.sim.schedule(5, self.tick)\n"
        "    self.sim.schedule_fire(5, self.tick)\n"
    )
    assert _discarded_events(module, tmp_path) == ["model.py:2", "model.py:3"]


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
    )
    assert _event_calls(module, tmp_path) == ["model.py:2", "model.py:3"]


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
