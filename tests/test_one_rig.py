"""``lab/rig.py`` is the only place src assembles a deployment.

Every run in ``src/repro`` — a lab point, a drill, a fleet member, a
chaos cluster, a quick CLI command — gets its deployment, hang monitor,
health monitor and telemetry plane from :class:`repro.lab.rig.Rig`.  A
second assembly would be a second place to keep in step, so this test
walks the AST of every src module and fails on a constructor call
outside the rig.  Live migration is the one other place a
``VirtualDisk`` is made: it re-attaches a moved disk on the target
stack's deployment.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

RIG = "lab/rig.py"

#: Constructor name -> the src files (relative to ``src/repro``) allowed
#: to call it.
ALLOWED = {
    "EbsDeployment": {RIG},
    "IoHangMonitor": {RIG},
    "HealthMonitor": {RIG},
    "TelemetryPlane": {RIG},
    "VirtualDisk": {RIG, "control/migration.py"},
}


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def test_only_the_rig_assembles_a_deployment():
    calls = {}
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                if name in ALLOWED:
                    calls.setdefault(name, set()).add(where)
    stray = {
        name: sorted(files - ALLOWED[name])
        for name, files in sorted(calls.items())
        if files - ALLOWED[name]
    }
    assert not stray, f"deployment pieces constructed outside {RIG}: {stray}"
    assert RIG in calls.get("EbsDeployment", set()), "the rig no longer builds deployments"
