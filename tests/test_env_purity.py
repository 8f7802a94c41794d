"""Results are a pure function of the spec: no environment knob may
change an outcome.

``REPRO_JOBS`` picks a worker count, which changes wall time but never
an artifact byte.  It is the only environment variable the package
reads; the knobs that once selected the scheduler and the link path are
gone, and setting them must not move an artifact.  The bench and check
scripts read no environment variable at all: a knob there could change
what a bench reports or whether a check passes.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from repro.ebs import DeploymentSpec
from repro.lab import ExperimentSpec, WorkloadSpec, canonical_json, execute_point
from repro.sim import MS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"


def _module_constants(tree: ast.Module) -> dict:
    """Top-level ``NAME = "string"`` assignments of one module."""
    constants = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value.value
    return constants


def _environment_reads(path: Path) -> list:
    """``(line, key)`` for every environment access in one source file;
    ``key`` is None when it is not a string literal or module constant."""
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = _module_constants(tree)

    def resolve(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return constants.get(node.id)
        return None

    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ"

    reads, keyed = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            # os.getenv(KEY) / os.environ.get(KEY)
            if func.attr == "getenv" or (func.attr == "get" and is_environ(func.value)):
                reads.append((node.lineno, resolve(node.args[0]) if node.args else None))
                keyed.add(id(func.value))
        elif isinstance(node, ast.Subscript) and is_environ(node.value):
            # os.environ[KEY]
            reads.append((node.lineno, resolve(node.slice)))
            keyed.add(id(node.value))
    # Any other use of ``environ`` (copying, iterating) reads unknown keys.
    reads.extend(
        (node.lineno, None)
        for node in ast.walk(tree)
        if is_environ(node) and id(node) not in keyed
    )
    return reads


def test_repro_jobs_is_the_only_environment_read():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for line, key in _environment_reads(path):
            found.setdefault(key, []).append(f"{path.relative_to(SRC)}:{line}")
    assert set(found) == {"REPRO_JOBS"}, found


def test_bench_scripts_read_no_environment():
    # Only the top-level scripts: the frozen ``benchmarks/e2e/`` harness
    # copies the environment into the child processes it times.
    found = [
        f"{path.name}:{line} {key}"
        for path in sorted(BENCHMARKS.glob("*.py"))
        for line, key in _environment_reads(path)
    ]
    assert found == [], found


def test_lab_artifact_ignores_retired_knobs():
    spec = ExperimentSpec(
        deployment=DeploymentSpec(
            compute_racks=1, compute_hosts_per_rack=1,
            storage_racks=2, storage_hosts_per_rack=2,
        ),
        workload=WorkloadSpec(mode="fio", iodepth=4, runtime_ns=2 * MS),
        seeds=(3,),
        name="env-purity",
        vd_size_mb=64,
    )
    script = (
        "import sys\n"
        "from repro.lab import ExperimentSpec, execute_point, canonical_json\n"
        "spec = ExperimentSpec.from_json(sys.argv[1])\n"
        "sys.stdout.buffer.write(canonical_json(execute_point(spec, 3)))\n"
    )
    # The scheduler and link-path selectors of earlier versions.
    retired = {"SCHEDULER": "heap", "LINK_FASTPATH": "0"}
    env = dict(os.environ, **{f"REPRO_{name}": value for name, value in retired.items()})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, spec.to_json()],
        capture_output=True, env=env, check=True,
    )
    assert proc.stdout == canonical_json(execute_point(spec, 3))
