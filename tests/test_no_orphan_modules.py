"""Every module under ``src/repro`` has a caller outside its own package.

A module counts as used when some file other than itself and its own
package ``__init__`` imports it: another src module, a CLI, a benchmark
or an example.  Tests do not count: code that only its own tests call
feeds no measurement.  ``from repro.pkg import Name`` counts for the
module that defines ``Name``, followed through ``pkg/__init__.py``'s
re-exports, so a module reached only through its package's public names
is not flagged.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_ROOTS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Entry points run by name (``python -m repro``), never imported.
ENTRY_POINTS = {"repro.__main__"}


def _dotted(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_dotted(path): path for path in (SRC / "repro").rglob("*.py")}


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _base(node: ast.ImportFrom, importer: str, importer_is_package: bool) -> str:
    """The absolute module a ``from ... import`` statement reads from."""
    if not node.level:
        return node.module or ""
    parts = importer.split(".")
    if not importer_is_package:
        parts = parts[:-1]
    parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


@lru_cache(maxsize=None)
def _reexports(package: str) -> dict:
    """Name -> defining module for each ``from ... import`` in a package
    ``__init__``."""
    tree = ast.parse(MODULES[package].read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = _base(node, package, True)
            for alias in node.names:
                names[alias.asname or alias.name] = _defining(base, alias.name)
    return names


def _defining(base: str, name: str) -> str:
    """The module that ``from base import name`` reaches."""
    if f"{base}.{name}" in MODULES:
        return f"{base}.{name}"
    if base in MODULES and _is_package(base):
        return _reexports(base).get(name, base)
    return base


def _imports(path: Path) -> set:
    importer = _dotted(path) if path.is_relative_to(SRC) else ""
    is_package = path.name == "__init__.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, importer, is_package)
            found.add(base)
            found.update(_defining(base, alias.name) for alias in node.names)
    return found


def test_every_module_has_a_caller():
    assert MODULES, f"no modules found under {SRC / 'repro'}"
    used = set()
    for root in CALLER_ROOTS:
        for path in root.rglob("*.py"):
            importer = _dotted(path) if path.is_relative_to(SRC) else ""
            own_package = importer if path.name == "__init__.py" else None
            for module in _imports(path):
                if module == importer or module.rpartition(".")[0] == own_package:
                    continue
                used.add(module)
    orphans = sorted(
        name for name in MODULES
        if not _is_package(name) and name not in ENTRY_POINTS and name not in used
    )
    assert not orphans, f"modules that nothing outside tests imports: {orphans}"
