"""Every module under ``src/repro`` is reached from an entry point.

Reachability follows the static imports (module-level and lazy, inside
functions) from the entry points: the ``repro`` console script, every
``__main__`` module, every module the experiment registry names, and
every ``repro`` module that ``examples/``, ``benchmarks/`` or
``perfbench/`` import or name as a ``"module:attr"`` string.  A module
only the tests reach is dead code and fails here.
"""

import ast
import re
from pathlib import Path

import repro
from repro.experiments.registry import REGISTRY

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent
CALLER_DIRS = ("examples", "benchmarks", "perfbench")
NAMED_TARGET = re.compile(r"[\"'](repro(?:\.\w+)*):")


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {
    _module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
}


def _imports(path):
    """Every ``repro`` module a file's import statements name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            # ``from package import module`` imports the submodule too.
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in found if name in MODULES}


def _with_parents(name):
    """A module and every package whose ``__init__`` importing it runs."""
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def _entry_points():
    roots = {"repro.cli"}
    roots.update(name for name in MODULES if name.endswith(".__main__"))
    roots.update(module for module, _, _ in REGISTRY.values())
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            roots |= _imports(path)
            roots.update(
                name
                for name in NAMED_TARGET.findall(path.read_text())
                if name in MODULES
            )
    return roots


def _reached():
    pending = set()
    for root in _entry_points():
        pending |= _with_parents(root)
    reached = set()
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for imported in _imports(MODULES[name]):
            pending |= _with_parents(imported) - reached
    return reached


def test_entry_points_exist():
    assert {"repro.cli", "repro.experiments.__main__"} <= _entry_points()
    # perfbench's ledger names its targets as "module:attr" strings.
    ledger = (ROOT / "perfbench" / "ledger.py").read_text()
    assert "repro.substrates.srs" in NAMED_TARGET.findall(ledger)


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - _reached())
    assert unreached == [], (
        "modules no entry point imports (only tests reach them): "
        f"{unreached}"
    )
