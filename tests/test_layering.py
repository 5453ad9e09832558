"""Observation never changes a plan, and ``src/`` imports only what it uses.

The optimizer, the re-optimization core and the estimator import nothing
from ``repro.observe``: what the tracer, the metrics registry and EXPLAIN
ANALYZE record about one statement cannot reach the planning of another.
Every import is read from the source, typing-only ones included.  No name
is imported under ``src/repro`` and never referenced.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
PLANNING = ("optimizer", "core", "stats")


def imported_modules(path: Path) -> list[str]:
    """Absolute names of every module ``path`` imports."""
    package = ["repro", *path.relative_to(PACKAGE).parent.parts]
    names: list[str] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *(node.module or "").split(".")]).strip(".")
            names.append(module)
            names.extend(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("layer", PLANNING)
def test_planning_imports_nothing_from_observe(layer):
    offenders = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted((PACKAGE / layer).rglob("*.py"))
        for name in imported_modules(path)
        if name == "repro.observe" or name.startswith("repro.observe.")
    ]
    assert offenders == []


def test_relative_imports_resolve():
    names = imported_modules(PACKAGE / "core" / "scia.py")
    assert "repro.storage.catalog" in names  # from ..storage.catalog
    assert "repro.core.inaccuracy" in names  # from .inaccuracy


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never references: not in its code, not
    in a string (a quoted annotation), not re-exported through ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
    return [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_every_import_is_used():
    offenders = [
        offender
        for path in sorted(PACKAGE.rglob("*.py"))
        for offender in unused_imports(path)
    ]
    assert offenders == []
