"""Every public module-level function and class in `src/corpusgap` is
referenced by code in `src/` or `bench/`; tests do not count, so a helper
only tests use belongs in `tests/`.

A reference is any name, attribute or imported name equal to the
definition's name, anywhere in those files, so the check errs towards
passing: it finds a definition that nothing names at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corpusgap"

ALLOWED = {
    # Used by tests/test_acceptance.py, the paper's acceptance criteria.
    "retrieve",
    # Waiting for their production caller, the `study` command (ROADMAP item 9).
    "check_split_disjoint",
    "sensitivity_sweep",
}


def _referenced_names() -> set[str]:
    names = set()
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def _is_click_command(node: ast.FunctionDef) -> bool:
    """Decorated with `<group>.command(...)` or `click.group(...)`; click
    reaches these by name from the command line."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_every_public_definition_is_reached_outside_tests():
    referenced = _referenced_names()
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in ALLOWED or node.name in referenced:
                continue
            if isinstance(node, ast.FunctionDef) and _is_click_command(node):
                continue
            unreached.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unreached == []


def test_the_allowlist_names_only_definitions_that_need_it():
    # An allowed name that something now references, or that is gone,
    # should leave the list.
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert ALLOWED <= defined
    assert ALLOWED.isdisjoint(_referenced_names())
