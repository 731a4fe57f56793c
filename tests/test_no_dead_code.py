"""No dead code in the library: every import of a ``cubetest`` module is
used in it, and every top-level function, class and method is referenced
somewhere in the repository.

A reference is a name, an attribute, an imported name, or a string
constant that reads as an expression (``"to_array"`` in a benchmark hook,
``"RngStream"`` in a forward annotation).  Dunder methods are called by
the language, not by name, so they are not required to have one.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubetest"
SCANNED = ("src", "scripts", "demos", "perfbench", "tests")


def _names(tree: ast.AST, imports: bool = True) -> set[str]:
    """The names, attributes, imported names (unless not ``imports``) and
    expression-like string constants under ``tree``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value.strip(), mode="eval")
            except (SyntaxError, ValueError):  # not code, or holds a NUL
                continue
            out |= _names(expr)
    return out


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), p.name) for p in sorted(PACKAGE.glob("*.py"))}


def test_every_library_import_is_used():
    unused = []
    for name, tree in _modules().items():
        used = _names(tree, imports=False)
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_every_library_definition_is_referenced():
    referenced: set[str] = set()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            referenced |= _names(ast.parse(path.read_text(), str(path)))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = []
    for name, tree in _modules().items():
        for stmt in tree.body:
            if not isinstance(stmt, defs):
                continue
            members = [stmt]
            if isinstance(stmt, ast.ClassDef):
                members += [m for m in stmt.body if isinstance(m, defs)]
            dead += [f"{name}: {m.name}" for m in members
                     if not (m.name.startswith("__") and m.name.endswith("__"))
                     and m.name not in referenced]
    assert not dead, dead
