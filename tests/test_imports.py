"""Every import in src/ and tests/ is used.

An import binds a name; the module must read that name somewhere: as a
bare name, as the root of an attribute chain, or inside a quoted
annotation. `from __future__` imports and a package `__init__.py` (whose
imports are its public surface) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def _bound_names(tree: ast.Module):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def _read_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for a in annotations:
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            names |= _read_names(ast.parse(a.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    read = _read_names(tree)
    return sorted((line, name) for name, line in _bound_names(tree)
                  if name not in read)


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_catches_each_form():
    src = ("import os\nimport a.b\nfrom m import x as y\n"
           "from m import z\nfrom m import q\n"
           "def f(v: 'q') -> None:\n    return z.attr\n")
    assert unused_imports(src) == [(1, "os"), (2, "a"), (3, "y")]
