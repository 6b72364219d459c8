"""Hygiene: every name a package module imports is used or re-exported,
imports sit at module level, every private module-level name is read, and
no module imports scipy.sparse (the FD4 operator has one form, the band)."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "nlslab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def nested_imports(source: str) -> list:
    """Lines of imports inside a function or class body."""
    tree = ast.parse(source)
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def dead_private_names(sources: dict) -> list:
    """(module, line, name) of module-level private names nothing reads.

    sources maps module names to source text.  A read is a loaded name,
    an attribute or an imported name anywhere in the sources, except
    inside the name's own definition.
    """
    defined, reads = [], []
    for mod, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(mod, node.lineno, node.end_lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((mod, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                reads += [(mod, node.lineno, alias.name) for alias in node.names]
    return sorted((mod, lo, name) for mod, lo, hi, name in defined
                  if not any(r == name and (m != mod or not lo <= line <= hi)
                             for m, line, r in reads))


def sparse_imports(source: str) -> list:
    """Lines of imports of scipy.sparse or of anything under it."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_checker_flags_an_unused_name():
    src = "import os\nfrom x import a, b as c\nfrom y import d\n__all__ = ['d']\nprint(a)\n"
    assert unused_imports(src) == [(1, "os"), (2, "c")]


def test_checker_flags_a_nested_import():
    src = "import os\n\ndef f():\n    import json\n\nclass C:\n    from x import y\n"
    assert nested_imports(src) == [4, 7]


def test_checker_flags_a_dead_private_name():
    sources = {
        "a": "_K = 1\n_L, _M = 2, 3\n\ndef _f():\n    return _f()\n\ndef _g():\n    return _K\n",
        "b": "from a import _g\nimport a\nprint(a._L)\n",
    }
    assert dead_private_names(sources) == [("a", 2, "_M"), ("a", 4, "_f")]


def test_checker_flags_a_sparse_import():
    src = ("import numpy as np\nfrom scipy import sparse\n"
           "from scipy.sparse.linalg import splu\nimport scipy.sparse as sp\n"
           "from scipy.linalg import solve_banded\nfrom scipy import linalg\n"
           "from .sparse import x\n")
    assert sparse_imports(src) == [2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sparse_imports(path):
    assert sparse_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_no_dead_private_names():
    assert dead_private_names({p.stem: p.read_text() for p in MODULES}) == []
