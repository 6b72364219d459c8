"""Hygiene: every name a package module imports is used or re-exported,
imports sit at module level, every private module-level name is read, no
module imports scipy.sparse (the FD4 operator has one form, the band) or
calls a general dense eigensolver (numpy.linalg.eig, scipy.linalg.eig:
both parity blocks of the linearization are symmetric-definite pencils),
every exported name is bound, the public names and the dataclass fields
that only tests read are exactly the listed ones, every defaulted
parameter is passed by some call and omitted by another, and every
function the benchmark's tracer wraps by name exists."""

import ast
import importlib
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "nlslab"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((REPO / "bench").glob("*.py"))
CALLERS = sorted(p for d in ("src", "bench", "tests") for p in (REPO / d).rglob("*.py"))

# Public names that nothing in the package, its CLI or the benchmark reads,
# only tests, each with why it stays.  A listed name that gains a reader
# leaves the list; a name that loses its last reader must be listed or go.
TEST_ONLY = {
    "dynamics.frozen_frame_decompose":
        "the frozen-frame split h(t) that a Duhamel oracle between the propagator "
        "and the stability run needs; its tests run it on modulation samples",
    "dynamics.ModulationState.reconstruct":
        "the inverse of modulation_decompose, for its round-trip test",
    "linearized.contour_projector":
        "the resolvent oracle for the Riesz projector that SpectralProjector.apply forms",
    "propagator.positivity_check": "the paper's spectral-jump form, not yet in the CLI",
    "scattering.load_table": "reads back the CLI's eigentable.bin artifact format",
    "solitons.power_law_standing_wave":
        "the paper's printed closed form, not yet in the CLI",
}

# Dataclass fields that no attribute read in the package, its CLI or the
# benchmark names, each with why it stays.  As for TEST_ONLY: a listed
# field that gains a reader leaves the list, and an unread field is listed
# or goes.
TEST_ONLY_FIELDS = {
    "dynamics.ModulationState.nu":
        "the weight exponent r_weighted was taken at; its test rebuilds r_weighted from it",
    "grids.AssumptionReport.subquadratic":
        "the well-posedness growth condition, reported beside passes() and not part "
        "of it; its test checks that the theorem nonlinearity fails it",
    "linearized.DiscreteSpectrum.eigenvalues":
        "the localized coarse-grid gap eigenvalues, for the spectral-symmetry test",
}


def traced_names(source: str) -> list:
    """The (module, owner class or None, attribute) entries of TRACED."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def exported_names(tree) -> list:
    """The names listed in the module's __all__ (none without one)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def top_level_names(tree) -> list:
    """(name, first line, last line) of each module-level function, class
    and assigned name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node.lineno, node.end_lineno)
                    for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def name_reads(sources: dict) -> list:
    """(module, line, name) of every loaded name, attribute and imported name."""
    reads = []
    for mod, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((mod, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                reads += [(mod, node.lineno, alias.name) for alias in node.names]
    return reads


def read_elsewhere(mod: str, name: str, lo: int, hi: int, reads: list) -> bool:
    """Whether name (defined on lines lo..hi of mod) is read outside its definition."""
    return any(r == name and (m != mod or not lo <= line <= hi) for m, line, r in reads)


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
    exported = set(exported_names(tree))
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
    reads = name_reads(sources)
    return sorted((mod, lo, name) for mod, source in sources.items()
                  for name, lo, hi in top_level_names(ast.parse(source))
                  if name.startswith("_") and not name.startswith("__")
                  and not read_elsewhere(mod, name, lo, hi, reads))


def stale_exports(source: str) -> list:
    """Names in __all__ that the module does not bind at module level."""
    tree = ast.parse(source)
    bound = {name for name, _lo, _hi in top_level_names(tree)}
    bound |= {alias.asname or alias.name.split(".")[0] for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    return [name for name in exported_names(tree) if name not in bound]


def unread_public_names(sources: dict, readers: dict) -> list:
    """"module.name" of the public names of sources that nothing reads.

    The names are module-level functions, classes and assigned names and
    the methods of module-level classes ("module.Class.method").  A read
    is as for dead_private_names, anywhere in sources or readers (which
    define nothing checked).  Reads match by name alone, so a method read
    under the same name elsewhere counts as read.
    """
    reads = name_reads({**sources, **readers})
    unread = []
    for mod, source in sources.items():
        tree = ast.parse(source)
        names = [(name, name, lo, hi) for name, lo, hi in top_level_names(tree)]
        names += [(f"{node.name}.{sub.name}", sub.name, sub.lineno, sub.end_lineno)
                  for node in tree.body if isinstance(node, ast.ClassDef)
                  for sub in node.body if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
        unread += [f"{mod}.{full}" for full, name, lo, hi in names
                   if not name.startswith("_") and not read_elsewhere(mod, name, lo, hi, reads)]
    return sorted(unread)


def dataclass_fields(tree) -> list:
    """(class, field) of the annotated fields of the module-level classes
    with a dataclass decorator."""
    return [(node.name, stmt.target.id) for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def unread_fields(sources: dict, readers: dict) -> list:
    """"module.Class.field" of the dataclass fields of sources that no
    attribute read (".field", loaded) in sources or readers names.  Reads
    match by name alone, so a read of the same name on another object
    counts as read."""
    attrs = {node.attr for source in {**sources, **readers}.values()
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{mod}.{cls}.{name}" for mod, source in sources.items()
                  for cls, name in dataclass_fields(ast.parse(source)) if name not in attrs)


def default_uses(sources: dict, callers: dict) -> dict:
    """"module.function.parameter" of each defaulted parameter of sources'
    functions, mapped to whether each call in callers passes it.

    Calls match by function name alone.  A call passes a parameter by its
    keyword, or by position when it has more positional arguments than the
    parameters before it; a leading self or cls counts as one of those and
    is not written in the call.  Starred arguments are not expanded.
    """
    passed = {}
    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.setdefault(name, []).append(
                    (len(node.args), {kw.arg for kw in node.keywords}))
    uses = {}
    for mod, source in sources.items():
        tree = ast.parse(source)
        methods = {id(sub): f"{node.name}.{sub.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for sub in node.body
                   if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args.posonlyargs + fn.args.args
            offset = int(bool(args) and args[0].arg in ("self", "cls"))
            params = [(a.arg, i) for i, a in enumerate(args)][len(args) - len(fn.args.defaults):]
            params += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if d is not None]
            for arg, pos in params:
                uses[f"{mod}.{methods.get(id(fn), fn.name)}.{arg}"] = [
                    arg in kws or (pos is not None and n + offset > pos)
                    for n, kws in passed.get(fn.name, [])]
    return uses


def unpassed_defaults(sources: dict, callers: dict) -> list:
    """The defaulted parameters (as default_uses names them) that no call passes."""
    return sorted(name for name, calls in default_uses(sources, callers).items()
                  if not any(calls))


def always_passed_defaults(sources: dict, callers: dict) -> list:
    """The defaulted parameters that no call omits, a function with no
    call included."""
    return sorted(name for name, calls in default_uses(sources, callers).items()
                  if all(calls))


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


def general_eig_calls(source: str) -> list:
    """Lines of calls to numpy.linalg.eig or scipy.linalg.eig, under any
    import alias."""
    tree = ast.parse(source)
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                # "import a.b" binds a; "import a.b as c" binds c to a.b
                bound = a.asname or a.name.split(".")[0]
                alias[bound] = a.name if a.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.module:
            alias.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name):
            name = ".".join([alias.get(func.id, func.id)] + parts[::-1])
            if name in ("numpy.linalg.eig", "scipy.linalg.eig"):
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


def test_checker_flags_a_general_eig_call():
    src = ("import numpy as np\nimport numpy\nimport scipy.linalg as sl\nfrom scipy import linalg\n"
           "from numpy.linalg import eig as e\nimport scipy.linalg\n"
           "np.linalg.eig(a)\nnumpy.linalg.eig(a)\nsl.eig(a)\nlinalg.eig(a, b)\ne(a)\n"
           "scipy.linalg.eig(a)\n"
           "np.linalg.eigvals(a)\nnp.linalg.eigh(a)\nsl.eigh(a, b)\nx.eig(a)\neig(a)\n")
    assert general_eig_calls(src) == [7, 8, 9, 10, 11, 12]


def test_checker_flags_a_stale_export():
    src = ("import os\nfrom x import y as z\n__all__ = ['a', 'b', 'C', 'K', 'os', 'z', 'y']\n"
           "def a():\n    b = 1\n    return b\n\nclass C:\n    pass\n\nK: int = 1\n")
    assert stale_exports(src) == ["b", "y"]


def test_checker_flags_an_unread_public_name():
    sources = {
        "a": ("X = 1\n_Y = 2\n\ndef f():\n    return g()\n\ndef g():\n    return 1\n\n"
              "class K:\n    def m(self):\n        return self.m()\n\n"
              "    def n(self):\n        return 0\n\n    def _p(self):\n        return 0\n"),
        "b": "from a import K\n\ndef h():\n    return K().n()\n",
    }
    assert unread_public_names(sources, {}) == ["a.K.m", "a.X", "a.f", "b.h"]
    # a reader outside the checked sources reads, and defines nothing checked
    reader = "import a\nfrom b import h\n\ndef main():\n    return a.X, a.f, h\n"
    assert unread_public_names(sources, {"r": reader}) == ["a.K.m"]


def test_checker_flags_an_unread_field():
    sources = {
        "a": ("from dataclasses import dataclass\n\n"
              "@dataclass(frozen=True)\nclass R:\n    x: float\n    y: int = 0\n    z = 1\n\n"
              "    def total(self):\n        return self.x\n\n"
              "@dataclass\nclass S:\n    w: float\n\n    def __post_init__(self):\n"
              "        self.w = 2.0\n\n"
              "class T:\n    v: float\n"),
    }
    # a store is not a read, and only dataclasses have fields
    assert unread_fields(sources, {}) == ["a.R.y", "a.S.w"]
    assert unread_fields(sources, {"r": "def f(r, s):\n    return r.y + s.w\n"}) == []


def test_checker_flags_an_unpassed_default():
    sources = {
        "a": ("def f(x, y=1, z=2, *, w=3, v=4):\n    return x\n\n"
              "class K:\n    def m(self, p, q=0, r=1):\n        return p\n\n"
              "    def n(self, s=0):\n        def inner(u=1):\n            return u\n"
              "        return inner()\n"),
    }
    calls = "f(0, 1, v=2)\nf(*xs)\nK().m(0, 1)\nK().n(**opts)\n"
    assert unpassed_defaults(sources, {"c": calls}) == [
        "a.K.m.r", "a.K.n.s", "a.f.w", "a.f.z", "a.inner.u"]
    assert unpassed_defaults(sources, {"c": calls + "K().n(0)\nf(0, z=1, w=2)\n"}) == [
        "a.K.m.r", "a.inner.u"]


def test_checker_flags_an_always_passed_default():
    sources = {
        "a": ("def f(x, y=1, z=2, *, w=3, v=4):\n    return x\n\n"
              "class K:\n    def m(self, p, q=0, r=1):\n        return p\n\n"
              "def g(s=0):\n    return s\n"),
    }
    calls = "f(0, 1, v=2)\nf(0, 1, z=3, v=2)\nK().m(0, 1)\n"
    # f.y and f.v are passed by both calls, K.m.q by its only call, and g
    # has no call to omit s
    assert always_passed_defaults(sources, {"c": calls}) == [
        "a.K.m.q", "a.f.v", "a.f.y", "a.g.s"]
    assert always_passed_defaults(sources, {"c": calls + "f(0)\nK().m(0)\ng()\n"}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_stale_exports(path):
    assert stale_exports(path.read_text()) == []


def test_test_only_public_names_are_listed():
    """The program's public names that only tests read are exactly TEST_ONLY."""
    unread = set(unread_public_names({p.stem: p.read_text() for p in MODULES},
                                     {f"bench.{p.stem}": p.read_text() for p in BENCH}))
    assert sorted(unread - TEST_ONLY.keys()) == [], "read only by tests: list them or delete them"
    assert sorted(TEST_ONLY.keys() - unread) == [], "listed but read: remove them from TEST_ONLY"


def test_test_only_fields_are_listed():
    """The dataclass fields of the program that only tests read are exactly
    TEST_ONLY_FIELDS."""
    unread = set(unread_fields({p.stem: p.read_text() for p in MODULES},
                               {f"bench.{p.stem}": p.read_text() for p in BENCH}))
    assert sorted(unread - TEST_ONLY_FIELDS.keys()) == [], \
        "read only by tests: list them or delete them"
    assert sorted(TEST_ONLY_FIELDS.keys() - unread) == [], \
        "listed but read: remove them from TEST_ONLY_FIELDS"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sparse_imports(path):
    assert sparse_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_general_eig_calls(path):
    assert general_eig_calls(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_no_dead_private_names():
    assert dead_private_names({p.stem: p.read_text() for p in MODULES}) == []


def test_defaulted_parameters_are_passed():
    """A default that no call in the package, the benchmark or the tests
    overrides is a constant: write it as one."""
    callers = {str(p.relative_to(REPO)): p.read_text() for p in CALLERS}
    assert unpassed_defaults({p.stem: p.read_text() for p in MODULES}, callers) == []


def test_defaults_are_omitted():
    """A default that every call in the package, the benchmark and the
    tests overrides restates the caller's value: make the parameter
    required, so that the config is the one owner of that value."""
    callers = {str(p.relative_to(REPO)): p.read_text() for p in CALLERS}
    assert always_passed_defaults({p.stem: p.read_text() for p in MODULES}, callers) == []


def test_traced_names_resolve():
    """bench/tracing.py wraps its TRACED functions by name: each one must
    exist in nlslab, or a traced benchmark run breaks."""
    traced = traced_names((REPO / "bench" / "tracing.py").read_text())
    assert traced
    for module, owner, attr in traced:
        obj = importlib.import_module(f"nlslab.{module}")
        if owner is not None:
            obj = getattr(obj, owner)
        assert callable(getattr(obj, attr, None)), (module, owner, attr)
