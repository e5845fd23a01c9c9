"""Every module of the package and of its tests uses each name it imports,
every function of the package reads each of its parameters, and every
public function, class, method or property has a caller.

No linter is assumed; the standard library's ``ast`` finds the names a
module imports and the names it reads. Package ``__init__`` modules are
skipped, since they import names to re-export them.
"""

import ast
import pathlib

import contactfatigue

PACKAGE = pathlib.Path(contactfatigue.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "os (line 1)", "b (line 2)"]


#: the test modules, scanned for unused imports alongside the package
TESTS = pathlib.Path(__file__).resolve().parent


def test_no_unused_imports():
    unused = {}
    for root in (PACKAGE, TESTS):
        for path in sorted(root.rglob("*.py")):
            if path.name != "__init__.py":
                found = _unused_imports(path.read_text())
                if found:
                    unused[str(path.relative_to(root.parent))] = found
    assert unused == {}


#: the ``cli.cmd_*`` commands share one dispatch signature, (args, values)
CLI_DISPATCH = ("args", "values")


def _unread_parameters(source: str) -> list[tuple[str, int, str]]:
    """(function, line, parameter) for each named parameter that its
    function's body never reads.

    ``self``, ``cls`` and ``*args``/``**kwargs`` are exempt; ``del name``
    is not a read.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(fn.name, fn.lineno, p.arg)
                  for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)
                  if p.arg not in read and p.arg not in ("self", "cls")]
    return found


def test_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *d, e=1, **f):\n"
              "    del b\n"
              "    def g():\n"
              "        return a\n"
              "    return g\n")
    assert _unread_parameters(source) == [("f", 1, "b"), ("f", 1, "e")]


def test_every_parameter_is_read():
    unread = [f"{path.relative_to(PACKAGE)}:{line} {fn}({param})"
              for path in sorted(PACKAGE.rglob("*.py"))
              for fn, line, param in _unread_parameters(path.read_text())
              if not (path.name == "cli.py" and fn.startswith("cmd_")
                      and param in CLI_DISPATCH)]
    assert unread == []


#: the code outside the package that counts as a caller
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

#: public names (``Class.name`` for a method) that only tests call, each
#: with the reason it stays
UNCALLED_KEPT = {
    "basis_at": "dense HSGP basis, the tests' reference for the factored one",
    "gram_matrix": "exact kernel matrix, the tests' reference for HSGP",
    "psis_loo": "tested against exact LOO; to be reported by `evaluate`",
    "Layout.pack": "natural-scale values to a state, the tests' state "
                   "builder",
    "LooResult.n_high_k": "to go into the LOO report of `evaluate`",
    "_AdditiveCountModel.replicate": "fuzz-tested; to drive the posterior "
                                     "predictive check of `evaluate`",
    "HsgpBasis.spectral_weights": "perfbench/tracing.py patches it by name; "
                                  "to go with the next benchmark change",
}


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute that ``node`` reads or writes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each public module-level function or class, and
    ``module:Class.name`` of each public method or property, that no other
    top-level statement of ``sources`` names. A method also counts as
    called when another statement of its class names it. ``__init__``
    modules are skipped, since they only re-export."""
    statements = [(path, stmt) for path, source in sources.items()
                  if not path.endswith("__init__.py")
                  for stmt in ast.parse(source).body]
    named = [(stmt, _names(stmt)) for _, stmt in statements]
    found = []
    for path, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        elsewhere = set().union(*(names for other, names in named
                                  if other is not stmt))
        if not stmt.name.startswith("_") and stmt.name not in elsewhere:
            found.append(f"{path}:{stmt.name}")
        if not isinstance(stmt, ast.ClassDef):
            continue
        for member in stmt.body:
            if (isinstance(member, ast.FunctionDef)
                    and not member.name.startswith("_")
                    and member.name not in elsewhere
                    and not any(member.name in _names(other)
                                for other in stmt.body
                                if other is not member)):
                found.append(f"{path}:{stmt.name}.{member.name}")
    return found


def test_scan_finds_an_uncalled_definition():
    sources = {"a.py": "def f():\n    return f()\nclass C:\n    pass\n"
                       "def _g():\n    pass\n",
               "b.py": "from a import f\nx = C\n",
               "__init__.py": "from a import f\nf()\n"}
    assert _uncalled_definitions(sources) == ["a.py:f"]


def test_scan_finds_an_uncalled_method():
    sources = {"a.py": "class C:\n"
                       "    def m(self):\n        return self.m()\n"
                       "    def n(self):\n        pass\n"
                       "    @property\n    def k(self):\n        return 1\n"
                       "    def j(self):\n        return self.k\n"
                       "    def _p(self):\n        pass\n",
               "b.py": "C().j()\n",
               "__init__.py": "C().n()\n"}
    assert _uncalled_definitions(sources) == ["a.py:C.m", "a.py:C.n"]


def _uncalled_in_package() -> set[str]:
    """The names (``Class.name`` for a method) of the package's public
    definitions that neither the package nor the benchmark calls."""
    sources = {str(path.relative_to(root.parent)): path.read_text()
               for root in (PACKAGE, PERFBENCH)
               for path in sorted(root.rglob("*.py"))}
    return {entry.rsplit(":", 1)[1]
            for entry in _uncalled_definitions(sources)
            if entry.startswith(f"{PACKAGE.name}/")}


def test_every_public_definition_has_a_caller():
    assert sorted(_uncalled_in_package() - set(UNCALLED_KEPT)) == []


def test_every_kept_name_is_still_defined_and_uncalled():
    # an entry goes once its definition is deleted or gains a caller
    assert sorted(set(UNCALLED_KEPT) - _uncalled_in_package()) == []


#: the settable values of the package: defaulted parameters, defaulted
#: dataclass fields and command-line options. A new one needs a caller
#: that sets it to another value; raise the pin only with that caller.
SETTABLE_VALUES = 78


def _settable_values(source: str) -> int:
    """Defaulted parameters of functions and lambdas, defaulted fields of
    dataclasses and ``add_argument`` calls in ``source``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in _names(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            count += 1
    return count


def test_scan_counts_settable_values():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\n"
              "class C:\n"
              "    a: int\n"
              "    b: int = 1\n"
              "    c: list = field(default_factory=list)\n"
              "class D:\n"
              "    e: int = 2\n"
              "def f(x, y=1, *args, z=2, w, **kw):\n"
              "    return lambda u, v=3: u\n"
              "parser.add_argument('--n', type=int)\n")
    assert _settable_values(source) == 6


def test_settable_values_do_not_grow():
    count = sum(_settable_values(path.read_text())
                for path in PACKAGE.rglob("*.py"))
    assert count <= SETTABLE_VALUES


def test_the_benchmark_tracer_finds_what_it_patches(monkeypatch):
    # perfbench/tracing.py swaps package functions and methods, found by
    # name, for timing wrappers; a renamed one fails here, not only in a
    # traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from contactfatigue.models import assemble

    original = assemble._HsgpTerm.values_at
    with tracing.instrument(tracing.Tracer()):
        assert assemble._HsgpTerm.values_at is not original
    assert assemble._HsgpTerm.values_at is original


def test_the_benchmark_tracer_times_the_spectral_weights(monkeypatch):
    # the per-layer kernel time of a traced run is read from these spans;
    # one gradient of a 1D smooth (GAM) and of a 2D surface (BRC) must
    # reach both
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy as np
    import tracing
    from conftest import SMALL_FEATURES, brc_model, make_records
    from contactfatigue.domain import build_design
    from contactfatigue.models import ModelSpec, build_model

    gam = build_model(ModelSpec(family="individual_gam"),
                      build_design(make_records(), SMALL_FEATURES))
    for model in (gam, brc_model()[0]):
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            logp, _ = model.logp_grad(np.zeros(model.layout.size))
        assert np.isfinite(logp)
        for span in ("kernels.spectral_density",
                     "kernels.spectral_weights_vjp"):
            assert tracer.stats[span][0] >= 1, span
