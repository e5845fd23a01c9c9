"""Every module of the package uses each name it imports, and every
function reads each of its parameters.

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


def test_no_unused_imports():
    unused = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            found = _unused_imports(path.read_text())
            if found:
                unused[str(path.relative_to(PACKAGE))] = found
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
