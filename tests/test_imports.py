"""Every module of the package uses each name it imports.

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
