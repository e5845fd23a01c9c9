"""The CI workflow installs what ``pyproject.toml`` declares: every
runtime dependency and every package of the ``test`` extra, and nothing
else, so that neither side drifts from the other."""

import pathlib
import re

import pytest

tomllib = pytest.importorskip("tomllib")   # in the standard library from 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _package(requirement: str) -> str:
    """The package name of a requirement such as ``numpy>=1.24``."""
    name = re.split(r"[\s<>=!~;\[]", requirement.strip(), maxsplit=1)[0]
    return name.lower()


def test_ci_installs_the_declared_packages():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    required = (project["dependencies"]
                + project["optional-dependencies"]["test"])
    declared = {_package(r) for r in required}
    installs = [line.split("pip install", 1)[1]
                for line in WORKFLOW.read_text().splitlines()
                if "pip install" in line]
    assert len(installs) == 1
    installed = {_package(word) for word in installs[0].split()
                 if not word.startswith("-")}
    assert installed == declared
