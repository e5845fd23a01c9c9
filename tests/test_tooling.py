"""The CI workflow installs what ``pyproject.toml`` declares: the package
itself with its ``test`` extra, so that the dependency list lives in one
place, and it runs the console script that the package declares."""

import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")   # in the standard library from 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_ci_installs_the_declared_packages():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["optional-dependencies"]["test"]
    installs = [line.split("pip install", 1)[1].split()
                for line in WORKFLOW.read_text().splitlines()
                if "pip install" in line]
    assert installs == [["-e", '".[test]"']]


def test_ci_runs_the_declared_console_script():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"contactfatigue": "contactfatigue.cli:main"}
    assert 'cf() { contactfatigue "$@"; }' in WORKFLOW.read_text()
