"""The CI workflow installs what ``pyproject.toml`` declares: the package
itself with its ``test`` extra, so that the dependency list lives in one
place, and it runs the console script that the package declares, through
``tools/cli_tree.sh``."""

import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")   # in the standard library from 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
CLI_TREE = ROOT / "tools" / "cli_tree.sh"


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
    assert "cf() { ${CF:-contactfatigue} \"$@\"; }" in CLI_TREE.read_text()


def test_ci_compares_two_cli_trees():
    # the byte-identity check runs the tree script twice, without CF set,
    # and compares the two trees whole
    workflow = WORKFLOW.read_text()
    assert "CF=" not in workflow
    assert 'for run in a b; do\n' in workflow
    assert 'tools/cli_tree.sh "$RUNNER_TEMP/cli-$run"' in workflow
    assert 'diff -r "$RUNNER_TEMP/cli-a" "$RUNNER_TEMP/cli-b"' in workflow


def test_ci_compares_two_gradient_files():
    # the gradients of the benchmark's models, written twice and compared
    # by the tool, which exits 1 when the files differ
    workflow = WORKFLOW.read_text()
    assert ('python tools/grad_states.py "$RUNNER_TEMP/grad-$run.npz"'
            in workflow)
    assert "python tools/grad_states.py --compare" in workflow
