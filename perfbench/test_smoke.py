"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once per mode and must print every metric that
BENCHMARK.json names, with its unit, in the last line of its output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in lines[:-1] if line.startswith(" ")}
    for name in ("setup_s", "ess_per_s", "grad_per_s", "map_s",
                 "fail_share", "peak_rss_mb", *expected):
        assert name in printed


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "gam-fit", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_raising_fit_is_recorded_as_failed(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import workloads

    workload = workloads.make("gam-fit", workloads.SMOKE, str(tmp_path))
    workload.setup(3, workloads.Stages())

    def overflow(theta):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(workload.model, "logp_grad", overflow)
    op = workloads.Op(seed=3)
    workload.run(op, None, None, workloads.Stages())
    assert op.error == "OverflowError"
    assert "OverflowError" in op.traceback
    assert op.failed and op.grads == 0 and not op.digest


def test_diagnostics_on_known_draws(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import numpy as np
    from diagnostics import summarize_draws

    rng = np.random.default_rng(0)
    ess, rhat = summarize_draws(rng.standard_normal((4, 1000, 3)))
    assert 3000 < ess < 5000 and rhat < 1.01
    apart = rng.standard_normal((2, 500, 1))
    apart[1] += 3.0
    assert summarize_draws(apart)[1] > 1.5
