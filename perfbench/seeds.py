"""Run the benchmark over several seeds and record each metric's spread.

    python3 perfbench/seeds.py --seeds 1-10 --seconds 30 [--workload gam-fit]

Runs are untraced. For each workload and metric it prints the median and
the quartile spread (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``, and writes them with the machine's
environment to ``perfbench/baseline.json``. The end-to-end metrics come
from the JSON line; the reported-only ones (``ess_per_s``, ``map_s``,
``fail_share``) from the run's results file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def results_file(workload: str, seed: int) -> Path:
    return RESULTS / f"{workload}-seed{seed}-trace0.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    reported = json.loads(results_file(workload, seed).read_text())["reported"]
    values.update({k: v for k, v in reported.items() if v is not None})
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "values": values,
            "errors": [l for l in proc.stderr.splitlines()
                       if l.startswith("fit seed")]}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    record = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, args.seconds)
            runs.append(run)
            print(workload, seed, run["correct"], run["attempted"],
                  run["failed"], *run["errors"], flush=True)
        names = sorted({n for r in runs for n in r["values"]})
        metrics = {n: spread([r["values"][n] for r in runs
                              if n in r["values"]]) for n in names}
        for name, m in metrics.items():
            shown = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {workload:<17} {name:<40} median {m['median']:<12.6g}"
                  f" spread {shown}", flush=True)
        record["workloads"][workload] = {
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted",
                                         "failed", "errors")} for r in runs],
            "metrics": metrics}
        record["environment"] = json.loads(
            results_file(workload, seeds[-1]).read_text())["environment"]
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
