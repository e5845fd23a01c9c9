"""Seeded simulate -> fit benchmark of contactfatigue.

    python3 perfbench/run.py --workload gam-fit --seed 7 --seconds 30 --trace 0

Builds one workload's inputs from ``--seed`` (see ``workloads.py``), times
its set-up several times, then repeats seeded fits for ``--seconds`` of
measured time and checks each against the simulator's truth. The last line
of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it name every metric with its unit. ``--smoke`` shrinks
every input, for the benchmark's own test. A full record of each run goes
to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

# One OpenBLAS thread, set before NumPy loads: on the shared 2-core host a
# second BLAS thread tied the surface model's speed to the load on the
# other core, which no single-threaded reference can track.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, instrument, self_time_by_layer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_REPEATS = 4             # before the fits, and again after them
OP_SEED_STRIDE = 1_000_003    # sampler seed of the k-th fit: seed + k * stride

# metric names and units come from the benchmark's definition
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
# printed by name on every run, gated or not: see README.md
REPORTED = (("setup_s", "s"), ("ess_per_s", "1/s"), ("grad_per_s", "1/s"),
            ("map_s", "s"), ("fail_share", "ratio"), ("peak_rss_mb", "MB"))


def _import_package() -> None:
    """Put the checkout's own ``src`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "contactfatigue" / "__init__.py").is_file():
        sys.exit(f"run.py: no contactfatigue package under {src}")
    sys.path.insert(0, str(src))


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _blas_libraries() -> list[dict]:
    """Loaded OpenBLAS builds with their configuration and thread count."""
    out = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:     # not Linux: the record goes without BLAS details
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode()
                break
            if "threads" in info:
                break
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
    }


def build_fingerprint() -> str:
    """Digest of the package and benchmark sources and numeric stack."""
    import numpy
    import scipy
    h = hashlib.sha256()
    for base in (ROOT / "src" / "contactfatigue", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    h.update(f"{platform.python_version()} {numpy.__version__} "
             f"{scipy.__version__}".encode())
    return h.hexdigest()


def check_determinism(ops, key_prefix: str) -> None:
    """Compare draw digests with earlier runs of the same build and seed."""
    path = RESULTS / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for op in ops:
        if not op.digest:
            continue
        key = f"{key_prefix}/{op.seed}"
        if known.setdefault(key, op.digest) != op.digest:
            op.failed_checks.append("determinism")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


def span_cost_us(calls: int = 20000, rounds: int = 5) -> float:
    """µs one traced span adds: a wrapped no-op against a bare one.

    Tracing overhead is this times the spans per gradient. Timing traced
    against untraced gradients directly is lost in the host's noise on
    brc-map, where it read -230 µs.
    """
    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    best = {noop: float("inf"), traced: float("inf")}
    for _ in range(rounds):
        for fn in best:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return (best[traced] - best[noop]) / calls * 1e6


def grad_rate(ops, speed: HostSpeed) -> float:
    """Gradients per second of the fit step.

    Median over the run's fit windows of each window's rate, scaled by
    the reference ``speed`` timed at its end (see ``hostspeed.py``).
    """
    return _median(rate / speed.scale(ref_us)
                   for op in ops for rate, ref_us in op.windows)


def end_to_end(ops, setup_s: list[float], sampling: bool,
               speed: HostSpeed) -> dict:
    fit_s = sum(op.fit_s for op in ops)
    ok = [op for op in ops if not op.failed]
    ess = sum(op.values.get("min_ess_bulk", 0.0) for op in ok)
    return {
        "setup_s": _median(setup_s),
        "ess_per_s": ess / fit_s if sampling else None,
        "grad_per_s": grad_rate(ops, speed),
        "map_s": None if sampling else _median(
            op.fit_s for op in (ok or ops)),
        "fail_share": sum(op.failed for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops, stages, workload, e2e: dict) -> dict:
    """Per-layer numbers of a traced run; 0 where a layer is not used."""
    sampling = workload.sampling
    stats: dict[str, list] = {}
    for op in ops:
        for name, row in op.layer_stats.items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
    grads = sum(op.grads for op in ops)
    per_grad = 1e6 / grads if grads else 0.0
    fit_s = sum(op.fit_s for op in ops)
    logp_total = stats.get("models.logp_grad", [0, 0.0, 0.0])[1]
    logp_us = logp_total * per_grad
    spans = sum(calls for calls, _total, _self in stats.values())
    overhead = spans / grads * span_cost_us() if grads else 0.0
    layer_self = self_time_by_layer(
        {k: tuple(v) for k, v in stats.items()})

    def fit_median(key):
        return _median(op.values[key] for op in ops if key in op.values)

    def stage(name):
        return _median(stages.samples.get(name, ()))

    out = {name: stage(name) for name in (
        "simulator.panel_s", "simulator.csv_write_s", "simulator.surface_s",
        "domain.load_s", "domain.design_s", "models.build_s",
        "models.brc_data_s", "pipeline.poststrat_s")}
    out.update({
        "domain.rows": getattr(workload, "rows", 0),
        "models.logp_grad_calls": grads,
        "models.logp_grad_us": logp_us,
        "models.logp_grad_share": logp_total / fit_s if fit_s else 0.0,
        "models.reject_share": (sum(op.rejects for op in ops) / grads
                                if grads else 0.0),
        "likelihoods.us_per_grad": layer_self.get("likelihoods", 0) * per_grad,
        "fatigue.us_per_grad": layer_self.get("fatigue", 0) * per_grad,
        "priors.us_per_grad": layer_self.get("priors", 0) * per_grad,
        "kernels.us_per_grad": layer_self.get("kernels", 0) * per_grad,
        "models.hsgp_us_per_grad": layer_self.get("hsgp", 0) * per_grad,
        # self time of logp_grad itself: everything not in a wrapped call
        "models.glue_us_per_grad": layer_self.get("models", 0) * per_grad,
        "inference.sample_s": _median(op.fit_s for op in ops)
        if sampling else 0.0,
        "inference.overhead_us_per_grad":
            (fit_s - logp_total) * per_grad if sampling else 0.0,
        "inference.grads_per_iter": fit_median("grads_per_iter"),
        "inference.step_size": fit_median("step_size"),
        "inference.min_ess_bulk": fit_median("min_ess_bulk"),
        "inference.max_rhat": fit_median("max_rhat"),
        "inference.divergences": fit_median("divergences"),
        "inference.ess_per_s": e2e["ess_per_s"] or 0.0,
        "inference.map_s": e2e["map_s"] or 0.0,
        "inference.map_grads": 0.0 if sampling else _median(
            op.grads for op in ops),
        "inference.lbfgs_overhead_us_per_grad":
            0.0 if sampling else (fit_s - logp_total) * per_grad,
        "evaluation.debiased_mean_err_pct": fit_median("debiased_mean_err_pct"),
        "evaluation.intensity_mape_pct": fit_median("intensity_mape_pct"),
        "evaluation.surface_mape_pct": fit_median("surface_mape_pct"),
        "evaluation.flow_identity_rel": fit_median("flow_identity_rel"),
        "trace.overhead_us_per_grad": overhead,
        "trace.overhead_pct": (100.0 * overhead / (logp_us - overhead)
                               if grads else 0.0),
    })
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_package()
    from workloads import FULL, SMOKE, Op, Stages, make

    RESULTS.mkdir(exist_ok=True)
    size = SMOKE if args.smoke else FULL
    workload = make(args.workload, size, str(RESULTS))
    tracer = Tracer() if args.trace else None
    stages = Stages()

    host = HostSpeed()
    fit_speed = workload.speed()
    setup_s, input_digests, references = [], set(), []

    def set_up():
        for _ in range(SETUP_REPEATS):
            # one model alive at a time, so the peak memory is that of a
            # single set-up and fit, not of when the collector ran
            workload.model = None
            gc.collect()
            ref_us = host.measure()
            t0 = time.perf_counter()
            input_digests.add(workload.setup(args.seed, stages))
            elapsed = time.perf_counter() - t0
            ref_us = 0.5 * (ref_us + host.measure())
            references.append(ref_us)
            setup_s.append(elapsed * host.scale(ref_us))

    with instrument(tracer) if tracer else contextlib.nullcontext():
        set_up()
        ops, longest = [], 0.0
        start = time.perf_counter()
        while True:
            op = Op(seed=args.seed + OP_SEED_STRIDE * len(ops))
            t0 = time.perf_counter()
            workload.run(op, tracer, fit_speed, stages)
            longest = max(longest, time.perf_counter() - t0)
            ops.append(op)
            if time.perf_counter() - start + longest > args.seconds:
                break
        set_up()    # again after the fits, so set-up meets two host phases

    check_determinism(ops, f"{build_fingerprint()}/{args.workload}/"
                           f"{'smoke' if args.smoke else 'full'}")
    failed_checks = sorted({c for op in ops for c in op.failed_checks})
    if len(input_digests) != 1:
        failed_checks.append("deterministic_inputs")
    for op in ops:
        if op.error:
            print(f"fit seed {op.seed}: raised {op.error}\n{op.traceback}",
                  file=sys.stderr)
        for check in op.failed_checks:
            print(f"fit seed {op.seed}: check {check} failed",
                  file=sys.stderr)

    e2e = end_to_end(ops, setup_s, workload.sampling, fit_speed)
    e2e["host.reference_us"] = _median(references)
    if tracer:
        values = per_layer(ops, stages, workload, e2e)
        units = PER_LAYER
    else:
        values = e2e
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  "
          f"fits {len(ops)}  failed {sum(op.failed for op in ops)}")
    shown = REPORTED + (("host.reference_us", "us"),)
    shown += PER_LAYER if tracer else ()
    for name, unit in shown:
        v = e2e.get(name, values.get(name))
        print(f"  {name:<40} {'n/a' if v is None else f'{v:.6g}':>14} {unit}")

    record = {
        "args": vars(args), "environment": environment(),
        "setup_s": setup_s, "stages": stages.samples,
        "ops": [asdict(op) for op in ops], "failed_checks": failed_checks,
        "metrics": values, "reported": e2e,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float))

    print(json.dumps({
        "correct": not failed_checks,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
