"""Command-line front end: simulate, fit, select, debias-sequence, study,
evaluate.

All outputs are CSV tables (plus the JSON truth manifest emitted by
``simulate``), written atomically into the ``--out`` directory. Exit codes:
0 success, 2 configuration error, 3 data error, 4 convergence failure under
``--strict``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
import time

import numpy as np

from .domain import (DataError, CsvSchema, FeatureBlock, FeatureSpec,
                     build_design, load_survey_csv)
from .evaluation import interval_coverage, mape
from .inference import SamplerConfig, summarize
from .models import FatigueSpec, ModelSpec
from .pipeline import (bootstrap_mean, cell_weights, fit_independent,
                       fit_sequence, fit_wave, incremental_inclusion_study,
                       poststratified_mean)
from .selection import two_stage_select
from .simulator import (AgeEffect, ScenarioConfig, TruthManifest,
                        panel_to_csv, simulate_panel)

logger = logging.getLogger("contactfatigue")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

_CONFIG_KEYS = {
    "seed": int, "chains": int, "warmup": int, "sampling": int,
    "target_accept": float, "max_tree_depth": int, "threads": int,
    "waves": int, "panel_size": int, "retention": float, "phi": float,
    "min_first": int, "caps": str, "model": str, "hsgp_m": int,
    "bootstrap_resamples": int,
}

_DEFAULTS = {
    "seed": 0, "chains": 4, "warmup": 300, "sampling": 300,
    "target_accept": 0.8, "max_tree_depth": 10, "threads": 1,
    "waves": 5, "panel_size": 300, "retention": 0.7, "phi": 8.0,
    "min_first": 300, "caps": "0,1,2,4", "model": "gam-hill", "hsgp_m": 20,
    "bootstrap_resamples": 500,
}


class ConfigError(ValueError):
    pass


def read_config(path: str | None, overrides: dict) -> dict:
    """Flat key = value config file; CLI flags take precedence."""
    values = dict(_DEFAULTS)
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _CONFIG_KEYS[key](raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value for {key}: {exc}")
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    return values


def sampler_config(values: dict) -> SamplerConfig:
    return SamplerConfig(
        chains=values["chains"], warmup=values["warmup"],
        sampling=values["sampling"], target_accept=values["target_accept"],
        max_tree_depth=values["max_tree_depth"], seed=values["seed"],
        threads=values["threads"])


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.12g}"
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


class _Stage:
    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        logger.info("stage %-18s %.2fs", self.name,
                    time.perf_counter() - self.t0)
        return False


# ---------------------------------------------------------------------------
# Survey feature layout for simulated panels
# ---------------------------------------------------------------------------

def scenario_schema() -> CsvSchema:
    return CsvSchema(
        household_levels=("1", "2", "3", "4", "5+"),
        covariate_columns=("employment", "preschool"),
        covariate_levels={
            "employment": ("full_time", "student", "retired"),
            "preschool": ("yes", "no", "")})


def scenario_feature_spec() -> FeatureSpec:
    sex = FeatureBlock("sex", ("M", "F"))
    household = FeatureBlock("household_size", ("1", "2", "3"))
    employment = FeatureBlock("employment",
                              ("full_time", "student", "retired"))
    const = FeatureBlock("const", ("1",))
    return FeatureSpec(u=(sex, household), v=(employment,),
                       w=(const, employment))


def gam_feature_spec() -> FeatureSpec:
    sex = FeatureBlock("sex", ("M", "F"))
    household = FeatureBlock("household_size", ("1", "2", "3"))
    const = FeatureBlock("const", ("1",))
    return FeatureSpec(u=(sex, household), w=(const,))


def model_spec_for(name: str, values: dict) -> ModelSpec:
    from .models.assemble import HsgpConfig
    age_cfg = HsgpConfig(m=values["hsgp_m"])
    if name == "gam-hill":
        return ModelSpec(family="individual_gam",
                         fatigue=FatigueSpec(kind="hill_per_covariate"),
                         hsgp_age=age_cfg)
    if name == "gam-plain":
        return ModelSpec(family="individual_gam", hsgp_age=age_cfg)
    if name == "longitudinal-hill":
        return ModelSpec(family="longitudinal_nb",
                         fatigue=FatigueSpec(kind="hill"))
    if name == "longitudinal-gp":
        return ModelSpec(family="longitudinal_nb",
                         fatigue=FatigueSpec(kind="gp", max_repeat=12))
    if name == "longitudinal-indep":
        return ModelSpec(family="longitudinal_nb",
                         fatigue=FatigueSpec(kind="independent",
                                             max_repeat=12))
    raise ConfigError(f"unknown model {name!r}")


def _load_records(path: str, seed: int):
    rng = np.random.default_rng([seed, 104729])
    records, report = load_survey_csv(path, scenario_schema(), rng=rng)
    logger.info("loaded %d records (%d dropped)", report.n_kept,
                report.n_dropped_missing)
    if not records:
        raise DataError(f"{path}: no usable records")
    return records


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, values: dict) -> int:
    cfg = ScenarioConfig(waves=values["waves"],
                         panel_size=values["panel_size"],
                         retention=values["retention"], phi=values["phi"],
                         seed=values["seed"])
    with _Stage("simulate"):
        records, manifest = simulate_panel(cfg)
    os.makedirs(args.out, exist_ok=True)
    tmpdir_path = os.path.join(args.out, "records.csv")
    with _Stage("write"):
        fd, tmp = tempfile.mkstemp(dir=args.out, suffix=".tmp")
        os.close(fd)
        panel_to_csv(records, tmp)
        os.replace(tmp, tmpdir_path)
        atomic_write_text(os.path.join(args.out, "truth.manifest"),
                          manifest.to_json())
    logger.info("wrote %s", args.out)
    return EXIT_OK


def _write_fit_outputs(out: str, fit, values: dict, model_name: str) -> None:
    draws = fit.draws
    summary = summarize(draws)
    write_csv(os.path.join(out, "summary.csv"),
              ["parameter", "median", "q0.025", "q0.25", "q0.75", "q0.975"],
              [[r["parameter"], r["median"], r["q0.025"], r["q0.25"],
                r["q0.75"], r["q0.975"]] for r in summary])
    diag = fit.diagnostics
    write_csv(os.path.join(out, "diagnostics.csv"),
              ["parameter", "rhat", "ess_bulk"],
              [[n, diag.rhat[n], diag.ess_bulk[n]]
               for n in draws.parameter_names]
              + [["_divergences", float(diag.divergences), 0.0]])
    flat = draws.stacked()
    names = draws.parameter_names
    write_csv(os.path.join(out, "draws.csv"), names,
              [[float(v) for v in row] for row in flat])
    if hasattr(fit.model, "age_curve"):
        ages = np.arange(0, 85, dtype=float)
        curves = np.asarray([np.exp(fit.model.age_curve(t, ages))
                             for t in flat])
        med = np.median(curves, axis=0)
        lo = np.quantile(curves, 0.025, axis=0)
        hi = np.quantile(curves, 0.975, axis=0)
        write_csv(os.path.join(out, "age_curve.csv"),
                  ["age", "median", "lower", "upper"],
                  [[int(a), float(m), float(l), float(h)]
                   for a, m, l, h in zip(ages, med, lo, hi)])
    if hasattr(fit.model, "fatigue_curve"):
        r_grid = np.arange(0, 13)
        rho = np.asarray([fit.model.fatigue_curve(t, r_grid) for t in flat])
        write_csv(os.path.join(out, "fatigue_curve.csv"),
                  ["repeat", "median", "lower", "upper"],
                  [[int(r), float(np.median(rho[:, i])),
                    float(np.quantile(rho[:, i], 0.025)),
                    float(np.quantile(rho[:, i], 0.975))]
                   for i, r in enumerate(r_grid)])
    if "hill_gamma" in [b.name for b in fit.model.layout.blocks]:
        g = draws.constrained("hill_gamma")
        z = draws.constrained("hill_zeta")
        e = draws.constrained("hill_eta")
        rows = []
        for q in range(g.shape[1]):
            rows.append([q, float(np.median(g[:, q])),
                         float(np.median(z[:, q])),
                         float(np.median(e[:, q])),
                         float(np.quantile(g[:, q], 0.025)),
                         float(np.quantile(g[:, q], 0.975))])
        write_csv(os.path.join(out, "hill.csv"),
                  ["q", "gamma_median", "zeta_median", "eta_median",
                   "gamma_lower", "gamma_upper"], rows)
    config_lines = [f"model = {model_name}"]
    config_lines += [f"{k} = {values[k]}" for k in sorted(values)
                     if k != "model"]
    atomic_write_text(os.path.join(out, "fit_config.txt"),
                      "\n".join(config_lines) + "\n")


def cmd_fit(args, values: dict) -> int:
    records = _load_records(args.data, values["seed"])
    model_name = args.model or values["model"]
    spec = model_spec_for(model_name, values)
    feature_spec = (gam_feature_spec() if spec.family == "individual_gam"
                    else scenario_feature_spec())
    cfg = sampler_config(values)
    with _Stage("fit"):
        fit = fit_wave(records, feature_spec, spec, cfg)
    if args.strict and fit.diagnostics.max_rhat() >= 1.05:
        logger.error("max R-hat %.3f >= 1.05", fit.diagnostics.max_rhat())
        return EXIT_CONVERGENCE
    os.makedirs(args.out, exist_ok=True)
    with _Stage("write"):
        _write_fit_outputs(args.out, fit, values, model_name)
    return EXIT_OK


def selection_groups(records, wave: int | None = None):
    """First-timers and repeaters of ``wave``; by default of the first wave
    that has both (a panel's first wave holds first-timers only)."""
    for t in [wave] if wave else sorted({r.wave for r in records}):
        first = [r for r in records if r.wave == t and r.repeat == 0]
        repeat = [r for r in records if r.wave == t and r.repeat >= 1]
        if first and repeat:
            return first, repeat
    raise DataError(f"wave {wave} lacks first-timers or repeaters" if wave
                    else "no wave has both first-timers and repeaters")


def cmd_select(args, values: dict) -> int:
    records = _load_records(args.data, values["seed"])
    first, repeat = selection_groups(records, args.wave)
    fs = scenario_feature_spec()
    design_first = build_design(first, fs)
    design_repeat = build_design(repeat, fs)
    cfg = sampler_config(values)
    with _Stage("select"):
        stage1, stage2 = two_stage_select(design_first, design_repeat, cfg)
    os.makedirs(args.out, exist_ok=True)
    for res, fname in ((stage1, "stage1.csv"), (stage2, "stage2.csv")):
        write_csv(os.path.join(args.out, fname),
                  ["feature", "median", "lower50", "upper50", "selected"],
                  [[r["feature"], r["median"], r["lower50"], r["upper50"],
                    int(r["selected"])] for r in res.to_rows()])
    return EXIT_OK


def cmd_debias_sequence(args, values: dict) -> int:
    records = _load_records(args.data, values["seed"])
    waves = sorted({r.wave for r in records})
    by_wave = [[r for r in records if r.wave == t] for t in waves]
    fs = gam_feature_spec()
    cfg = sampler_config(values)
    spec_hill = model_spec_for("gam-hill", values)
    spec_plain = model_spec_for("gam-plain", values)

    rows: list[list] = []
    with _Stage("sequential"):
        fits = fit_sequence(by_wave, fs, spec_hill, cfg)
    for fit, wave_records in zip(fits, by_wave):
        w = cell_weights(wave_records)
        est = poststratified_mean(fit, w, debias=True,
                                  method="bayes-debiased")
        rows.append([est.wave, est.method, est.median, est.lower, est.upper])
    with _Stage("unadjusted"):
        fits_u = fit_independent(by_wave, fs, spec_plain, cfg)
    for fit, wave_records in zip(fits_u, by_wave):
        w = cell_weights(wave_records)
        est = poststratified_mean(fit, w, debias=False,
                                  method="bayes-unadjusted")
        rows.append([est.wave, est.method, est.median, est.lower, est.upper])
    with _Stage("first-time"):
        for t, wave_records in zip(waves, by_wave):
            first = [r for r in wave_records if r.repeat == 0]
            if len(first) <= values["min_first"]:
                continue
            fit = fit_wave(first, fs, spec_hill, cfg)
            w = cell_weights(first)
            est = poststratified_mean(fit, w, debias=True,
                                      method="bayes-firsttime")
            rows.append([est.wave, est.method, est.median, est.lower,
                         est.upper])
    with _Stage("bootstrap"):
        for t, wave_records in zip(waves, by_wave):
            est = bootstrap_mean(wave_records,
                                 values["bootstrap_resamples"],
                                 seed=values["seed"])
            rows.append([t, est.method, est.median, est.lower, est.upper])
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "estimates.csv"),
              ["wave", "method", "median", "lower", "upper"], rows)
    return EXIT_OK


def cmd_study(args, values: dict) -> int:
    records = _load_records(args.data, values["seed"])
    caps = [int(c) for c in str(values["caps"]).split(",") if c != ""]
    fs = gam_feature_spec()
    cfg = sampler_config(values)
    rows: list[list] = []
    for name in ("gam-hill", "gam-plain"):
        spec = model_spec_for(name, values)
        with _Stage(f"study {name}"):
            table = incremental_inclusion_study(records, caps, fs, spec, cfg)
        rows += [[r.cap, name, r.mape, r.coverage, r.n_records]
                 for r in table]
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "study.csv"),
              ["cap", "model", "mape", "coverage", "n_records"], rows)
    return EXIT_OK


def cmd_evaluate(args, values: dict) -> int:
    with open(args.truth, encoding="utf-8") as fh:
        manifest = TruthManifest.from_json(fh.read())
    curve_path = os.path.join(args.fit, "age_curve.csv")
    if not os.path.exists(curve_path):
        raise DataError(f"fit directory lacks {curve_path}")
    rows = np.genfromtxt(curve_path, delimiter=",", names=True)
    ages = rows["age"]
    effect = AgeEffect(tuple(tuple(b) for b in manifest.age_bumps))
    truth_curve = np.exp(manifest.beta0 + effect(ages))
    est = rows["median"]
    metrics = [
        ["age_mape_pct", mape(est, truth_curve)],
        ["age_coverage", interval_coverage(truth_curve, rows["lower"],
                                           rows["upper"])],
    ]
    hill_path = os.path.join(args.fit, "hill.csv")
    if os.path.exists(hill_path) and manifest.hill_curves:
        hrows = np.genfromtxt(hill_path, delimiter=",", names=True)
        true_gamma = next(iter(manifest.hill_curves.values())).gamma
        gm = np.atleast_1d(hrows["gamma_median"])[0]
        metrics.append(["hill_gamma_median", float(gm)])
        metrics.append(["hill_gamma_abs_err", float(abs(gm - true_gamma))])
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "metrics.csv"), ["metric", "value"],
              metrics)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactfatigue",
        description="Contact-intensity estimation with reporting-fatigue "
                    "correction")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--chains", type=int)
    parser.add_argument("--warmup", type=int)
    parser.add_argument("--sampling", type=int)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--strict", action="store_true",
                        help="fit: exit 4 when any R-hat >= 1.05")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic panel")
    p.add_argument("--scenario", default="default")
    p.add_argument("--waves", type=int)
    p.add_argument("--panel-size", type=int, dest="panel_size")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit one model to a records file")
    p.add_argument("--model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("select", help="two-stage variable selection")
    p.add_argument("--data", required=True)
    p.add_argument("--wave", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("debias-sequence",
                       help="sequential de-biased estimates for all waves")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("study", help="incremental-inclusion accuracy study")
    p.add_argument("--data", required=True)
    p.add_argument("--caps")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score a fit against a truth manifest")
    p.add_argument("--fit", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "select": cmd_select,
    "debias-sequence": cmd_debias_sequence,
    "study": cmd_study,
    "evaluate": cmd_evaluate,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    overrides = {
        "seed": args.seed, "chains": args.chains, "warmup": args.warmup,
        "sampling": args.sampling, "threads": args.threads,
    }
    for key in ("waves", "panel_size", "caps", "model"):
        if hasattr(args, key):
            overrides[key] = getattr(args, key)
    if "threads" in overrides and overrides["threads"] is None:
        env = os.environ.get("CONTACTFATIGUE_THREADS")
        if env:
            overrides["threads"] = int(env)
    try:
        values = read_config(args.config, overrides)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args, values)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
