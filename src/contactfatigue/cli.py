"""Command-line front end: simulate, fit, select, debias-sequence, study,
evaluate.

All outputs are CSV tables (plus the JSON truth manifest emitted by
``simulate``), written atomically into the ``--out`` directory. Exit codes:
0 success, 2 configuration error, 3 data error, 4 convergence failure under
``--strict`` (any sampler run of ``fit``, ``select``, ``debias-sequence`` or
``study``, before any output is written), 5 I/O error (a file that cannot be
read or written).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import logging
import os
import sys
import tempfile
import time
import warnings
from dataclasses import fields, replace

import numpy as np

from .domain import (AGE_GRID, DataError, FeatureBlock, FeatureSpec,
                     build_design, load_survey_csv, read_text)
from .evaluation import interval_coverage, mape
from .inference import (DIVERGENT_SHARE_LIMIT, INTERVAL_95, RHAT_LIMIT,
                        ConvergenceWarning, SamplerConfig, posterior_interval,
                        summarize)
from .models import FatigueSpec, ModelSpec
from .models.assemble import AGE_GP
from .pipeline import (bootstrap_mean, cell_weights, check_resamples,
                       fit_sequence, fit_wave, incremental_inclusion_study,
                       poststratified_mean)
from .selection import two_stage_select
from .simulator import (AgeEffect, ScenarioConfig, TruthManifest,
                        panel_to_csv, scenario_schema, simulate_panel)

logger = logging.getLogger("contactfatigue")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5

#: the longest repeat run the longitudinal models resolve one by one;
#: ``fatigue_curve.csv`` covers repeats 0..MAX_REPEAT
MAX_REPEAT = 12

#: every config key with its default, whose type a configured value takes:
#: the settings classes' fields (both seeds are 0), then the commands' keys
_DEFAULTS = {
    **{f.name: f.default for cls in (SamplerConfig, ScenarioConfig)
       for f in fields(cls)},
    "min_first": 300, "caps": "0,1,2,4", "model": "gam-hill",
    "hsgp_m": AGE_GP.m, "bootstrap_resamples": 500,
}


class ConfigError(ValueError):
    pass


def read_config(path: str | None, overrides: dict) -> dict:
    """Flat key = value config file; CLI flags take precedence."""
    values = dict(_DEFAULTS)
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            text = read_text(path)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        with io.StringIO(text, newline=None) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in _DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = type(_DEFAULTS[key])(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value for {key}: {exc}")
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    return values


@contextlib.contextmanager
def settings():
    """Where a command builds every setting it uses, before it reads any
    data: a value that a setting refuses is a ``ConfigError``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def configured(cls, values: dict):
    """A settings class built from the config values of its fields."""
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def atomic_write(path: str, write) -> None:
    """Let ``write`` fill a temporary file beside ``path``, then move it to
    ``path``; if ``write`` raises, the temporary file is removed."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    atomic_write(path, write)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.12g}"
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


@contextlib.contextmanager
def _stage(name: str):
    """Log the wall time of the block as the named stage, however it
    ends."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        logger.info("stage %-18s %.2fs", name, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Survey feature layout for simulated panels
# ---------------------------------------------------------------------------

def _feature_spec(**roles: tuple[str, ...]) -> FeatureSpec:
    """The blocks of each role's attributes, with every level that the
    schema accepts, so any record that loads can be coded."""
    levels = scenario_schema().levels
    return FeatureSpec(**{role: tuple(FeatureBlock(a, levels[a])
                                      for a in attributes)
                          for role, attributes in roles.items()})


def scenario_feature_spec() -> FeatureSpec:
    return _feature_spec(u=("sex", "household_size"), v=("employment",),
                         w=("const", "employment"))


def gam_feature_spec() -> FeatureSpec:
    return _feature_spec(u=("sex", "household_size"), w=("const",))


#: each ``fit --model`` name's family and FatigueSpec(kind, max_repeat)
MODELS = {
    "gam-hill": ("individual_gam", FatigueSpec("hill")),
    "gam-plain": ("individual_gam", FatigueSpec()),
    "longitudinal-hill": ("longitudinal_nb", FatigueSpec("hill")),
    "longitudinal-gp": ("longitudinal_nb", FatigueSpec("gp", MAX_REPEAT)),
    "longitudinal-indep": ("longitudinal_nb",
                           FatigueSpec("independent", MAX_REPEAT)),
}


def model_spec_for(name: str, values: dict) -> ModelSpec:
    """The spec of ``MODELS[name]``; only the GAMs read its age GP."""
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}")
    family, fatigue = MODELS[name]
    return ModelSpec(family=family, fatigue=fatigue,
                     hsgp_age=replace(AGE_GP, m=values["hsgp_m"]))


def _load_records(path: str, seed: int):
    rng = np.random.default_rng([seed, 104729])
    records, n_dropped = load_survey_csv(path, scenario_schema(), rng=rng)
    logger.info("loaded %d records (%d dropped)", len(records), n_dropped)
    if not records:
        raise DataError(f"{path}: no usable records")
    return records


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, values: dict) -> int:
    with settings():
        cfg = configured(ScenarioConfig, values)
    with _stage("simulate"):
        records, manifest = simulate_panel(cfg)
    with _stage("write"):
        atomic_write(os.path.join(args.out, "records.csv"),
                     lambda tmp: panel_to_csv(records, tmp))
        atomic_write_text(os.path.join(args.out, "truth.manifest"),
                          manifest.to_json())
    logger.info("wrote %s", args.out)
    return EXIT_OK


def _write_curve(path: str, x_name: str, x: np.ndarray,
                 curves: np.ndarray) -> None:
    """Posterior median and 95% bounds of per-draw ``curves`` over ``x``."""
    med, (lo, hi) = posterior_interval(curves, INTERVAL_95)
    write_csv(path, [x_name, "median", "lower", "upper"],
              [[int(v), float(m), float(l), float(h)]
               for v, m, l, h in zip(x, med, lo, hi)])


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
        _write_curve(os.path.join(out, "age_curve.csv"), "age", AGE_GRID,
                     np.asarray([np.exp(fit.model.age_curve(t, AGE_GRID))
                                 for t in flat]))
    if hasattr(fit.model, "fatigue_curve"):
        r_grid = np.arange(MAX_REPEAT + 1)
        _write_curve(os.path.join(out, "fatigue_curve.csv"), "repeat", r_grid,
                     np.asarray([fit.model.fatigue_curve(t, r_grid)
                                 for t in flat]))
    med = draws.point()
    if "hill_gamma" in med:
        _, (g_lo, g_hi) = posterior_interval(draws.constrained("hill_gamma"),
                                             INTERVAL_95)
        write_csv(os.path.join(out, "hill.csv"),
                  ["q", "gamma_median", "zeta_median", "eta_median",
                   "gamma_lower", "gamma_upper"],
                  [[q, float(g), float(z), float(e), float(lo), float(hi)]
                   for q, (g, z, e, lo, hi) in enumerate(zip(
                       med["hill_gamma"], med["hill_zeta"], med["hill_eta"],
                       g_lo, g_hi))])
    config_lines = [f"model = {model_name}"]
    config_lines += [f"{k} = {values[k]}" for k in sorted(values)
                     if k != "model"]
    atomic_write_text(os.path.join(out, "fit_config.txt"),
                      "\n".join(config_lines) + "\n")


def cmd_fit(args, values: dict) -> int:
    model_name = values["model"]
    with settings():
        cfg = configured(SamplerConfig, values)
        spec = model_spec_for(model_name, values)
    records = _load_records(args.data, values["seed"])
    feature_spec = (gam_feature_spec() if spec.family == "individual_gam"
                    else scenario_feature_spec())
    with _stage("fit"):
        fit = fit_wave(records, feature_spec, spec, cfg)
    with _stage("write"):
        _write_fit_outputs(args.out, fit, values, model_name)
    return EXIT_OK


def selection_groups(records, wave: int | None = None):
    """First-timers and repeaters of ``wave``; by default of the first wave
    that has both (a panel's first wave holds first-timers only)."""
    waves = sorted({r.wave for r in records}) if wave is None else [wave]
    for t in waves:
        first = [r for r in records if r.wave == t and r.repeat == 0]
        repeat = [r for r in records if r.wave == t and r.repeat >= 1]
        if first and repeat:
            return first, repeat
    raise DataError("no wave has both first-timers and repeaters"
                    if wave is None
                    else f"wave {wave} lacks first-timers or repeaters")


def cmd_select(args, values: dict) -> int:
    with settings():
        cfg = configured(SamplerConfig, values)
        if args.wave is not None and args.wave < 1:
            raise ValueError(f"wave must be >= 1, got {args.wave}")
    records = _load_records(args.data, values["seed"])
    first, repeat = selection_groups(records, args.wave)
    fs = scenario_feature_spec()
    design_first = build_design(first, fs)
    design_repeat = build_design(repeat, fs)
    with _stage("select"):
        stage1, stage2 = two_stage_select(design_first, design_repeat, cfg)
    for res, fname in ((stage1, "stage1.csv"), (stage2, "stage2.csv")):
        write_csv(os.path.join(args.out, fname),
                  ["feature", "median", "lower50", "upper50", "selected"],
                  [[n, m, lo, hi, int(s)] for n, m, lo, hi, s in zip(
                      res.feature_names, res.medians, res.lower50,
                      res.upper50, res.selected)])
    return EXIT_OK


def cmd_debias_sequence(args, values: dict) -> int:
    with settings():
        cfg = configured(SamplerConfig, values)
        spec_hill = model_spec_for("gam-hill", values)
        spec_plain = model_spec_for("gam-plain", values)
        check_resamples(values["bootstrap_resamples"])
    records = _load_records(args.data, values["seed"])
    by_wave = [[r for r in records if r.wave == t]
               for t in sorted({r.wave for r in records})]
    fs = gam_feature_spec()

    def estimate(fit, fit_records, debias: bool, method: str):
        return poststratified_mean(fit, cell_weights(fit_records),
                                   debias=debias, method=method)

    estimates = []
    with _stage("sequential"):
        fits = fit_sequence(by_wave, fs, spec_hill, cfg)
    estimates += [estimate(fit, wave_records, True, "bayes-debiased")
                  for fit, wave_records in zip(fits, by_wave)]
    with _stage("unadjusted"):
        fits_u = [fit_wave(wave_records, fs, spec_plain, cfg)
                  for wave_records in by_wave]
    estimates += [estimate(fit, wave_records, False, "bayes-unadjusted")
                  for fit, wave_records in zip(fits_u, by_wave)]
    with _stage("first-time"):
        for wave_records in by_wave:
            first = [r for r in wave_records if r.repeat == 0]
            if len(first) > values["min_first"]:
                estimates.append(estimate(
                    fit_wave(first, fs, spec_hill, cfg), first, True,
                    "bayes-firsttime"))
    with _stage("bootstrap"):
        estimates += [bootstrap_mean(wave_records,
                                     values["bootstrap_resamples"],
                                     seed=values["seed"])
                      for wave_records in by_wave]
    write_csv(os.path.join(args.out, "estimates.csv"),
              ["wave", "method", "median", "lower", "upper"],
              [[e.wave, e.method, e.median, e.lower, e.upper]
               for e in estimates])
    return EXIT_OK


def cmd_study(args, values: dict) -> int:
    with settings():
        cfg = configured(SamplerConfig, values)
        caps = [int(c) for c in str(values["caps"]).split(",") if c != ""]
        if any(cap < 0 for cap in caps):
            raise ValueError("caps must be >= 0")
        specs = {name: model_spec_for(name, values)
                 for name in ("gam-hill", "gam-plain")}
    records = _load_records(args.data, values["seed"])
    fs = gam_feature_spec()
    rows: list[list] = []
    for name, spec in specs.items():
        with _stage(f"study {name}"):
            table = incremental_inclusion_study(records, caps, fs, spec, cfg)
        rows += [[r.cap, name, r.mape, r.coverage, r.n_records]
                 for r in table]
    write_csv(os.path.join(args.out, "study.csv"),
              ["cap", "model", "mape", "coverage", "n_records"], rows)
    return EXIT_OK


def _read_columns(path: str, *names: str) -> list[np.ndarray]:
    """The named columns of a CSV table; a bad table, or one with no
    rows, is a ``DataError``."""
    try:
        rows = np.genfromtxt(path, delimiter=",", names=True)
        columns = [np.atleast_1d(rows[name]) for name in names]
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not columns[0].size:
        raise DataError(f"{path}: no rows")
    return columns


def cmd_evaluate(args, values: dict) -> int:
    try:
        manifest = TruthManifest.from_json(read_text(args.truth))
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{args.truth}: not a truth manifest: {exc}") from exc
    curve_path = os.path.join(args.fit, "age_curve.csv")
    ages, est, lower, upper = _read_columns(curve_path, "age", "median",
                                            "lower", "upper")
    effect = AgeEffect(tuple(tuple(b) for b in manifest.age_bumps))
    truth_curve = np.exp(manifest.beta0 + effect(ages))
    metrics = [["age_mape_pct", mape(est, truth_curve)],
               ["age_coverage", interval_coverage(truth_curve, lower, upper)]]
    hill_path = os.path.join(args.fit, "hill.csv")
    if os.path.exists(hill_path) and manifest.hill_curves:
        gm = _read_columns(hill_path, "gamma_median")[0][0]
        true_gamma = next(iter(manifest.hill_curves.values())).gamma
        metrics.append(["hill_gamma_median", float(gm)])
        metrics.append(["hill_gamma_abs_err", float(abs(gm - true_gamma))])
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
    parser.add_argument("--strict", action="store_true", help=(
        f"exit 4 without writing output when any sampler run has an R-hat "
        f">= {RHAT_LIMIT} or more than {100 * DIVERGENT_SHARE_LIMIT:g}%% "
        "of its transitions diverge"))
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic panel")
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
    overrides = {k: v for k, v in vars(args).items() if k in _DEFAULTS}
    try:
        values = read_config(args.config, overrides)
        with warnings.catch_warnings():
            if args.strict:
                warnings.simplefilter("error", ConvergenceWarning)
            return _COMMANDS[args.command](args, values)
    except ConvergenceWarning as exc:
        logger.error("%s", exc)
        return EXIT_CONVERGENCE
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
