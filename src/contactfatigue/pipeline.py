"""Sequential wave fitting, de-biased population estimates, and baselines.

Waves are fitted in order; from the second wave on, the covariate and Hill
parameters receive informative priors centered at the previous wave's
posterior means (Normal(. , 0.3) for coefficients, half-Normal(. , 0.3) /
Normal(. , 0.1) / half-Normal(. , 0.1) for gamma / zeta / eta). This
resolves the confounding between baseline intensity and fatigue when a wave
has no first-time participants.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .domain import (AGE_GRID, DataError, FeatureSpec, SurveyRecord,
                     build_design)
from .evaluation import interval_coverage, mape
from .inference import (INTERVAL_95, Diagnostics, PosteriorDraws,
                        SamplerConfig, posterior_interval, sample_model)
from .models import Model, ModelSpec, build_model
from .models.fatigue import HILL_KINDS
from .priors import PriorSpec

logger = logging.getLogger(__name__)


@dataclass
class WaveFit:
    wave: int
    draws: PosteriorDraws
    diagnostics: Diagnostics
    model: Model
    posterior_means: dict[str, np.ndarray]
    posterior_medians: dict[str, np.ndarray]
    prior_provenance: str      # "initial" or "propagated"


@dataclass(frozen=True)
class PopulationEstimate:
    wave: int
    method: str                # bayes-debiased | bayes-unadjusted |
                               # bayes-firsttime | bootstrap
    median: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.median <= self.upper):
            raise ValueError("interval must bracket the point estimate")


def _propagated_spec(base: ModelSpec, means: dict[str, np.ndarray]
                     ) -> ModelSpec:
    """Informative priors centered at the previous wave's posterior: of the
    coefficients, and of the Hill curves where the spec has them."""
    def at_mean(family: str, name: str, scale: float) -> PriorSpec:
        return PriorSpec(family, (tuple(map(float, means[name])), scale))

    fatigue = base.fatigue
    if fatigue.kind in HILL_KINDS:
        fatigue = replace(
            fatigue, gamma_prior=at_mean("halfnormal_pos", "hill_gamma", 0.3),
            zeta_prior=at_mean("normal", "hill_zeta", 0.1),
            eta_prior=at_mean("halfnormal_pos", "hill_eta", 0.1))
    return replace(base, beta_prior=at_mean("normal", "beta", 0.3),
                   fatigue=fatigue)


def fit_wave(records: list[SurveyRecord], feature_spec: FeatureSpec,
             spec: ModelSpec, cfg: SamplerConfig) -> WaveFit:
    """Sample the posterior of ``spec`` on the records of one wave. A model
    built on no records is its prior alone; fitting one is a
    ``DataError``."""
    if not records:
        raise DataError("no records to fit")
    design = build_design(records, feature_spec)
    model = build_model(spec, design)
    draws, diag = sample_model(model, cfg, compute_pointwise=False)
    return WaveFit(
        wave=int(records[0].wave), draws=draws, diagnostics=diag,
        model=model, posterior_means=draws.point(np.mean),
        posterior_medians=draws.point(np.median),
        prior_provenance="initial")


def fit_sequence(waves: list[list[SurveyRecord]], feature_spec: FeatureSpec,
                 spec: ModelSpec, cfg: SamplerConfig) -> list[WaveFit]:
    """Fit ordered waves, carrying posterior means forward as priors. A
    wave with no records is a ``DataError``, as in ``fit_wave``."""
    if spec.family != "individual_gam":
        raise ValueError("the sequential pipeline fits the additive model")
    fits: list[WaveFit] = []
    current = spec
    for records in waves:
        fit = fit_wave(records, feature_spec, current, cfg)
        if fits:
            fit.prior_provenance = "propagated"
        fits.append(fit)
        current = _propagated_spec(spec, fit.posterior_means)
    return fits


# ---------------------------------------------------------------------------
# Population-level estimates
# ---------------------------------------------------------------------------

def poststratified_mean(fit: WaveFit, weights: np.ndarray, *,
                        debias: bool,
                        method: str = "bayes-debiased"
                        ) -> PopulationEstimate:
    """Population average intensity, weighting the fitted records' cells.

    ``weights`` assigns one poststratification weight per fitted record
    (population share of its age/sex/household cell divided by the cell's
    sample count); they must sum to 1. Per draw, the weighted mean of
    per-record intensities is formed, with the fatigue term zeroed when
    ``debias`` is set; the 95% interval comes from the draw distribution.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (fit.model.n_obs,):
        raise ValueError("need one weight per fitted record")
    if abs(weights.sum() - 1.0) > 1e-8:
        raise ValueError("weights must sum to 1")
    flat = fit.draws.stacked()
    vals = np.empty(flat.shape[0])
    for s, theta in enumerate(flat):
        lam = np.exp(fit.model.predict_log_intensity(theta, debias=debias))
        vals[s] = float(lam @ weights)
    med, (lo, hi) = posterior_interval(vals, INTERVAL_95)
    return PopulationEstimate(wave=fit.wave, method=method, median=float(med),
                              lower=float(lo), upper=float(hi))


def cell_weights(records: list[SurveyRecord]) -> np.ndarray:
    """Per-record poststratification weights: 1/n for each of the n
    records, so the weighted mean is their plain mean. No population shares
    of the (sex, household) cells are read."""
    n = len(records)
    return np.full(n, 1.0 / n)


def check_resamples(b: int) -> None:
    """Refuse a bootstrap of fewer than 100 resamples."""
    if b < 100:
        raise ValueError("use at least 100 bootstrap resamples")


def bootstrap_mean(records: list[SurveyRecord], b: int, *, seed: int = 0
                   ) -> PopulationEstimate:
    """Participant-level bootstrap of the mean contact count, with its
    median and 95% percentile interval over the resamples. Each resample's
    mean is the average with equal weights. No records is a
    ``DataError``."""
    if not records:
        raise DataError("no records to resample")
    check_resamples(b)
    y = np.array([r.contacts_total for r in records], dtype=float)
    # np.average rounds unlike ndarray.mean; it keeps estimates.csv's bytes
    w = np.full(y.size, 1.0 / y.size)
    pid = np.array([r.participant_id for r in records])
    unique_pids, pid_idx = np.unique(pid, return_inverse=True)
    n_p = unique_pids.size
    rng = np.random.default_rng(seed)

    rows_of = [np.flatnonzero(pid_idx == i) for i in range(n_p)]
    means = np.empty(b)
    for k in range(b):
        take = rng.integers(0, n_p, size=n_p)
        rows = np.concatenate([rows_of[i] for i in take])
        means[k] = float(np.average(y[rows], weights=w[rows]))
    med, (lo, hi) = posterior_interval(means, INTERVAL_95)
    return PopulationEstimate(
        wave=int(records[0].wave), method="bootstrap",
        median=float(med), lower=float(lo), upper=float(hi))


# ---------------------------------------------------------------------------
# Incremental-inclusion de-biasing study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    cap: int
    mape: float
    coverage: float
    n_records: int


def incremental_inclusion_study(records: list[SurveyRecord],
                                caps: list[int], feature_spec: FeatureSpec,
                                spec: ModelSpec, cfg: SamplerConfig
                                ) -> list[StudyRow]:
    """Age-curve error against a first-timers baseline as repeats re-enter.

    The baseline fits first-time participants only; each cap keeps records
    with repeat <= cap. MAPE compares posterior-median age curves at ages
    0, 2, ..., 84; coverage is the share of baseline medians inside the cap
    fit's 95% interval.
    """
    first = [r for r in records if r.repeat == 0]
    if not first:
        raise DataError("study requires first-time participants")
    if not any(r.repeat >= 1 for r in records):
        raise DataError("study requires repeating participants")
    ages = AGE_GRID[::2]

    def age_curves(fit: WaveFit) -> np.ndarray:
        flat = fit.draws.stacked()
        return np.asarray([np.exp(fit.model.age_curve(theta, ages))
                           for theta in flat])

    base_fit = fit_wave(first, feature_spec, spec, cfg)
    base_curve, _ = posterior_interval(age_curves(base_fit), INTERVAL_95)

    rows: list[StudyRow] = []
    for cap in caps:
        subset = [r for r in records if r.repeat <= cap]
        fit = fit_wave(subset, feature_spec, spec, cfg)
        med, (lo, hi) = posterior_interval(age_curves(fit), INTERVAL_95)
        rows.append(StudyRow(cap=cap, mape=mape(med, base_curve),
                             coverage=interval_coverage(base_curve, lo, hi),
                             n_records=len(subset)))
        logger.info("cap %d: MAPE %.1f%%, coverage %.2f", cap,
                    rows[-1].mape, rows[-1].coverage)
    return rows
