"""Sequential wave fitting, de-biased population estimates, and baselines.

Waves are fitted in order; from the second wave on, the covariate and Hill
parameters receive informative priors centered at the previous wave's
posterior means (Normal(. , 0.3) for coefficients, half-Normal(. , 0.3) /
Normal(. , 0.1) / half-Normal(. , 0.1) for gamma / zeta / eta). This
resolves the confounding between baseline intensity and fatigue when a wave
has no first-time participants. The unadjusted comparator refits each wave
independently without any fatigue term.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .domain import FeatureSpec, SurveyRecord, build_design
from .evaluation import interval_coverage, mape
from .inference import Diagnostics, PosteriorDraws, SamplerConfig, sample_model
from .models import HillPriors, IndividualGamModel, ModelSpec, build_model

logger = logging.getLogger(__name__)


@dataclass
class WaveFit:
    wave: int
    draws: PosteriorDraws
    diagnostics: Diagnostics
    model: IndividualGamModel
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
    """Informative priors centered at the previous wave's posterior."""
    beta_loc = tuple(float(v) for v in means["beta"])
    n_q = means["hill_gamma"].size
    hill_priors = tuple(
        HillPriors(gamma_loc=float(means["hill_gamma"][q]), gamma_scale=0.3,
                   zeta_loc=float(means["hill_zeta"][q]), zeta_scale=0.1,
                   eta_kind="halfnormal", eta_loc=float(means["hill_eta"][q]),
                   eta_scale=0.1)
        for q in range(n_q))
    fatigue = replace(base.fatigue, hill_priors=hill_priors)
    return replace(base, beta_loc=beta_loc, beta_scale=0.3, fatigue=fatigue)


def fit_wave(records: list[SurveyRecord], feature_spec: FeatureSpec,
             spec: ModelSpec, cfg: SamplerConfig) -> WaveFit:
    design = build_design(records, feature_spec)
    model = build_model(spec, design)
    draws, diag = sample_model(model, cfg, compute_pointwise=False)
    return WaveFit(
        wave=int(records[0].wave), draws=draws, diagnostics=diag,
        model=model, posterior_means=draws.point(np.mean),
        posterior_medians=draws.point(np.median),
        prior_provenance="initial")


def fit_sequence(waves: list[list[SurveyRecord]], feature_spec: FeatureSpec,
                 spec: ModelSpec, cfg: SamplerConfig,
                 propagate: str = "mean") -> list[WaveFit]:
    """Fit ordered waves, carrying posterior means forward as priors.

    ``propagate`` picks the posterior functional used as the next wave's
    prior center ("mean" by default, "median" as the alternative).
    """
    if spec.family != "individual_gam":
        raise ValueError("the sequential pipeline fits the additive model")
    fits: list[WaveFit] = []
    current = spec
    for idx, records in enumerate(waves):
        if not records:
            warnings.warn(f"wave at position {idx} has no records; skipped",
                          RuntimeWarning, stacklevel=2)
            continue
        fit = fit_wave(records, feature_spec, current, cfg)
        if fits:
            fit.prior_provenance = "propagated"
        fits.append(fit)
        center = (fit.posterior_means if propagate == "mean"
                  else fit.posterior_medians)
        current = _propagated_spec(spec, center)
    return fits


def fit_independent(waves: list[list[SurveyRecord]],
                    feature_spec: FeatureSpec, spec: ModelSpec,
                    cfg: SamplerConfig) -> list[WaveFit]:
    """Comparator: fit each wave separately with the given spec."""
    fits = []
    for idx, records in enumerate(waves):
        if not records:
            warnings.warn(f"wave at position {idx} has no records; skipped",
                          RuntimeWarning, stacklevel=2)
            continue
        fit = fit_wave(records, feature_spec, spec, cfg)
        if (diag := fit.diagnostics).max_rhat() >= 1.05 or \
                diag.divergences > 0.10 * fit.draws.n_draws:
            warnings.warn(
                f"wave {fit.wave}: possible identifiability problem "
                f"(max R-hat {diag.max_rhat():.2f}, "
                f"{diag.divergences} divergences)",
                RuntimeWarning, stacklevel=2)
        fits.append(fit)
    return fits


# ---------------------------------------------------------------------------
# Population-level estimates
# ---------------------------------------------------------------------------

def poststratified_mean(fit: WaveFit, weights: np.ndarray, *,
                        debias: bool,
                        method: str = "bayes-debiased",
                        probs: tuple[float, float] = (0.025, 0.975)
                        ) -> PopulationEstimate:
    """Population average intensity, weighting the fitted records' cells.

    ``weights`` assigns one poststratification weight per fitted record
    (population share of its age/sex/household cell divided by the cell's
    sample count); they must sum to 1. Per draw, the weighted mean of
    per-record intensities is formed, with the fatigue term zeroed when
    ``debias`` is set; quantiles come from the draw distribution.
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
    return PopulationEstimate(
        wave=fit.wave, method=method, median=float(np.median(vals)),
        lower=float(np.quantile(vals, probs[0])),
        upper=float(np.quantile(vals, probs[1])))


def cell_weights(records: list[SurveyRecord],
                 shares: dict[tuple[str, str], float] | None = None
                 ) -> np.ndarray:
    """Per-record poststratification weights by (sex, household) cell.

    Without explicit population shares, cells are weighted by their sample
    share, which reduces to the plain mean.
    """
    keys = [(r.sex, r.household_size) for r in records]
    n = len(records)
    counts: dict[tuple[str, str], int] = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    if shares is None:
        shares = {k: c / n for k, c in counts.items()}
    total = sum(shares.values())
    w = np.array([shares.get(k, 0.0) / counts[k] / total for k in keys])
    return w / w.sum()


def bootstrap_mean(records: list[SurveyRecord], b: int,
                   weights: np.ndarray | None = None, *, seed: int = 0,
                   probs: tuple[float, float] = (0.025, 0.975)
                   ) -> PopulationEstimate:
    """Participant-level bootstrap of the weighted mean contact count."""
    if b < 100:
        raise ValueError("use at least 100 bootstrap resamples")
    y = np.array([r.contacts_total for r in records], dtype=float)
    w = (np.full(y.size, 1.0 / y.size) if weights is None
         else np.asarray(weights, dtype=float))
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
    return PopulationEstimate(
        wave=int(records[0].wave) if records else 0, method="bootstrap",
        median=float(np.mean(means)),
        lower=float(np.quantile(means, probs[0])),
        upper=float(np.quantile(means, probs[1])))


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
                                spec: ModelSpec, cfg: SamplerConfig,
                                ages: np.ndarray | None = None
                                ) -> list[StudyRow]:
    """Age-curve error against a first-timers baseline as repeats re-enter.

    The baseline fits first-time participants only; each cap keeps records
    with repeat <= cap. MAPE compares posterior-median age curves; coverage
    is the share of baseline medians inside the cap fit's 95% interval.
    """
    first = [r for r in records if r.repeat == 0]
    if not first:
        raise ValueError("study requires first-time participants")
    if not any(r.repeat >= 1 for r in records):
        raise ValueError("study requires repeating participants")
    ages = np.arange(0, 85, 2, dtype=float) if ages is None else ages

    def age_curves(fit: WaveFit) -> np.ndarray:
        flat = fit.draws.stacked()
        return np.asarray([np.exp(fit.model.age_curve(theta, ages))
                           for theta in flat])

    base_fit = fit_wave(first, feature_spec, spec, cfg)
    base_curve = np.median(age_curves(base_fit), axis=0)

    rows: list[StudyRow] = []
    for cap in caps:
        subset = [r for r in records if r.repeat <= cap]
        fit = fit_wave(subset, feature_spec, spec, cfg)
        curves = age_curves(fit)
        med = np.median(curves, axis=0)
        lo = np.quantile(curves, 0.025, axis=0)
        hi = np.quantile(curves, 0.975, axis=0)
        rows.append(StudyRow(cap=cap, mape=mape(med, base_curve),
                             coverage=interval_coverage(base_curve, lo, hi),
                             n_records=len(subset)))
        logger.info("cap %d: MAPE %.1f%%, coverage %.2f", cap,
                    rows[-1].mape, rows[-1].coverage)
    return rows
