"""Two-stage sparse variable selection for intensity and fatigue effects.

Stage 1 fits first-time participants with a regularized horseshoe on the
tested covariates and keeps features whose posterior median effect moves
average intensity by more than 5% in either direction. Stage 2 freezes the
stage-1 point estimates (from a refit with plain normal priors), attaches
the negatively-truncated horseshoe to the fatigue candidates of repeating
participants, and keeps features whose median reduction exceeds 5%.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .domain import DesignMatrix
from .inference import (INTERVAL_50, SamplerConfig, posterior_interval,
                        sample_model)
from .models import ModelSpec, Stage1PoissonModel, Stage2PoissonModel
from .priors import PriorSpec, RhsSpec

logger = logging.getLogger(__name__)

#: +-5% effect window on the log scale: (log 0.95, log 1.05).
STAGE1_LOWER = float(np.log(0.95))
STAGE1_UPPER = float(np.log(1.05))
STAGE2_CUTOFF = float(np.log(0.95))
#: the intercept prior of both stage-1 fits
STAGE1_INTERCEPT_PRIOR = PriorSpec("normal", (0.0, 100.0))


@dataclass(frozen=True)
class SelectionResult:
    feature_names: tuple[str, ...]
    medians: np.ndarray
    lower50: np.ndarray
    upper50: np.ndarray
    selected: tuple[bool, ...]

    def selected_features(self) -> tuple[str, ...]:
        return tuple(n for n, s in zip(self.feature_names, self.selected) if s)


def _fit_coefficients(model, cfg: SamplerConfig, stage: int):
    """Posterior median and 50% bounds of the coefficients of ``model``."""
    draws, diag = sample_model(model, cfg, compute_pointwise=False)
    logger.info("stage %d: max R-hat %.3f, %d divergences", stage,
                diag.max_rhat(), diag.divergences)
    coef = np.asarray([model.effects(t)[-1] for t in draws.stacked()])
    med, (lo, hi) = posterior_interval(coef, INTERVAL_50)
    return med, lo, hi


def stage1_select(design: DesignMatrix, rhs: RhsSpec,
                  cfg: SamplerConfig) -> SelectionResult:
    """Select intensity determinants among the tested block of first-timers."""
    if np.any(design.repeat != 0):
        raise ValueError("stage 1 requires first-time participants only")
    names = design.names["v"]
    spec = ModelSpec(family="stage1_poisson", rhs=rhs,
                     beta0_prior=STAGE1_INTERCEPT_PRIOR)
    med, lo, hi = _fit_coefficients(Stage1PoissonModel(spec, design), cfg, 1)
    selected = tuple(bool(m < STAGE1_LOWER or m > STAGE1_UPPER) for m in med)
    return SelectionResult(names, med, lo, hi, selected)


def stage1_refit_offsets(design_first: DesignMatrix,
                         design_target: DesignMatrix,
                         cfg: SamplerConfig) -> np.ndarray:
    """Stage-2 row offsets from a plain-prior stage-1 refit.

    The refit replaces the horseshoe with standard normal priors; the
    posterior medians of beta0, alpha = sigma_alpha * alpha_raw and beta,
    each taken over the draws of that effect, are frozen into per-row
    offsets for the target design (which must share the u and v blocks).
    """
    spec = ModelSpec(family="stage1_poisson",
                     beta0_prior=STAGE1_INTERCEPT_PRIOR)
    model = Stage1PoissonModel(spec, design_first)
    draws, _ = sample_model(model, cfg, compute_pointwise=False)
    beta0, alpha, beta = (np.median(draws_of, axis=0) for draws_of in zip(
        *(model.effects(t) for t in draws.stacked())))
    return (beta0[0] + design_target.blocks["u"] @ alpha
            + design_target.blocks["v"] @ beta)


def stage2_select(design: DesignMatrix, offsets: np.ndarray, rhs: RhsSpec,
                  cfg: SamplerConfig) -> SelectionResult:
    """Select fatigue determinants among repeating participants."""
    if np.any(design.repeat < 1):
        raise ValueError("stage 2 requires repeating participants only")
    names = design.names["w"]
    data = replace_offsets(design, offsets)
    spec = ModelSpec(family="stage2_poisson", rhs=rhs)
    med, lo, hi = _fit_coefficients(Stage2PoissonModel(spec, data), cfg, 2)
    selected = tuple(bool(m < STAGE2_CUTOFF) for m in med)
    return SelectionResult(names, med, lo, hi, selected)


def replace_offsets(design: DesignMatrix, offsets: np.ndarray) -> DesignMatrix:
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape != (design.n,):
        raise ValueError("offset length must match the design")
    return replace(design, offsets=offsets)


def subset_v_block(design: DesignMatrix, keep: tuple[str, ...]
                   ) -> DesignMatrix:
    """Restrict the tested block to the named columns (order preserved)."""
    pick = [i for i, n in enumerate(design.names["v"]) if n in keep]
    return replace(
        design, blocks={**design.blocks, "v": design.blocks["v"][:, pick]},
        names={**design.names,
               "v": tuple(design.names["v"][i] for i in pick)})


def two_stage_select(design_first: DesignMatrix, design_repeat: DesignMatrix,
                     cfg: SamplerConfig
                     ) -> tuple[SelectionResult, SelectionResult]:
    """Run the full two-stage procedure for one wave. Each horseshoe's
    prior guess of non-zero coefficients is half its candidates."""
    k1 = len(design_first.names["v"])
    rhs1 = RhsSpec(n_coef=k1, p0=k1 / 2.0, n_obs=design_first.n)
    stage1 = stage1_select(design_first, rhs1, cfg)
    keep = stage1.selected_features()
    first_sub = subset_v_block(design_first, keep)
    repeat_sub = subset_v_block(design_repeat, keep)
    offsets = stage1_refit_offsets(first_sub, repeat_sub, cfg)
    k2 = len(repeat_sub.names["w"])
    rhs2 = RhsSpec(n_coef=k2, p0=k2 / 2.0, n_obs=repeat_sub.n,
                   sign="negative")
    stage2 = stage2_select(repeat_sub, offsets, rhs2, cfg)
    return stage1, stage2
