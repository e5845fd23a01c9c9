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
from .inference import PosteriorDraws, SamplerConfig, sample_model
from .models import ModelSpec, Stage1PoissonModel, Stage2PoissonModel
from .priors import RhsSpec

logger = logging.getLogger(__name__)

#: +-5% effect window on the log scale: (log 0.95, log 1.05).
STAGE1_LOWER = float(np.log(0.95))
STAGE1_UPPER = float(np.log(1.05))
STAGE2_CUTOFF = float(np.log(0.95))


@dataclass(frozen=True)
class SelectionResult:
    stage: int
    feature_names: tuple[str, ...]
    medians: np.ndarray
    lower50: np.ndarray
    upper50: np.ndarray
    selected: tuple[bool, ...]
    threshold: tuple[float, float]

    def selected_features(self) -> tuple[str, ...]:
        return tuple(n for n, s in zip(self.feature_names, self.selected) if s)

    def to_rows(self) -> list[dict]:
        return [
            {"feature": n, "median": float(m), "lower50": float(lo),
             "upper50": float(hi), "selected": bool(s)}
            for n, m, lo, hi, s in zip(self.feature_names, self.medians,
                                       self.lower50, self.upper50,
                                       self.selected)]


def _fit_coefficients(model, cfg: SamplerConfig, stage: int):
    """Draws of ``model`` plus the posterior median and 50% bounds of its
    coefficients."""
    draws, diag = sample_model(model, cfg, compute_pointwise=False)
    logger.info("stage %d: max R-hat %.3f, %d divergences", stage,
                diag.max_rhat(), diag.divergences)
    coef = np.asarray([model.coefficients(t) for t in draws.stacked()])
    return (draws, np.median(coef, axis=0), np.quantile(coef, 0.25, axis=0),
            np.quantile(coef, 0.75, axis=0))


def stage1_select(design: DesignMatrix, rhs: RhsSpec, cfg: SamplerConfig,
                  *, thresholds: tuple[float, float] = (STAGE1_LOWER,
                                                        STAGE1_UPPER)
                  ) -> tuple[SelectionResult, PosteriorDraws]:
    """Select intensity determinants among the tested block of first-timers."""
    if np.any(design.repeat != 0):
        raise ValueError("stage 1 requires first-time participants only")
    names = design.block_names("v")
    if len(names) == 0:
        raise ValueError("stage 1 requires a non-empty tested block")
    spec = ModelSpec(family="stage1_poisson", rhs=rhs, beta0_scale=100.0)
    draws, med, lo, hi = _fit_coefficients(Stage1PoissonModel(spec, design),
                                           cfg, 1)
    selected = tuple(bool(m < thresholds[0] or m > thresholds[1]) for m in med)
    return SelectionResult(1, names, med, lo, hi, selected,
                           thresholds), draws


def stage1_refit_offsets(design_first: DesignMatrix,
                         design_target: DesignMatrix,
                         cfg: SamplerConfig) -> np.ndarray:
    """Stage-2 row offsets from a plain-prior stage-1 refit.

    The refit replaces the horseshoe with standard normal priors; posterior
    medians of (beta0, alpha, beta) are frozen into per-row offsets for the
    target design (which must share the u and v blocks).
    """
    spec = ModelSpec(family="stage1_poisson", rhs=None, beta0_scale=100.0)
    model = Stage1PoissonModel(spec, design_first)
    draws, _ = sample_model(model, cfg, compute_pointwise=False)
    med = draws.point(np.median)
    sigma_a = float(med["sigma_alpha"][0])
    alpha = sigma_a * med["alpha_raw"]
    n_v = design_target.block("v").shape[1]
    beta = med.get("beta", np.zeros(n_v))
    return (float(med["beta0"][0]) + design_target.block("u") @ alpha
            + design_target.block("v") @ beta)


def stage2_select(design: DesignMatrix, offsets: np.ndarray, rhs: RhsSpec,
                  cfg: SamplerConfig, *, cutoff: float = STAGE2_CUTOFF
                  ) -> tuple[SelectionResult, PosteriorDraws]:
    """Select fatigue determinants among repeating participants."""
    if np.any(design.repeat < 1):
        raise ValueError("stage 2 requires repeating participants only")
    if rhs.sign != "negative":
        raise ValueError("stage 2 uses the negative-sign horseshoe")
    names = design.block_names("w")
    data = replace_offsets(design, offsets)
    spec = ModelSpec(family="stage2_poisson", rhs=rhs)
    draws, med, lo, hi = _fit_coefficients(Stage2PoissonModel(spec, data),
                                           cfg, 2)
    selected = tuple(bool(m < cutoff) for m in med)
    return SelectionResult(2, names, med, lo, hi, selected,
                           (cutoff, cutoff)), draws


def replace_offsets(design: DesignMatrix, offsets: np.ndarray) -> DesignMatrix:
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape != (design.n,):
        raise ValueError("offset length must match the design")
    return replace(design, offsets=offsets)


def subset_v_block(design: DesignMatrix, keep: tuple[str, ...]
                   ) -> DesignMatrix:
    """Restrict the tested block to the named columns (order preserved)."""
    v_names = design.block_names("v")
    keep_idx = [i for i, n in enumerate(v_names) if n in keep]
    u_sl, v_sl, w_sl = (design.blocks[k] for k in ("u", "v", "w"))
    cols = (list(range(u_sl.start, u_sl.stop))
            + [v_sl.start + i for i in keep_idx]
            + list(range(w_sl.start, w_sl.stop)))
    n_u = u_sl.stop - u_sl.start
    n_v = len(keep_idx)
    n_w = w_sl.stop - w_sl.start
    return replace(
        design,
        x=design.x[:, cols],
        column_names=tuple(design.column_names[c] for c in cols),
        blocks={"u": slice(0, n_u), "v": slice(n_u, n_u + n_v),
                "w": slice(n_u + n_v, n_u + n_v + n_w)})


def two_stage_select(design_first: DesignMatrix, design_repeat: DesignMatrix,
                     cfg: SamplerConfig, *, p0_stage1: float | None = None,
                     p0_stage2: float | None = None
                     ) -> tuple[SelectionResult, SelectionResult]:
    """Run the full two-stage procedure for one wave."""
    k1 = len(design_first.block_names("v"))
    rhs1 = RhsSpec(n_coef=k1, p0=p0_stage1 or k1 / 2.0,
                   n_obs=design_first.n)
    stage1, _ = stage1_select(design_first, rhs1, cfg)
    keep = stage1.selected_features()
    first_sub = subset_v_block(design_first, keep)
    repeat_sub = subset_v_block(design_repeat, keep)
    offsets = stage1_refit_offsets(first_sub, repeat_sub, cfg)
    k2 = len(repeat_sub.block_names("w"))
    rhs2 = RhsSpec(n_coef=k2, p0=p0_stage2 or k2 / 2.0,
                   n_obs=repeat_sub.n, sign="negative")
    stage2, _ = stage2_select(repeat_sub, offsets, rhs2, cfg)
    return stage1, stage2
