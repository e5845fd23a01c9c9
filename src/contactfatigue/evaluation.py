"""Accuracy metrics.

MAPE and interval coverage compare age curves against a baseline fit;
PSIS-LOO estimates out-of-sample predictive accuracy from pointwise log
likelihoods by smoothing the tail of the importance ratios with a
generalized Pareto fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp


def mape(estimate: np.ndarray, baseline: np.ndarray) -> float:
    """Mean absolute percentage error of an age curve against a baseline."""
    estimate = np.asarray(estimate, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    if estimate.shape != baseline.shape:
        raise ValueError("curves must share one age grid")
    if np.any(baseline == 0):
        raise ValueError("baseline contains a zero point")
    return float(np.mean(np.abs(estimate - baseline) / np.abs(baseline)) * 100.0)


def interval_coverage(baseline: np.ndarray, lower: np.ndarray,
                      upper: np.ndarray) -> float:
    """Fraction of baseline points inside [lower, upper]."""
    baseline = np.asarray(baseline, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (baseline.shape == lower.shape == upper.shape):
        raise ValueError("grids must be aligned")
    inside = (baseline >= lower) & (baseline <= upper)
    return float(inside.mean())


# ---------------------------------------------------------------------------
# PSIS-LOO
# ---------------------------------------------------------------------------

@dataclass
class LooResult:
    elpd: float
    elpd_se: float
    pointwise: np.ndarray
    pareto_k: np.ndarray
    k_threshold: float          # largest reliable Pareto k for the draws

    @property
    def n_high_k(self) -> int:
        return int(np.sum(self.pareto_k > self.k_threshold))


def fit_generalized_pareto(x: np.ndarray) -> tuple[float, float]:
    """Shape and scale of a GPD fitted to exceedances by the
    Zhang-Stephens quasi-Bayes estimator (with the usual weak shape prior).
    """
    y = np.sort(np.asarray(x, dtype=float))
    n = y.size
    m_grid = 30 + int(np.sqrt(n))
    b = 1.0 - np.sqrt(m_grid / (np.arange(1, m_grid + 1) - 0.5))
    b = b / (3.0 * y[(n - 1) // 4]) + 1.0 / y[-1]
    k = np.mean(np.log1p(-b[:, None] * y), axis=1)
    log_lik = n * (np.log(-b / k) - k - 1.0)
    weights = 1.0 / np.exp(log_lik - log_lik[:, None]).sum(axis=1)
    b_post = float(np.sum(b * weights) / np.sum(weights))
    k_post = float(np.mean(np.log1p(-b_post * y)))
    sigma = -k_post / b_post
    k_reg = (n * k_post + 5.0) / (n + 10.0)
    return k_reg, sigma


def _gpd_quantile(p: np.ndarray, mu: float, sigma: float, k: float
                  ) -> np.ndarray:
    if abs(k) < 1e-12:
        return mu - sigma * np.log1p(-p)
    return mu + sigma / k * ((1.0 - p) ** -k - 1.0)


def psis_loo(pointwise_loglik: np.ndarray) -> LooResult:
    """Pareto-smoothed importance-sampling leave-one-out ELPD.

    ``pointwise_loglik`` is (draws x observations). Importance ratios are
    exp(-loglik); the largest M = ceil(min(0.2 S, 3 sqrt(S))) of each
    observation's S ratios are replaced by generalized-Pareto quantiles,
    and Pareto k above min(1 - 1/log10 S, 0.7) marks an unreliable
    estimate (Vehtari et al. 2024, arXiv:1507.02646). An observation whose
    tail does not exceed its cutoff keeps unsmoothed ratios, with a warning.
    """
    ll = np.asarray(pointwise_loglik, dtype=float)
    if ll.ndim != 2:
        raise ValueError("pointwise_loglik must be (draws, observations)")
    s, n = ll.shape
    if s < 100:
        raise ValueError("PSIS-LOO needs at least 100 draws")
    m = int(np.ceil(min(0.2 * s, 3.0 * np.sqrt(s))))

    elpd_i = np.zeros(n)
    pareto_k = np.zeros(n)
    fallbacks = 0
    for i in range(n):
        log_ratio = -ll[:, i]
        log_ratio = log_ratio - log_ratio.max()
        order = np.argsort(log_ratio)
        tail_idx = order[-m:]
        cutoff = np.exp(log_ratio[order[-m - 1]])
        exceed = np.exp(log_ratio[tail_idx]) - cutoff
        if np.all(exceed <= 0):
            fallbacks += 1
            pareto_k[i] = np.nan
            log_w = log_ratio
        else:
            k_hat, sigma = fit_generalized_pareto(exceed[exceed > 0])
            pareto_k[i] = k_hat
            ranks = np.argsort(np.argsort(log_ratio[tail_idx]))
            probs = (ranks + 0.5) / m
            smoothed = _gpd_quantile(probs, cutoff, sigma, k_hat)
            log_w = log_ratio.copy()
            log_w[tail_idx] = np.log(np.minimum(
                smoothed, np.exp(log_ratio.max())))
        # elpd_i = log( sum w * lik / sum w )
        elpd_i[i] = (logsumexp(log_w + ll[:, i]) - logsumexp(log_w))
    if fallbacks:
        warnings.warn(
            f"PSIS smoothing skipped for {fallbacks} observations "
            "(no tail ratio above the cutoff)", RuntimeWarning, stacklevel=2)
    elpd = float(elpd_i.sum())
    se = float(np.sqrt(n * np.var(elpd_i, ddof=1))) if n > 1 else 0.0
    return LooResult(elpd=elpd, elpd_se=se, pointwise=elpd_i,
                     pareto_k=pareto_k,
                     k_threshold=float(min(1.0 - 1.0 / np.log10(s), 0.7)))
