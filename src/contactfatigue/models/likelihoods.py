"""Count observation models with analytic gradients.

Two negative-binomial parameterizations are used:

* NB2 (mean/shape): Var(Y) = mu + mu^2 / phi. Used for individual-level
  regressions.
* NB1 (shape alpha = mu / nu, odds nu): Var(Y) = mu (1 + nu). Closed under
  summation for shared nu, which is what makes the coarse-band likelihood
  consistent with the latent single-year model.

The row-level ``poisson_loglik`` and ``nb2_loglik`` give the pointwise
log likelihoods only, one value per observation, with no gradients; the
models run on predictor groups through ``poisson_group_loglik`` and
``nb2_group_loglik``, which take the special functions of the counts once
per distinct count; ``nb2_group_loglik`` sums over the groups in dot
products, in the terms that ``nb2_loglik`` takes per row. A model builds
its ``GroupCounts`` once: group sizes, count sums, the count histogram and
the terms that depend on the counts alone (the groups with counts, the
mean counts, the log-factorials and the number of rows above each count),
so a gradient computes only what depends on the parameters. The cell NB1
likelihood ``nb1_agg_loglik`` likewise takes its cells' log-factorials
from the model. The grouped likelihoods run under the ``np.errstate`` of
their caller, ``logp_grad``; the row-level ones and the NB1 one, which
predictions also call, set their own.

NB2 takes the Gamma ratio of a count y as the exact finite sum

    lnGamma(y + phi) - lnGamma(phi) - y log(phi) = sum_{k<y} log1p(k / phi),

and its phi-derivative psi(y + phi) - psi(phi) as sum_{k<y} 1 / (phi + k),
so both hold every digit at any phi: the Gamma and digamma functions of
phi themselves, whose differences cancel to nothing as phi grows, are
never formed. The counts are whole numbers, so the sums run over k below
the largest count.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, gammaln


def poisson_loglik(y: np.ndarray, log_mu: np.ndarray) -> np.ndarray:
    """Per-row Poisson log pmf."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.exp(log_mu)
        ll = np.where(y > 0, y * log_mu, 0.0) - mu - gammaln(y + 1.0)
    return np.where(np.isfinite(mu), ll, -np.inf)


def nb2_loglik(y: np.ndarray, log_mu: np.ndarray, phi: float) -> np.ndarray:
    """Per-row NB2 log pmf at whole counts y, in the terms of
    ``nb2_group_loglik``: with L = log1p(mu / phi), taken by ``logaddexp``
    where mu / phi overflows, sum_{k<y} log1p(k / phi) - lnGamma(y + 1)
    - phi L + y (log mu - L)."""
    y = np.asarray(y, dtype=float)
    log_phi = math.log(phi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log1p_r = np.log1p(np.exp(log_mu) / phi)
        log1p_r = np.where(np.isinf(log1p_r),
                           np.logaddexp(log_phi, log_mu) - log_phi, log1p_r)
        # sum_{k<y} log1p(k / phi), one cumulative sum read at each count;
        # its k = 0 term is 0
        steps = np.log1p(np.arange(int(y.max(initial=0.0))) / phi)
        rising = np.concatenate(([0.0], np.cumsum(steps)))[y.astype(int)]
        ll = (rising - gammaln(y + 1.0) - phi * log1p_r
              + np.where(y > 0, y * (log_mu - log1p_r), 0.0))
    return np.where(np.isfinite(ll), ll, -np.inf)


class GroupCounts:
    """Counts of rows summarized on their predictor groups, with the terms
    of the grouped likelihoods that depend on the counts alone.

    Rows sharing one predictor value contribute through the group size
    ``n`` and count sum ``sum_y``; the count-dependent Gamma terms enter
    through the histogram of the counts. Built once per model: ``has_y``
    (sum_y > 0), the groups with counts ``with_y`` and their sums
    ``sum_y_pos``, the mean count ``mean_y``, the total of the
    log-factorials over the rows, ``total_log_fact``, and for each k below
    the largest count (``k``) the number of rows whose count exceeds it
    (``above``), which turns a sum over k < y of every row into one dot
    product over k.
    """

    def __init__(self, y: np.ndarray, group_of: np.ndarray, n_groups: int):
        self.n = np.bincount(group_of, minlength=n_groups).astype(float)
        self.sum_y = np.bincount(group_of, weights=y, minlength=n_groups)
        self.has_y = self.sum_y > 0
        self.with_y = np.flatnonzero(self.has_y)
        self.sum_y_pos = self.sum_y[self.with_y]
        self.mean_y = self.sum_y / self.n
        values, rows = np.unique(y, return_counts=True)
        rows = rows.astype(float)
        self.total_log_fact = rows @ gammaln(values + 1.0)
        self.k = np.arange(float(values.max(initial=0.0)))
        self.above = (values > self.k[:, None]) @ rows


def poisson_group_loglik(counts: GroupCounts, eta: np.ndarray
                         ) -> tuple[float, np.ndarray]:
    """Exact Poisson log likelihood over predictor groups, as
    ``nb2_group_loglik``. Returns (total ll, d ll / d eta per group).

    It runs under the caller's ``np.errstate``: ``logp_grad`` silences
    NumPy's floating-point warnings for its whole pass."""
    n_mu = counts.n * np.exp(eta)
    total = float((np.where(counts.has_y, counts.sum_y * eta, 0.0)
                   - n_mu).sum() - counts.total_log_fact)
    if not np.isfinite(total):
        return -np.inf, np.zeros_like(eta)
    return total, counts.sum_y - n_mu


def nb2_group_loglik(counts: GroupCounts, eta: np.ndarray, phi: float
                     ) -> tuple[float, np.ndarray, float]:
    """Exact NB2 log likelihood over predictor groups, in dot products
    over the groups.

    With group sizes n, count sums sum_y and L = log1p(mu / phi) =
    log(phi + mu) - log(phi), the log likelihood is the sum over the rows
    of sum_{k<y} log1p(k / phi), taken as one dot product of the number
    of rows above each k, minus the log-factorials, plus -phi n . L +
    sum_y . (eta - L), the eta term taken over the groups with counts
    only, and d ll / d eta = phi (sum_y - n mu) / (phi + mu). It equals
    the sum of ``nb2_loglik`` over the rows up to rounding; phi n L stays
    exact as mu / phi -> 0, where n phi (log(phi) - log(phi + mu))
    cancels, and the count terms stay exact as phi -> inf. Where mu / phi
    overflows, L is taken by ``logaddexp`` and the gradients in forms that
    stay finite there, so the log likelihood stays finite as mu -> inf.

    It runs under the caller's ``np.errstate``: ``logp_grad`` silences
    NumPy's floating-point warnings for its whole pass. Returns (total ll,
    d ll / d eta per group, d ll / d phi).
    """
    c = counts
    mu = np.exp(eta)
    r = mu / phi
    q = 1.0 / (1.0 + r)
    log1p_r = np.log1p(r)
    n_log1p = c.n @ log1p_r
    if n_log1p == np.inf:     # mu / phi overflows
        log_phi = math.log(phi)
        over = np.isinf(log1p_r)
        log1p_r[over] = np.logaddexp(log_phi, eta[over]) - log_phi
        n_log1p = c.n @ log1p_r
        rq = 1.0 / (1.0 + 1.0 / r)
        d_eta = c.sum_y * q - c.n * (phi * rq)
    else:
        rq = r * q
        d_eta = (c.mean_y - mu) * (c.n * q)
    total = (c.above @ np.log1p(c.k / phi) - c.total_log_fact
             - phi * n_log1p + c.sum_y_pos @ eta[c.with_y]
             - c.sum_y @ log1p_r)
    if not math.isfinite(total):
        return -np.inf, np.zeros_like(eta), 0.0
    d_phi = (c.above @ (1.0 / (phi + c.k)) + c.n @ rq - n_log1p
             - (c.sum_y @ q) / phi)
    return total, d_eta, d_phi


def nb1_agg_loglik(y_cell: np.ndarray, log_fact: np.ndarray,
                   mu_cell: np.ndarray, nu: float
                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Coarse-cell NB1 likelihood with shape mu_cell / nu, mu_cell being
    the sum of the cell's single-year means (NB1 with a shared nu is
    closed under summation); ``log_fact`` is lnGamma(y_cell + 1), which
    depends on the counts alone.

    Returns per-cell log pmf, d/d(mu_cell) per cell, and the total d/d(nu).
    """
    y_cell = np.asarray(y_cell, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shape = mu_cell / nu
        log1p_nu = np.log1p(nu)
        ll = (gammaln(y_cell + shape) - gammaln(shape) - log_fact
              - shape * log1p_nu + y_cell * (np.log(nu) - log1p_nu))
        d_shape = digamma(y_cell + shape) - digamma(shape) - log1p_nu
        d_nu_cells = (d_shape * (-shape / nu) + y_cell / nu
                      - (y_cell + shape) / (1.0 + nu))
        d_mu_cells = d_shape / nu
    # a cell whose log pmf or gradient is not finite rejects the state
    bad = ~np.isfinite(ll) | ~np.isfinite(d_mu_cells)
    if bad.any():
        ll = np.where(bad, -np.inf, ll)
        d_mu_cells = np.where(bad, 0.0, d_mu_cells)
        d_nu_cells = np.where(bad, 0.0, d_nu_cells)
    return ll, d_mu_cells, float(d_nu_cells.sum())


def nb2_rvs(rng: np.random.Generator, mu: np.ndarray, phi: float
            ) -> np.ndarray:
    """Draw NB2 counts (gamma-Poisson mixture)."""
    lam = rng.gamma(shape=phi, scale=np.asarray(mu) / phi)
    return rng.poisson(lam)


def nb1_rvs(rng: np.random.Generator, mu: np.ndarray, nu: float
            ) -> np.ndarray:
    """Draw NB1 counts with shape mu/nu and success prob 1/(1+nu)."""
    shape = np.asarray(mu, dtype=float) / nu
    return rng.negative_binomial(shape, 1.0 / (1.0 + nu))
