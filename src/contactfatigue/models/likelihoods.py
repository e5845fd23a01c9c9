"""Count observation models with analytic gradients.

Two negative-binomial parameterizations are used:

* NB2 (mean/shape): Var(Y) = mu + mu^2 / phi. Used for individual-level
  regressions.
* NB1 (shape alpha = mu / nu, odds nu): Var(Y) = mu (1 + nu). Closed under
  summation for shared nu, which is what makes the coarse-band likelihood
  consistent with the latent single-year model.

The row-level ``poisson_loglik`` and ``nb2_loglik`` give per-observation
log likelihoods (the reference for pointwise output); the models run on
predictor groups through ``poisson_group_loglik`` and ``nb2_group_loglik``,
which take the special functions of the counts once per distinct count.
A model builds its ``GroupCounts`` once: group sizes, count sums, the
count histogram and the terms that depend on the counts alone (the mask
of groups with counts and the log-factorials), so a gradient computes
only what depends on the parameters.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, gammaln


def poisson_loglik(y: np.ndarray, log_mu: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log pmf and d/d(log mu)."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.exp(log_mu)
        ll = np.where(y > 0, y * log_mu, 0.0) - mu - gammaln(y + 1.0)
    bad = ~np.isfinite(mu)
    if np.any(bad):
        ll = np.where(bad, -np.inf, ll)
        return ll, np.where(bad, 0.0, y - mu)
    return ll, y - mu


def nb2_loglik(y: np.ndarray, log_mu: np.ndarray, phi: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row log pmf, d/d(log mu), d/d(phi) for the NB2 parameterization."""
    y = np.asarray(y, dtype=float)
    lg_ratio = gammaln(y + phi) - gammaln(phi)
    dig = digamma(y + phi) - digamma(phi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = np.exp(log_mu)
        log_phi_mu = np.logaddexp(np.log(phi), log_mu)
        ll = (lg_ratio - gammaln(y + 1.0) + phi * (np.log(phi) - log_phi_mu)
              + np.where(y > 0, y * (log_mu - log_phi_mu), 0.0))
        # written to stay finite as mu -> 0 or mu -> inf
        d_logmu = y - (y + phi) / (1.0 + phi / mu)
        d_phi = (dig + np.log(phi) + 1.0 - log_phi_mu
                 - (y + phi) / (phi + mu))
    bad = ~np.isfinite(ll)
    if np.any(bad):
        ll = np.where(bad, -np.inf, ll)
        d_logmu = np.where(bad, 0.0, d_logmu)
        d_phi = np.where(bad, 0.0, d_phi)
    return ll, d_logmu, d_phi


class GroupCounts:
    """Counts of rows summarized on their predictor groups, with the terms
    of the grouped likelihoods that depend on the counts alone.

    Rows sharing one predictor value contribute through the group size
    ``n`` and count sum ``sum_y``; the count-dependent Gamma terms enter
    through a histogram, ``hist_counts`` rows at each distinct count
    ``hist_vals``. Built once per model: ``has_y`` (sum_y > 0), the
    log-factorials ``log_fact`` of the distinct counts and their total
    over the rows, ``total_log_fact``.
    """

    def __init__(self, y: np.ndarray, group_of: np.ndarray, n_groups: int):
        self.n = np.bincount(group_of, minlength=n_groups).astype(float)
        self.sum_y = np.bincount(group_of, weights=y, minlength=n_groups)
        self.has_y = self.sum_y > 0
        self.hist_vals, counts = np.unique(y, return_counts=True)
        self.hist_counts = counts.astype(float)
        self.log_fact = gammaln(self.hist_vals + 1.0)
        self.total_log_fact = self.hist_counts @ self.log_fact


def poisson_group_loglik(counts: GroupCounts, eta: np.ndarray
                         ) -> tuple[float, np.ndarray]:
    """Exact Poisson log likelihood over predictor groups, as
    ``nb2_group_loglik``. Returns (total ll, d ll / d eta per group)."""
    with np.errstate(over="ignore", invalid="ignore"):
        n_mu = counts.n * np.exp(eta)
        total = float((np.where(counts.has_y, counts.sum_y * eta, 0.0)
                       - n_mu).sum() - counts.total_log_fact)
    if not np.isfinite(total):
        return -np.inf, np.zeros_like(eta)
    return total, counts.sum_y - n_mu


def nb2_group_loglik(counts: GroupCounts, eta: np.ndarray, phi: float
                     ) -> tuple[float, np.ndarray, float]:
    """Exact NB2 log likelihood over predictor groups.

    Written like ``nb2_loglik``, so it equals the sum of that function's
    rows and stays finite where mu overflows. Returns (total ll,
    d ll / d eta per group, d ll / d phi).
    """
    c = counts
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_phi = np.log(phi)
        mu = np.exp(eta)
        phi_mu = phi + mu
        log_phi_mu = np.log(phi_mu)
        overflow = np.isinf(log_phi_mu)
        if overflow.any():
            log_phi_mu[overflow] = np.logaddexp(log_phi, eta[overflow])
        hist_phi = c.hist_vals + phi
        lg_ratio = gammaln(hist_phi) - gammaln(phi) - c.log_fact
        n_phi = c.n * phi
        core = (n_phi * (log_phi - log_phi_mu)
                + np.where(c.has_y, c.sum_y * (eta - log_phi_mu), 0.0))
        total = float(c.hist_counts @ lg_ratio) + float(core.sum())
        if not np.isfinite(total):
            return -np.inf, np.zeros_like(eta), 0.0
        d_eta = phi * c.sum_y / phi_mu - n_phi / (1.0 + phi / mu)
        d_phi = (float(c.hist_counts @ (digamma(hist_phi) - digamma(phi)))
                 + float((c.n * (log_phi + 1.0 - log_phi_mu)).sum())
                 - float(((c.sum_y + n_phi) / phi_mu).sum()))
    if not (np.isfinite(d_eta).all() and np.isfinite(d_phi)):
        return -np.inf, np.zeros_like(eta), 0.0
    return total, d_eta, d_phi


def nb1_loglik(y: np.ndarray, mu: np.ndarray, nu: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row NB1 log pmf, d/d(mu), d/d(nu); shape mu/nu, Var = mu(1+nu)."""
    y = np.asarray(y, dtype=float)
    alpha = mu / nu
    ll = (gammaln(y + alpha) - gammaln(alpha) - gammaln(y + 1.0)
          - alpha * np.log1p(nu) + y * (np.log(nu) - np.log1p(nu)))
    d_alpha = digamma(y + alpha) - digamma(alpha) - np.log1p(nu)
    d_mu = d_alpha / nu
    d_nu = (d_alpha * (-mu / nu**2) + y / nu - (y + alpha) / (1.0 + nu))
    return ll, d_mu, d_nu


def nb1_agg_loglik(y_cell: np.ndarray, mu_rows: np.ndarray,
                   row_cell: np.ndarray, nu: float
                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Coarse-cell NB1 likelihood with shape sum_{rows in cell} mu / nu.

    Returns per-cell log pmf, d/d(mu_row) per row, and the total d/d(nu).
    """
    y_cell = np.asarray(y_cell, dtype=float)
    n_cells = y_cell.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shape = np.bincount(row_cell, weights=mu_rows,
                            minlength=n_cells) / nu
        ll = (gammaln(y_cell + shape) - gammaln(shape)
              - gammaln(y_cell + 1.0)
              - shape * np.log1p(nu) + y_cell * (np.log(nu) - np.log1p(nu)))
        d_shape = digamma(y_cell + shape) - digamma(shape) - np.log1p(nu)
        d_nu_cells = (d_shape * (-shape / nu) + y_cell / nu
                      - (y_cell + shape) / (1.0 + nu))
        d_mu_cells = d_shape / nu
    # a cell whose log pmf or gradient is not finite rejects the state
    bad = ~np.isfinite(ll) | ~np.isfinite(d_mu_cells)
    if bad.any():
        ll = np.where(bad, -np.inf, ll)
        d_mu_cells = np.where(bad, 0.0, d_mu_cells)
        d_nu_cells = np.where(bad, 0.0, d_nu_cells)
    return ll, d_mu_cells[row_cell], float(d_nu_cells.sum())


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
