"""Rank-normalized split R-hat and bulk ESS (Vehtari et al. 2021).

The benchmark computes these itself so that its headline number keeps one
definition while the package's own diagnostics change.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _split(x: np.ndarray) -> np.ndarray:
    """(chains, draws) -> (2 * chains, draws // 2)."""
    n = x.shape[1] // 2
    return np.vstack([x[:, :n], x[:, x.shape[1] - n:]])


def _z_scale(x: np.ndarray) -> np.ndarray:
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _rhat(x: np.ndarray) -> float:
    m, n = x.shape
    within = x.var(axis=1, ddof=1).mean()
    between = n * x.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1) / n * within + between / n) / within))


def _ess(x: np.ndarray) -> float:
    """ESS of (chains, draws) with Geyer's initial monotone sequence."""
    m, n = x.shape
    centered = x - x.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n + x.mean(axis=1).var(ddof=1)
    rho_t = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho = np.zeros(n)
    rho[0] = rho_even = 1.0
    rho[1] = rho_odd = rho_t[1]
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even, rho_odd = rho_t[t + 1], rho_t[t + 2]
        if rho_even + rho_odd >= 0.0:
            rho[t + 1], rho[t + 2] = rho_even, rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    t = 1
    while t <= max_t - 2:       # make the paired sums monotone
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * rho[:max_t + 1].sum() + rho[max_t + 1]
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def summarize_draws(draws: np.ndarray) -> tuple[float, float]:
    """(min bulk ESS, max R-hat) over the parameters of (chains, draws, dim).

    Parameters that never moved are skipped; a fit in which none moved
    has no defined ESS and gets (0, inf).
    """
    ess, rhat = [], []
    for j in range(draws.shape[2]):
        x = _split(draws[:, :, j])
        if np.ptp(x) == 0.0:
            continue
        z = _z_scale(x)
        ess.append(_ess(z))
        folded = np.abs(x - np.median(x))
        rhat.append(max(_rhat(z), _rhat(_z_scale(folded))))
    if not ess:
        return 0.0, float("inf")
    return min(ess), max(rhat)
