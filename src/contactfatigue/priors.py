"""Log-densities and gradients for every prior family in the model suite.

All densities include their normalizing constants exactly so that pointwise
log-likelihood comparisons across model families remain meaningful. Support
constraints are enforced upstream (the inference layer samples positives on
the log scale), so evaluation outside the support returns -inf with a zero
gradient by convention.

Everything of a density that does not depend on the value -- the logs of
its scales, the Gamma-function normalizers, the log mass of a truncated
normal, the half-t constant -- is one tuple, ``PriorSpec.terms``, computed
on a spec's first evaluation and kept with it. A model's prior groups are
specs of their own, so each group computes its terms once. The terms are
formed in the operation order of the written-out density, so the result
has the same bits as evaluating it in one piece.

The regularized horseshoe (RHS) follows the global-local construction

    beta_k = eps * zeta_tilde_k * z_k,
    zeta_tilde_k^2 = c^2 zeta_k^2 / (c^2 + eps^2 zeta_k^2),

with half-Student-t local/global scales and an inverse-Gamma slab, at the
fixed hyperparameters below. The negatively-truncated variant draws z_k
half-normal and rescales by sqrt((1 - 2/pi)^-1) so the conditional
variance matches the unconstrained prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln, log_ndtr

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

#: Variance-restoring factor for half-normal truncation, (1 - 2/pi)^-1.
HALF_NORMAL_VAR_ADJUST = 1.0 / (1.0 - 2.0 / np.pi)


@dataclass(frozen=True)
class PriorSpec:
    """A univariate prior: a family of ``_FAMILIES`` and the parameters its
    density takes after the value. A parameter may be an array that
    broadcasts against the evaluated values, giving one prior per element.
    """

    family: str
    params: tuple

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown prior family {self.family!r}")
        for idx in _FAMILIES[self.family].positive:
            if np.any(np.asarray(self.params[idx]) <= 0):
                raise ValueError(
                    f"{self.family} parameter {idx} must be > 0")

    @cached_property
    def terms(self) -> tuple:
        """The arguments the family's density takes after the value: the
        parameters and their value-independent terms."""
        return _FAMILIES[self.family].terms(*self.params)


# Each family's ``terms`` gives the arguments its density takes after the
# value. The density applies the operations of the written-out formula in
# their order, so its result does not change with the terms hoisted.

def _normal_terms(loc, scale):
    return loc, scale, np.log(scale)


def _lp_normal(theta, loc, scale, log_scale):
    z = (theta - loc) / scale
    lp = -0.5 * z**2 - log_scale - HALF_LOG_2PI
    return lp, -z / scale


def _halfnormal_terms(loc, scale):
    # Normal(loc, scale) truncated to [0, inf): log of its mass there
    return loc, scale, np.log(scale), log_ndtr(loc / scale)


def _lp_halfnormal_pos(theta, loc, scale, log_scale, log_mass):
    lp, grad = _lp_normal(theta, loc, scale, log_scale)
    on = theta >= 0
    return np.where(on, lp - log_mass, -np.inf), np.where(on, grad, 0.0)


def _cauchy_terms(scale):
    return scale, scale**2, np.log(2.0 / np.pi) - np.log(scale)


def _lp_cauchy_pos(theta, scale, scale_sq, const):
    lp = const - np.log1p((theta / scale) ** 2)
    grad = -2.0 * theta / (scale_sq + theta**2)
    on = theta >= 0
    return np.where(on, lp, -np.inf), np.where(on, grad, 0.0)


def _invgamma_terms(a, b):
    return b, a + 1.0, a * np.log(b) - gammaln(a)


def _lp_invgamma(theta, b, a1, const):
    valid = theta > 0
    th = np.where(valid, theta, 1.0)
    lp = const - a1 * np.log(th) - b / th
    grad = -a1 / th + b / th**2
    return np.where(valid, lp, -np.inf), np.where(valid, grad, 0.0)


def _exponential_terms(rate):
    return rate, np.log(rate)


def _lp_exponential(theta, rate, log_rate):
    lp = log_rate - rate * theta
    on = theta >= 0
    return np.where(on, lp, -np.inf), np.where(on, -rate, 0.0)


def _student_t_terms(df, scale):
    # Half-t on [0, inf): twice the central Student-t density.
    df_scale_sq = df * scale**2
    const = (np.log(2.0) + gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0)
             - 0.5 * np.log(df * np.pi) - np.log(scale))
    return (df + 1.0) / 2.0, -(df + 1.0), df_scale_sq, const


def _lp_student_t_pos(theta, half_df1, neg_df1, df_scale_sq, const):
    lp = const - half_df1 * np.log1p(theta**2 / df_scale_sq)
    grad = neg_df1 * theta / (df_scale_sq + theta**2)
    on = theta >= 0
    return np.where(on, lp, -np.inf), np.where(on, grad, 0.0)


class _Family(NamedTuple):
    terms: Callable        # parameters -> the density's terms
    density: Callable      # (value, *terms) -> (log density, gradient)
    positive: tuple        # indices of the parameters that must be > 0


_FAMILIES = {
    "normal": _Family(_normal_terms, _lp_normal, (1,)),
    "halfnormal_pos": _Family(_halfnormal_terms, _lp_halfnormal_pos, (1,)),
    "cauchy_pos": _Family(_cauchy_terms, _lp_cauchy_pos, (0,)),
    "invgamma": _Family(_invgamma_terms, _lp_invgamma, (0, 1)),
    "exponential": _Family(_exponential_terms, _lp_exponential, (0,)),
    "student_t_pos": _Family(_student_t_terms, _lp_student_t_pos, (0, 1)),
}


def log_prior(spec: PriorSpec, theta) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise log density and d(logp)/d(theta) on the natural scale."""
    return _FAMILIES[spec.family].density(np.asarray(theta, dtype=float),
                                          *spec.terms)


# ---------------------------------------------------------------------------
# Regularized horseshoe
# ---------------------------------------------------------------------------

#: Local-scale, slab and global-scale degrees of freedom (nu1, nu2, nu3)
#: and the slab scale s^2 of the regularized horseshoe.
RHS_NU1 = 3.0
RHS_NU2 = 2.0
RHS_NU3 = 4.0
RHS_SLAB_SCALE_SQ = 2.0

#: The local scales are half-t(nu1, 1) and the slab c^2 is
#: inverse-Gamma(nu2, nu2 s^2 / 2).
RHS_ZETA_PRIOR = PriorSpec("student_t_pos", (RHS_NU1, 1.0))
RHS_C2_PRIOR = PriorSpec("invgamma",
                         (RHS_NU2, RHS_NU2 * RHS_SLAB_SCALE_SQ / 2.0))


@dataclass(frozen=True)
class RhsSpec:
    """Size, sparsity guess and sign of a regularized-horseshoe block."""

    n_coef: int
    p0: float                      # prior guess of non-zero coefficients
    n_obs: int
    sign: str = "unconstrained"    # or "negative"

    def __post_init__(self) -> None:
        if not (0 < self.p0 < self.n_coef):
            raise ValueError("p0 must lie strictly between 0 and n_coef")
        if self.sign not in ("unconstrained", "negative"):
            raise ValueError(f"invalid sign {self.sign!r}")

    @property
    def eps0(self) -> float:
        return self.p0 / (self.n_coef - self.p0) / self.n_obs

    def eps_prior_spec(self) -> PriorSpec:
        return PriorSpec("student_t_pos", (RHS_NU3, self.eps0))


def regularized_scale(zeta: np.ndarray, c2: float, eps: float
                      ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """zeta_tilde = sqrt(c^2 zeta^2 / (c^2 + eps^2 zeta^2)) and partials."""
    zeta = np.asarray(zeta, dtype=float)
    denom = c2 + eps**2 * zeta**2
    t = c2 * zeta**2 / denom
    zt = np.sqrt(t)
    # d(zeta_tilde)/dx = (dt/dx) / (2 zeta_tilde)
    dt_dzeta = 2.0 * c2**2 * zeta / denom**2
    dt_dc2 = eps**2 * zeta**4 / denom**2
    dt_deps = -2.0 * c2 * eps * zeta**4 / denom**2
    inv2zt = 0.5 / zt
    partials = {"zeta": dt_dzeta * inv2zt, "c2": dt_dc2 * inv2zt,
                "eps": dt_deps * inv2zt}
    return zt, partials


def rhs_coefficients(spec: RhsSpec, z: np.ndarray, zeta: np.ndarray,
                     c2: float, eps: float
                     ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Coefficients beta = eps * zeta_tilde * z (non-centered) and partials.

    For the negative variant, z must be non-negative half-normal latents and
    beta = -sqrt((1 - 2/pi)^-1) * eps * zeta_tilde * z.
    """
    z = np.asarray(z, dtype=float)
    zt, dzt = regularized_scale(zeta, c2, eps)
    scale = -np.sqrt(HALF_NORMAL_VAR_ADJUST) if spec.sign == "negative" else 1.0
    beta = scale * eps * zt * z
    partials = {
        "z": scale * eps * zt,
        "zeta": scale * eps * z * dzt["zeta"],
        "c2": scale * eps * z * dzt["c2"],
        "eps": scale * z * (zt + eps * dzt["eps"]),
    }
    return beta, partials


def rhs_log_prior(spec: RhsSpec, z: np.ndarray, zeta: np.ndarray,
                  c2: float, eps: float
                  ) -> tuple[float, dict[str, np.ndarray]]:
    """Joint log prior of the RHS component blocks and its gradients.

    ``z`` are the non-centered latents: standard normal for the
    unconstrained prior, standard half-normal for the negative variant.
    Gradients are on the natural scale of each argument.
    """
    z = np.asarray(z, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if z.shape != (spec.n_coef,) or zeta.shape != (spec.n_coef,):
        raise ValueError("z and zeta must both have length n_coef")

    lp_z, g_z = log_prior(PriorSpec(
        "halfnormal_pos" if spec.sign == "negative" else "normal", (0.0, 1.0)),
        z)
    lp_zeta, g_zeta = log_prior(RHS_ZETA_PRIOR, zeta)
    lp_c2, g_c2 = log_prior(RHS_C2_PRIOR, c2)
    lp_eps, g_eps = log_prior(spec.eps_prior_spec(), eps)

    logp = float(lp_z.sum() + lp_zeta.sum() + lp_c2 + lp_eps)
    grads = {"z": g_z, "zeta": g_zeta, "c2": float(g_c2), "eps": float(g_eps)}
    return logp, grads
