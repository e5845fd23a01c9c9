"""Log-densities and gradients for every prior family in the model suite.

All densities include their normalizing constants exactly so that pointwise
log-likelihood comparisons across model families remain meaningful. Support
constraints are enforced upstream (the inference layer samples positives on
the log scale), so evaluation outside the support returns -inf with a zero
gradient by convention.

The regularized horseshoe (RHS) follows the global-local construction

    beta_k = eps * zeta_tilde_k * z_k,
    zeta_tilde_k^2 = c^2 zeta_k^2 / (c^2 + eps^2 zeta_k^2),

with half-Student-t local/global scales and an inverse-Gamma slab. The
negatively-truncated variant draws z_k half-normal and rescales by
sqrt((1 - 2/pi)^-1) so the conditional variance matches the unconstrained
prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr

LOG_2PI = np.log(2.0 * np.pi)

#: Variance-restoring factor for half-normal truncation, (1 - 2/pi)^-1.
HALF_NORMAL_VAR_ADJUST = 1.0 / (1.0 - 2.0 / np.pi)


@dataclass(frozen=True)
class PriorSpec:
    """A univariate prior: name plus family-specific parameters.

    families: normal(loc, scale), halfnormal_pos(loc, scale),
    halfnormal_neg(loc, scale), cauchy_pos(scale), invgamma(a, b),
    exponential(rate), gamma(a, rate), student_t_pos(df, scale).
    A parameter may be an array that broadcasts against the evaluated
    values, giving one prior per element.
    """

    family: str
    params: tuple

    def __post_init__(self) -> None:
        if self.family not in _HANDLERS:
            raise ValueError(f"unknown prior family {self.family!r}")
        scale_checks = {
            "normal": (1,), "halfnormal_pos": (1,), "halfnormal_neg": (1,),
            "cauchy_pos": (0,), "invgamma": (0, 1), "exponential": (0,),
            "gamma": (0, 1), "student_t_pos": (0, 1),
        }
        for idx in scale_checks[self.family]:
            if np.any(np.asarray(self.params[idx]) <= 0):
                raise ValueError(
                    f"{self.family} parameter {idx} must be > 0")


def _lp_normal(theta, loc, scale):
    z = (theta - loc) / scale
    lp = -0.5 * z**2 - np.log(scale) - 0.5 * LOG_2PI
    return lp, -z / scale


def _lp_halfnormal_pos(theta, loc, scale):
    # Normal(loc, scale) truncated to [0, inf).
    lp, grad = _lp_normal(theta, loc, scale)
    lp = lp - log_ndtr(loc / scale)
    return np.where(theta >= 0, lp, -np.inf), np.where(theta >= 0, grad, 0.0)


def _lp_halfnormal_neg(theta, loc, scale):
    # Normal(loc, scale) truncated to (-inf, 0].
    lp, grad = _lp_normal(theta, loc, scale)
    lp = lp - log_ndtr(-loc / scale)
    return np.where(theta <= 0, lp, -np.inf), np.where(theta <= 0, grad, 0.0)


def _lp_cauchy_pos(theta, scale):
    lp = (np.log(2.0 / np.pi) - np.log(scale)
          - np.log1p((theta / scale) ** 2))
    grad = -2.0 * theta / (scale**2 + theta**2)
    return np.where(theta >= 0, lp, -np.inf), np.where(theta >= 0, grad, 0.0)


def _lp_invgamma(theta, a, b):
    valid = theta > 0
    th = np.where(valid, theta, 1.0)
    lp = a * np.log(b) - gammaln(a) - (a + 1.0) * np.log(th) - b / th
    grad = -(a + 1.0) / th + b / th**2
    return np.where(valid, lp, -np.inf), np.where(valid, grad, 0.0)


def _lp_exponential(theta, rate):
    lp = np.log(rate) - rate * theta
    return (np.where(theta >= 0, lp, -np.inf),
            np.where(theta >= 0, -rate, 0.0))


def _lp_gamma(theta, a, rate):
    valid = theta > 0
    th = np.where(valid, theta, 1.0)
    lp = a * np.log(rate) - gammaln(a) + (a - 1.0) * np.log(th) - rate * th
    grad = (a - 1.0) / th - rate
    return np.where(valid, lp, -np.inf), np.where(valid, grad, 0.0)


def _lp_student_t_pos(theta, df, scale):
    # Half-t on [0, inf): twice the central Student-t density.
    lp = (np.log(2.0) + gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0)
          - 0.5 * np.log(df * np.pi) - np.log(scale)
          - (df + 1.0) / 2.0 * np.log1p(theta**2 / (df * scale**2)))
    grad = -(df + 1.0) * theta / (df * scale**2 + theta**2)
    return np.where(theta >= 0, lp, -np.inf), np.where(theta >= 0, grad, 0.0)


_HANDLERS = {
    "normal": _lp_normal,
    "halfnormal_pos": _lp_halfnormal_pos,
    "halfnormal_neg": _lp_halfnormal_neg,
    "cauchy_pos": _lp_cauchy_pos,
    "invgamma": _lp_invgamma,
    "exponential": _lp_exponential,
    "gamma": _lp_gamma,
    "student_t_pos": _lp_student_t_pos,
}


def log_prior(spec: PriorSpec, theta) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise log density and d(logp)/d(theta) on the natural scale."""
    theta = np.asarray(theta, dtype=float)
    lp, grad = _HANDLERS[spec.family](theta, *spec.params)
    return lp, grad


# ---------------------------------------------------------------------------
# Regularized horseshoe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhsSpec:
    """Hyperparameters of the regularized horseshoe prior."""

    n_coef: int
    p0: float                      # prior guess of non-zero coefficients
    n_obs: int
    nu1: float = 3.0               # local scale dof
    nu2: float = 2.0               # slab dof
    nu3: float = 4.0               # global scale dof
    slab_scale_sq: float = 2.0     # s^2
    sign: str = "unconstrained"    # or "negative"
    c2_prior: str = "invgamma"     # or "gamma"

    def __post_init__(self) -> None:
        if not (0 < self.p0 < self.n_coef):
            raise ValueError("p0 must lie strictly between 0 and n_coef")
        if self.sign not in ("unconstrained", "negative"):
            raise ValueError(f"invalid sign {self.sign!r}")
        if self.c2_prior not in ("invgamma", "gamma"):
            raise ValueError(f"invalid c2_prior {self.c2_prior!r}")

    @property
    def eps0(self) -> float:
        return self.p0 / (self.n_coef - self.p0) / self.n_obs

    def c2_prior_spec(self) -> PriorSpec:
        return PriorSpec(self.c2_prior,
                         (self.nu2, self.nu2 * self.slab_scale_sq / 2.0))

    def eps_prior_spec(self) -> PriorSpec:
        return PriorSpec("student_t_pos", (self.nu3, self.eps0))

    def zeta_prior_spec(self) -> PriorSpec:
        return PriorSpec("student_t_pos", (self.nu1, 1.0))


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

    if spec.sign == "negative":
        lp_z, g_z = _lp_halfnormal_pos(z, 0.0, 1.0)
    else:
        lp_z, g_z = _lp_normal(z, 0.0, 1.0)
    lp_zeta, g_zeta = log_prior(spec.zeta_prior_spec(), zeta)
    lp_c2, g_c2 = log_prior(spec.c2_prior_spec(), c2)
    lp_eps, g_eps = log_prior(spec.eps_prior_spec(), eps)

    logp = float(lp_z.sum() + lp_zeta.sum() + lp_c2 + lp_eps)
    grads = {"z": g_z, "zeta": g_zeta, "c2": float(g_c2), "eps": float(g_eps)}
    return logp, grads
