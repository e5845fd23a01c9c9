"""The prior of every parameter, as coefficients of one formula.

Every prior family of the model suite is a case of one formula
(``FORMULA``),

    log p(v) = K - ((v - L) Q)^2 / 2 + A v + C log v + D / v
               + E log1p(F v^2),

with its normalizing constant in K, exactly, so that pointwise
log-likelihood comparisons across model families remain meaningful. A
``PriorSpec`` names a family and its parameters, and its ``coefficients``
are the family's one function of them. A model writes the priors of all
its parameters into one ``PriorTable`` of per-element coefficients when it
is built: the quadratic term of every element as two vectors, and the
other terms of each log-scale element as one tuple of Python floats. One
call of ``table_log_prior`` per gradient then evaluates them all, with the
log-scale Jacobians, at the natural-scale values that the model has
already computed: the quadratic term in four whole-vector operations, and
the few log-scale elements (the scales, the dispersion, and the Hill gamma
and eta of the GAM and the longitudinal model) one by one in Python
floats, each taking only the terms it holds. Positive parameters are
carried on the log scale, so the positive families are evaluated on v > 0
only.

The regularized horseshoe (RHS) follows the global-local construction

    beta_k = eps * zeta_tilde_k * z_k,
    zeta_tilde_k^2 = c^2 zeta_k^2 / (c^2 + eps^2 zeta_k^2),

with half-Student-t local/global scales and an inverse-Gamma slab, at the
fixed hyperparameters below. The negatively-truncated variant draws z_k
half-normal and rescales by sqrt((1 - 2/pi)^-1) so the conditional
variance matches the unconstrained prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln, log_ndtr

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

#: Variance-restoring factor for half-normal truncation, (1 - 2/pi)^-1.
HALF_NORMAL_VAR_ADJUST = 1.0 / (1.0 - 2.0 / np.pi)


@dataclass(frozen=True)
class PriorSpec:
    """A univariate prior: a family of ``_FAMILIES`` and its parameters. A
    parameter may be an array that broadcasts against the elements of a
    block, giving one prior per element.
    """

    family: str
    params: tuple

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown prior family {self.family!r}")
        for idx, p in enumerate(self.params):
            if not np.isfinite(np.asarray(p, dtype=float)).all():
                raise ValueError(
                    f"{self.family} parameter {idx} must be finite")
        for idx in _FAMILIES[self.family].positive:
            if np.any(np.asarray(self.params[idx]) <= 0):
                raise ValueError(
                    f"{self.family} parameter {idx} must be > 0")

    @property
    def coefficients(self) -> dict:
        """The family's coefficients of ``FORMULA`` by name; those it
        leaves out are 0."""
        return _FAMILIES[self.family].coefficients(
            *(np.asarray(p, dtype=float) for p in self.params))

    @property
    def on_real_line(self) -> bool:
        """Whether the support is the real line, not [0, inf)."""
        return self.family == "normal"


#: the coefficients of the one formula of which every family is a case,
#: log p(v) = K - ((v - L) Q)^2 / 2 + A v + C log v + D / v + E log1p(F v^2)
FORMULA = ("K", "L", "Q", "A", "C", "D", "E", "F")


# Each family maps its parameters to its coefficients of ``FORMULA``.

def _normal(loc, scale):
    return {"K": -np.log(scale) - HALF_LOG_2PI, "L": loc, "Q": 1.0 / scale}


def _halfnormal(loc, scale):
    # Normal(loc, scale) truncated to [0, inf): K less its log mass there
    out = _normal(loc, scale)
    out["K"] = out["K"] - log_ndtr(loc / scale)
    return out


def _cauchy(scale):
    return {"K": np.log(2.0 / np.pi) - np.log(scale), "E": -1.0,
            "F": 1.0 / scale**2}


def _invgamma(a, b):
    return {"K": a * np.log(b) - gammaln(a), "C": -(a + 1.0), "D": -b}


def _exponential(rate):
    return {"K": np.log(rate), "A": -rate}


def _student_t(df, scale):
    # Half-t on [0, inf): twice the central Student-t density.
    const = (np.log(2.0) + gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0)
             - 0.5 * np.log(df * np.pi) - np.log(scale))
    return {"K": const, "E": -((df + 1.0) / 2.0), "F": 1.0 / (df * scale**2)}


class _Family(NamedTuple):
    coefficients: Callable  # parameters -> the coefficients of FORMULA
    positive: tuple         # indices of the parameters that must be > 0


_FAMILIES = {
    "normal": _Family(_normal, (1,)),
    "halfnormal_pos": _Family(_halfnormal, (1,)),
    "cauchy_pos": _Family(_cauchy, (0,)),
    "invgamma": _Family(_invgamma, (0, 1)),
    "exponential": _Family(_exponential, (0,)),
    "student_t_pos": _Family(_student_t, (0, 1)),
}


class PriorTable(NamedTuple):
    """The priors of every element of a parameter vector as coefficients
    of ``FORMULA``, built once. ``const`` is the sum of K over the
    elements. ``loc`` and ``prec_sq`` hold L and Q^2 of every element,
    read at its natural-scale value, with Q = 0 where the prior has no
    quadratic term. ``logs`` indexes the log-scale elements, and ``terms``
    holds (A, C + 1, D, F, E) of each of them as Python floats, the 1
    being the Jacobian of v = exp(u); F and E are both 0 where either
    is."""

    const: float
    loc: np.ndarray
    prec_sq: np.ndarray
    logs: np.ndarray
    terms: tuple


def table_log_prior(table: PriorTable, theta: np.ndarray, nat: np.ndarray,
                    grad: np.ndarray) -> float:
    """Return the sum of every element's log prior and carry ``grad`` to
    the scale of ``theta``.

    ``nat`` is ``theta`` with each log-scale element u carried to
    v = exp(u), and ``grad`` holds the rest of the density's gradient in
    ``nat``. The prior is K - (nat - L) Q^2 (nat - L) / 2 on every
    element, plus A v + (C + 1) u + D / v + E log1p(F v^2) on the log
    scale, log v taken as u; its gradient is added into ``grad``, whose
    log-scale elements are then multiplied by v. The caller sets the
    ``np.errstate`` of the whole-vector terms; each log-scale element
    takes its other terms in Python floats, whose products and quotients
    turn an overflow into inf, never an exception, and a v of 0 takes
    D / v as D inf. So a v whose inverse or whose square overflows where
    the table holds that term gives a non-finite result, which the caller
    rejects."""
    off = nat - table.loc
    q2_off = table.prec_sq * off
    grad -= q2_off
    logp = table.const - 0.5 * float(off @ q2_off)
    logs = table.logs
    out = []
    for u, v, g, (a, c1, d, f, e) in zip(theta[logs].tolist(),
                                         nat[logs].tolist(),
                                         grad[logs].tolist(), table.terms):
        logp += a * v + c1 * u
        g = (g + a) * v + c1
        if d:
            r = d / v if v else d * math.inf
            logp += r
            g -= r
        if f:
            fv2 = f * v * v
            logp += e * math.log1p(fv2)
            g += 2.0 * e * (fv2 / (1.0 + fv2))
        out.append(g)
    grad[logs] = out
    return logp


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
