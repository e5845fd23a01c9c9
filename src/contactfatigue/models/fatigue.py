"""Reporting-fatigue dose-response terms.

The Hill curve treats each additional survey participation as a dose:

    rho(r) = -gamma * e^zeta r^eta / (1 + e^zeta r^eta),

so rho(0) = 0, rho is non-increasing in r, and rho(r) -> -gamma as r grows.
The repeat counts of a model are fixed, so the mask r > 0 and log(r)
(``log_repeats``) are computed once when the model is built, and each
gradient evaluates the curve on them (``hill_grad_log``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ..priors import PriorSpec


@dataclass(frozen=True)
class HillCurve:
    gamma: float   # asymptotic log-reduction, > 0
    zeta: float    # log half-saturation control
    eta: float     # steepness, > 0

    def __post_init__(self) -> None:
        if self.gamma < 0 or self.eta <= 0:
            raise ValueError("Hill curve requires gamma >= 0 and eta > 0")


def hill(curve: HillCurve, r) -> np.ndarray:
    """Evaluate rho(r) for repeat counts r >= 0."""
    return hill_grad_log(curve.gamma, curve.zeta, curve.eta,
                         *log_repeats(r))[0]


def log_repeats(r) -> tuple[np.ndarray, np.ndarray]:
    """The parameter-free part of the Hill curve at repeat counts r >= 0:
    the mask r > 0 and log(r) there (0 elsewhere). A model computes it
    once for its fixed repeat counts."""
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ValueError("repeat counts must be >= 0")
    positive = r > 0
    return positive, np.where(positive, np.log(np.where(positive, r, 1.0)),
                              0.0)


def hill_grad_log(gamma, zeta, eta, positive: np.ndarray,
                  log_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho(r) of the curve (gamma, zeta, eta) on ``log_repeats(r)`` and its
    partial derivatives w.r.t. (gamma, zeta, eta), stacked on a leading
    axis of 3. The parameters may be arrays that broadcast against the
    repeats, such as (Q, 1) columns for Q curves at once.

    Written through the logistic of zeta + eta log(r), which stays finite
    for arbitrarily extreme parameters.
    """
    frac = expit(zeta + eta * log_r) * positive   # 0 at r = 0
    value = -gamma * frac
    # each partial written into its row, a view even where value is 0-d
    partials = np.empty((3,) + value.shape)
    np.negative(frac, out=partials[0, ...])
    np.multiply(value, 1.0 - frac, out=partials[1, ...])
    np.multiply(partials[1, ...], log_r, out=partials[2, ...])
    return value, partials


#: the kinds that evaluate Hill curves, with blocks hill_gamma, hill_zeta
#: and hill_eta
HILL_KINDS = ("hill", "hill_per_covariate")

_KINDS = ("none", "independent", "identical", "gp", *HILL_KINDS,
          "variant_a", "variant_b", "variant_c")
#: the kinds that size a table or grid over repeats 1..max_repeat
_TABLE_KINDS = ("independent", "gp", "variant_a", "variant_b", "variant_c")


@dataclass(frozen=True)
class FatigueSpec:
    """How reporting fatigue enters the linear predictor.

    kinds: none; identical (one shared effect for every r >= 1);
    independent (one effect per repeat 1..max_repeat); gp (smooth effect of
    standardized repeat count); hill (one Hill curve); hill_per_covariate
    (one Hill curve per fatigue covariate column); variant_a/b/c (the
    strictly negative -exp(...) forms of a table over repeats
    1..max_repeat with age / age + contact-band / age-by-contact-band
    smooths). A table's last entry also holds for repeats beyond it.

    The Hill kinds take the priors of the ``hill_gamma``, ``hill_zeta``
    and ``hill_eta`` blocks from ``gamma_prior``, ``zeta_prior`` and
    ``eta_prior``, one prior over all Q curves; array or tuple params give
    each curve its own.
    """

    kind: str = "none"
    max_repeat: int = 0
    gamma_prior: PriorSpec = PriorSpec("halfnormal_pos", (0.0, 1.0))
    zeta_prior: PriorSpec = PriorSpec("normal", (0.0, 1.0))
    eta_prior: PriorSpec = PriorSpec("exponential", (1.0,))

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fatigue kind {self.kind!r}")
        if self.kind in _TABLE_KINDS and self.max_repeat < 1:
            raise ValueError(
                f"fatigue kind {self.kind!r} requires max_repeat >= 1")
