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
    value, _ = hill_grad(curve, r)
    return value


def hill_grad(curve: HillCurve, r) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """rho(r) with partial derivatives w.r.t. (gamma, zeta, eta)."""
    return hill_grad_log(curve, *log_repeats(r))


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


def hill_grad_log(curve: HillCurve, positive: np.ndarray, log_r: np.ndarray
                  ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``hill_grad`` on ``log_repeats(r)``.

    Written through the logistic of zeta + eta log(r), which stays finite
    for arbitrarily extreme parameters.
    """
    frac = np.where(positive, expit(curve.zeta + curve.eta * log_r), 0.0)
    value = -curve.gamma * frac
    d_zeta = -curve.gamma * frac * (1.0 - frac)
    grads = {"gamma": -frac, "zeta": d_zeta, "eta": d_zeta * log_r}
    return value, grads


_KINDS = ("none", "independent", "identical", "gp", "hill",
          "hill_per_covariate", "variant_a", "variant_b", "variant_c")


@dataclass(frozen=True)
class HillPriors:
    """Priors for one set of Hill parameters.

    ``gamma`` uses a positive half-normal, ``zeta`` a normal; ``eta`` is
    exponential(rate) when ``eta_kind == 'exponential'`` (the base prior) or
    positive half-normal otherwise (the informative, propagated prior).
    """

    gamma_loc: float = 0.0
    gamma_scale: float = 1.0
    zeta_loc: float = 0.0
    zeta_scale: float = 1.0
    eta_kind: str = "exponential"
    eta_loc: float = 1.0          # rate when exponential, location otherwise
    eta_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.eta_kind not in ("exponential", "halfnormal"):
            raise ValueError(f"unknown eta prior kind {self.eta_kind!r}")


@dataclass(frozen=True)
class FatigueSpec:
    """How reporting fatigue enters the linear predictor.

    kinds: none; identical (one shared effect for every r >= 1);
    independent (one effect per repeat 1..max_repeat); gp (smooth effect of
    standardized repeat count); hill (one Hill curve); hill_per_covariate
    (one Hill curve per fatigue covariate column); variant_a/b/c (the
    strictly negative -exp(...) forms with age / age + contact-band /
    age-by-contact-band smooths).
    """

    kind: str = "none"
    max_repeat: int = 0
    hill_priors: tuple[HillPriors, ...] = (HillPriors(),)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fatigue kind {self.kind!r}")
        if self.kind in ("independent", "gp") and self.max_repeat < 1:
            raise ValueError(f"fatigue kind {self.kind!r} requires max_repeat >= 1")

    def hill_priors_for(self, n_curves: int) -> tuple[HillPriors, ...]:
        if len(self.hill_priors) == n_curves:
            return self.hill_priors
        if len(self.hill_priors) == 1:
            return self.hill_priors * n_curves
        raise ValueError(
            f"expected 1 or {n_curves} Hill prior sets, got {len(self.hill_priors)}")


def no_fatigue() -> FatigueSpec:
    return FatigueSpec(kind="none")
