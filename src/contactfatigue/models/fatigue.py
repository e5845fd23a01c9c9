"""Reporting-fatigue dose-response terms.

The Hill curve treats each additional survey participation as a dose:

    rho(r) = -gamma * e^zeta r^eta / (1 + e^zeta r^eta),

so rho(0) = 0, rho is non-increasing in r, and rho(r) -> -gamma as r grows.
The repeat counts of a model are fixed, so the mask r > 0 and log(r)
(``log_repeats``) are computed once when the model is built, and each
gradient evaluates the curve on them (``hill_grad_log``). A model reads
its curves at a handful of distinct repeat counts, so the curve is
written in Python floats, element by element: there NumPy's cost per call
would exceed the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..priors import PriorSpec

#: the largest x with a finite exp(x)
_MAX_LOG = float(np.log(np.finfo(float).max))


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
    positive, log_r = log_repeats(r)
    value, _ = hill_grad_log(curve.gamma, curve.zeta, curve.eta,
                             positive.ravel().tolist(), log_r.ravel().tolist())
    return np.reshape(value, log_r.shape)


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


def hill_grad_log(gamma: float, zeta: float, eta: float, positive,
                  log_r) -> tuple[list, tuple[list, list, list]]:
    """rho(r) of the curve (gamma, zeta, eta) at the repeat counts whose
    ``log_repeats`` are the sequences ``positive`` and ``log_r``, and its
    partial derivatives w.r.t. gamma, zeta and eta, each a list of Python
    floats.

    Written through the logistic 1 / (1 + exp(-x)) of x = zeta + eta
    log(r), the operations of ``scipy.special.expit``, with exp(-x) taken
    as inf past the largest float, where the logistic is 0. So the curve
    and its partials stay finite, without an exception or a NumPy warning,
    for arbitrarily extreme zeta and eta.
    """
    value, d_gamma, d_zeta, d_eta = [], [], [], []
    for pos, lr in zip(positive, log_r):
        x = zeta + eta * lr
        frac = (1.0 / (1.0 + (math.exp(-x) if x >= -_MAX_LOG else math.inf))
                if pos else 0.0)
        v = -gamma * frac
        d = v * (1.0 - frac)
        value.append(v)
        d_gamma.append(-frac)
        d_zeta.append(d)
        d_eta.append(d * lr)
    return value, (d_gamma, d_zeta, d_eta)


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
