"""Log-posterior and gradient assemblers for the model families.

Every family exposes one protocol: a named-block parameter layout,
``logp_grad`` returning the joint log posterior with its exact analytic
gradient on the unconstrained scale, per-observation log likelihoods for
cross-validation, posterior replicates for predictive checks, and intensity
prediction on the fitted observations with an optional fatigue de-biasing
switch.

Every family is one log-linear count regression, assembled from terms by
``_AdditiveCountModel``; its docstring states how the terms form one group
design X, read one natural-scale vector and share one prior pass
(``_PriorPass``):

* ``stage1_poisson``  -- first-time participants: intercept, a hierarchical
  baseline block, a tested block under the regularized horseshoe (or plain
  normal priors); Poisson counts.
* ``stage2_poisson``  -- repeat participants: the frozen stage-1 predictor
  as offsets, fatigue candidates under the negatively-truncated horseshoe;
  Poisson counts.
* ``longitudinal_nb`` -- intercept, hierarchical covariates, a Matern-3/2
  calendar-time GP and a fatigue term (independent, identical,
  GP-on-repeats, Hill); NB2 counts.
* ``individual_gam``  -- intercept, covariates, a squared-exponential age
  smooth, one Hill fatigue curve per selected covariate; NB2 counts.
* ``aggregated_brc``  -- NB1 counts of coarse contact bands, on the cells:
  intercept, wave effect, a fatigue term (independent, or -exp of a repeat
  table plus smooths), participant and detail offsets, and the log of
  the cell's band sum, the sum over the contact ages b of its band (from
  the band table) of exp(f_pair(a, b) + log P_b). So a cell's mean is the
  sum of its single-year means, through rate consistency. The 2D age surface
  of each gender pair (symmetrized within a gender, read transposed by
  "MF", so that population flows balance exactly) is a function on the
  85 x 85 age grid, evaluated through per-axis sine factors, never as a
  dense points x columns basis, and in a gradient only on the sub-grid
  of the ages its cells read.

A term declares its parameter blocks and the data columns it reads. Most
terms read a source: free coefficients (``_Coefficients``), the horseshoe
(``_RhsTerm``), an HSGP (``_HsgpTerm``) or the Hill curves at the distinct
repeat counts (``_HillTerm``). The terms are the intercept and indicator
blocks (``_Linear``), a 1D HSGP read through ``_Gather`` (the time, age
and repeat-GP smooths), the repeat tables (``_RepeatTable``), the Hill
curves, the BRC band sums (``_BandSums``, which scatter their gradient
back with one ``np.bincount``) and the -exp fatigue of the BRC variants
(``_NegativeExp``). A fitted GP is read on the points it was built on:
``age_curve`` and ``predict_log_m`` take whole-year ages and index the age
smooth on AGE_GRID and each surface on the 85 x 85 grid.

One observation model per family runs on the groups: Poisson and NB2 on
group sizes and count sums plus a count histogram, so their cost scales
with distinct predictor cells, not rows; NB1 reads each coarse cell's
mean from its group.

Whatever ``logp_grad`` needs that does not depend on the parameters is
computed once, when the model is built: the group design, the prior
table, the observation model's count terms (``GroupCounts``, and the
cells' log-factorials of NB1), the Hill terms' log repeat counts
(``log_repeats``) and each HSGP basis's squared frequencies.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from .. import kernels
from ..domain import (AGE_GRID, CoarseBandSet, DataError, DesignMatrix,
                      PopulationTable)
from ..kernels import KERNEL_FAMILIES, HsgpBasis
from ..priors import (FORMULA, RHS_C2_PRIOR, RHS_ZETA_PRIOR, PriorSpec,
                      PriorTable, RhsSpec, rhs_coefficients, table_log_prior)
from .fatigue import FatigueSpec, HillCurve, hill, hill_grad_log, log_repeats
from .likelihoods import (GroupCounts, nb1_agg_loglik, nb1_rvs,
                          nb2_group_loglik, nb2_loglik, nb2_rvs,
                          poisson_group_loglik, poisson_loglik)
from .params import Block, Layout


class RejectedState(ValueError):
    """The parameter vector lies where the model is not finite: a log-scale
    parameter under- or overflows, a kernel lengthscale or horseshoe scale
    overflows its square, or a term comes out inf or NaN.

    It is the one way a state is refused. ``logp_grad`` gives such a state
    -inf mass. The prediction methods (``predict_log_intensity``,
    ``pointwise_loglik``, ``replicate``, ``age_curve``, ``fatigue_curve``,
    ``predict_log_m``) raise this error.
    """


#: the largest x with a finite x**2
_MAX_ROOT = float(np.sqrt(np.finfo(float).max))

#: NumPy's floating-point warnings are off while a state is evaluated;
#: the pass checks its results and rejects what is not finite instead
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _guarded(fn):
    """Make ``logp_grad`` total. The whole pass runs under one
    ``np.errstate``; a rejected state or a non-finite result gives -inf
    and a zero gradient. The gradient is checked by one dot product with
    the model's zero vector: 0 g is 0 for every finite g and NaN for an
    inf or NaN one."""
    @functools.wraps(fn)
    def wrapper(self, theta):
        try:
            with np.errstate(**_QUIET):
                logp, grad = fn(self, theta)
        except RejectedState:
            logp = -np.inf
        if math.isfinite(logp) and math.isfinite(grad @ self.zeros):
            return logp, grad
        return -np.inf, np.zeros(self.layout.size)
    return wrapper


def _predicting(fn):
    """A prediction at a state, under the ``np.errstate`` of ``logp_grad``:
    a state that ``logp_grad`` rejects raises ``RejectedState``."""
    @functools.wraps(fn)
    def wrapper(self, theta, *args, **kwargs):
        with np.errstate(**_QUIET):
            return fn(self, theta, *args, **kwargs)
    return wrapper


#: the standard deviation of the single-year age grid, used to standardize
#: GP input axes so lengthscale priors act on a unit-scale axis
AGE_SD = float(AGE_GRID.std())
#: the number of single-year ages; an age surface has _N_AGE ** 2 cells
_N_AGE = AGE_GRID.size


def _not_whole(x: np.ndarray, stop: float) -> np.ndarray:
    """Where ``x`` is not a whole number in [0, stop)."""
    return (x != np.round(x)) | (x < 0) | (x >= stop)


def _whole_years(*ages) -> list[np.ndarray]:
    """Each array of ages as indices into ``AGE_GRID``, the points on which
    the age GPs are built; ages that are not whole years in 0-84 are
    refused."""
    out = []
    for x in ages:
        x = np.asarray(x, dtype=float)
        if _not_whole(x, _N_AGE).any():
            raise ValueError(f"ages must be whole years in 0-{_N_AGE - 1}")
        out.append(x.astype(int))
    return out


@dataclass(frozen=True)
class HsgpConfig:
    """Kernel family, basis size, and hyperpriors for one GP term."""

    kernel: str = "se"
    m: int = 30
    magnitude_prior: PriorSpec = PriorSpec("invgamma", (5.0, 1.0))
    lengthscale_prior: PriorSpec = PriorSpec("invgamma", (5.0, 1.0))

    def __post_init__(self) -> None:
        if self.kernel not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.kernel!r}")
        if self.m < 1:
            raise ValueError("basis size m must be >= 1")


def brc_surface_config(m: int = 40) -> HsgpConfig:
    return HsgpConfig(kernel="matern52", m=m,
                      magnitude_prior=PriorSpec("cauchy_pos", (1.0,)),
                      lengthscale_prior=PriorSpec("invgamma", (5.0, 5.0)))


#: the squared-exponential age smooth of the GAM
AGE_GP = HsgpConfig(m=20)
#: the Matern-3/2 calendar-time GP of the longitudinal model
TIME_GP = HsgpConfig(kernel="matern32")
#: the GP on standardized repeat counts (longitudinal fatigue kind "gp")
REPEAT_GP = HsgpConfig(kernel="se", m=10)
#: the smooths on the log fatigue scale of the BRC variants
VARIANT_GP = replace(brc_surface_config(20), kernel="se")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a fit.

    ``beta0_prior`` is the prior of the intercept block ``beta0``, and
    ``beta_prior`` that of the GAM's covariate coefficients ``beta``; array
    or tuple params give each coefficient its own. A fatigue kind that the
    family's model class cannot fit (not in its ``fatigue_kinds``) is
    refused.
    """

    family: str
    fatigue: FatigueSpec = field(default_factory=FatigueSpec)
    rhs: RhsSpec | None = None
    beta0_prior: PriorSpec = PriorSpec("normal", (0.0, 10.0))
    beta_prior: PriorSpec = PriorSpec("normal", (0.0, 1.0))
    hsgp_age: HsgpConfig = AGE_GP
    hsgp_surface: HsgpConfig = field(default_factory=brc_surface_config)

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_CLASS:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.fatigue.kind not in _FAMILY_CLASS[self.family].fatigue_kinds:
            raise ValueError(f"{self.family} cannot fit fatigue kind "
                             f"{self.fatigue.kind!r}")


# ---------------------------------------------------------------------------
# Shared assembly helpers: the prior pass and the sources of the terms.
# A source gives, from the natural-scale vector ``nat``, its ``weights``
# with a backprop cache, and ``backprop_weights`` writes d(logp)/d(its
# blocks), on the natural scale, into the gradient buffer, which holds
# zeros there: each block has one source. A source reads its scalars as
# Python floats, once per gradient. ``place`` finds its blocks in the
# layout once, when the model is built. ``rows`` maps the weights to the
# source's values at its points (None where only ``values`` evaluates it:
# a 2D surface).
# ---------------------------------------------------------------------------

STD_NORMAL = PriorSpec("normal", (0.0, 1.0))
HALF_CAUCHY = PriorSpec("cauchy_pos", (1.0,))
#: 1/value ~ Exponential(1) for the NB dispersions; in u = log(value) the
#: density with its Jacobian is exp(-u - e^-u)
DISPERSION_PRIOR = PriorSpec("invgamma", (1.0, 1.0))


class _PriorPass:
    """Every block prior of a layout, evaluated in one call.

    Each element of the layout takes its block prior's coefficients of the
    one formula of ``priors.FORMULA``; built once, they form one
    ``PriorTable``: the quadratic term of every element as two vectors,
    and each log-scale element's other terms as a tuple of Python floats,
    its tail (E, F) kept only where both are non-zero. Each call is one
    ``table_log_prior`` over the whole parameter vector. Log-scale
    elements take the prior at value = exp(raw) plus the change-of-variables
    Jacobian. An identity-scale block must have a prior on the real line:
    positives are carried on the log scale. Each prior param is a scalar
    or holds one value per element.
    """

    def __init__(self, layout: Layout):
        coef = {name: np.zeros(layout.size) for name in FORMULA}
        on_log = np.zeros(layout.size, dtype=bool)
        for b in layout.blocks:
            if b.prior is None:
                raise ValueError(f"block {b.name!r} declares no prior")
            if not (b.transform == "log" or b.prior.on_real_line):
                raise ValueError(
                    f"block {b.name!r} has the positive {b.prior.family!r} "
                    "prior on the identity scale")
            if any(np.ndim(p) > 1 or np.size(p) not in (1, b.size)
                   for p in b.prior.params):
                raise ValueError(
                    f"block {b.name!r} has {b.size} elements, and its "
                    f"{b.prior.family!r} prior params do not broadcast to "
                    "them")
            sl = layout.sl(b.name)
            on_log[sl] = b.transform == "log"
            for name, value in b.prior.coefficients.items():
                coef[name][sl] = value
        logs = np.flatnonzero(on_log)
        at = {name: c[logs] for name, c in coef.items()}
        tail = (at["E"] != 0.0) & (at["F"] != 0.0)
        self.table = PriorTable(
            float(coef["K"].sum()), coef["L"], np.square(coef["Q"]), logs,
            tuple(zip(at["A"].tolist(), (at["C"] + 1.0).tolist(),
                      at["D"].tolist(), np.where(tail, at["F"], 0.0).tolist(),
                      np.where(tail, at["E"], 0.0).tolist())))

    def __call__(self, theta: np.ndarray, nat: np.ndarray,
                 grad: np.ndarray) -> float:
        """Add the priors' gradients into ``grad``, the gradient in
        ``nat``, carry it to the scale of ``theta`` and return the priors'
        log density. Non-finite results are left to ``_guarded``."""
        return table_log_prior(self.table, theta, nat, grad)


class _RhsTerm:
    """Regularized-horseshoe coefficients, non-centered, as four blocks.

    ``{prefix}_z`` holds the latents: standard normal, or for the
    negative-sign prior half-normal carried on the log scale.
    ``{prefix}_zeta`` (local scales), ``rhs_c2`` (slab) and ``rhs_eps``
    (global scale) are log-scale blocks.
    """

    def __init__(self, prefix: str, spec: RhsSpec):
        self.spec = spec
        self.size = spec.n_coef
        self.z_name = f"{prefix}_z"
        self.zeta_name = f"{prefix}_zeta"
        self.negative = spec.sign == "negative"

    def blocks(self) -> list[Block]:
        k = self.size
        z = (Block(self.z_name, k, "log", PriorSpec("halfnormal_pos",
                                                    (0.0, 1.0)))
             if self.negative else Block(self.z_name, k, prior=STD_NORMAL))
        return [z, Block(self.zeta_name, k, "log", RHS_ZETA_PRIOR),
                Block("rhs_c2", 1, "log", RHS_C2_PRIOR),
                Block("rhs_eps", 1, "log", self.spec.eps_prior_spec())]

    def place(self, layout: Layout) -> None:
        self.z_at = layout.sl(self.z_name)
        self.zeta_at = layout.sl(self.zeta_name)
        self.c2_at = layout.sl("rhs_c2").start
        self.eps_at = layout.sl("rhs_eps").start

    def weights(self, nat: np.ndarray):
        """Coefficients plus the backprop cache. Scales past ~1e154
        overflow their squares: NaN coefficients from a local one, finite
        zeros from a slab or global one, whose state is rejected first."""
        c2, eps = nat[self.c2_at], nat[self.eps_at]
        if not max(c2, eps) <= _MAX_ROOT:
            raise RejectedState
        beta, partials = rhs_coefficients(
            self.spec, nat[self.z_at], nat[self.zeta_at], c2, eps)
        if not np.isfinite(beta).all():
            raise RejectedState
        return beta, partials

    def backprop_weights(self, grad: np.ndarray, g_beta: np.ndarray,
                         partials: dict) -> None:
        grad[self.z_at] += g_beta * partials["z"]
        grad[self.zeta_at] += g_beta * partials["zeta"]
        grad[self.c2_at] += g_beta @ partials["c2"]
        grad[self.eps_at] += g_beta @ partials["eps"]


class _Coefficients:
    """Coefficients that are the block ``raw``, or with ``scale`` (a
    half-Cauchy block on the log scale) the hierarchical ``sigma * raw``.
    Their values are their weights."""

    def __init__(self, raw: Block, scale: str | None = None):
        self.raw = raw.name
        self.size = raw.size
        self.scale = scale
        self.own = [raw] + ([] if scale is None
                            else [Block(scale, 1, "log", HALF_CAUCHY)])

    def blocks(self) -> list[Block]:
        return self.own

    def place(self, layout: Layout) -> None:
        self.at = layout.sl(self.raw)
        self.scale_at = (None if self.scale is None
                         else layout.sl(self.scale).start)

    @property
    def rows(self) -> np.ndarray:
        return np.eye(self.size)

    def weights(self, nat: np.ndarray):
        raw = nat[self.at]
        if self.scale_at is None:
            return raw, None
        sigma = nat.item(self.scale_at)
        return sigma * raw, (raw, sigma)

    def backprop_weights(self, grad: np.ndarray, g_beta: np.ndarray,
                         cache) -> None:
        if cache is None:
            grad[self.at] = g_beta
            return
        raw, sigma = cache
        grad[self.at] = sigma * g_beta
        grad[self.scale_at] = raw @ g_beta

    values = weights
    backprop = backprop_weights


class _HsgpTerm:
    """One GP contribution: weights + kernel hyperparameters as blocks.

    Its source weights are sqrt(S) w, S being the kernel's spectral
    weights; ``values`` is the basis times them, at the basis points. The
    basis is built on standardized points, so that the lengthscale prior
    acts on a unit-scale axis. ``center_weights`` (a distribution over the
    basis rows) projects the constant component out of the realized
    function, removing the ridge against the global intercept.
    """

    def __init__(self, name: str, basis: HsgpBasis, config: HsgpConfig,
                 center_weights: np.ndarray | None):
        self.basis = (basis if center_weights is None
                      else basis.centered(center_weights))
        self.config = config
        hyper_names = (["sigma", "ell"] if basis.dim == 1
                       else ["sigma1", "ell1", "sigma2", "ell2"])
        self.block_names = [f"{name}_w"] + [f"{name}_{h}" for h in hyper_names]

    @property
    def size(self) -> int:
        return self.basis.n_points

    @property
    def rows(self) -> np.ndarray | None:
        """The 1D basis matrix; a 2D basis is only kept factored."""
        return self.basis.phi if self.basis.dim == 1 else None

    def blocks(self) -> list[Block]:
        hyper_priors = [self.config.magnitude_prior,
                        self.config.lengthscale_prior] * self.basis.dim
        out = [Block(self.block_names[0], self.basis.n_basis,
                     prior=STD_NORMAL)]
        out += [Block(nm, 1, "log", prior)
                for nm, prior in zip(self.block_names[1:], hyper_priors)]
        return out

    def place(self, layout: Layout) -> None:
        # the hyperparameter blocks follow one another
        self.w_at = layout.sl(self.block_names[0])
        self.hyper_at = slice(layout.sl(self.block_names[1]).start,
                              layout.sl(self.block_names[-1]).stop)

    def weights(self, nat: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The column weights sqrt(S) w plus a backprop cache, the
        hyperparameters read as Python floats. Past ~1e154 a lengthscale
        overflows ell^2 w^2 and the density would come out a finite zero,
        and past sigma ell ~ 1e308 the density overflows, so those states
        are rejected."""
        hyper = nat[self.hyper_at].tolist()
        if not max(hyper[1::2]) <= _MAX_ROOT:
            raise RejectedState
        s, partials = self.basis.spectral_weights_grad(self.config.kernel,
                                                       hyper)
        # S falls with the frequency, and column 0 takes the lowest ones,
        # so its weight is the largest
        if not math.isfinite(s.item(0)):
            raise RejectedState
        sqrt_s = np.sqrt(s)
        v = sqrt_s * nat[self.w_at]
        return v, (v, sqrt_s, partials)

    def backprop_weights(self, grad: np.ndarray, d_v: np.ndarray,
                         cache: tuple) -> None:
        """Write d(logp)/d(column weights) into weight and hyper
        gradients."""
        v, sqrt_s, partials = cache
        grad[self.w_at] = sqrt_s * d_v
        # d(logp)/d(log S) = S dv/dS d(logp)/dv = v d(logp)/dv / 2, which
        # stays finite, and 0, where S underflows to 0
        grad[self.hyper_at] = kernels.spectral_weights_vjp(
            self.basis, 0.5 * (d_v * v), partials)

    def values(self, nat: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Realized values at the basis points plus a backprop cache."""
        v, cache = self.weights(nat)
        f = self.basis.matvec(v)
        if not np.isfinite(f).all():
            raise RejectedState
        return f, cache

    def backprop(self, grad: np.ndarray, g_values: np.ndarray,
                 cache: tuple) -> None:
        """Push d(logp)/d(f at the basis points) into the gradient."""
        self.backprop_weights(grad, self.basis.rmatvec(g_values), cache)

    def values_at(self, nat: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Realized values at the basis points ``index``."""
        return self.values(nat)[0][index]


# ---------------------------------------------------------------------------
# Terms of the additive predictor. A term reads the per-row data ``columns``
# and ``bind`` gives them back at one row per predictor group, with the
# layout in which its blocks lie. A term linear in a ``source`` gives its
# columns on the groups, ``design()``, times the source's weights; the
# model stacks them into one group design. A term that is not (``design()``
# is None) gives ``values`` on the groups plus a backprop cache, and
# ``backprop`` pushes d(logp)/d(term) into its blocks. De-biased
# predictions drop the ``fatigue`` terms.
# ---------------------------------------------------------------------------

class _Linear:
    """x' beta for the indicator columns ``x`` with plain, hierarchical or
    horseshoe coefficients ``source``; the intercept is the linear term on
    a constant column."""

    def __init__(self, x: np.ndarray, source, fatigue: bool = False):
        self.source = source
        self.fatigue = fatigue
        self.columns = list(x.T)

    @classmethod
    def intercept(cls, spec: ModelSpec, n: int) -> _Linear:
        return cls(np.ones((n, 1)),
                   _Coefficients(Block("beta0", 1, prior=spec.beta0_prior)))

    def blocks(self) -> list[Block]:
        return self.source.blocks()

    def bind(self, g: np.ndarray, layout: Layout) -> None:
        self.g_x = g
        self.source.place(layout)

    def design(self) -> np.ndarray:
        return self.g_x


class _Gather:
    """The vector of a ``source`` read at each row's ``index`` into it; an
    index one past the source's end reads 0, for rows the source does not
    cover. A source with ``rows`` gives the design its rows at each index.
    ``values`` reads the source itself (a smooth inside ``_NegativeExp``,
    the 2D one of variant_c included), and ``backprop`` scatters the
    gradient back to it with one ``np.bincount``."""

    fatigue = False

    def __init__(self, source, index: np.ndarray):
        self.source = source
        self.columns = [index]

    @classmethod
    def on_axis(cls, name: str, grid: np.ndarray, index: np.ndarray,
                config: HsgpConfig) -> _Gather:
        """A 1D HSGP of ``config.m`` basis functions on the standardized
        points ``grid``, centered on the rows."""
        return cls(_HsgpTerm(name, kernels.build_hsgp_1d(grid, config.m),
                             config, np.bincount(index, minlength=grid.size)),
                   index)

    def blocks(self) -> list[Block]:
        return self.source.blocks()

    def _to_index(self, column: np.ndarray) -> np.ndarray:
        return column

    def bind(self, g: np.ndarray, layout: Layout) -> None:
        self.g_index = self._to_index(g[:, 0].astype(int))
        self.source.place(layout)

    def design(self) -> np.ndarray | None:
        rows = self.source.rows
        if rows is None:
            return None
        return np.vstack([rows, np.zeros(rows.shape[1])])[self.g_index]

    def values(self, nat: np.ndarray):
        v, cache = self.source.values(nat)
        return np.append(v, 0.0)[self.g_index], cache

    def backprop(self, grad: np.ndarray, d_eta: np.ndarray, cache) -> None:
        n = self.source.size
        self.source.backprop(grad, np.bincount(self.g_index, weights=d_eta,
                                               minlength=n + 1)[:n], cache)


class _RepeatTable(_Gather):
    """Fatigue as a table rho(1), ..., rho(size) read at each row's repeat
    count; repeats beyond the table take its last value, and r = 0 reads
    the zero slot. The group key holds the raw repeat counts."""

    fatigue = True

    @classmethod
    def free(cls, size: int, repeat: np.ndarray) -> _RepeatTable:
        """A table of ``size`` free standard-normal effects ``rho``."""
        return cls(_Coefficients(Block("rho", size, prior=STD_NORMAL)), repeat)

    def _to_index(self, repeat: np.ndarray) -> np.ndarray:
        n = self.source.size
        return np.where(repeat >= 1, np.minimum(repeat, n) - 1, n)

    def on_repeats(self, nat: np.ndarray, repeat: np.ndarray) -> np.ndarray:
        """The table read at each repeat count."""
        table = self.source.values(nat)[0]
        return np.append(table, 0.0)[self._to_index(repeat)]


class _HillTerm:
    """Hill fatigue curves at each row's repeat count, one per column of
    ``weights`` (n, Q), giving sum_q weights[:, q] rho_q(r): one fatigue
    covariate per curve, or a column of ones for one curve (Q = 1).

    The term is its own source: its weights are the Q curves at the
    distinct repeat counts, on the log repeats that ``bind`` computes, and
    its design is each group's weight times the one-hot of its count.
    ``spec`` gives the priors of its three blocks. A gradient reads the
    curves' (gamma, zeta, eta) as Python floats and each partial's sum
    over a curve's counts as a Python dot product.
    """

    fatigue = True

    def __init__(self, spec: FatigueSpec, repeat: np.ndarray,
                 weights: np.ndarray):
        self.q = weights.shape[1]
        self.spec = spec
        self.columns = [repeat, *weights.T]
        self.source = self

    def blocks(self) -> list[Block]:
        return [Block("hill_gamma", self.q, "log", self.spec.gamma_prior),
                Block("hill_zeta", self.q, prior=self.spec.zeta_prior),
                Block("hill_eta", self.q, "log", self.spec.eta_prior)]

    def bind(self, g: np.ndarray, layout: Layout) -> None:
        counts, self.g_index = np.unique(g[:, 0].astype(int),
                                         return_inverse=True)
        self.n_counts = counts.size
        self.g_logs = [x.tolist() for x in log_repeats(counts)]
        self.g_weights = g[:, 1:]
        # gamma, zeta and eta, Q each, follow one another
        start = layout.sl("hill_gamma").start
        self.at = slice(start, start + 3 * self.q)

    def design(self) -> np.ndarray:
        onehot = self.g_index[:, None] == np.arange(self.n_counts)
        return (self.g_weights[:, :, None] * onehot[:, None, :]).reshape(
            self.g_index.size, -1)

    def weights(self, nat: np.ndarray):
        """The curves at the distinct repeat counts, curve by curve, plus
        their partials in (gamma, zeta, eta)."""
        params, q = nat[self.at].tolist(), self.q
        values, partials = [], []
        for i in range(q):
            value, partial = hill_grad_log(params[i], params[q + i],
                                           params[2 * q + i], *self.g_logs)
            values += value
            partials.append(partial)
        return values, partials

    def backprop_weights(self, grad: np.ndarray, d_s: np.ndarray,
                         partials: list) -> None:
        # each partial of each curve, summed over the curve's counts;
        # gamma of every curve first, then zeta, then eta
        k, d = self.n_counts, d_s.tolist()
        sums = ([], [], [])
        for i, partial in enumerate(partials):
            d_i = d[i * k:(i + 1) * k]
            for out, p in zip(sums, partial):
                out.append(sum(map(operator.mul, p, d_i)))
        grad[self.at] = sums[0] + sums[1] + sums[2]

    def on_repeats(self, nat: np.ndarray, repeat: np.ndarray) -> np.ndarray:
        """The curve of a one-curve term (Q = 1) at each repeat count."""
        return hill(HillCurve(*nat[self.at].tolist()), repeat)


class _NegativeExp:
    """Fatigue -exp(s) at repeat counts r >= 1 and 0 at r = 0, strictly
    negative for repeat participants, where s sums the ``rho`` table at r
    and ``smooths``. Not linear in its sources, it stays out of the group
    design."""

    fatigue = True

    def __init__(self, rho: _RepeatTable, *smooths: _Gather):
        self.inner = [rho, *smooths]
        self.columns = [c for t in self.inner for c in t.columns]

    def blocks(self) -> list[Block]:
        return [b for t in self.inner for b in t.blocks()]

    def bind(self, g: np.ndarray, layout: Layout) -> None:
        _bind(self.inner, g, layout)
        rho = self.inner[0]
        self.g_repeater = rho.g_index < rho.source.size

    def design(self) -> None:
        return None

    def values(self, nat: np.ndarray):
        inner = [t.values(nat) for t in self.inner]
        term = np.where(self.g_repeater,
                        -np.exp(sum(v for v, _ in inner)), 0.0)
        return term, ([c for _, c in inner], term)

    def backprop(self, grad: np.ndarray, d_eta: np.ndarray, cache) -> None:
        caches, term = cache
        d_s = d_eta * term   # d(-exp(s))/ds = -exp(s), zero where r = 0
        for t, c in zip(self.inner, caches):
            t.backprop(grad, d_s, c)


class _BandSums:
    """The contact surfaces as one term on the cells: log K, K being the
    sum of exp(f_pair(a, b) + log P_b) over the contact ages b of the
    cell's band. So a cell's expected count, exp(its other terms + log N
    + log S) K, is the sum of its single-year means over those ages.

    K depends on a cell only through its slot, the (pair, participant age,
    band) it reports; a slot's points are the contact ages of its band.
    A point reads its pair's surface at (a, b), or for "MF" the "FM"
    surface at (b, a), and each surface is evaluated only on the sub-grid
    of the coordinates its points read. Each slot's sum is taken after
    subtracting its largest exponent, so exp cannot overflow where the
    single-year means did not. d log K / d f at a point is its share of
    K; one ``np.bincount`` puts the points' gradients onto the sub-grids.
    """

    fatigue = False

    def __init__(self, data: BrcData, config: HsgpConfig):
        of_pair = [_surface_of(label) for label in data.pairs]
        # each slot's (pair, age, band); return_index sorts faster here
        slots, _, cell_slot = np.unique(
            np.column_stack([data.cell_pair, data.cell_age, data.cell_band]),
            axis=0, return_index=True, return_inverse=True)
        # the points: the contact ages of each slot's band, slot by slot
        self.pt_slot, b = np.nonzero(data.bands.membership()[slots[:, 2]])
        self.starts = np.searchsorted(self.pt_slot, np.arange(len(slots)))
        pair, a = slots[self.pt_slot, :2].T
        self.log_pop = data.log_pop[pair, b]
        key = np.array([k for k, _ in of_pair])[pair]
        swap = np.array([s for _, s in of_pair], dtype=bool)[pair]
        x, y = np.where(swap, b, a), np.where(swap, a, b)
        # the rows that read a point: one per cell of its slot
        n_rows = np.bincount(cell_slot)[self.pt_slot]
        axis = AGE_GRID / AGE_SD
        self.surfaces: dict[str, _HsgpTerm] = {}
        self.grids = []
        self.pos = np.empty(b.size, dtype=int)
        start = 0
        # one surface per pair; mixed pairs share one, read transposed
        for k in dict.fromkeys(k for k, _ in of_pair):
            on = key == k
            if not on.any():
                raise DataError(f"no cell reads the {k!r} surface")
            basis = (kernels.build_hsgp_2d_symmetric(axis, config.m)
                     if len(k) != 2 or k[0] == k[1]
                     else kernels.build_hsgp_2d(axis, axis, config.m))
            gp = self.surfaces[k] = _HsgpTerm(
                f"f_{k}", basis, config,
                np.bincount(x[on] * _N_AGE + y[on], weights=n_rows[on],
                            minlength=_N_AGE**2))
            # the sub-grid of the coordinates its points read
            sub_x, sub_y = np.unique(x[on]), np.unique(y[on])
            self.pos[on] = start + (np.searchsorted(sub_x, x[on]) * sub_y.size
                                    + np.searchsorted(sub_y, y[on]))
            stop = start + sub_x.size * sub_y.size
            self.grids.append((_HsgpTerm(f"f_{k}", gp.basis.subgrid(
                sub_x, sub_y), config, None), slice(start, stop)))
            start = stop
        self.n_read = start
        self.columns = [cell_slot]

    def blocks(self) -> list[Block]:
        return [b for gp in self.surfaces.values() for b in gp.blocks()]

    def bind(self, g: np.ndarray, layout: Layout) -> None:
        self.g_slot = g[:, 0].astype(int)
        for gp in self.surfaces.values():
            gp.place(layout)
        for gp, _ in self.grids:
            gp.place(layout)

    def design(self) -> None:
        return None

    def values(self, nat: np.ndarray):
        f, caches = [], []
        for gp, _ in self.grids:
            v, cache = gp.values(nat)
            f.append(v)
            caches.append(cache)
        z = np.concatenate(f)[self.pos] + self.log_pop
        top = np.maximum.reduceat(z, self.starts)
        e = np.exp(z - top[self.pt_slot])
        total = np.add.reduceat(e, self.starts)
        return ((top + np.log(total))[self.g_slot],
                (caches, e / total[self.pt_slot]))

    def backprop(self, grad: np.ndarray, d_eta: np.ndarray, cache) -> None:
        caches, share = cache
        d_z = share * np.bincount(self.g_slot, weights=d_eta,
                                  minlength=self.starts.size)[self.pt_slot]
        d_f = np.bincount(self.pos, weights=d_z, minlength=self.n_read)
        for (gp, sl), c in zip(self.grids, caches):
            gp.backprop(grad, d_f[sl], c)


def _bind(terms: list, g: np.ndarray, layout: Layout) -> None:
    """Hand each term its own columns of ``g``, one row per group, and the
    layout."""
    start = 0
    for term in terms:
        term.bind(np.ascontiguousarray(g[:, start:start + len(term.columns)]),
                  layout)
        start += len(term.columns)


# ---------------------------------------------------------------------------
# Observation models. One is built from the data and the predictor group of
# each row. ``dispersion`` names its log-scale dispersion block, if it has
# one; given eta on the groups and the dispersion value, it gives the log
# likelihood with its gradients in eta and in the dispersion, and the
# per-observation log likelihoods and replicates.
# ---------------------------------------------------------------------------

class _PoissonGroups:
    """Poisson counts of the rows, run exactly on the predictor groups:
    group sizes and count sums plus a histogram of the counts."""

    dispersion = None

    def __init__(self, data, group_of: np.ndarray, n_groups: int):
        self.y = data.y
        self.group_of = group_of
        self.counts = GroupCounts(data.y, group_of, n_groups)

    def loglik(self, eta: np.ndarray) -> tuple[float, np.ndarray]:
        return poisson_group_loglik(self.counts, eta)

    def pointwise(self, eta: np.ndarray) -> np.ndarray:
        return poisson_loglik(self.y, eta[self.group_of])

    def replicate(self, rng: np.random.Generator, eta: np.ndarray
                  ) -> np.ndarray:
        return rng.poisson(np.exp(eta[self.group_of]))


class _Nb2Groups(_PoissonGroups):
    """NB2 counts with dispersion ``phi``, run on the predictor groups."""

    dispersion = "phi"

    def loglik(self, eta: np.ndarray, phi: float
               ) -> tuple[float, np.ndarray, float]:
        return nb2_group_loglik(self.counts, eta, phi)

    def pointwise(self, eta: np.ndarray, phi: float) -> np.ndarray:
        return nb2_loglik(self.y, eta[self.group_of], phi)

    def replicate(self, rng: np.random.Generator, eta: np.ndarray,
                  phi: float) -> np.ndarray:
        return nb2_rvs(rng, np.exp(eta[self.group_of]), phi)


class _Nb1Cells:
    """NB1 counts of coarse cells with odds ``nu``: a cell's shape is its
    expected count, exp(eta) of its predictor group, over nu. Pointwise
    log likelihoods and replicates are per cell."""

    dispersion = "nu"

    def __init__(self, data: BrcData, group_of: np.ndarray, n_groups: int):
        self.y = data.y
        self.log_fact = gammaln(data.y + 1.0)
        self.group_of = group_of
        self.n_groups = n_groups

    def _mu(self, eta: np.ndarray) -> np.ndarray:
        return np.exp(eta)[self.group_of]

    def loglik(self, eta: np.ndarray, nu: float
               ) -> tuple[float, np.ndarray, float]:
        mu = np.exp(eta)[self.group_of]
        ll, d_mu, d_nu = nb1_agg_loglik(self.y, self.log_fact, mu, nu)
        d_eta = np.bincount(self.group_of, weights=d_mu * mu,
                            minlength=self.n_groups)
        return float(ll.sum()), d_eta, d_nu

    def pointwise(self, eta: np.ndarray, nu: float) -> np.ndarray:
        return nb1_agg_loglik(self.y, self.log_fact, self._mu(eta), nu)[0]

    def replicate(self, rng: np.random.Generator, eta: np.ndarray,
                  nu: float) -> np.ndarray:
        return nb1_rvs(rng, self._mu(eta), nu)


class _AdditiveCountModel:
    """A log-linear count regression: eta = sum of ``terms`` + offsets.

    Rows that agree on every column the terms read and on their offset form
    one predictor group. The class's ``observation`` model runs on them;
    ``ModelSpec`` refuses a fatigue kind not in its ``fatigue_kinds``.
    Every prediction includes the offsets. The model is built only on
    finite columns and offsets; a row that is not raises ``DataError``.

    Every term linear in a source contributes its columns to one dense
    group design X (n_groups x p), built with the model, and its source
    fills its slice of one weight vector s: the intercept and the indicator
    blocks, the 1D GP smooths (the basis rows at each group's index, s
    being sqrt(S) w), the repeat tables (one-hot rows) and the Hill curves
    (weight times one-hot rows over the distinct repeat counts). The
    remaining terms, the BRC band sums and -exp fatigue, are evaluated on
    the groups one by one. So eta = X s + those terms + offsets, and the
    gradient of every source is one product, X^T d_eta.

    ``logp_grad`` exponentiates every log-scale element once into one
    natural-scale vector, from which every source and the prior pass read;
    each source reads its scalars from it as Python floats. The plain
    coefficient blocks (no scale, no fatigue) are their own weights: they
    go into s, and their gradient out of X^T d_eta, through one index
    pair. Each other source (``evaluated``) writes natural-scale partials
    into one gradient buffer through slices found when the model was
    built; the prior pass adds its terms and applies the log-scale chain
    rule, once.
    """

    def __init__(self, spec: ModelSpec, data, terms: list):
        if _FAMILY_CLASS[spec.family] is not type(self):
            raise ValueError(f"{type(self).__name__} cannot fit a "
                             f"{spec.family!r} spec")
        self.spec = spec
        self.data = data
        self.n_obs = data.y.shape[0]
        self.terms = terms
        blocks = [b for t in terms for b in t.blocks()]
        if self.observation.dispersion is not None:
            blocks.append(Block(self.observation.dispersion, 1, "log",
                                DISPERSION_PRIOR))
        self.layout = Layout(blocks)
        self.zeros = np.zeros(self.layout.size)
        self.prior = _PriorPass(self.layout)
        self.logs = self.prior.table.logs
        self.disp_at = (slice(0, 0) if self.observation.dispersion is None
                        else self.layout.sl(self.observation.dispersion))
        key = np.column_stack([c for t in terms for c in t.columns]
                              + [data.offsets])
        finite = np.isfinite(key).all(axis=1)
        if not finite.all():
            raise DataError("non-finite covariate or offset at row "
                            f"{int(np.argmin(finite))}")
        _, first, self.group_of = np.unique(
            key, axis=0, return_index=True, return_inverse=True)
        _bind(terms, key[first], self.layout)
        self.g_offsets = key[first, -1]
        self.n_groups = first.size
        self.obs = self.observation(data, self.group_of, self.n_groups)
        columns, self.sources, self.outside = [], [], []
        self.evaluated, plain_s, plain_theta = [], [], []
        start = 0
        for term in terms:
            x = term.design()
            if x is None:
                self.outside.append(term)
                continue
            at = slice(start, start + x.shape[1])
            self.sources.append((term.source, at, term.fatigue))
            if (isinstance(term.source, _Coefficients)
                    and term.source.scale is None and not term.fatigue):
                plain_s += range(at.start, at.stop)
                plain_theta += range(term.source.at.start,
                                     term.source.at.stop)
            else:
                self.evaluated.append(self.sources[-1])
            start = at.stop
            columns.append(x)
        self.design = np.column_stack(columns)
        self.plain_s = np.array(plain_s, dtype=int)
        self.plain_theta = np.array(plain_theta, dtype=int)

    def _natural(self, theta: np.ndarray) -> np.ndarray:
        """theta with every log-scale element exponentiated. Each must
        come out positive and finite, or the state is rejected."""
        v = np.exp(theta[self.logs])
        values = v.tolist()
        if not (0.0 < min(values, default=1.0)
                and max(values, default=1.0) < np.inf):
            raise RejectedState
        nat = theta.copy()
        nat[self.logs] = v
        return nat

    def _terms(self, nat: np.ndarray, debias: bool):
        """The sum of the terms on the groups, without offsets, plus the
        backprop caches of the evaluated sources and then of the terms
        outside the design. ``debias`` drops the fatigue terms: their
        sources are not evaluated and their weights stay zero."""
        s = np.zeros(self.design.shape[1])
        s[self.plain_s] = nat[self.plain_theta]
        caches = []
        for source, at, fatigue in self.evaluated:
            if not (debias and fatigue):
                s[at], cache = source.weights(nat)
                caches.append(cache)
        eta = self.design @ s
        for term in self.outside:
            if not (debias and term.fatigue):
                value, cache = term.values(nat)
                eta += value
                caches.append(cache)
        return eta, caches

    def _eta(self, nat: np.ndarray, debias: bool) -> np.ndarray:
        """eta on the groups, offsets included."""
        return self._terms(nat, debias)[0] + self.g_offsets

    @_guarded
    def logp_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        nat = self._natural(theta)
        eta, caches = self._terms(nat, False)
        eta += self.g_offsets
        logp, d_eta, *d_dispersion = self.obs.loglik(
            eta, *nat[self.disp_at].tolist())
        if not logp > -np.inf:
            raise RejectedState
        grad = np.zeros(self.layout.size)
        grad[self.disp_at] = d_dispersion
        d_s = d_eta @ self.design
        grad[self.plain_theta] = d_s[self.plain_s]
        for (source, at, _), cache in zip(self.evaluated, caches):
            source.backprop_weights(grad, d_s[at], cache)
        for term, cache in zip(self.outside, caches[len(self.evaluated):]):
            term.backprop(grad, d_eta, cache)
        logp += self.prior(theta, nat, grad)
        return logp, grad

    @_predicting
    def pointwise_loglik(self, theta: np.ndarray) -> np.ndarray:
        nat = self._natural(theta)
        return self.obs.pointwise(self._eta(nat, False),
                                  *nat[self.disp_at].tolist())

    @_predicting
    def replicate(self, theta, rng: np.random.Generator) -> np.ndarray:
        nat = self._natural(theta)
        try:
            return self.obs.replicate(rng, self._eta(nat, False),
                                      *nat[self.disp_at].tolist())
        except ValueError as exc:  # a mean NumPy's samplers cannot take
            raise RejectedState(str(exc)) from exc

    @_predicting
    def predict_log_intensity(self, theta, debias=False) -> np.ndarray:
        """Log intensity on the fitted observations (the rows, or the
        BRC model's cells), offsets included; ``debias`` drops the fatigue
        terms."""
        return self._eta(self._natural(theta), debias)[self.group_of]

    @_predicting
    def effects(self, theta) -> list[np.ndarray]:
        """The weights of each source in the group design at one draw, in
        term order: for the stage models the coefficients of each block."""
        nat = self._natural(theta)
        return [source.weights(nat)[0] for source, _, _ in self.sources]


# ---------------------------------------------------------------------------
# The four row-level families
# ---------------------------------------------------------------------------

class Stage1PoissonModel(_AdditiveCountModel):
    """log(lambda) = beta0 + u' alpha + v' beta, Poisson counts.

    The baseline block gets a hierarchical normal prior with a half-Cauchy
    scale; the tested block gets the regularized horseshoe, or plain
    standard normal priors when ``spec.rhs`` is None (the refit used to
    produce stage-2 offsets).
    """

    observation = _PoissonGroups
    fatigue_kinds = ("none",)

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        u, v = data.blocks["u"], data.blocks["v"]
        k = v.shape[1]
        if spec.rhs is not None and spec.rhs.n_coef != k:
            raise ValueError(f"rhs.n_coef must equal {k}")
        super().__init__(spec, data, [
            _Linear.intercept(spec, data.n),
            _Linear(u, _Coefficients(
                Block("alpha_raw", u.shape[1], prior=STD_NORMAL),
                "sigma_alpha")),
            _Linear(v, (_Coefficients(Block("beta", k, prior=STD_NORMAL))
                        if spec.rhs is None else _RhsTerm("beta", spec.rhs)))])


class Stage2PoissonModel(_AdditiveCountModel):
    """log(lambda) = offset_i + w' gamma with gamma <= 0 via half-RHS.

    ``data.offsets`` must hold the frozen stage-1 predictor beta0_hat +
    u' alpha_hat + v' beta_hat per row; the fatigue term w' gamma is what
    de-biasing drops.
    """

    observation = _PoissonGroups
    fatigue_kinds = ("none",)

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        if spec.rhs is None or spec.rhs.sign != "negative":
            raise ValueError("stage 2 requires a negative-sign RhsSpec")
        w = data.blocks["w"]
        if spec.rhs.n_coef != w.shape[1]:
            raise ValueError(f"rhs.n_coef must equal {w.shape[1]}")
        super().__init__(spec, data, [
            _Linear(w, _RhsTerm("gamma", spec.rhs), fatigue=True)])


class LongitudinalNbModel(_AdditiveCountModel):
    """log(lambda) = beta0 + x' beta + tau(t) + rho(r), NB2 counts.

    tau is a GP over the distinct report dates; rho is a free table over
    repeats (independent), one shared effect (identical), a GP table on
    standardized repeat counts (gp) or a Hill curve (hill).
    """

    observation = _Nb2Groups
    fatigue_kinds = ("none", "independent", "identical", "gp", "hill")

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        times, time_idx = np.unique(data.report_date, return_inverse=True)
        if times.size < 2:
            raise DataError("longitudinal model needs >= 2 report dates")
        repeat = data.repeat.astype(int)
        fk, r_max = spec.fatigue.kind, spec.fatigue.max_repeat
        if fk in ("independent", "identical"):
            fatigue = [_RepeatTable.free(r_max if fk == "independent" else 1,
                                         repeat)]
        elif fk == "gp":
            grid = ((np.arange(1, r_max + 1) - repeat.mean())
                    / max(repeat.std(), 1e-8))
            fatigue = [_RepeatTable(_HsgpTerm(
                "rho_gp", kernels.build_hsgp_1d(grid, REPEAT_GP.m),
                REPEAT_GP, None), repeat)]
        elif fk == "hill":
            fatigue = [_HillTerm(spec.fatigue, repeat, np.ones((data.n, 1)))]
        else:                   # "none"
            fatigue = []
        x = data.x
        super().__init__(spec, data, [
            _Linear.intercept(spec, data.n),
            _Linear(x, _Coefficients(
                Block("beta_raw", x.shape[1], prior=STD_NORMAL),
                "sigma_beta")),
            _Gather.on_axis("tau", times / max(times.std(), 1e-8), time_idx,
                            TIME_GP),
            *fatigue])

    @_predicting
    def fatigue_curve(self, theta, r_grid: np.ndarray) -> np.ndarray:
        """rho(r) on a grid of repeat counts for one draw."""
        repeat = np.asarray(r_grid, dtype=int)
        nat = self._natural(theta)
        return sum((t.on_repeats(nat, repeat)
                    for t in self.terms if t.fatigue), np.zeros(repeat.size))


class IndividualGamModel(_AdditiveCountModel):
    """log(lambda) = beta0 + u' beta + f(age) + w' rho(r), NB2 counts."""

    observation = _Nb2Groups
    fatigue_kinds = ("none", "hill_per_covariate")

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        u, w = data.blocks["u"], data.blocks["w"]
        age = _Gather.on_axis("age", AGE_GRID / AGE_SD, data.age.astype(int),
                              spec.hsgp_age)
        self.f_age = age.source
        beta = Block("beta", u.shape[1], prior=spec.beta_prior)
        terms = [_Linear.intercept(spec, data.n),
                 _Linear(u, _Coefficients(beta)), age]
        if spec.fatigue.kind == "hill_per_covariate":
            if w.shape[1] == 0:
                raise ValueError("hill_per_covariate requires a w block")
            terms.append(_HillTerm(spec.fatigue, data.repeat.astype(int), w))
        super().__init__(spec, data, terms)

    @_predicting
    def age_curve(self, theta, ages: np.ndarray) -> np.ndarray:
        """log intensity at reference covariates (u = w = 0), at whole-year
        ages in 0-84: the age GP read on its grid, AGE_GRID."""
        f = self.f_age.values_at(self._natural(theta), *_whole_years(ages))
        return self.layout.raw(theta, "beta0")[0] + f


# ---------------------------------------------------------------------------
# Aggregated rate-consistency model on coarse contact bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrcData:
    """Coarse-band cells, their band table and the contacts' populations.

    Cells index observations Y over (wave, repeat, participant age, gender
    pair, contact band). A cell's expected count is the sum of single-year
    means over the contact ages b of its band, which ``bands`` gives. The
    model takes that sum once per (pair, participant age, band) as a band
    sum (``_BandSums``), reading log P_b from ``log_pop``, and otherwise
    runs on the cells, with the offsets log N + log S.
    """

    y: np.ndarray                 # (n_cells,)
    cell_wave: np.ndarray         # (n_cells,) 0-based wave index
    cell_repeat: np.ndarray       # (n_cells,)
    cell_age: np.ndarray          # (n_cells,) participant age
    cell_pair: np.ndarray         # (n_cells,) index into pair labels
    cell_band: np.ndarray         # (n_cells,) index into bands
    log_offset_cell: np.ndarray   # (n_cells,) log N + log S
    log_pop: np.ndarray           # (n_pairs, 85) log P_b, contact gender
    waves: tuple[int, ...]
    pairs: tuple[str, ...]
    bands: CoarseBandSet
    max_repeat: int

    @property
    def n_cells(self) -> int:
        return self.y.shape[0]

    @property
    def offsets(self) -> np.ndarray:
        """log N + log S on each cell."""
        return self.log_offset_cell

    @property
    def log_pop_row(self) -> np.ndarray:
        """log P_b of each single-year row: the contact ages b of each
        cell's band, cell by cell."""
        cell, b = np.nonzero(self.bands.membership()[self.cell_band])
        return self.log_pop[self.cell_pair[cell], b]


def make_brc_data(*, y, wave, repeat, age, band, n_participants, s_prop,
                  population: PopulationTable, bands: CoarseBandSet,
                  pair=None, pairs: tuple[str, ...] = ("all",)) -> BrcData:
    """Assemble BRC cells from per-cell arrays.

    ``pair`` holds per-cell pair labels (defaults to a single shared
    surface); each pair label takes the population counts of its contact
    gender. A count or repeat that is not a whole number >= 0, a
    wave that is not a whole number >= 1, a participant age that is not a
    whole year in 0-84, a band that is not an index into ``bands``, a
    participant count that is not > 0, a reporting share S outside (0, 1]
    or a pair label not in ``pairs`` raises ``DataError`` naming the
    cell.
    """
    y, wave, repeat, age, band, n_part, s_prop = (
        np.asarray(x, dtype=float)
        for x in (y, wave, repeat, age, band, n_participants, s_prop))
    for what, x, start, stop in (
            ("count", y, 0, np.inf), ("wave", wave, 1, np.inf),
            ("repeat", repeat, 0, np.inf),
            ("participant age", age, 0, _N_AGE),
            ("band", band, 0, len(bands))):
        bad = _not_whole(x - start, stop - start)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"cell {i}: {what} {x[i]:g} is not a whole "
                            f"number in [{start}, {stop})")
    for what, x, bad, bounds in (
            ("participant count", n_part, ~(n_part > 0), "> 0"),
            ("S", s_prop, ~((s_prop > 0) & (s_prop <= 1)), "in (0, 1]")):
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"cell {i}: {what} {x[i]:g} is not {bounds}")
    n_cells = y.shape[0]
    waves = tuple(sorted(np.unique(wave.astype(int))))
    wave_idx = np.searchsorted(np.asarray(waves), wave)
    if pair is None:
        pair_arr = np.zeros(n_cells, dtype=int)
    else:
        for i, p in enumerate(pair):
            if p not in pairs:
                raise DataError(f"cell {i}: pair {p!r} is not one of "
                                f"{pairs}")
        pair_arr = np.asarray([pairs.index(p) for p in pair])
    return BrcData(
        y=y, cell_wave=wave_idx, cell_repeat=repeat.astype(int),
        cell_age=age.astype(int), cell_pair=pair_arr,
        cell_band=band.astype(int),
        log_offset_cell=np.log(n_part) + np.log(s_prop),
        log_pop=np.log([population.get(_contact_gender(p)) for p in pairs]),
        waves=waves, pairs=pairs, bands=bands,
        max_repeat=int(np.max(repeat)))


def _surface_of(pair: str) -> tuple[str, bool]:
    """The surface key of a gender pair and whether the pair reads it with
    its ages swapped: "MF" reads the "FM" surface transposed."""
    key = "".join(sorted(pair)) if len(pair) == 2 else pair
    return key, key != pair


def _contact_gender(pair: str) -> str:
    """The gender of a pair's contacts: the second letter of "MF", or a
    one-surface label ("all") itself."""
    return pair[1] if len(pair) == 2 else pair


class AggregatedBrcModel(_AdditiveCountModel):
    """Coarse-band NB1 counts over a latent rate-consistent surface.

    On the single-year rows of a cell, log mu = beta0 + tau_t
    + f_pair(a, b) + fatigue(r, a, c) + log P_b + log N + log S, and the
    cell's NB1 shape is its rows' sum of mu over nu. All but the surface
    and log P_b are constant within a cell, so the model runs on the
    cells: eta = beta0 + tau_t + fatigue + log N + log S + log K, where
    ``_BandSums`` gives K = sum_{b in band} exp(f_pair(a, b) + log P_b).
    Same-gender (and single-surface) pairs use the symmetrized 2D basis;
    "MF" cells read the "FM" surface with swapped coordinates, which makes
    the cross-gender flow identity hold exactly. Each surface is a
    function on the 85 x 85 age grid, both axes AGE_GRID / AGE_SD,
    centered on the rows, and is evaluated in a gradient only on the
    sub-grid its cells read.
    """

    observation = _Nb1Cells
    fatigue_kinds = ("none", "independent", "variant_a", "variant_b",
                     "variant_c")

    def __init__(self, spec: ModelSpec, data: BrcData):
        fk = spec.fatigue.kind
        band_sums = _BandSums(data, spec.hsgp_surface)
        self.surfaces = band_sums.surfaces
        later_wave = (data.cell_wave[:, None]
                      == np.arange(1, len(data.waves))).astype(float)
        terms = [_Linear.intercept(spec, data.n_cells),
                 _Linear(later_wave, _Coefficients(
                     Block("tau", len(data.waves) - 1, prior=STD_NORMAL))),
                 band_sums]
        if fk != "none":
            rho = _RepeatTable.free(spec.fatigue.max_repeat, data.cell_repeat)
            terms.append(rho if fk == "independent" else
                         _NegativeExp(rho, *_variant_smooths(fk, data)))
        super().__init__(spec, data, terms)

    @_predicting
    def predict_log_m(self, theta, pair: str, wave: int, a: np.ndarray,
                      b: np.ndarray, population: PopulationTable
                      ) -> np.ndarray:
        """log contact intensity log m(a, b) for one gender pair and wave,
        at whole-year ages a, b in 0-84: the fitted surface on the age
        grid, read at a 85 + b."""
        key, swap = _surface_of(pair)
        if key not in self.surfaces:
            raise ValueError(f"no surface for pair {pair!r}")
        a, b = _whole_years(a, b)
        index = b * _N_AGE + a if swap else a * _N_AGE + b
        f = self.surfaces[key].values_at(self._natural(theta), index)
        t_idx = self.data.waves.index(wave)
        tau = self.layout.raw(theta, "tau")[t_idx - 1] if t_idx else 0.0
        pop = population.get(_contact_gender(pair))
        return (self.layout.raw(theta, "beta0")[0] + tau + f
                + np.log(pop[b]))


def _variant_smooths(kind: str, data: BrcData) -> list[_Gather]:
    """The smooths on the log fatigue scale of a BRC variant, each centered
    on the cells: age (variant_a), age and contact band (variant_b), or a
    2D age x band-midpoint surface (variant_c)."""
    vcfg = VARIANT_GP
    mids = np.asarray(data.bands.midpoints, dtype=float)
    ages, age_idx = np.unique(data.cell_age, return_inverse=True)
    if kind == "variant_c":
        # on the grid of the cells' ages x the band midpoints present
        mid, mid_idx = np.unique(mids[data.cell_band], return_inverse=True)
        index = age_idx * mid.size + mid_idx
        basis = kernels.build_hsgp_2d(ages / AGE_SD, mid / AGE_SD,
                                      min(vcfg.m, 12))
        return [_Gather(_HsgpTerm(
            "fac", basis, vcfg,
            np.bincount(index, minlength=ages.size * mid.size)), index)]
    smooths = [_Gather.on_axis(
        "fa", ages / AGE_SD, age_idx,
        replace(vcfg, m=min(vcfg.m, max(4, ages.size))))]
    if kind == "variant_b":
        smooths.append(_Gather.on_axis(
            "fc", mids / AGE_SD, data.cell_band,
            replace(vcfg, m=min(vcfg.m, mids.size))))
    return smooths


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: the base of every model class
Model = _AdditiveCountModel


#: the model class of each family; each class names its observation model
#: and the fatigue kinds it fits
_FAMILY_CLASS = {"stage1_poisson": Stage1PoissonModel,
                 "stage2_poisson": Stage2PoissonModel,
                 "longitudinal_nb": LongitudinalNbModel,
                 "individual_gam": IndividualGamModel,
                 "aggregated_brc": AggregatedBrcModel}


def build_model(spec: ModelSpec, data) -> Model:
    return _FAMILY_CLASS[spec.family](spec, data)
