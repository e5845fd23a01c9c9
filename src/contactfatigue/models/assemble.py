"""Log-posterior and gradient assemblers for the model families.

Every family exposes one protocol: a named-block parameter layout,
``logp_grad`` returning the joint log posterior with its exact analytic
gradient on the unconstrained scale, per-observation log likelihoods for
cross-validation, posterior replicates for predictive checks, and intensity
prediction on the fitted rows with an optional fatigue de-biasing switch.

Every family is one log-linear count regression, assembled from terms by
``_AdditiveCountModel``:

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
* ``aggregated_brc``  -- on single-year contact ages: intercept, wave
  effect, a 2D age surface per gender pair (symmetrized within a gender,
  read transposed by "MF", so that population flows balance exactly;
  evaluated through per-axis sine factors on the age grid, never as a
  dense points x columns basis), a fatigue term (independent, or -exp of
  a repeat table plus smooths) and log population, participant and detail
  offsets; NB1 counts of coarse contact bands, each summing its
  single-year rows through rate consistency.

A term declares its parameter blocks and the data columns it reads; rows
that agree on all of them and on their offset form one predictor group.
One observation model per family runs on the groups: Poisson and NB2 on
group sizes and count sums plus a count histogram, so their cost scales
with distinct predictor cells, not rows; NB1 sums the groups' means over
the rows of each coarse cell. De-biased predictions drop the fatigue terms.

Every parameter block declares its natural-scale prior (``Block.prior``).
When a model is built its layout's priors are grouped into one table, and
each ``logp_grad`` ends with a single pass over that table, which adds the
log-scale Jacobians too; the model code itself holds likelihood and
backprop only.

Whatever ``logp_grad`` needs that does not depend on the parameters is
computed once: each prior group's density terms (``PriorSpec.terms``, on
the group's first evaluation) and, when the model is built, the
observation model's count terms (``GroupCounts``) and the Hill terms' log
repeat counts (``log_repeats``). The gradient path
applies the same floating-point operations in the same order as when it
computed them itself, so its values are unchanged to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import kernels
from ..domain import AGE_GRID, CoarseBandSet, DesignMatrix, PopulationTable
from ..kernels import HsgpBasis, KernelSpec
from ..priors import (RHS_C2_PRIOR, RHS_ZETA_PRIOR, PriorSpec, RhsSpec,
                      log_prior, rhs_coefficients)
from .fatigue import (FatigueSpec, HillCurve, HillPriors, hill_grad_log,
                      log_repeats, no_fatigue)
from .likelihoods import (GroupCounts, nb1_agg_loglik, nb1_rvs,
                          nb2_group_loglik, nb2_loglik, nb2_rvs,
                          poisson_group_loglik, poisson_loglik)
from .params import Block, GradAccumulator, Layout


class RejectedState(ValueError):
    """The parameter vector lies where the model is not finite: a log-scale
    parameter, or a kernel term of one, under- or overflows.

    ``logp_grad`` gives such a state -inf mass. The prediction methods
    (``predict_log_intensity``, ``pointwise_loglik``, ``replicate``,
    ``age_curve``, ``fatigue_curve``, ``predict_log_m``) raise this error.
    """


#: the largest u with a finite exp(u)
_MAX_LOG = float(np.log(np.finfo(float).max))


def _exp(raw: np.ndarray) -> np.ndarray:
    """exp of log-scale parameters, which must come out positive and
    finite, or the state is rejected. Overflow is caught before np.exp,
    which would warn of it."""
    if max(raw.tolist()) > _MAX_LOG:
        raise RejectedState
    value = np.exp(raw)
    for v in value.tolist():
        if not (0.0 < v < np.inf):
            raise RejectedState
    return value


def _guarded(fn):
    """Make ``logp_grad`` total: a rejected state, a Python-float overflow
    in the kernels, or a non-finite result gives -inf and a zero gradient."""
    def wrapper(self, theta):
        try:
            logp, grad = fn(self, theta)
        except (RejectedState, OverflowError):
            logp = -np.inf
        if np.isfinite(logp) and np.isfinite(grad).all():
            return logp, grad
        return -np.inf, np.zeros(self.layout.size)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _no_overflow(fn, *args):
    """``fn(*args)``, rejecting the state on an OverflowError: the kernels
    and the horseshoe compute in Python floats, which raise it where NumPy
    would return inf."""
    try:
        return fn(*args)
    except OverflowError as exc:
        raise RejectedState(str(exc)) from exc


def _check_finite_predictor(eta: np.ndarray, group_of: np.ndarray) -> None:
    # NaN signals broken data; +-inf from parameter overflow is handled by
    # the likelihoods (-inf). ``group_of`` maps rows to the groups of eta.
    if np.isnan(eta).any():
        bad = int(np.flatnonzero(np.isnan(eta[group_of]))[0])
        raise FloatingPointError(f"non-finite linear predictor at row {bad}")

#: the standard deviation of the single-year age grid, used to standardize
#: GP input axes so lengthscale priors act on a unit-scale axis
AGE_SD = float(AGE_GRID.std())

@dataclass(frozen=True)
class HsgpConfig:
    """Kernel family, basis size, and hyperpriors for one GP term."""

    kernel: str = "se"
    m: int = 30
    c: float = 1.5
    magnitude_prior: PriorSpec = PriorSpec("invgamma", (5.0, 1.0))
    lengthscale_prior: PriorSpec = PriorSpec("invgamma", (5.0, 1.0))


def brc_surface_config(m: int = 40) -> HsgpConfig:
    return HsgpConfig(kernel="matern52", m=m,
                      magnitude_prior=PriorSpec("cauchy_pos", (1.0,)),
                      lengthscale_prior=PriorSpec("invgamma", (5.0, 5.0)))


#: the Matern-3/2 calendar-time GP of the longitudinal model
TIME_GP = HsgpConfig(kernel="matern32")
#: the GP on standardized repeat counts (longitudinal fatigue kind "gp")
REPEAT_GP = HsgpConfig(kernel="se", m=10)
#: the smooths on the log fatigue scale of the BRC variants
VARIANT_GP = replace(brc_surface_config(20), kernel="se")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a fit."""

    family: str
    fatigue: FatigueSpec = field(default_factory=no_fatigue)
    rhs: RhsSpec | None = None
    beta0_scale: float = 10.0
    beta_loc: tuple[float, ...] | float = 0.0
    beta_scale: tuple[float, ...] | float = 1.0
    hsgp_age: HsgpConfig = field(default_factory=HsgpConfig)
    hsgp_surface: HsgpConfig = field(default_factory=brc_surface_config)

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_CLASS:
            raise ValueError(f"unknown model family {self.family!r}")


# ---------------------------------------------------------------------------
# Shared assembly helpers
# ---------------------------------------------------------------------------

STD_NORMAL = PriorSpec("normal", (0.0, 1.0))
HALF_CAUCHY = PriorSpec("cauchy_pos", (1.0,))
#: 1/value ~ Exponential(1) for the NB dispersions; in u = log(value) the
#: density with its Jacobian is exp(-u - e^-u)
DISPERSION_PRIOR = PriorSpec("invgamma", (1.0, 1.0))


def _intercept(spec: ModelSpec) -> Block:
    return Block("beta0", 1,
                 prior=PriorSpec("normal", (0.0, spec.beta0_scale)))


class _PriorPass:
    """Every block prior of a layout, evaluated in one pass.

    Blocks are grouped by (prior family, transform); a group holds the flat
    indices of its elements and its prior with the parameters broadcast to
    them, so one ``log_prior`` call covers the group. The group's spec
    keeps its value-independent terms (``PriorSpec.terms``: logs of its
    scales, Gamma normalizers, truncation masses), so each group computes
    them once.
    Log-scale elements take the prior at value = exp(raw) plus the
    change-of-variables Jacobian: ``raw`` in the log density, ``g * value +
    1`` in the gradient with respect to raw.
    """

    def __init__(self, layout: Layout):
        members: dict[tuple[str, str], list[Block]] = {}
        for b in layout.blocks:
            if b.prior is None:
                raise ValueError(f"block {b.name!r} declares no prior")
            members.setdefault((b.prior.family, b.transform), []).append(b)
        flat = np.arange(layout.size)
        self.groups = []
        for (family, transform), blocks in members.items():
            idx = np.concatenate([flat[layout.sl(b.name)] for b in blocks])
            params = tuple(
                np.concatenate([np.broadcast_to(np.asarray(p, dtype=float),
                                                b.size)
                                for p, b in zip(column, blocks)])
                for column in zip(*(b.prior.params for b in blocks)))
            self.groups.append((idx, PriorSpec(family, params),
                                transform == "log"))

    def __call__(self, theta: np.ndarray, grad: np.ndarray) -> float:
        """Add the priors' gradients into ``grad``; return their log
        density. Non-finite results are left to ``_guarded``."""
        logp = 0.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for idx, prior, on_log_scale in self.groups:
                raw = theta[idx]
                value = np.exp(raw) if on_log_scale else raw
                lp, g = log_prior(prior, value)
                if on_log_scale:
                    lp = lp + raw
                    g = g * value + 1.0
                grad[idx] += g
                logp += float(lp.sum())
        return logp


class _RhsTerm:
    """Regularized-horseshoe coefficients, non-centered, as four blocks.

    ``{prefix}_z`` holds the latents: standard normal, or for the
    negative-sign prior half-normal carried on the log scale.
    ``{prefix}_zeta`` (local scales), ``rhs_c2`` (slab) and ``rhs_eps``
    (global scale) are log-scale blocks.
    """

    def __init__(self, prefix: str, spec: RhsSpec):
        self.spec = spec
        self.z_name = f"{prefix}_z"
        self.zeta_name = f"{prefix}_zeta"
        self.negative = spec.sign == "negative"

    def blocks(self) -> list[Block]:
        k = self.spec.n_coef
        z = (Block(self.z_name, k, "log", PriorSpec("halfnormal_pos",
                                                    (0.0, 1.0)))
             if self.negative else Block(self.z_name, k, prior=STD_NORMAL))
        return [z, Block(self.zeta_name, k, "log", RHS_ZETA_PRIOR),
                Block("rhs_c2", 1, "log", RHS_C2_PRIOR),
                Block("rhs_eps", 1, "log", self.spec.eps_prior_spec())]

    def coefficients(self, layout: Layout, theta: np.ndarray):
        """Coefficients plus the backprop cache."""
        z = layout.raw(theta, self.z_name)
        if self.negative:
            z = _exp(z)
        zeta = _exp(layout.raw(theta, self.zeta_name))
        c2 = float(_exp(layout.raw(theta, "rhs_c2"))[0])
        eps = float(_exp(layout.raw(theta, "rhs_eps"))[0])
        # scales past ~1e154 overflow their squares: NaN coefficients, or
        # an OverflowError from the Python-float eps and c2
        with np.errstate(over="ignore", invalid="ignore"):
            beta, partials = _no_overflow(rhs_coefficients, self.spec, z,
                                          zeta, c2, eps)
        if not np.isfinite(beta).all():
            raise RejectedState
        return beta, (z, zeta, c2, eps, partials)

    def backprop(self, acc: GradAccumulator, g_beta: np.ndarray,
                 cache) -> None:
        """Push d(logp)/d(coefficients) into the blocks, on the log scale
        where a block is."""
        z, zeta, c2, eps, partials = cache
        d_z = g_beta * partials["z"]
        acc.add(self.z_name, d_z * z if self.negative else d_z)
        acc.add(self.zeta_name, g_beta * partials["zeta"] * zeta)
        acc.add("rhs_c2", float(g_beta @ partials["c2"]) * c2)
        acc.add("rhs_eps", float(g_beta @ partials["eps"]) * eps)


class _Coefficients:
    """Coefficients that are the block ``raw``, or with ``scale`` (a
    half-Cauchy block on the log scale) the hierarchical ``sigma * raw``."""

    def __init__(self, raw: Block, scale: str | None = None):
        self.raw = raw.name
        self.scale = scale
        self.own = [raw] + ([] if scale is None
                            else [Block(scale, 1, "log", HALF_CAUCHY)])

    def blocks(self) -> list[Block]:
        return self.own

    def coefficients(self, layout: Layout, theta: np.ndarray):
        raw = layout.raw(theta, self.raw)
        if self.scale is None:
            return raw, None
        sigma = float(_exp(layout.raw(theta, self.scale))[0])
        return sigma * raw, (raw, sigma)

    def backprop(self, acc: GradAccumulator, g_beta: np.ndarray,
                 cache) -> None:
        if cache is None:
            acc.add(self.raw, g_beta)
            return
        raw, sigma = cache
        acc.add(self.raw, sigma * g_beta)
        acc.add(self.scale, float(raw @ g_beta) * sigma)


class _HsgpTerm:
    """One GP contribution: weights + kernel hyperparameters as blocks.

    ``input_sd`` rescales raw coordinates before basis evaluation, so the
    lengthscale prior acts on a standardized axis. ``center_weights`` (a
    distribution over the basis rows) projects the constant component out of
    the realized function, removing the ridge against the global intercept.
    """

    def __init__(self, name: str, basis: HsgpBasis, config: HsgpConfig,
                 input_sd: float = 1.0,
                 center_weights: np.ndarray | None = None):
        self.basis = (basis if center_weights is None
                      else basis.centered(center_weights))
        self.config = config
        self.input_sd = float(input_sd)
        hyper_names = (["sigma", "ell"] if basis.dim == 1
                       else ["sigma1", "ell1", "sigma2", "ell2"])
        self.block_names = [f"{name}_w"] + [f"{name}_{h}" for h in hyper_names]

    @classmethod
    def on_axis(cls, name: str, inputs: np.ndarray, config: HsgpConfig,
                m: int, input_sd: float = 1.0,
                center_weights: np.ndarray | None = None) -> _HsgpTerm:
        """A 1D term on the basis of ``inputs / input_sd``."""
        basis = kernels.build_hsgp_1d(inputs / input_sd, m, config.c)
        return cls(name, basis, config, input_sd, center_weights)

    def blocks(self) -> list[Block]:
        hyper_priors = [self.config.magnitude_prior,
                        self.config.lengthscale_prior] * self.basis.dim
        out = [Block(self.block_names[0], self.basis.n_basis,
                     prior=STD_NORMAL)]
        out += [Block(nm, 1, "log", prior)
                for nm, prior in zip(self.block_names[1:], hyper_priors)]
        return out

    def _specs(self, layout: Layout, theta: np.ndarray):
        """Kernel spec (one per axis in 2D) and the positive hypers."""
        raw = [layout.raw(theta, nm) for nm in self.block_names[1:]]
        hypers = _exp(np.concatenate(raw)).tolist()
        specs = tuple(KernelSpec(self.config.kernel, hypers[i], hypers[i + 1])
                      for i in range(0, len(hypers), 2))
        return (specs[0] if self.basis.dim == 1 else specs), hypers

    def values(self, layout: Layout, theta: np.ndarray
               ) -> tuple[np.ndarray, dict]:
        """Realized values at the basis inputs plus a backprop cache."""
        specs, hypers = self._specs(layout, theta)
        w = layout.raw(theta, self.block_names[0])
        with np.errstate(over="ignore", invalid="ignore"):
            s, ds = _no_overflow(self.basis.spectral_weights_grad, specs)
            sqrt_s = np.sqrt(s)
            f = self.basis.matvec(sqrt_s * w)
        if not (np.isfinite(s).all() and np.isfinite(f).all()):
            raise RejectedState
        return f, {"w": w, "sqrt_s": sqrt_s, "ds": ds, "hypers": hypers}

    def backprop(self, acc: GradAccumulator, g_inputs: np.ndarray,
                 cache: dict) -> None:
        """Push d(logp)/d(f at inputs) into weight and hyper gradients."""
        phi_t_g = self.basis.rmatvec(g_inputs)
        acc.add(self.block_names[0], cache["sqrt_s"] * phi_t_g)
        # d sqrt(S)/dtheta = dS/dtheta / (2 sqrt(S)); zero where S underflows
        safe = np.where(cache["sqrt_s"] > 0.0, cache["sqrt_s"], 1.0)
        inv2 = np.where(cache["sqrt_s"] > 0.0, 0.5 / safe, 0.0)
        for i, nm in enumerate(self.block_names[1:]):
            d_sqrt = cache["ds"][i] * inv2
            nat = float(phi_t_g @ (d_sqrt * cache["w"]))
            acc.add(nm, nat * cache["hypers"][i])

    def values_at(self, layout: Layout, theta: np.ndarray, a, b=None
                  ) -> np.ndarray:
        """Realized values at new raw coordinates (both, pairwise, in 2D)."""
        specs, _ = self._specs(layout, theta)
        w = layout.raw(theta, self.block_names[0])
        s = _no_overflow(self.basis.spectral_weights, specs)
        a = np.asarray(a, dtype=float) / self.input_sd
        b = None if b is None else np.asarray(b, dtype=float) / self.input_sd
        return kernels.on_points(self.basis, a, b).matvec(np.sqrt(s) * w)


# ---------------------------------------------------------------------------
# Terms of the additive predictor. A term reads the per-row data ``columns``
# and gets them back at one row per predictor group through ``bind``; then
# ``values`` gives it on the groups plus a backprop cache, and ``backprop``
# pushes d(logp)/d(term) into its blocks. De-biased predictions drop the
# ``fatigue`` terms.
# ---------------------------------------------------------------------------

class _Linear:
    """x' beta for the indicator columns ``x`` with plain, hierarchical or
    horseshoe coefficients ``coef``; the intercept is the linear term on a
    constant column."""

    def __init__(self, x: np.ndarray, coef, fatigue: bool = False):
        self.coef = coef
        self.fatigue = fatigue
        self.columns = list(x.T)

    @classmethod
    def intercept(cls, spec: ModelSpec, n: int) -> _Linear:
        return cls(np.ones((n, 1)), _Coefficients(_intercept(spec)))

    def blocks(self) -> list[Block]:
        return self.coef.blocks()

    def bind(self, g: np.ndarray) -> None:
        self.g_x = g

    def values(self, layout: Layout, theta: np.ndarray):
        beta, cache = self.coef.coefficients(layout, theta)
        # ndarray.dot: matmul takes a slow path for a single column
        return self.g_x.dot(beta), cache

    def backprop(self, acc: GradAccumulator, d_eta: np.ndarray,
                 cache) -> None:
        self.coef.backprop(acc, self.g_x.T.dot(d_eta), cache)


class _Smooth:
    """The HSGP term ``gp`` on the points of its basis, read at each row's
    ``index`` into them; an index one past the last point reads 0, for rows
    the smooth does not cover."""

    fatigue = False

    def __init__(self, gp: _HsgpTerm, index: np.ndarray):
        self.gp = gp
        self.columns = [index]
        self.padded = bool(np.any(index >= gp.basis.n_points))

    @classmethod
    def on_axis(cls, name: str, grid: np.ndarray, index: np.ndarray,
                config: HsgpConfig, input_sd: float) -> _Smooth:
        """A 1D smooth on the points ``grid``, centered on the rows."""
        return cls(_HsgpTerm.on_axis(name, grid, config, config.m, input_sd,
                                     np.bincount(index, minlength=grid.size)),
                   index)

    def blocks(self) -> list[Block]:
        return self.gp.blocks()

    def bind(self, g: np.ndarray) -> None:
        self.g_index = g[:, 0].astype(int)

    def values(self, layout: Layout, theta: np.ndarray):
        f, cache = self.gp.values(layout, theta)
        if self.padded:
            f = np.append(f, 0.0)
        return f[self.g_index], cache

    def backprop(self, acc: GradAccumulator, d_eta: np.ndarray,
                 cache) -> None:
        n = self.gp.basis.n_points
        self.gp.backprop(acc, np.bincount(self.g_index, weights=d_eta,
                                          minlength=n + 1)[:n], cache)


class _HillTerm:
    """Hill fatigue curves at each row's repeat count: one curve (Q=1), or
    one per fatigue covariate with ``weights`` (n, Q) the covariate columns,
    giving sum_q weights[:, q] rho_q(r).
    The curves are evaluated once per distinct repeat count, on the log
    repeats that ``bind`` computes.
    """

    fatigue = True

    def __init__(self, priors: tuple[HillPriors, ...], repeat: np.ndarray,
                 weights: np.ndarray | None = None):
        if len({pr.eta_kind for pr in priors}) > 1:
            raise ValueError("Hill curves must share one eta prior kind")
        self.q = len(priors)
        self.priors = priors
        self.weighted = weights is not None
        self.columns = [repeat] + ([] if weights is None else list(weights.T))

    def blocks(self) -> list[Block]:
        def per_curve(family: str, *attrs: str) -> PriorSpec:
            return PriorSpec(family, tuple(
                np.array([getattr(pr, a) for pr in self.priors])
                for a in attrs))

        eta = (per_curve("exponential", "eta_loc")
               if self.priors[0].eta_kind == "exponential"
               else per_curve("halfnormal_pos", "eta_loc", "eta_scale"))
        return [Block("hill_gamma", self.q, "log", per_curve(
                    "halfnormal_pos", "gamma_loc", "gamma_scale")),
                Block("hill_zeta", self.q,
                      prior=per_curve("normal", "zeta_loc", "zeta_scale")),
                Block("hill_eta", self.q, "log", eta)]

    def bind(self, g: np.ndarray) -> None:
        counts, self.g_index = np.unique(g[:, 0].astype(int),
                                         return_inverse=True)
        self.g_logs = log_repeats(counts)
        self.g_weights = g[:, 1:] if self.weighted else None

    def _curves(self, layout: Layout, theta: np.ndarray, logs: tuple
                ) -> list:
        """(curve, values, gradients) of each curve at the repeat counts
        of ``logs`` (``log_repeats``)."""
        gam = _exp(layout.raw(theta, "hill_gamma"))
        zet = layout.raw(theta, "hill_zeta")
        eta = _exp(layout.raw(theta, "hill_eta"))
        return [(c, *hill_grad_log(c, *logs))
                for c in map(HillCurve, gam, zet, eta)]

    def values(self, layout: Layout, theta: np.ndarray):
        index = self.g_index
        per_q = self._curves(layout, theta, self.g_logs)
        weights = self.g_weights
        if weights is None:
            return per_q[0][1][index], (per_q, index, None)
        total = np.zeros(weights.shape[0])
        for q, (_, value, _) in enumerate(per_q):
            total += weights[:, q] * value[index]
        return total, (per_q, index, weights)

    def backprop(self, acc: GradAccumulator, d_eta: np.ndarray,
                 cache) -> None:
        """Push d(logp)/d(term) into the curve parameters, on the log scale
        for gamma and eta."""
        per_q, index, weights = cache
        rows = []
        for q, (curve, value, grads) in enumerate(per_q):
            d = np.bincount(index, minlength=value.size, weights=(
                d_eta if weights is None else weights[:, q] * d_eta))
            rows.append((float(d @ grads["gamma"]) * curve.gamma,
                         float(d @ grads["zeta"]),
                         float(d @ grads["eta"]) * curve.eta))
        for name, g in zip(("hill_gamma", "hill_zeta", "hill_eta"),
                           np.array(rows).T):
            acc.add(name, g)

    def on_repeats(self, layout: Layout, theta: np.ndarray,
                   repeat: np.ndarray) -> np.ndarray:
        """The curve of an unweighted term (Q = 1) at each repeat count."""
        return self._curves(layout, theta, log_repeats(repeat))[0][1]


class _RhoTable:
    """Fatigue as a table rho(1), ..., rho(size) read at each row's repeat
    count; repeats beyond the table take its last value, and rho(0) = 0.
    The table is the free block ``rho`` or, given ``gp``, an HSGP on the
    repeat grid."""

    fatigue = True

    def __init__(self, repeat: np.ndarray, size: int,
                 gp: _HsgpTerm | None = None):
        self.size = size
        self.gp = gp
        self.columns = [repeat]

    def blocks(self) -> list[Block]:
        return ([Block("rho", self.size, prior=STD_NORMAL)] if self.gp is None
                else self.gp.blocks())

    def bind(self, g: np.ndarray) -> None:
        self.g_lookup = self._lookup(g[:, 0].astype(int))

    def _lookup(self, repeat: np.ndarray):
        return np.clip(repeat, 1, self.size) - 1, repeat >= 1

    def _table(self, layout: Layout, theta: np.ndarray):
        if self.gp is None:
            return layout.raw(theta, "rho"), None
        return self.gp.values(layout, theta)

    def values(self, layout: Layout, theta: np.ndarray):
        table, cache = self._table(layout, theta)
        idx, r_pos = self.g_lookup
        return np.where(r_pos, table[idx], 0.0), cache

    def backprop(self, acc: GradAccumulator, d_eta: np.ndarray,
                 cache) -> None:
        idx, r_pos = self.g_lookup
        g_table = np.bincount(idx[r_pos], weights=d_eta[r_pos],
                              minlength=self.size)
        if self.gp is None:
            acc.add("rho", g_table)
        else:
            self.gp.backprop(acc, g_table, cache)

    def on_repeats(self, layout: Layout, theta: np.ndarray,
                   repeat: np.ndarray) -> np.ndarray:
        """The table read at each repeat count."""
        idx, r_pos = self._lookup(repeat)
        return np.where(r_pos, self._table(layout, theta)[0][idx], 0.0)


class _NegativeExp:
    """Fatigue -exp(s) at repeat counts r >= 1 and 0 at r = 0, strictly
    negative for repeat participants, where s sums the ``rho`` table at r
    and ``smooths``."""

    fatigue = True

    def __init__(self, rho: _RhoTable, *smooths: _Smooth):
        self.inner = [rho, *smooths]
        self.columns = [c for t in self.inner for c in t.columns]

    def blocks(self) -> list[Block]:
        return [b for t in self.inner for b in t.blocks()]

    def bind(self, g: np.ndarray) -> None:
        _bind(self.inner, g)

    def values(self, layout: Layout, theta: np.ndarray):
        inner = [t.values(layout, theta) for t in self.inner]
        with np.errstate(over="ignore"):
            term = np.where(self.inner[0].g_lookup[1],
                            -np.exp(sum(v for v, _ in inner)), 0.0)
        return term, ([c for _, c in inner], term)

    def backprop(self, acc: GradAccumulator, d_eta: np.ndarray,
                 cache) -> None:
        caches, term = cache
        with np.errstate(invalid="ignore"):
            d_s = d_eta * term   # d(-exp(s))/ds = -exp(s), zero where r = 0
        for t, c in zip(self.inner, caches):
            t.backprop(acc, d_s, c)


def _bind(terms: list, g: np.ndarray) -> None:
    """Hand each term its own columns of ``g``, one row per group."""
    start = 0
    for term in terms:
        term.bind(np.ascontiguousarray(g[:, start:start + len(term.columns)]))
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
        return poisson_loglik(self.y, eta[self.group_of])[0]

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
        return nb2_loglik(self.y, eta[self.group_of], phi)[0]

    def replicate(self, rng: np.random.Generator, eta: np.ndarray,
                  phi: float) -> np.ndarray:
        return nb2_rvs(rng, np.exp(eta[self.group_of]), phi)


class _Nb1Cells:
    """NB1 counts of coarse cells with odds ``nu``: a cell's shape is the
    sum of mu over its rows (``data.row_cell``) divided by nu. Pointwise
    log likelihoods and replicates are per cell."""

    dispersion = "nu"

    def __init__(self, data: BrcData, group_of: np.ndarray, n_groups: int):
        self.y = data.y
        self.row_cell = data.row_cell
        self.group_of = group_of
        self.n_groups = n_groups

    def _mu_rows(self, eta: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(eta)[self.group_of]

    def loglik(self, eta: np.ndarray, nu: float
               ) -> tuple[float, np.ndarray, float]:
        mu = self._mu_rows(eta)
        ll, d_mu, d_nu = nb1_agg_loglik(self.y, mu, self.row_cell, nu)
        with np.errstate(invalid="ignore"):
            d_eta = np.bincount(self.group_of, weights=d_mu * mu,
                                minlength=self.n_groups)
        return float(ll.sum()), d_eta, d_nu

    def pointwise(self, eta: np.ndarray, nu: float) -> np.ndarray:
        return nb1_agg_loglik(self.y, self._mu_rows(eta), self.row_cell,
                              nu)[0]

    def replicate(self, rng: np.random.Generator, eta: np.ndarray,
                  nu: float) -> np.ndarray:
        mu_cells = np.bincount(self.row_cell, weights=self._mu_rows(eta),
                               minlength=self.y.size)
        return nb1_rvs(rng, mu_cells, nu)


class _AdditiveCountModel:
    """A log-linear count regression: eta = sum of ``terms`` + offsets.

    Rows that agree on every column the terms read and on their offset form
    one predictor group. The class's ``observation`` model runs on them.
    Predictions leave out the offsets unless ``offsets_in_prediction``.
    """

    offsets_in_prediction = False

    def __init__(self, spec: ModelSpec, data, terms: list):
        if _FAMILY_CLASS[spec.family] is not type(self):
            raise ValueError(f"{type(self).__name__} cannot fit a "
                             f"{spec.family!r} spec")
        self.spec = spec
        self.data = data
        self.n_obs = data.y.shape[0]
        self.terms = terms
        key = np.column_stack([c for t in terms for c in t.columns]
                              + [data.offsets])
        _, first, self.group_of = np.unique(
            key, axis=0, return_index=True, return_inverse=True)
        _bind(terms, key[first])
        self.g_offsets = key[first, -1]
        self.n_groups = first.size
        self.obs = self.observation(data, self.group_of, self.n_groups)
        blocks = [b for t in terms for b in t.blocks()]
        if self.obs.dispersion is not None:
            blocks.append(Block(self.obs.dispersion, 1, "log",
                                DISPERSION_PRIOR))
        self.layout = Layout(blocks)
        self.prior = _PriorPass(self.layout)

    def _dispersion(self, theta: np.ndarray) -> tuple[float, ...]:
        """The observation's dispersion value, if it has one."""
        name = self.obs.dispersion
        if name is None:
            return ()
        return (float(_exp(self.layout.raw(theta, name))[0]),)

    def _eta_groups(self, theta: np.ndarray):
        eta = np.zeros(self.n_groups)
        caches = []
        for term in self.terms:
            value, cache = term.values(self.layout, theta)
            eta = eta + value
            caches.append(cache)
        eta = eta + self.g_offsets
        _check_finite_predictor(eta, self.group_of)
        return eta, caches

    @_guarded
    def logp_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        acc = GradAccumulator(self.layout)
        eta, caches = self._eta_groups(theta)
        dispersion = self._dispersion(theta)
        logp, d_eta, *d_dispersion = self.obs.loglik(eta, *dispersion)
        for value, d in zip(dispersion, d_dispersion):
            acc.add(self.obs.dispersion, d * value)
        for term, cache in zip(self.terms, caches):
            term.backprop(acc, d_eta, cache)
        logp += self.prior(theta, acc.grad)
        return logp, acc.grad

    def pointwise_loglik(self, theta: np.ndarray) -> np.ndarray:
        return self.obs.pointwise(self._eta_groups(theta)[0],
                                  *self._dispersion(theta))

    def replicate(self, theta, rng: np.random.Generator) -> np.ndarray:
        eta, dispersion = self._eta_groups(theta)[0], self._dispersion(theta)
        try:
            with np.errstate(over="ignore"):
                return self.obs.replicate(rng, eta, *dispersion)
        except ValueError as exc:  # a mean NumPy's samplers cannot take
            raise RejectedState(str(exc)) from exc

    def predict_log_intensity(self, theta, debias=False) -> np.ndarray:
        """Log intensity on the fitted rows; ``debias`` drops the fatigue
        terms."""
        eta = sum((t.values(self.layout, theta)[0] for t in self.terms
                   if not (debias and t.fatigue)),
                  np.zeros(self.n_groups))[self.group_of]
        if not self.offsets_in_prediction:
            return eta
        return eta + self.data.offsets


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

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        u, v = data.block("u"), data.block("v")
        k = v.shape[1]
        if spec.rhs is not None and spec.rhs.n_coef != k:
            raise ValueError(f"rhs.n_coef must equal {k}")
        self.tested = _Linear(v, (
            _Coefficients(Block("beta", k, prior=STD_NORMAL))
            if spec.rhs is None else _RhsTerm("beta", spec.rhs)))
        super().__init__(spec, data, [
            _Linear.intercept(spec, data.n),
            _Linear(u, _Coefficients(
                Block("alpha_raw", u.shape[1], prior=STD_NORMAL),
                "sigma_alpha")),
            self.tested])

    def coefficients(self, theta) -> np.ndarray:
        return self.tested.coef.coefficients(self.layout, theta)[0]


class Stage2PoissonModel(_AdditiveCountModel):
    """log(lambda) = offset_i + w' gamma with gamma <= 0 via half-RHS.

    ``data.offsets`` must hold the frozen stage-1 predictor beta0_hat +
    u' alpha_hat + v' beta_hat per row; the fatigue term w' gamma is what
    de-biasing drops.
    """

    observation = _PoissonGroups
    offsets_in_prediction = True

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        if spec.rhs is None or spec.rhs.sign != "negative":
            raise ValueError("stage 2 requires a negative-sign RhsSpec")
        w = data.block("w")
        if spec.rhs.n_coef != w.shape[1]:
            raise ValueError(f"rhs.n_coef must equal {w.shape[1]}")
        self.rhs = _RhsTerm("gamma", spec.rhs)
        super().__init__(spec, data, [_Linear(w, self.rhs, fatigue=True)])

    def coefficients(self, theta) -> np.ndarray:
        return self.rhs.coefficients(self.layout, theta)[0]


class LongitudinalNbModel(_AdditiveCountModel):
    """log(lambda) = beta0 + x' beta + tau(t) + rho(r), NB2 counts.

    tau is a GP over the distinct report dates; rho is a free table over
    repeats (independent), one shared effect (identical), a GP table on
    standardized repeat counts (gp) or a Hill curve (hill).
    """

    observation = _Nb2Groups

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        times, time_idx = np.unique(data.report_date, return_inverse=True)
        if times.size < 2:
            raise ValueError("longitudinal model needs >= 2 report dates")
        repeat = data.repeat.astype(int)
        fk, r_max = spec.fatigue.kind, spec.fatigue.max_repeat
        if fk in ("independent", "identical"):
            fatigue = [_RhoTable(repeat, r_max if fk == "independent" else 1)]
        elif fk == "gp":
            grid = np.arange(1, r_max + 1)
            fatigue = [_RhoTable(repeat, r_max, _HsgpTerm.on_axis(
                "rho_gp", (grid - repeat.mean()) / max(repeat.std(), 1e-8),
                REPEAT_GP, REPEAT_GP.m))]
        elif fk == "hill":
            fatigue = [_HillTerm(spec.fatigue.hill_priors_for(1), repeat)]
        elif fk == "none":
            fatigue = []
        else:
            raise ValueError(f"unsupported fatigue kind {fk!r} for "
                             "the longitudinal model")
        super().__init__(spec, data, [
            _Linear.intercept(spec, data.n),
            _Linear(data.x, _Coefficients(
                Block("beta_raw", data.x.shape[1], prior=STD_NORMAL),
                "sigma_beta")),
            _Smooth.on_axis("tau", times, time_idx, TIME_GP,
                            max(times.std(), 1e-8)),
            *fatigue])

    def fatigue_curve(self, theta, r_grid: np.ndarray) -> np.ndarray:
        """rho(r) on a grid of repeat counts for one draw."""
        repeat = np.asarray(r_grid, dtype=int)
        return sum((t.on_repeats(self.layout, theta, repeat)
                    for t in self.terms if t.fatigue), np.zeros(repeat.size))


class IndividualGamModel(_AdditiveCountModel):
    """log(lambda) = beta0 + u' beta + f(age) + w' rho(r), NB2 counts."""

    observation = _Nb2Groups

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        if spec.fatigue.kind not in ("none", "hill_per_covariate"):
            raise ValueError("GAM fatigue must be none or hill_per_covariate")
        u, w = data.block("u"), data.block("w")
        age = _Smooth.on_axis("age", AGE_GRID, data.age.astype(int),
                              spec.hsgp_age, AGE_SD)
        self.f_age = age.gp
        beta = Block("beta", u.shape[1], prior=PriorSpec(
            "normal", (spec.beta_loc, spec.beta_scale)))
        terms = [_Linear.intercept(spec, data.n),
                 _Linear(u, _Coefficients(beta)), age]
        if spec.fatigue.kind == "hill_per_covariate":
            if w.shape[1] == 0:
                raise ValueError("hill_per_covariate requires a w block")
            terms.append(_HillTerm(spec.fatigue.hill_priors_for(w.shape[1]),
                                   data.repeat.astype(int), w))
        super().__init__(spec, data, terms)

    def age_curve(self, theta, ages: np.ndarray | None = None) -> np.ndarray:
        """log intensity over ages at reference covariates (u = w = 0)."""
        ages = AGE_GRID if ages is None else np.asarray(ages, float)
        f = self.f_age.values_at(self.layout, theta, ages)
        return self.layout.raw(theta, "beta0")[0] + f


# ---------------------------------------------------------------------------
# Aggregated rate-consistency model on coarse contact bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrcData:
    """Coarse-band cells plus their single-year row expansion.

    Cells index observations Y over (wave, repeat, participant age, gender
    pair, contact band); rows expand each cell over the contact ages b in
    its band so the latent NB1 means can be summed.
    """

    y: np.ndarray                 # (n_cells,)
    cell_wave: np.ndarray         # (n_cells,) 0-based wave index
    cell_repeat: np.ndarray       # (n_cells,)
    cell_age: np.ndarray          # (n_cells,) participant age
    cell_pair: np.ndarray         # (n_cells,) index into pair labels
    cell_band: np.ndarray         # (n_cells,) index into bands
    log_offset_cell: np.ndarray   # (n_cells,) log N + log S
    row_cell: np.ndarray          # (n_rows,)
    row_b: np.ndarray             # (n_rows,) contact age
    log_pop_row: np.ndarray       # (n_rows,) log P_b for the contact gender
    waves: tuple[int, ...]
    pairs: tuple[str, ...]
    bands: CoarseBandSet
    max_repeat: int

    @property
    def n_cells(self) -> int:
        return self.y.shape[0]

    @property
    def offsets(self) -> np.ndarray:
        """log P_b + log N + log S on each row."""
        return self.log_pop_row + self.log_offset_cell[self.row_cell]


def make_brc_data(*, y, wave, repeat, age, band, n_participants, s_prop,
                  population: PopulationTable, bands: CoarseBandSet,
                  pair=None, pairs: tuple[str, ...] = ("all",)) -> BrcData:
    """Assemble BRC cells and their row expansion from per-cell arrays.

    ``pair`` holds per-cell pair labels (defaults to a single shared
    surface); each pair label's rows take the population counts of its
    contact gender.
    """
    y = np.asarray(y, dtype=float)
    n_cells = y.shape[0]
    wave = np.asarray(wave, dtype=int)
    waves = tuple(sorted(np.unique(wave)))
    wave_idx = np.searchsorted(np.asarray(waves), wave)
    pair_arr = (np.zeros(n_cells, dtype=int) if pair is None
                else np.asarray([pairs.index(p) for p in pair]))
    band_idx = np.asarray(band, dtype=int)
    n_part = np.asarray(n_participants, dtype=float)
    s_prop = np.asarray(s_prop, dtype=float)
    if np.any(n_part <= 0) or np.any(s_prop <= 0) or np.any(s_prop > 1):
        raise ValueError("participant counts must be > 0 and S in (0,1]")

    row_cell, row_b, log_pop = [], [], []
    for i in range(n_cells):
        b_lo = bands.bands[band_idx[i]].lo
        b_hi = bands.bands[band_idx[i]].hi
        pop = population.get(_contact_gender(pairs[pair_arr[i]]))
        for b in range(b_lo, b_hi + 1):
            row_cell.append(i)
            row_b.append(b)
            log_pop.append(np.log(pop[b]))
    return BrcData(
        y=y, cell_wave=wave_idx, cell_repeat=np.asarray(repeat, dtype=int),
        cell_age=np.asarray(age, dtype=int), cell_pair=pair_arr,
        cell_band=band_idx,
        log_offset_cell=np.log(n_part) + np.log(s_prop),
        row_cell=np.asarray(row_cell, dtype=int),
        row_b=np.asarray(row_b, dtype=int),
        log_pop_row=np.asarray(log_pop, dtype=float),
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

    On the single-year rows of the cells, log mu = beta0 + tau_t
    + f_pair(a, b) + fatigue(r, a, c) + log P_b + log N + log S; a cell's
    NB1 shape is its rows' sum of mu over nu. Same-gender (and
    single-surface) pairs use the symmetrized 2D basis; "MF" rows read the
    "FM" surface with swapped coordinates, which makes the cross-gender flow
    identity hold exactly. Each surface lives on the distinct (a, b) points
    of its rows.
    """

    observation = _Nb1Cells

    def __init__(self, spec: ModelSpec, data: BrcData):
        fk = spec.fatigue.kind
        if fk not in ("none", "independent", "variant_a", "variant_b",
                      "variant_c"):
            raise ValueError(f"unsupported fatigue kind {fk!r} for BRC")
        cell = data.row_cell
        row_a = data.cell_age[cell]
        of_pair = [_surface_of(label) for label in data.pairs]
        row_pair = data.cell_pair[cell]
        swap = np.array([s for _, s in of_pair], dtype=bool)[row_pair]
        a = np.where(swap, data.row_b, row_a)
        b = np.where(swap, row_a, data.row_b)
        cfg = spec.hsgp_surface
        # one surface per pair; mixed pairs share one, read transposed
        self.surfaces: dict[str, _Smooth] = {}
        for key in dict.fromkeys(k for k, _ in of_pair):
            on = np.isin(row_pair, [p for p, (k, _) in enumerate(of_pair)
                                    if k == key])
            points, index = np.unique(np.column_stack([a[on], b[on]]),
                                      axis=0, return_inverse=True)
            build = (kernels.build_hsgp_2d_symmetric
                     if len(key) != 2 or key[0] == key[1]
                     else kernels.build_hsgp_2d)
            basis = build(*(points.T / AGE_SD), cfg.m, cfg.c)
            on_rows = np.full(cell.size, len(points))
            on_rows[on] = index
            self.surfaces[key] = _Smooth(_HsgpTerm(
                f"f_{key}", basis, cfg, AGE_SD, np.bincount(index)), on_rows)
        later_wave = (data.cell_wave[cell][:, None]
                      == np.arange(1, len(data.waves))).astype(float)
        terms = [_Linear.intercept(spec, cell.size),
                 _Linear(later_wave, _Coefficients(
                     Block("tau", len(data.waves) - 1, prior=STD_NORMAL))),
                 *self.surfaces.values()]
        if fk != "none":
            rho = _RhoTable(data.cell_repeat[cell], max(data.max_repeat, 1))
            terms.append(rho if fk == "independent" else
                         _NegativeExp(rho, *_variant_smooths(fk, data)))
        super().__init__(spec, data, terms)

    def predict_log_m(self, theta, pair: str, wave: int, a: np.ndarray,
                      b: np.ndarray, population: PopulationTable
                      ) -> np.ndarray:
        """log contact intensity log m(a, b) for one gender pair and wave."""
        key, swap = _surface_of(pair)
        if key not in self.surfaces:
            raise ValueError(f"no surface for pair {pair!r}")
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        fa, fb = (b, a) if swap else (a, b)
        f = self.surfaces[key].gp.values_at(self.layout, theta, fa, fb)
        t_idx = self.data.waves.index(wave)
        tau = self.layout.raw(theta, "tau")[t_idx - 1] if t_idx else 0.0
        pop = population.get(_contact_gender(pair))
        return (self.layout.raw(theta, "beta0")[0] + tau + f
                + np.log(pop[b.astype(int)]))


def _variant_smooths(kind: str, data: BrcData) -> list[_Smooth]:
    """The smooths on the log fatigue scale of a BRC variant, each centered
    on the cells: age (variant_a), age and contact band (variant_b), or a
    2D age x band-midpoint surface (variant_c)."""
    vcfg = VARIANT_GP
    cell = data.row_cell
    mids = np.asarray(data.bands.midpoints, dtype=float)
    if kind == "variant_c":
        basis = kernels.build_hsgp_2d(
            data.cell_age / AGE_SD, mids[data.cell_band] / AGE_SD,
            min(vcfg.m, 12), vcfg.c)
        return [_Smooth(_HsgpTerm("fac", basis, vcfg, AGE_SD,
                                  np.ones(data.n_cells)), cell)]
    ages, age_idx = np.unique(data.cell_age, return_inverse=True)
    smooths = [_Smooth(_HsgpTerm.on_axis(
        "fa", ages.astype(float), vcfg, min(vcfg.m, max(4, ages.size)),
        AGE_SD, np.bincount(age_idx)), age_idx[cell])]
    if kind == "variant_b":
        smooths.append(_Smooth(_HsgpTerm.on_axis(
            "fc", mids, vcfg, min(vcfg.m, mids.size), AGE_SD,
            np.bincount(data.cell_band, minlength=mids.size)),
            data.cell_band[cell]))
    return smooths


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: the base of every model class
Model = _AdditiveCountModel


#: the model class of each family; each class names its observation model
_FAMILY_CLASS = {"stage1_poisson": Stage1PoissonModel,
                 "stage2_poisson": Stage2PoissonModel,
                 "longitudinal_nb": LongitudinalNbModel,
                 "individual_gam": IndividualGamModel,
                 "aggregated_brc": AggregatedBrcModel}


def build_model(spec: ModelSpec, data) -> Model:
    return _FAMILY_CLASS[spec.family](spec, data)
