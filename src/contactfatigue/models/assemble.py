"""Log-posterior and gradient assemblers for the model families.

Five regression families share one protocol: a named-block parameter layout,
``logp_grad`` returning the joint log posterior with its exact analytic
gradient on the unconstrained scale, per-observation log likelihoods for
cross-validation, posterior replicates for predictive checks, and intensity
prediction with an optional fatigue de-biasing switch.

Families:

* ``stage1_poisson``  -- first-time participants; Poisson regression with a
  hierarchical baseline block and either regularized-horseshoe or plain
  normal priors on the tested block.
* ``stage2_poisson``  -- repeat participants; stage-1 point estimates enter
  as fixed row offsets, fatigue candidates get the negatively-truncated
  horseshoe.
* ``longitudinal_nb`` -- NB2 counts with a Matern-3/2 calendar-time GP and a
  configurable fatigue term (independent, identical, GP-on-repeats, Hill).
* ``individual_gam``  -- NB2 counts with a squared-exponential age smooth and
  one Hill fatigue curve per selected covariate.
* ``aggregated_brc``  -- coarse-band NB1 counts tied to a latent single-year
  contact surface through rate consistency; the surface is a symmetrized 2D
  GP so that population flows balance exactly.

Every parameter block declares its natural-scale prior (``Block.prior``).
When a model is built its layout's priors are grouped into one table, and
each ``logp_grad`` ends with a single pass over that table, which adds the
log-scale Jacobians too; the model code itself holds likelihood and
backprop only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import kernels
from ..domain import AGE_MAX, CoarseBandSet, DesignMatrix, PopulationTable
from ..kernels import HsgpBasis, KernelSpec
from ..priors import PriorSpec, RhsSpec, log_prior, rhs_coefficients
from .fatigue import FatigueSpec, HillPriors, hill_grad, HillCurve, no_fatigue
from .likelihoods import (CountCache, nb1_agg_loglik, nb1_rvs,
                          nb2_group_loglik, nb2_loglik, nb2_rvs,
                          poisson_loglik)
from .params import Block, GradAccumulator, Layout


class _RejectState(Exception):
    """A positive parameter under/overflowed; the state gets -inf mass."""


def _positive(*values: float) -> None:
    for v in values:
        if not (0.0 < v < np.inf):
            raise _RejectState


def _guarded(fn):
    """Make ``logp_grad`` total: a rejected state, a Python-float overflow
    in the kernels, or a non-finite result gives -inf and a zero gradient."""
    def wrapper(self, theta):
        try:
            logp, grad = fn(self, theta)
        except (_RejectState, OverflowError):
            logp = -np.inf
        if np.isfinite(logp) and np.all(np.isfinite(grad)):
            return logp, grad
        return -np.inf, np.zeros(self.layout.size)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper

#: standard deviation of the single-year age grid, used to standardize
#: GP input axes so lengthscale priors act on a unit-scale axis
AGE_SD = float(np.arange(AGE_MAX + 1).std())

_FAMILY_OBSERVATION = {
    "stage1_poisson": "poisson",
    "stage2_poisson": "poisson",
    "longitudinal_nb": "nb2",
    "individual_gam": "nb2",
    "aggregated_brc": "nb1",
}


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


def variant_gp_config(m: int = 20) -> HsgpConfig:
    return replace(brc_surface_config(m), kernel="se")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a fit."""

    family: str
    observation: str = ""
    fatigue: FatigueSpec = field(default_factory=no_fatigue)
    rhs: RhsSpec | None = None
    beta0_loc: float = 0.0
    beta0_scale: float = 10.0
    beta_loc: tuple[float, ...] | float = 0.0
    beta_scale: tuple[float, ...] | float = 1.0
    hsgp_age: HsgpConfig = field(default_factory=HsgpConfig)
    hsgp_time: HsgpConfig = field(
        default_factory=lambda: HsgpConfig(kernel="matern32"))
    hsgp_surface: HsgpConfig = field(default_factory=brc_surface_config)

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_OBSERVATION:
            raise ValueError(f"unknown model family {self.family!r}")
        expected = _FAMILY_OBSERVATION[self.family]
        if self.observation and self.observation != expected:
            raise ValueError(
                f"{self.family} requires observation {expected!r}")
        if not self.observation:
            object.__setattr__(self, "observation", expected)


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
                 prior=PriorSpec("normal", (spec.beta0_loc, spec.beta0_scale)))


class _PriorPass:
    """Every block prior of a layout, evaluated in one pass.

    Blocks are grouped by (prior family, transform); a group holds the flat
    indices of its elements and its prior with the parameters broadcast to
    them, so one ``log_prior`` call covers the group. Log-scale elements
    take the prior at value = exp(raw) plus the change-of-variables
    Jacobian: ``raw`` in the log density, ``g * value + 1`` in the gradient
    with respect to raw.
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
                logp += float(np.sum(lp))
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
        return [z, Block(self.zeta_name, k, "log",
                         self.spec.zeta_prior_spec()),
                Block("rhs_c2", 1, "log", self.spec.c2_prior_spec()),
                Block("rhs_eps", 1, "log", self.spec.eps_prior_spec())]

    def coefficients(self, layout: Layout, theta: np.ndarray):
        """Coefficients plus the backprop cache."""
        z = layout.raw(theta, self.z_name)
        if self.negative:
            z = np.exp(z)
            _positive(*z)
        zeta = np.exp(layout.raw(theta, self.zeta_name))
        c2 = float(np.exp(layout.raw(theta, "rhs_c2")[0]))
        eps = float(np.exp(layout.raw(theta, "rhs_eps")[0]))
        _positive(*zeta, c2, eps)
        beta, partials = rhs_coefficients(self.spec, z, zeta, c2, eps)
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
        self.basis = basis
        self.config = config
        self.input_sd = float(input_sd)
        if center_weights is not None:
            w = np.asarray(center_weights, dtype=float)
            self.col_means = w @ basis.phi / w.sum()
            self.phi = basis.phi - self.col_means[None, :]
        else:
            self.col_means = None
            self.phi = basis.phi
        hyper_names = (["sigma", "ell"] if basis.dim == 1
                       else ["sigma1", "ell1", "sigma2", "ell2"])
        self.block_names = [f"{name}_w"] + [f"{name}_{h}" for h in hyper_names]

    @classmethod
    def on_axis(cls, name: str, inputs: np.ndarray, config: HsgpConfig,
                m: int, input_sd: float = 1.0,
                center_weights: np.ndarray | None = None) -> _HsgpTerm:
        """A 1D term on the basis of ``inputs / input_sd``."""
        basis = kernels.build_hsgp_1d(KernelSpec(config.kernel, 1.0, 1.0),
                                      inputs / input_sd, m, config.c)
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
        hypers = [float(np.exp(layout.raw(theta, nm)[0]))
                  for nm in self.block_names[1:]]
        _positive(*hypers)
        specs = tuple(KernelSpec(self.config.kernel, hypers[i], hypers[i + 1])
                      for i in range(0, len(hypers), 2))
        return (specs[0] if self.basis.dim == 1 else specs), hypers

    def values(self, layout: Layout, theta: np.ndarray
               ) -> tuple[np.ndarray, dict]:
        """Realized values at the basis inputs plus a backprop cache."""
        specs, hypers = self._specs(layout, theta)
        w = layout.raw(theta, self.block_names[0])
        with np.errstate(over="ignore", invalid="ignore"):
            s, ds = self.basis.spectral_weights_grad(specs)
            sqrt_s = np.sqrt(s)
            f = self.phi @ (sqrt_s * w)
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(f))):
            raise _RejectState
        return f, {"w": w, "sqrt_s": sqrt_s, "ds": ds, "hypers": hypers}

    def backprop(self, acc: GradAccumulator, g_inputs: np.ndarray,
                 cache: dict) -> None:
        """Push d(logp)/d(f at inputs) into weight and hyper gradients."""
        phi_t_g = self.phi.T @ g_inputs
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
        specs, _ = self._specs(layout, theta)
        w = layout.raw(theta, self.block_names[0])
        s = self.basis.spectral_weights(specs)
        a = np.asarray(a, dtype=float) / self.input_sd
        b = None if b is None else np.asarray(b, dtype=float) / self.input_sd
        phi = kernels.basis_at(self.basis, a, b)
        if self.col_means is not None:
            phi = phi - self.col_means[None, :]
        return phi @ (np.sqrt(s) * w)


class _HillTerm:
    """Hill fatigue curves: one curve (Q=1) or one per fatigue covariate.

    With ``weights`` (n, Q) the term is sum_q weights[:, q] rho_q(r);
    without, it is the single curve rho(r).
    """

    def __init__(self, priors: tuple[HillPriors, ...]):
        if len({pr.eta_kind for pr in priors}) > 1:
            raise ValueError("Hill curves must share one eta prior kind")
        self.q = len(priors)
        self.priors = priors

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

    def values(self, layout: Layout, theta: np.ndarray, repeat,
               weights: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
        """The term at repeat counts ``repeat`` plus a backprop cache."""
        gam = np.exp(layout.raw(theta, "hill_gamma"))
        zet = layout.raw(theta, "hill_zeta")
        eta = np.exp(layout.raw(theta, "hill_eta"))
        _positive(*gam, *eta)
        curves = [HillCurve(gam[q], zet[q], eta[q]) for q in range(self.q)]
        per_q = [(c, *hill_grad(c, repeat)) for c in curves]
        if weights is None:
            return per_q[0][1], (per_q, None)
        total = np.zeros(weights.shape[0])
        for q, (_, value, _) in enumerate(per_q):
            total += weights[:, q] * value
        return total, (per_q, weights)

    def backprop(self, acc: GradAccumulator, d_term: np.ndarray,
                 cache) -> None:
        """Push d(logp)/d(term) into the curve parameters, on the log scale
        for gamma and eta."""
        per_q, weights = cache
        rows = []
        for q, (curve, _, grads) in enumerate(per_q):
            d = d_term if weights is None else weights[:, q] * d_term
            rows.append((float(d @ grads["gamma"]) * curve.gamma,
                         float(d @ grads["zeta"]),
                         float(d @ grads["eta"]) * curve.eta))
        for name, g in zip(("hill_gamma", "hill_zeta", "hill_eta"),
                           np.array(rows).T):
            acc.add(name, g)


def _check_finite_predictor(eta: np.ndarray) -> None:
    # NaN signals broken data; +-inf from parameter overflow is handled by
    # the likelihoods (they return -inf, which the sampler rejects).
    if np.any(np.isnan(eta)):
        bad = int(np.flatnonzero(np.isnan(eta))[0])
        raise FloatingPointError(f"non-finite linear predictor at row {bad}")


class _PoissonRows:
    """Row-level Poisson log likelihood and replicates from ``_eta``."""

    def pointwise_loglik(self, theta: np.ndarray) -> np.ndarray:
        return poisson_loglik(self.y, self._eta(theta)[0], self._ycache)[0]

    def replicate(self, theta, rng: np.random.Generator) -> np.ndarray:
        return rng.poisson(np.exp(self._eta(theta)[0]))


class _Nb2Rows:
    """Row-level NB2 log likelihood and replicates from ``_eta``."""

    def pointwise_loglik(self, theta: np.ndarray) -> np.ndarray:
        eta = self._eta(theta)[0]
        phi = float(np.exp(self.layout.raw(theta, "phi")[0]))
        return nb2_loglik(self.y, eta, phi, self._ycache)[0]

    def replicate(self, theta, rng: np.random.Generator) -> np.ndarray:
        eta = self._eta(theta)[0]
        phi = float(np.exp(self.layout.raw(theta, "phi")[0]))
        return nb2_rvs(rng, np.exp(eta), phi)


# ---------------------------------------------------------------------------
# Stage 1: Poisson regression on first-time participants
# ---------------------------------------------------------------------------

class Stage1PoissonModel(_PoissonRows):
    """log(lambda) = beta0 + u' alpha + v' beta, Poisson counts.

    The baseline block gets a hierarchical normal prior with a half-Cauchy
    scale; the tested block gets the regularized horseshoe, or plain
    standard normal priors when ``spec.rhs`` is None (the refit used to
    produce stage-2 offsets).
    """

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        self.spec = spec
        self.data = data
        self.u = data.block("u")
        self.v = data.block("v")
        self.y = data.y
        self._ycache = CountCache.from_counts(data.y)
        self.n_obs = data.n
        k = self.v.shape[1]
        if spec.rhs is not None and spec.rhs.n_coef != k:
            raise ValueError(f"rhs.n_coef must equal {k}")
        blocks = [_intercept(spec),
                  Block("alpha_raw", self.u.shape[1], prior=STD_NORMAL),
                  Block("sigma_alpha", 1, "log", HALF_CAUCHY)]
        self.rhs = None if spec.rhs is None else _RhsTerm("beta", spec.rhs)
        if self.rhs is None:
            blocks.append(Block("beta", k, prior=STD_NORMAL))
        else:
            blocks += self.rhs.blocks()
        self.layout = Layout(blocks)
        self.prior = _PriorPass(self.layout)

    def _beta(self, theta):
        if self.rhs is not None:
            return self.rhs.coefficients(self.layout, theta)
        if "beta" not in self.layout:
            return np.zeros(self.v.shape[1]), None
        return self.layout.raw(theta, "beta"), None

    def _eta(self, theta):
        beta, rhs_cache = self._beta(theta)
        sigma_a = float(np.exp(self.layout.raw(theta, "sigma_alpha")[0]))
        _positive(sigma_a)
        alpha = sigma_a * self.layout.raw(theta, "alpha_raw")
        eta = (self.layout.raw(theta, "beta0")[0] + self.u @ alpha
               + self.v @ beta + self.data.offsets)
        _check_finite_predictor(eta)
        return eta, rhs_cache, sigma_a

    def coefficients(self, theta) -> np.ndarray:
        return self._beta(theta)[0]

    @_guarded
    def logp_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        acc = GradAccumulator(self.layout)
        eta, rhs_cache, sigma_a = self._eta(theta)
        ll, dll = poisson_loglik(self.y, eta, self._ycache)
        logp = float(ll.sum())

        acc.add("beta0", dll.sum())
        a_raw = self.layout.raw(theta, "alpha_raw")
        ut_dll = self.u.T @ dll
        acc.add("alpha_raw", sigma_a * ut_dll)
        acc.add("sigma_alpha", float(a_raw @ ut_dll) * sigma_a)
        g_beta = self.v.T @ dll
        if self.rhs is not None:
            self.rhs.backprop(acc, g_beta, rhs_cache)
        elif "beta" in self.layout:
            acc.add("beta", g_beta)
        logp += self.prior(theta, acc.grad)
        return logp, acc.grad

    def predict_log_intensity(self, theta, newdata=None, debias=False
                              ) -> np.ndarray:
        del debias  # no fatigue term in stage 1
        if newdata is None:
            return self._eta(theta)[0] - self.data.offsets
        beta = self._beta(theta)[0]
        sigma_a = float(np.exp(self.layout.raw(theta, "sigma_alpha")[0]))
        alpha = sigma_a * self.layout.raw(theta, "alpha_raw")
        return (self.layout.raw(theta, "beta0")[0]
                + newdata["u"] @ alpha + newdata["v"] @ beta)


# ---------------------------------------------------------------------------
# Stage 2: fatigue-candidate Poisson regression with fixed stage-1 offsets
# ---------------------------------------------------------------------------

class Stage2PoissonModel(_PoissonRows):
    """log(lambda) = offset_i + w' gamma with gamma <= 0 via half-RHS.

    ``data.offsets`` must hold the frozen stage-1 predictor beta0_hat +
    u' alpha_hat + v' beta_hat per row.
    """

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        if spec.rhs is None or spec.rhs.sign != "negative":
            raise ValueError("stage 2 requires a negative-sign RhsSpec")
        self.spec = spec
        self.data = data
        self.w = data.block("w")
        self.y = data.y
        self._ycache = CountCache.from_counts(data.y)
        self.n_obs = data.n
        k = self.w.shape[1]
        if spec.rhs.n_coef != k:
            raise ValueError(f"rhs.n_coef must equal {k}")
        self.rhs = _RhsTerm("gamma", spec.rhs)
        self.layout = Layout(self.rhs.blocks())
        self.prior = _PriorPass(self.layout)

    def coefficients(self, theta) -> np.ndarray:
        return self.rhs.coefficients(self.layout, theta)[0]

    def _eta(self, theta):
        gamma, cache = self.rhs.coefficients(self.layout, theta)
        eta = self.data.offsets + self.w @ gamma
        _check_finite_predictor(eta)
        return eta, cache

    @_guarded
    def logp_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        acc = GradAccumulator(self.layout)
        eta, cache = self._eta(theta)
        ll, dll = poisson_loglik(self.y, eta, self._ycache)
        logp = float(ll.sum())
        self.rhs.backprop(acc, self.w.T @ dll, cache)
        logp += self.prior(theta, acc.grad)
        return logp, acc.grad

    def predict_log_intensity(self, theta, newdata=None, debias=False
                              ) -> np.ndarray:
        gamma = self.coefficients(theta)
        offsets = self.data.offsets if newdata is None else newdata["offset"]
        w = self.w if newdata is None else newdata["w"]
        if debias:
            return np.asarray(offsets, dtype=float).copy()
        return offsets + w @ gamma


# ---------------------------------------------------------------------------
# Longitudinal NB2 model with calendar-time GP and fatigue term
# ---------------------------------------------------------------------------

class LongitudinalNbModel(_Nb2Rows):
    """log(lambda) = beta0 + x' beta + tau(t) + rho(r), NB2 counts.

    Rows sharing (covariates, date, repeat, offset) share a linear
    predictor, so the likelihood and its gradient are evaluated on group
    sufficient statistics (size, count sum) plus a global count histogram,
    which is exact and much faster than row-level evaluation. Row-level
    quantities are gathered from the groups.
    """

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        self.spec = spec
        self.data = data
        self.x = data.x
        self.y = data.y
        self._ycache = CountCache.from_counts(data.y)
        self.n_obs = data.n
        self.repeat = data.repeat.astype(int)

        self.times, self.time_idx = np.unique(data.report_date,
                                              return_inverse=True)
        if self.times.size < 2:
            raise ValueError("longitudinal model needs >= 2 report dates")
        time_sd = float(max(self.times.std(), 1e-8))
        time_weights = np.bincount(self.time_idx,
                                   minlength=self.times.size).astype(float)
        self.tau = _HsgpTerm.on_axis("tau", self.times, spec.hsgp_time,
                                     spec.hsgp_time.m, time_sd, time_weights)

        fk = spec.fatigue.kind
        blocks = [_intercept(spec),
                  Block("beta_raw", self.x.shape[1], prior=STD_NORMAL),
                  Block("sigma_beta", 1, "log", HALF_CAUCHY)]
        blocks += self.tau.blocks()
        self.rho_gp: _HsgpTerm | None = None
        self.hill: _HillTerm | None = None
        if fk == "independent":
            blocks.append(Block("rho", spec.fatigue.max_repeat,
                                prior=STD_NORMAL))
        elif fk == "identical":
            blocks.append(Block("rho", 1, prior=STD_NORMAL))
        elif fk == "gp":
            # the table rho(1..max_repeat) on standardized repeat counts
            grid = np.arange(1, spec.fatigue.max_repeat + 1)
            self.rho_gp = _HsgpTerm.on_axis(
                "rho_gp", (grid - self.repeat.mean())
                / max(self.repeat.std(), 1e-8), HsgpConfig(kernel="se"),
                spec.fatigue.gp_m)
            blocks += self.rho_gp.blocks()
        elif fk == "hill":
            self.hill = _HillTerm(spec.fatigue.hill_priors_for(1))
            blocks += self.hill.blocks()
        elif fk != "none":
            raise ValueError(f"unsupported fatigue kind {fk!r} for "
                             "the longitudinal model")
        blocks.append(Block("phi", 1, "log", DISPERSION_PRIOR))
        self.layout = Layout(blocks)
        self.prior = _PriorPass(self.layout)

        key = np.column_stack([self.x, self.time_idx, self.repeat,
                               data.offsets])
        _, first_idx, self.group_of = np.unique(
            key, axis=0, return_index=True, return_inverse=True)
        g = first_idx.size
        self.g_x = self.x[first_idx]
        self.g_time_idx = self.time_idx[first_idx]
        self.g_repeat = self.repeat[first_idx]
        self.g_offsets = data.offsets[first_idx]
        self.g_n = np.bincount(self.group_of, minlength=g).astype(float)
        self.g_sum_y = np.bincount(self.group_of, weights=self.y, minlength=g)
        self.y_hist_vals = self._ycache.unique
        self.y_hist_counts = np.bincount(
            self._ycache.inverse,
            minlength=self.y_hist_vals.size).astype(float)

    def _fatigue(self, theta, repeat: np.ndarray):
        """rho(r) at repeat counts ``repeat`` plus a backprop cache.

        Tabulated kinds (independent, identical, gp) hold rho(1), rho(2),
        ...; repeats beyond the table take its last value, and rho(0) = 0.
        """
        fk = self.spec.fatigue.kind
        if fk == "none":
            return np.zeros(repeat.size), None
        if fk == "hill":
            return self.hill.values(self.layout, theta, repeat)
        if fk == "gp":
            table, cache = self.rho_gp.values(self.layout, theta)
        else:
            table, cache = self.layout.raw(theta, "rho"), None
        idx = np.clip(repeat, 1, table.size) - 1
        r_pos = repeat >= 1
        return np.where(r_pos, table[idx], 0.0), (table.size, idx, r_pos,
                                                  cache)

    def _eta_groups(self, theta):
        beta_raw = self.layout.raw(theta, "beta_raw")
        sigma_b = float(np.exp(self.layout.raw(theta, "sigma_beta")[0]))
        _positive(sigma_b)
        f_time, tau_cache = self.tau.values(self.layout, theta)
        rho_vals, rho_cache = self._fatigue(theta, self.g_repeat)
        eta = (self.layout.raw(theta, "beta0")[0]
               + self.g_x @ (sigma_b * beta_raw) + f_time[self.g_time_idx]
               + rho_vals + self.g_offsets)
        _check_finite_predictor(eta)
        return eta, (beta_raw, sigma_b, tau_cache, rho_vals, rho_cache)

    def _eta(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Row-level predictor and fatigue term."""
        eta, parts = self._eta_groups(theta)
        return eta[self.group_of], parts[3][self.group_of]

    @_guarded
    def logp_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        acc = GradAccumulator(self.layout)
        eta, (beta_raw, sigma_b, tau_cache, _rho, rho_cache) = \
            self._eta_groups(theta)
        phi = float(np.exp(self.layout.raw(theta, "phi")[0]))
        _positive(phi)
        logp, dll, dphi = nb2_group_loglik(self.g_n, self.g_sum_y, eta, phi,
                                           self.y_hist_vals,
                                           self.y_hist_counts)

        acc.add("beta0", dll.sum())
        xt_dll = self.g_x.T @ dll
        acc.add("beta_raw", sigma_b * xt_dll)
        acc.add("sigma_beta", float(beta_raw @ xt_dll) * sigma_b)
        g_time = np.bincount(self.g_time_idx, weights=dll,
                             minlength=self.times.size)
        self.tau.backprop(acc, g_time, tau_cache)

        fk = self.spec.fatigue.kind
        if fk == "hill":
            self.hill.backprop(acc, dll, rho_cache)
        elif fk != "none":
            size, idx, r_pos, gp_cache = rho_cache
            g_table = np.bincount(idx[r_pos], weights=dll[r_pos],
                                  minlength=size)
            if fk == "gp":
                self.rho_gp.backprop(acc, g_table, gp_cache)
            else:
                acc.add("rho", g_table)
        acc.add("phi", dphi * phi)
        logp += self.prior(theta, acc.grad)
        return logp, acc.grad

    def fatigue_curve(self, theta, r_grid: np.ndarray) -> np.ndarray:
        """rho(r) on a grid of repeat counts for one draw."""
        return self._fatigue(theta, np.asarray(r_grid, dtype=int))[0]

    def predict_log_intensity(self, theta, newdata=None, debias=False
                              ) -> np.ndarray:
        if newdata is None:
            eta, rho = self._eta(theta)
            return eta - self.data.offsets - (rho if debias else 0.0)
        beta = (float(np.exp(self.layout.raw(theta, "sigma_beta")[0]))
                * self.layout.raw(theta, "beta_raw"))
        f_time = self.tau.values_at(self.layout, theta,
                                    np.asarray(newdata["report_date"], float))
        eta = (self.layout.raw(theta, "beta0")[0] + newdata["x"] @ beta
               + f_time)
        if not debias:
            eta = eta + self.fatigue_curve(theta, newdata["repeat"])
        return eta


# ---------------------------------------------------------------------------
# Individual-level generalized additive model with per-covariate Hill curves
# ---------------------------------------------------------------------------

class IndividualGamModel(_Nb2Rows):
    """log(lambda) = beta0 + u' beta + f(age) + w' rho(r), NB2 counts."""

    def __init__(self, spec: ModelSpec, data: DesignMatrix):
        if spec.fatigue.kind not in ("none", "hill_per_covariate"):
            raise ValueError("GAM fatigue must be none or hill_per_covariate")
        self.spec = spec
        self.data = data
        self.u = data.block("u")
        self.w = data.block("w")
        self.y = data.y
        self._ycache = CountCache.from_counts(data.y)
        self.n_obs = data.n
        self.repeat = data.repeat.astype(int)
        self.age_idx = data.age.astype(int)

        self.age_grid = np.arange(AGE_MAX + 1, dtype=float)
        age_weights = np.bincount(self.age_idx,
                                  minlength=self.age_grid.size).astype(float)
        self.f_age = _HsgpTerm.on_axis("age", self.age_grid, spec.hsgp_age,
                                       spec.hsgp_age.m, AGE_SD, age_weights)

        blocks = [_intercept(spec),
                  Block("beta", self.u.shape[1], prior=PriorSpec(
                      "normal", (spec.beta_loc, spec.beta_scale)))]
        blocks += self.f_age.blocks()
        self.hill: _HillTerm | None = None
        if spec.fatigue.kind == "hill_per_covariate":
            q = self.w.shape[1]
            if q == 0:
                raise ValueError("hill_per_covariate requires a w block")
            self.hill = _HillTerm(spec.fatigue.hill_priors_for(q))
            blocks += self.hill.blocks()
        blocks.append(Block("phi", 1, "log", DISPERSION_PRIOR))
        self.layout = Layout(blocks)
        self.prior = _PriorPass(self.layout)

    def _fatigue(self, theta) -> tuple[np.ndarray, tuple | None]:
        if self.hill is None:
            return np.zeros(self.n_obs), None
        return self.hill.values(self.layout, theta, self.repeat, self.w)

    def _eta(self, theta):
        beta = self.layout.raw(theta, "beta")
        f_vals, age_cache = self.f_age.values(self.layout, theta)
        rho_vals, hill_cache = self._fatigue(theta)
        eta = (self.layout.raw(theta, "beta0")[0] + self.u @ beta
               + f_vals[self.age_idx] + rho_vals + self.data.offsets)
        _check_finite_predictor(eta)
        return eta, (age_cache, rho_vals, hill_cache)

    @_guarded
    def logp_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        acc = GradAccumulator(self.layout)
        eta, (age_cache, _rho, hill_cache) = self._eta(theta)
        phi = float(np.exp(self.layout.raw(theta, "phi")[0]))
        _positive(phi)
        ll, dll, dphi = nb2_loglik(self.y, eta, phi, self._ycache)
        logp = float(ll.sum())

        acc.add("beta0", dll.sum())
        acc.add("beta", self.u.T @ dll)
        g_age = np.bincount(self.age_idx, weights=dll,
                            minlength=self.age_grid.size)
        self.f_age.backprop(acc, g_age, age_cache)

        if self.hill is not None:
            self.hill.backprop(acc, dll, hill_cache)
        acc.add("phi", dphi.sum() * phi)
        logp += self.prior(theta, acc.grad)
        return logp, acc.grad

    def age_curve(self, theta, ages: np.ndarray | None = None) -> np.ndarray:
        """log intensity over ages at reference covariates (u = w = 0)."""
        ages = self.age_grid if ages is None else np.asarray(ages, float)
        f = self.f_age.values_at(self.layout, theta, ages)
        return self.layout.raw(theta, "beta0")[0] + f

    def predict_log_intensity(self, theta, newdata=None, debias=False
                              ) -> np.ndarray:
        if newdata is None:
            eta, parts = self._eta(theta)
            return eta - self.data.offsets - (parts[1] if debias else 0.0)
        beta = self.layout.raw(theta, "beta")
        f = self.f_age.values_at(self.layout, theta,
                                 np.asarray(newdata["age"], float))
        eta = self.layout.raw(theta, "beta0")[0] + newdata["u"] @ beta + f
        if not debias and self.hill is not None:
            eta = eta + self.hill.values(
                self.layout, theta, np.asarray(newdata["repeat"], dtype=int),
                np.asarray(newdata["w"], dtype=float))[0]
        return eta


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


def make_brc_data(*, y, wave, repeat, age, band, n_participants, s_prop,
                  population: PopulationTable, bands: CoarseBandSet,
                  pair=None, pairs: tuple[str, ...] = ("all",)) -> BrcData:
    """Assemble BRC cells and their row expansion from per-cell arrays.

    ``pair`` holds per-cell pair labels (defaults to a single shared
    surface); contact-gender population counts are looked up per pair label
    (second letter of "MM"/"MF"/... or the label itself).
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
        contact_gender = pairs[pair_arr[i]]
        if len(contact_gender) == 2:
            contact_gender = contact_gender[1]
        pop = population.get(contact_gender)
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


class AggregatedBrcModel:
    """Coarse-band NB1 likelihood over a latent rate-consistent surface.

    log mu_row = beta0 + tau_t + f_pair(a, b) + log P_b + fatigue(r, a, c)
    + log N + log S, with cell shapes sum_b mu / nu. Same-gender (and
    single-surface) pairs use the symmetrized 2D basis; "MF" rows read the
    "FM" surface with swapped coordinates, which makes the cross-gender flow
    identity hold exactly.
    """

    def __init__(self, spec: ModelSpec, data: BrcData):
        if spec.fatigue.kind not in ("none", "independent", "variant_a",
                                     "variant_b", "variant_c"):
            raise ValueError(
                f"unsupported fatigue kind {spec.fatigue.kind!r} for BRC")
        self.spec = spec
        self.data = data
        self.n_obs = data.n_cells
        self.row_a = data.cell_age[data.row_cell].astype(float)
        self.row_wave = data.cell_wave[data.row_cell]
        cfg = spec.hsgp_surface

        # one surface per pair; mixed pairs share one, read transposed
        row_pair = data.cell_pair[data.row_cell]
        of_pair = [_surface_of(label) for label in data.pairs]
        self.surfaces: dict[str, tuple[_HsgpTerm, np.ndarray]] = {}
        for key in dict.fromkeys(k for k, _ in of_pair):
            members = [p for p, (k, _) in enumerate(of_pair) if k == key]
            rows = np.flatnonzero(np.isin(row_pair, members))
            swap_mask = np.array([of_pair[p][1] for p in row_pair[rows]],
                                 dtype=bool)
            a = np.where(swap_mask, data.row_b[rows], self.row_a[rows])
            b = np.where(swap_mask, self.row_a[rows], data.row_b[rows])
            if len(key) != 2 or key[0] == key[1]:
                basis = kernels.build_hsgp_2d_symmetric(
                    KernelSpec(cfg.kernel, 1.0, 1.0),
                    KernelSpec(cfg.kernel, 1.0, 1.0),
                    a / AGE_SD, b / AGE_SD, cfg.m, cfg.c)
            else:
                basis = kernels.build_hsgp_2d(a / AGE_SD, b / AGE_SD,
                                              cfg.m, cfg.c)
            self.surfaces[key] = (_HsgpTerm(
                f"f_{key}", basis, cfg, input_sd=AGE_SD,
                center_weights=np.ones(rows.size)), rows)

        blocks = [_intercept(spec),
                  Block("tau", len(data.waves) - 1, prior=STD_NORMAL)]
        for term, _ in self.surfaces.values():
            blocks += term.blocks()
        fk = spec.fatigue.kind
        r_max = max(data.max_repeat, 1)
        if fk != "none":
            blocks.append(Block("rho", r_max, prior=STD_NORMAL))
        vcfg = variant_gp_config()
        ages_obs = np.unique(data.cell_age).astype(float)
        self.cell_age_idx = np.searchsorted(ages_obs, data.cell_age)
        mids = np.asarray(data.bands.midpoints, dtype=float)
        age_w = np.bincount(self.cell_age_idx,
                            minlength=ages_obs.size).astype(float)
        band_w = np.bincount(data.cell_band,
                             minlength=len(data.bands)).astype(float)
        # smooths added to the log fatigue scale of the variants, each with
        # the basis row of every cell
        self.smooths: list[tuple[_HsgpTerm, np.ndarray]] = []
        if fk in ("variant_a", "variant_b"):
            self.smooths.append((_HsgpTerm.on_axis(
                "fa", ages_obs, vcfg, min(vcfg.m, max(4, ages_obs.size)),
                AGE_SD, age_w), self.cell_age_idx))
        if fk == "variant_b":
            self.smooths.append((_HsgpTerm.on_axis(
                "fc", mids, vcfg, min(vcfg.m, mids.size), AGE_SD, band_w),
                data.cell_band))
        if fk == "variant_c":
            basis = kernels.build_hsgp_2d(
                data.cell_age.astype(float) / AGE_SD,
                mids[data.cell_band] / AGE_SD, min(vcfg.m, 12), vcfg.c)
            self.smooths.append((_HsgpTerm(
                "fac", basis, vcfg, input_sd=AGE_SD,
                center_weights=np.ones(data.n_cells)),
                np.arange(data.n_cells)))
        for term, _ in self.smooths:
            blocks += term.blocks()
        blocks.append(Block("nu", 1, "log", DISPERSION_PRIOR))
        self.layout = Layout(blocks)
        self.prior = _PriorPass(self.layout)
        self._cell_r_pos = data.cell_repeat >= 1
        self._cell_r_idx = np.clip(data.cell_repeat, 1, r_max) - 1

    def _tau_by_wave(self, theta) -> np.ndarray:
        tau = np.zeros(len(self.data.waves))
        if "tau" in self.layout:
            tau[1:] = self.layout.raw(theta, "tau")
        return tau

    def _fatigue_cells(self, theta):
        """Per-cell fatigue term plus caches for backprop."""
        fk = self.spec.fatigue.kind
        n_cells = self.data.n_cells
        if fk == "none":
            return np.zeros(n_cells), {}
        s = self.layout.raw(theta, "rho")[self._cell_r_idx]
        if fk == "independent":
            return np.where(self._cell_r_pos, s, 0.0), {}
        caches = []
        for term, rows in self.smooths:
            vals, cache = term.values(self.layout, theta)
            s = s + vals[rows]
            caches.append(cache)
        with np.errstate(over="ignore"):
            term = np.where(self._cell_r_pos, -np.exp(s), 0.0)
        # d(-exp(s))/ds = -exp(s)
        return term, {"smooths": caches, "dterm_ds": term}

    def _surface_rows(self, theta):
        f_rows = np.zeros(self.data.row_cell.size)
        caches = []
        for term, rows in self.surfaces.values():
            vals, cache = term.values(self.layout, theta)
            f_rows[rows] = vals
            caches.append(cache)
        return f_rows, caches

    def _log_mu_rows(self, theta):
        tau = self._tau_by_wave(theta)
        f_rows, surf_caches = self._surface_rows(theta)
        fat_cells, fat_cache = self._fatigue_cells(theta)
        log_mu = (self.layout.raw(theta, "beta0")[0] + tau[self.row_wave]
                  + f_rows + self.data.log_pop_row
                  + fat_cells[self.data.row_cell]
                  + self.data.log_offset_cell[self.data.row_cell])
        _check_finite_predictor(log_mu)
        return log_mu, surf_caches, fat_cells, fat_cache

    @_guarded
    def logp_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        acc = GradAccumulator(self.layout)
        log_mu, surf_caches, _fat, fat_cache = self._log_mu_rows(theta)
        with np.errstate(over="ignore"):
            mu = np.exp(log_mu)
        nu = float(np.exp(self.layout.raw(theta, "nu")[0]))
        _positive(nu)
        ll, d_mu, d_nu = nb1_agg_loglik(self.data.y, mu, self.data.row_cell,
                                        nu)
        logp = float(ll.sum())
        with np.errstate(invalid="ignore"):
            dll_rows = d_mu * mu   # d logp / d log_mu per row

        acc.add("beta0", dll_rows.sum())
        if "tau" in self.layout:
            g_tau = np.bincount(self.row_wave, weights=dll_rows,
                                minlength=len(self.data.waves))
            acc.add("tau", g_tau[1:])
        for (term, rows), cache in zip(self.surfaces.values(), surf_caches):
            term.backprop(acc, dll_rows[rows], cache)

        fk = self.spec.fatigue.kind
        if fk != "none":
            g_cells = np.bincount(self.data.row_cell, weights=dll_rows,
                                  minlength=self.data.n_cells)
            if fk == "independent":
                d_s = np.where(self._cell_r_pos, g_cells, 0.0)
            else:
                with np.errstate(invalid="ignore"):
                    d_s = g_cells * fat_cache["dterm_ds"]  # zero where r = 0
            acc.add("rho", np.bincount(self._cell_r_idx[self._cell_r_pos],
                                       weights=d_s[self._cell_r_pos],
                                       minlength=self.layout.raw(theta, "rho").size))
            for (term, rows), cache in zip(self.smooths,
                                           fat_cache.get("smooths", ())):
                g_rows = np.bincount(rows[self._cell_r_pos],
                                     weights=d_s[self._cell_r_pos],
                                     minlength=term.phi.shape[0])
                term.backprop(acc, g_rows, cache)
        acc.add("nu", d_nu * nu)
        logp += self.prior(theta, acc.grad)
        return logp, acc.grad

    def pointwise_loglik(self, theta: np.ndarray) -> np.ndarray:
        log_mu = self._log_mu_rows(theta)[0]
        nu = float(np.exp(self.layout.raw(theta, "nu")[0]))
        return nb1_agg_loglik(self.data.y, np.exp(log_mu),
                              self.data.row_cell, nu)[0]

    def predict_log_m(self, theta, pair: str, wave: int, a: np.ndarray,
                      b: np.ndarray, population: PopulationTable
                      ) -> np.ndarray:
        """log contact intensity log m(a, b) for one gender pair and wave."""
        key, swap = _surface_of(pair)
        if key not in self.surfaces:
            raise ValueError(f"no surface for pair {pair!r}")
        term = self.surfaces[key][0]
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        fa, fb = (b, a) if swap else (a, b)
        f = term.values_at(self.layout, theta, fa, fb)
        tau = self._tau_by_wave(theta)
        t_idx = self.data.waves.index(wave)
        gender = pair[1] if len(pair) == 2 else pair
        pop = population.get(gender)
        return (self.layout.raw(theta, "beta0")[0] + tau[t_idx] + f
                + np.log(pop[b.astype(int)]))

    def replicate(self, theta, rng: np.random.Generator) -> np.ndarray:
        log_mu = self._log_mu_rows(theta)[0]
        nu = float(np.exp(self.layout.raw(theta, "nu")[0]))
        mu_cells = np.bincount(self.data.row_cell, weights=np.exp(log_mu),
                               minlength=self.data.n_cells)
        return nb1_rvs(rng, mu_cells, nu)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

Model = (Stage1PoissonModel | Stage2PoissonModel | LongitudinalNbModel
         | IndividualGamModel | AggregatedBrcModel)


def build_model(spec: ModelSpec, data) -> Model:
    if spec.family == "stage1_poisson":
        return Stage1PoissonModel(spec, data)
    if spec.family == "stage2_poisson":
        return Stage2PoissonModel(spec, data)
    if spec.family == "longitudinal_nb":
        return LongitudinalNbModel(spec, data)
    if spec.family == "individual_gam":
        return IndividualGamModel(spec, data)
    return AggregatedBrcModel(spec, data)


def predict_intensity(model: Model, draws: np.ndarray, newdata=None,
                      debias: bool = False) -> np.ndarray:
    """Per-draw intensity matrix exp(predictor) of shape (n_draws, n_rows)."""
    draws = np.atleast_2d(draws)
    out = [np.exp(model.predict_log_intensity(theta, newdata, debias))
           for theta in draws]
    return np.asarray(out)
