"""Gradient-based MCMC, MAP optimization, diagnostics, and summaries.

The sampler is a dynamic Hamiltonian Monte Carlo with multinomial trajectory
sampling over a binary tree (a no-U-turn scheme), dual-averaging step-size
adaptation toward a target acceptance statistic, and a diagonal mass matrix
estimated in expanding warmup windows. The tree is built leaf by leaf, its
subtrees merged in the order of the recursive doubling (iterative NUTS).
Chains own independent RNG streams derived from (seed, chain index), so runs
are reproducible and chain order is irrelevant.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models.params import Layout

DIVERGENCE_THRESHOLD = 1000.0


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 4
    warmup: int = 300
    sampling: int = 300
    target_accept: float = 0.8
    max_tree_depth: int = 10
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.warmup < 100:
            raise ValueError("warmup must be >= 100 for adaptation")
        if self.sampling < 1:
            raise ValueError("sampling must be >= 1")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must be in (0, 1)")
        if self.max_tree_depth < 1:
            raise ValueError("max_tree_depth must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


#: a fit has converged when every finite R-hat is below RHAT_LIMIT and at
#: most DIVERGENT_SHARE_LIMIT of its post-warmup transitions diverged
RHAT_LIMIT = 1.05
DIVERGENT_SHARE_LIMIT = 0.10


class ConvergenceWarning(RuntimeWarning):
    """A sampler run broke ``RHAT_LIMIT`` or ``DIVERGENT_SHARE_LIMIT``."""


@dataclass
class Diagnostics:
    rhat: dict[str, float]
    ess_bulk: dict[str, float]
    divergences: int

    def max_rhat(self) -> float:
        vals = [v for v in self.rhat.values() if not np.isnan(v)]
        return max(vals) if vals else float("nan")

    def convergence_failure(self, n_transitions: int) -> str | None:
        """The limits broken over ``n_transitions`` transitions, or None."""
        failures = []
        if self.max_rhat() >= RHAT_LIMIT:
            failures.append(f"max R-hat {self.max_rhat():.3f} >= {RHAT_LIMIT}")
        if self.divergences > DIVERGENT_SHARE_LIMIT * n_transitions:
            failures.append(f"{self.divergences} of {n_transitions} "
                            "transitions were divergent")
        return "; ".join(failures) or None


@dataclass
class PosteriorDraws:
    """Post-warmup draws on the unconstrained scale plus bookkeeping."""

    layout: Layout
    draws: np.ndarray                    # (chains, iterations, dim)
    divergent: np.ndarray                # (chains, iterations) bool
    step_sizes: np.ndarray               # (chains,)
    grad_evals: np.ndarray               # (chains,) logp_grad calls
    pointwise_loglik: np.ndarray | None  # (chains * iterations, n_obs)

    @property
    def parameter_names(self) -> list[str]:
        return self.layout.parameter_names()

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    def stacked(self) -> np.ndarray:
        return self.draws.reshape(-1, self.draws.shape[2])

    def constrained(self, name: str) -> np.ndarray:
        """(n_draws, block size) draws of one named block, natural scale."""
        return self.layout.constrained(self.stacked())[name]

    def point(self, reducer=np.median) -> dict[str, np.ndarray]:
        return {name: reducer(v, axis=0) for name, v
                in self.layout.constrained(self.stacked()).items()}


# ---------------------------------------------------------------------------
# Dynamic HMC with multinomial trajectory sampling
# ---------------------------------------------------------------------------

class _Target:
    """Counts gradient evaluations around a (logp, grad) callable."""

    def __init__(self, logp_grad):
        self.logp_grad = logp_grad
        self.evals = 0

    def __call__(self, theta):
        self.evals += 1
        return self.logp_grad(theta)


class _DualAveraging:
    def __init__(self, eps0: float, target: float):
        self.mu = np.log(10.0 * eps0)
        self.target = target
        self.log_eps = np.log(eps0)
        self.log_eps_bar = np.log(eps0)
        self.h_bar = 0.0
        self.count = 0
        self.gamma = 0.1
        self.t0 = 10.0
        self.kappa = 0.75

    def update(self, accept_stat: float) -> None:
        self.count += 1
        eta = 1.0 / (self.count + self.t0)
        self.h_bar = (1 - eta) * self.h_bar + eta * (self.target - accept_stat)
        self.log_eps = self.mu - np.sqrt(self.count) / self.gamma * self.h_bar
        w = self.count ** -self.kappa
        self.log_eps_bar = w * self.log_eps + (1 - w) * self.log_eps_bar

    @property
    def eps(self) -> float:
        return float(np.exp(self.log_eps))

    @property
    def eps_final(self) -> float:
        return float(np.exp(self.log_eps_bar))


class _Welford:
    def __init__(self, dim: int):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def push(self, x: np.ndarray) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def variance(self) -> np.ndarray:
        var = self.m2 / (self.n - 1)
        # shrink toward a small diagonal, as in standard warmup practice
        return (self.n / (self.n + 5.0)) * var + 1e-3 * (5.0 / (self.n + 5.0))


def _kinetic(r, p_sharp):
    """The kinetic energy r^T M^-1 r / 2, from p_sharp = M^-1 r."""
    return 0.5 * float(r @ p_sharp)


class _TreeState:
    """A trajectory segment: its two edges, (theta, r, grad, p_sharp) at
    the backward end ``edges[0]`` and the forward end ``edges[1]`` with
    p_sharp = M^-1 r, the multinomial sample drawn from it, the log of its
    total weight, and acceptance statistics."""

    __slots__ = ("edges", "theta", "logp", "grad", "log_w", "alpha",
                 "n_alpha", "divergent", "ok")

    def __init__(self, edge, logp, log_w, alpha, n_alpha, divergent):
        self.edges = [edge] * 2
        self.theta, self.logp, self.grad = edge[0], logp, edge[2]
        self.log_w, self.alpha, self.n_alpha = log_w, alpha, n_alpha
        self.divergent = divergent
        self.ok = not divergent


def _moves(eps, inv_mass):
    """The leapfrog steps of size ``eps`` backward and forward, each as
    (eps / 2, eps M^-1, M^-1) with the sign of its direction."""
    return ((0.5 * -eps, -eps * inv_mass, inv_mass),
            (0.5 * eps, eps * inv_mass, inv_mass))


def _leaf(target, edge, move, h0):
    """One leapfrog step ``move`` of ``_moves`` from ``edge`` = (theta, r,
    grad, p_sharp), as a one-leaf tree whose log weight is the energy
    error h - h0 (-inf when not finite)."""
    theta, r, grad, _ = edge
    half, step, inv_mass = move
    r1 = r + half * grad
    theta1 = theta + step * r1
    logp1, grad1 = target(theta1)
    r1 = r1 + half * grad1
    p1 = inv_mass * r1
    h1 = logp1 - _kinetic(r1, p1) if math.isfinite(logp1) else -np.inf
    delta = h1 - h0
    if not math.isfinite(delta):
        delta = -np.inf
    return _TreeState((theta1, r1, grad1, p1), logp1, delta,
                      min(1.0, float(np.exp(min(delta, 0.0)))), 1,
                      -delta > DIVERGENCE_THRESHOLD)


def _find_reasonable_epsilon(target, theta, logp, grad, inv_mass, rng):
    r = rng.standard_normal(theta.size) / np.sqrt(inv_mass)
    p_sharp = inv_mass * r
    h0 = logp - _kinetic(r, p_sharp)

    def delta_h(eps):
        return _leaf(target, (theta, r, grad, p_sharp),
                     _moves(eps, inv_mass)[1], h0).log_w

    eps = 1.0
    direction = 1.0 if delta_h(eps) > np.log(0.5) else -1.0
    for _ in range(50):
        eps *= 2.0 ** direction
        if direction * delta_h(eps) <= direction * np.log(0.5):
            break
    return max(min(eps, 10.0), 1e-10)


_LOG2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y) of two floats, in the operations of NumPy's
    ``logaddexp`` (equal arguments, infinite ones included, give x +
    log 2)."""
    if x == y:
        return x + _LOG2
    hi, lo = (x, y) if x > y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def _merge(tree, sub, side, rng, biased):
    """Extend ``tree`` by the adjacent subtree ``sub`` on ``side`` (0 =
    backward, 1 = forward), in place.

    The multinomial sample moves to the subtree's sample with probability
    w_sub / w_tree when ``biased`` (progressive sampling at the top level of
    the trajectory, which favours the newer half) and w_sub / (w_tree +
    w_sub) otherwise (uniform sampling inside subtrees). Clears ``tree.ok``
    when the subtree diverged or turned, or when the merged trajectory makes
    a U-turn.
    """
    tree.alpha += sub.alpha
    tree.n_alpha += sub.n_alpha
    tree.divergent |= sub.divergent
    if not sub.ok:
        tree.ok = False
        return
    total = _logaddexp(tree.log_w, sub.log_w)
    u = rng.random()
    # log(0) = -inf, which math.log refuses, is below any finite log weight
    if u == 0.0 or math.log(u) < sub.log_w - (tree.log_w if biased
                                              else total):
        tree.theta, tree.logp, tree.grad = sub.theta, sub.logp, sub.grad
    tree.log_w = total
    tree.edges[side] = sub.edges[side]
    (theta_minus, _, _, p_minus), (theta_plus, _, _, p_plus) = tree.edges
    span = theta_plus - theta_minus
    if (span @ p_minus) < 0 or (span @ p_plus) < 0:
        tree.ok = False


def _transition(target, theta, logp, grad, eps, inv_mass, max_depth, rng):
    """One transition from (theta, logp, grad): the trajectory's tree, whose
    multinomial sample is the next state.

    Each doubling draws a side and builds its 2**depth leaves one after
    another. With the start as leaf 0 and leaves numbered in build order,
    leaf k completes one subtree per trailing 1 bit of k, and each merges
    into the finished subtree before it, which waits in ``pending``; the
    last merge of a doubling is into the whole trajectory. So merges happen
    in the order of the recursive doubling. Once a merge fails, the stack
    folds into the failed tree and no further leaf is built.
    """
    r0 = rng.standard_normal(theta.size) / np.sqrt(inv_mass)
    p0 = inv_mass * r0
    h0 = logp - _kinetic(r0, p0)
    tree = _TreeState((theta, r0, grad, p0), logp, 0.0, 0.0, 0, False)
    moves = _moves(eps, inv_mass)
    for depth in range(max_depth):
        side = int(rng.random() < 0.5)
        pending = [tree]
        for k in range(2 ** depth, 2 ** (depth + 1)):
            sub = _leaf(target, pending[-1].edges[side], moves[side], h0)
            while pending and (k & 1 or not sub.ok):
                left = pending.pop()
                _merge(left, sub, side, rng, biased=not pending)
                sub, k = left, k >> 1
            if not pending:
                break
            pending.append(sub)
        if not tree.ok:
            break
    return tree


def _run_chain(logp_grad, dim, cfg: SamplerConfig, chain_idx: int):
    """One chain's draws, divergences, final step size and gradient count.

    The chain runs under one ``np.errstate``: a trial step, such as a
    doubling of the step-size search, can reach momenta whose kinetic
    energy overflows. The leaf's energy is then taken as -inf, so the
    overflow is expected, and NumPy's warning about it is off."""
    with np.errstate(over="ignore", invalid="ignore"):
        rng = np.random.default_rng([cfg.seed, chain_idx])
        target = _Target(logp_grad)

        theta = None
        for _ in range(100):
            cand = rng.uniform(-2.0, 2.0, size=dim)
            logp, grad = target(cand)
            if np.isfinite(logp) and np.all(np.isfinite(grad)):
                theta = cand
                break
        if theta is None:
            raise RuntimeError(
                "could not find a finite initial point in 100 attempts")

        inv_mass = np.ones(dim)
        eps0 = _find_reasonable_epsilon(target, theta, logp, grad, inv_mass,
                                        rng)
        adapt = _DualAveraging(eps0, cfg.target_accept)

        # Warmup phases (each non-empty, as warmup >= 100): step-size only,
        # expanding variance windows up to slow_end, final step-size polish.
        fast1 = int(round(0.15 * cfg.warmup))
        slow_end = cfg.warmup - int(round(0.10 * cfg.warmup))
        window_ends = set()
        end, w = fast1, max(25, (slow_end - fast1) // 8)
        while end < slow_end:
            end = end + w if slow_end - end >= 2 * w else slow_end
            window_ends.add(end)
            w *= 2
        welford = _Welford(dim)

        total = cfg.warmup + cfg.sampling
        draws = np.zeros((cfg.sampling, dim))
        divergent = np.zeros(cfg.sampling, dtype=bool)

        eps = adapt.eps
        for it in range(total):
            state = _transition(target, theta, logp, grad, eps, inv_mass,
                                cfg.max_tree_depth, rng)
            theta, logp, grad = state.theta, state.logp, state.grad
            accept_stat = state.alpha / state.n_alpha

            if it < cfg.warmup:
                adapt.update(accept_stat)
                eps = adapt.eps
                if fast1 <= it < slow_end:
                    welford.push(theta)
                    if (it + 1) in window_ends:
                        inv_mass = welford.variance()
                        welford = _Welford(dim)
                        # restart dual averaging anchored at the matured
                        # running average, which is stable against the
                        # oscillation of the instantaneous step size
                        adapt = _DualAveraging(max(adapt.eps_final, 1e-10),
                                               cfg.target_accept)
                        eps = adapt.eps
                if it == cfg.warmup - 1:
                    eps = adapt.eps_final
            else:
                draws[it - cfg.warmup] = theta
                divergent[it - cfg.warmup] = state.divergent

        return draws, divergent, eps, target.evals


def sample_model(model, cfg: SamplerConfig,
                 compute_pointwise: bool = True
                 ) -> tuple[PosteriorDraws, Diagnostics]:
    """Run the sampler on any object exposing ``logp_grad`` and a layout."""
    dim = model.layout.size

    def run(c):
        return _run_chain(model.logp_grad, dim, cfg, c)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run, range(cfg.chains)))
    else:
        results = [run(c) for c in range(cfg.chains)]

    draws = np.stack([r[0] for r in results])
    divergent = np.stack([r[1] for r in results])
    step_sizes = np.array([r[2] for r in results])
    grad_evals = np.array([r[3] for r in results])

    pointwise = None
    if compute_pointwise and hasattr(model, "pointwise_loglik"):
        flat = draws.reshape(-1, dim)
        pointwise = np.asarray([model.pointwise_loglik(t) for t in flat])

    post = PosteriorDraws(layout=model.layout, draws=draws,
                          divergent=divergent, step_sizes=step_sizes,
                          grad_evals=grad_evals, pointwise_loglik=pointwise)
    diag = rhat_ess(post)
    if failure := diag.convergence_failure(divergent.size):
        warnings.warn(failure, ConvergenceWarning, stacklevel=2)
    return post, diag


# ---------------------------------------------------------------------------
# MAP optimization
# ---------------------------------------------------------------------------

def warm_start_point(model, seed: int) -> np.ndarray | None:
    """Best-effort posterior-mode (MAP) search by L-BFGS, from zero and
    then from one uniform(-1, 1) point; None when both fail."""
    # imported here, not with the module: SciPy's optimizers take a few
    # hundred ms and about 24 MB to load, which only a MAP search needs
    from scipy.optimize import minimize

    def negative_logp(theta):
        logp, grad = model.logp_grad(theta)
        if not np.isfinite(logp):
            return 1e30, np.zeros_like(theta)
        return -logp, -grad

    dim = model.layout.size
    rng = np.random.default_rng(seed)
    for attempt in range(2):
        x0 = np.zeros(dim) if attempt == 0 else rng.uniform(-1, 1, size=dim)
        res = minimize(negative_logp, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 500, "gtol": 1e-10,
                                "ftol": 1e-18, "maxls": 100})
        if np.isfinite(res.fun) and res.fun < 1e29:
            return res.x
    return None


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def _rhat(x: np.ndarray) -> float:
    """Split R-hat of one parameter's (split chains, draws) array; inf
    when every split chain is constant but not all at one value."""
    n = x.shape[1]
    within = x.var(axis=1, ddof=1).mean()
    if within == 0:
        return float("inf")
    between = n * np.var(x.mean(axis=1), ddof=1)
    var_hat = (n - 1) / n * within + between / n
    return float(np.sqrt(var_hat / within))


def _ess(x: np.ndarray) -> float:
    """Bulk ESS of one parameter's (split chains, draws) array, via
    Geyer's initial monotone sequence."""
    m, n = x.shape
    if n < 4:
        return float("nan")
    xc = x - x.mean(axis=1, keepdims=True)
    pad = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, pad, axis=1)
    acov = np.fft.irfft(f * np.conj(f), pad, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n + np.var(x.mean(axis=1), ddof=1)
    if var_plus == 0:
        return float("nan")

    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        rho_odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        rho[t + 1] = rho_even
        if rho_even + rho_odd >= 0:
            rho[t + 2] = rho_odd
        t += 2
    max_t = t
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2
    tau = -1.0 + 2.0 * rho[:max_t].sum() + rho[max_t + 1: max_t + 2].sum()
    return float(m * n / max(tau, 1e-12))


def rhat_ess(draws: PosteriorDraws) -> Diagnostics:
    """Split R-hat and bulk effective sample size per parameter: NaN for
    every parameter below 2 chains or 4 draws per chain, and for a
    parameter whose draws are all equal."""
    arr = draws.draws.transpose(2, 0, 1)     # (parameter, chain, draw)
    names = draws.parameter_names
    diag = Diagnostics(rhat=dict.fromkeys(names, float("nan")),
                       ess_bulk=dict.fromkeys(names, float("nan")),
                       divergences=int(draws.divergent.sum()))
    _, chains, n = arr.shape
    if chains < 2 or n < 4:
        return diag
    # each parameter's split chains: every first half, then every second
    half = n // 2
    split = np.concatenate([arr[:, :, :half], arr[:, :, n - half:]], axis=1)
    constant = []
    for name, x, halves in zip(names, arr, split):
        if np.ptp(x) == 0:
            constant.append(name)
        else:
            diag.rhat[name], diag.ess_bulk[name] = _rhat(halves), _ess(halves)
    if constant:
        warnings.warn(f"R-hat undefined for constant chains: {constant[:5]}",
                      RuntimeWarning, stacklevel=2)
    return diag


#: probabilities of the central 95% and 50% posterior intervals
INTERVAL_95 = (0.025, 0.975)
INTERVAL_50 = (0.25, 0.75)


def posterior_interval(values, probs) -> tuple[np.ndarray, np.ndarray]:
    """Median and quantiles at ``probs`` of per-draw ``values`` (draws on
    axis 0); the quantiles are stacked on a new leading axis."""
    return np.median(values, axis=0), np.quantile(values, probs, axis=0)


def summarize(draws: PosteriorDraws) -> list[dict[str, float]]:
    """Per-parameter posterior medians and the bounds of the 95% and 50%
    intervals on the natural scale."""
    if draws.stacked().size == 0:
        raise ValueError("no draws to summarize")
    probs = sorted(INTERVAL_95 + INTERVAL_50)
    natural = np.hstack(list(draws.layout.constrained(
        draws.stacked()).values()))
    med, quantiles = posterior_interval(natural, probs)
    return [{"parameter": name, "median": float(med[j]),
             **{f"q{p}": float(q[j]) for p, q in zip(probs, quantiles)}}
            for j, name in enumerate(draws.parameter_names)]
