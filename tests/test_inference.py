import warnings

import numpy as np
import pytest

from contactfatigue.inference import (DIVERGENT_SHARE_LIMIT, RHAT_LIMIT,
                                      ConvergenceWarning, Diagnostics,
                                      PosteriorDraws, SamplerConfig,
                                      _Target, _transition, rhat_ess,
                                      sample_model, warm_start_point)
from contactfatigue.models.params import Block, Layout


class MixedScaleGaussian:
    """Independent normal target whose scales span two orders of magnitude,
    so a sampler without a working mass-matrix adaptation mixes poorly."""

    def __init__(self, dim=20):
        self.layout = Layout([Block("theta", dim)])
        self.mu = np.linspace(-3.0, 3.0, dim)
        self.sd = np.geomspace(0.1, 10.0, dim)

    def logp_grad(self, theta):
        z = (theta - self.mu) / self.sd
        return -0.5 * float(z @ z), -z / self.sd


@pytest.fixture(scope="module")
def gaussian_fit():
    target = MixedScaleGaussian()
    cfg = SamplerConfig(chains=4, warmup=300, sampling=500, seed=0)
    post, diag = sample_model(target, cfg)
    return target, cfg, post, diag


class TestSamplerOnKnownTarget:
    def test_means_within_monte_carlo_error(self, gaussian_fit):
        target, _, post, diag = gaussian_fit
        flat = post.stacked()
        ess = np.array([diag.ess_bulk[n] for n in post.parameter_names])
        mcse = flat.std(axis=0) / np.sqrt(ess)
        assert np.all(np.abs(flat.mean(axis=0) - target.mu) < 4.0 * mcse)

    def test_variances_recovered(self, gaussian_fit):
        target, _, post, _ = gaussian_fit
        ratio = post.stacked().var(axis=0) / target.sd**2
        assert np.all((ratio > 0.8) & (ratio < 1.25))

    def test_chains_agree(self, gaussian_fit):
        _, _, _, diag = gaussian_fit
        assert diag.max_rhat() < 1.01

    def test_gradient_evaluations_are_kept(self, gaussian_fit):
        _, cfg, post, _ = gaussian_fit
        assert post.grad_evals.shape == (cfg.chains,)
        assert np.all(post.grad_evals >= cfg.warmup + cfg.sampling)

    def test_seeded_runs_are_identical(self, gaussian_fit):
        target, cfg, post, _ = gaussian_fit
        again, _ = sample_model(target, cfg)
        np.testing.assert_array_equal(post.draws, again.draws)
        np.testing.assert_array_equal(post.grad_evals, again.grad_evals)


class CorrelatedGaussian:
    """Normal target with pairwise correlation 0.9 and scales over a decade,
    which a diagonal mass matrix cannot whiten."""

    def __init__(self, dim=8, rho=0.9):
        self.layout = Layout([Block("theta", dim)])
        self.mu = np.zeros(dim)
        self.sd = np.geomspace(0.5, 5.0, dim)
        self.rho = rho
        corr = np.full((dim, dim), rho)
        np.fill_diagonal(corr, 1.0)
        self.precision = np.linalg.inv(corr * np.outer(self.sd, self.sd))

    def logp_grad(self, theta):
        grad = -(self.precision @ (theta - self.mu))
        return 0.5 * float((theta - self.mu) @ grad), grad


class TestSamplerOnCorrelatedTarget:
    @pytest.fixture(scope="class")
    def fit(self):
        target = CorrelatedGaussian()
        cfg = SamplerConfig(chains=4, warmup=300, sampling=500, seed=0)
        post, diag = sample_model(target, cfg)
        return target, post, diag

    def test_means_within_monte_carlo_error(self, fit):
        target, post, diag = fit
        flat = post.stacked()
        ess = np.array([diag.ess_bulk[n] for n in post.parameter_names])
        mcse = flat.std(axis=0) / np.sqrt(ess)
        assert np.all(np.abs(flat.mean(axis=0) - target.mu) < 4.0 * mcse)

    def test_variances_recovered(self, fit):
        target, post, _ = fit
        ratio = post.stacked().var(axis=0) / target.sd**2
        assert np.all((ratio >= 0.8) & (ratio <= 1.25))

    def test_correlations_recovered(self, fit):
        target, post, _ = fit
        corr = np.corrcoef(post.stacked(), rowvar=False)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.all(np.abs(off - target.rho) < 0.05)


#: the start of each transition that ``TestTransition`` builds
START = np.linspace(-1.0, 1.0, 3)


def _flat(theta):
    return 0.0, np.zeros_like(theta)


def _finite_only_at_start(theta):
    return (0.0 if np.array_equal(theta, START) else -np.inf,
            np.zeros_like(theta))


class TestTransition:
    @staticmethod
    def _run(logp_grad, max_depth, seed=0):
        target = _Target(logp_grad)
        logp, grad = logp_grad(START)
        tree = _transition(target, START, logp, grad, 0.1, np.ones(3),
                           max_depth, np.random.default_rng(seed))
        return tree, target.evals

    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    def test_flat_target_runs_to_the_depth_limit(self, max_depth):
        # with no force the trajectory is a straight line and never turns
        tree, evals = self._run(_flat, max_depth)
        assert evals == 2**max_depth - 1
        assert tree.n_alpha == 2**max_depth - 1
        assert tree.alpha / tree.n_alpha == 1.0
        assert tree.ok and not tree.divergent

    def test_non_finite_first_leaf_stays_put_and_diverges(self):
        tree, evals = self._run(_finite_only_at_start, max_depth=10)
        assert evals == 1
        assert tree.theta is START
        assert tree.divergent and not tree.ok
        assert tree.alpha == 0.0 and tree.n_alpha == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_every_leaf_counts_once(self, seed):
        tree, evals = self._run(MixedScaleGaussian(dim=3).logp_grad,
                                max_depth=10, seed=seed)
        assert tree.n_alpha == evals <= 2**10 - 1


class TestConvergenceLimits:
    @staticmethod
    def _diag(rhat, divergences):
        return Diagnostics(rhat={"a": rhat, "b": float("nan")},
                           ess_bulk={}, divergences=divergences)

    def test_within_both_limits(self):
        assert self._diag(1.04, 10).convergence_failure(100) is None

    def test_rhat_at_the_limit_fails(self):
        failure = self._diag(RHAT_LIMIT, 0).convergence_failure(100)
        assert failure == "max R-hat 1.050 >= 1.05"

    def test_divergent_share_above_the_limit_fails(self):
        assert self._diag(1.0, 10).convergence_failure(100) is None
        failure = self._diag(1.0, 11).convergence_failure(100)
        assert failure == "11 of 100 transitions were divergent"
        assert DIVERGENT_SHARE_LIMIT == 0.10

    @staticmethod
    def _draws(chains):
        chains = np.asarray(chains, dtype=float)
        return PosteriorDraws(
            layout=Layout([Block("a", 1)]), draws=chains[:, :, None],
            divergent=np.zeros(chains.shape, dtype=bool),
            step_sizes=np.ones(len(chains)), grad_evals=np.zeros(len(chains)),
            pointwise_loglik=None)

    def test_chains_apart_near_a_large_value_fail(self):
        # chains five SDs apart at 1e4 lie within np.allclose's relative
        # tolerance of one value: they passed as constant, with R-hat NaN
        rng = np.random.default_rng(0)
        chains = 1e4 + np.array([[0.0], [0.05]]) + rng.normal(0, 0.01,
                                                              (2, 200))
        diag = rhat_ess(self._draws(chains))
        assert diag.rhat["a"] > RHAT_LIMIT
        assert np.isfinite(diag.ess_bulk["a"])
        assert diag.convergence_failure(400).startswith("max R-hat")

    def test_chains_stuck_apart_fail(self):
        # each chain constant at its own value: no within-chain variance,
        # so no finite R-hat, yet not constant as a whole
        diag = rhat_ess(self._draws(np.repeat([[0.0], [1.0]], 200, axis=1)))
        assert diag.rhat["a"] == np.inf
        assert diag.convergence_failure(400).startswith("max R-hat")

    @pytest.mark.parametrize("shape", [(1, 50), (2, 3)])
    def test_too_few_draws_have_no_diagnostics(self, shape):
        draws = np.random.default_rng(0).normal(size=shape)
        diag = rhat_ess(self._draws(draws))
        assert np.isnan(diag.rhat["a"]) and np.isnan(diag.ess_bulk["a"])
        assert diag.convergence_failure(draws.size) is None

    def test_only_equal_draws_are_constant(self):
        with pytest.warns(RuntimeWarning, match="constant chains: \\['a'\\]"):
            diag = rhat_ess(self._draws(np.full((2, 8), 1e4)))
        assert np.isnan(diag.rhat["a"]) and np.isnan(diag.ess_bulk["a"])


class SteepLog:
    """-1e300 sum(log1p(|theta|)): finite everywhere, with gradients near
    1e300 at the sampler's start. A leapfrog step of the first trial step
    size reaches momenta near 1e300, whose kinetic energy overflows."""

    layout = Layout([Block("theta", 2)])

    def logp_grad(self, theta):
        a = np.abs(theta)
        return (-1e300 * float(np.log1p(a).sum()),
                -1e300 * np.sign(theta) / (1.0 + a))


class TestSteepTarget:
    def test_step_size_search_is_silent(self):
        # the overflowing kinetic energy is taken as -inf; NumPy's
        # overflow warning reached the user from the step-size search
        cfg = SamplerConfig(chains=1, warmup=100, sampling=10, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", category=ConvergenceWarning)
            post, _ = sample_model(SteepLog(), cfg)
        assert np.isfinite(post.draws).all()


class Quadratic:
    """A Gaussian log density with its mode at MODE and unequal scales."""

    MODE = np.array([0.5, -1.5, 2.0])
    PRECISION = np.array([0.1, 1.0, 30.0])
    layout = Layout([Block("theta", 3)])

    def logp_grad(self, theta):
        d = theta - self.MODE
        return -0.5 * float(d @ (self.PRECISION * d)), -self.PRECISION * d


class Nowhere:
    """A target that no state reaches."""

    layout = Layout([Block("theta", 3)])

    def logp_grad(self, theta):
        return -np.inf, np.zeros_like(theta)


class TestWarmStartPoint:
    def test_finds_the_mode(self):
        np.testing.assert_allclose(warm_start_point(Quadratic()),
                                   Quadratic.MODE, rtol=0, atol=1e-6)

    def test_an_unreachable_target_has_no_mode(self):
        assert warm_start_point(Nowhere()) is None


class TestSamplerConfig:
    @pytest.mark.parametrize("setting,message", [
        ({"chains": 0}, "at least one chain"),
        ({"warmup": 99}, "warmup must be >= 100"),
        ({"sampling": 0}, "sampling must be >= 1"),
        ({"max_tree_depth": 0}, "max_tree_depth must be >= 1"),
        ({"target_accept": 0.0}, r"target_accept must be in \(0, 1\)"),
        ({"target_accept": 1.0}, r"target_accept must be in \(0, 1\)"),
        ({"target_accept": 1.5}, r"target_accept must be in \(0, 1\)"),
        ({"target_accept": float("nan")}, "target_accept")])
    def test_settings_that_cannot_run_are_refused(self, setting, message):
        # zero draws, trees that never leave the start, or a step-size
        # target no step size reaches
        with pytest.raises(ValueError, match=message):
            SamplerConfig(**setting)

    def test_the_smallest_runnable_settings_are_kept(self):
        cfg = SamplerConfig(chains=1, warmup=100, sampling=1,
                            max_tree_depth=1, target_accept=0.5)
        assert (cfg.sampling, cfg.max_tree_depth) == (1, 1)
