import numpy as np
import pytest
from scipy import stats

from contactfatigue.models.likelihoods import (nb1_agg_loglik, nb1_loglik,
                                               nb1_rvs, nb2_loglik, nb2_rvs,
                                               poisson_loglik)


class TestPoisson:
    def test_matches_scipy(self):
        y = np.arange(0, 12, dtype=float)
        log_mu = np.linspace(-1, 2, 12)
        ll, _ = poisson_loglik(y, log_mu)
        np.testing.assert_allclose(
            ll, stats.poisson.logpmf(y, np.exp(log_mu)), rtol=1e-12)


class TestNb2:
    def test_matches_scipy_nbinom(self):
        # NB2 with mean mu and shape phi is nbinom(n=phi, p=phi/(phi+mu))
        y = np.arange(0, 15, dtype=float)
        mu, phi = 2.7, 1.3
        ll, _, _ = nb2_loglik(y, np.full(15, np.log(mu)), phi)
        np.testing.assert_allclose(
            ll, stats.nbinom.logpmf(y, phi, phi / (phi + mu)), rtol=1e-10)

    def test_moments_by_monte_carlo(self):
        rng = np.random.default_rng(0)
        draws = nb2_rvs(rng, np.full(1_000_000, 2.0), 1.0)
        assert draws.mean() == pytest.approx(2.0, rel=0.01)
        assert draws.var() == pytest.approx(6.0, rel=0.01)  # mu + mu^2/phi

    def test_poisson_limit(self):
        y = np.array([3.0])
        log_mu = np.array([np.log(2.0)])
        nb = nb2_loglik(y, log_mu, 1e6)[0][0]
        pois = poisson_loglik(y, log_mu)[0][0]
        assert nb == pytest.approx(pois, abs=1e-4)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 20, size=30).astype(float)
        log_mu = rng.uniform(-1, 2, size=30)
        phi = 1.7
        _, d_logmu, d_phi = nb2_loglik(y, log_mu, phi)
        h = 1e-6
        num_mu = (nb2_loglik(y, log_mu + h, phi)[0]
                  - nb2_loglik(y, log_mu - h, phi)[0]) / (2 * h)
        num_phi = (nb2_loglik(y, log_mu, phi + h)[0]
                   - nb2_loglik(y, log_mu, phi - h)[0]) / (2 * h)
        np.testing.assert_allclose(d_logmu, num_mu, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(d_phi, num_phi, rtol=1e-5, atol=1e-8)

    def test_extreme_predictor_is_rejected_not_nan(self):
        y = np.array([3.0, 0.0])
        ll, d1, d2 = nb2_loglik(y, np.array([800.0, -800.0]), 2.0)
        assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
        assert ll[0] < -1e3


class TestNb1:
    def test_matches_scipy_nbinom(self):
        # NB1 with mean mu and odds nu is nbinom(n=mu/nu, p=1/(1+nu))
        y = np.arange(0, 15, dtype=float)
        mu, nu = 3.0, 2.0
        ll, _, _ = nb1_loglik(y, np.full(15, mu), nu)
        np.testing.assert_allclose(
            ll, stats.nbinom.logpmf(y, mu / nu, 1 / (1 + nu)), rtol=1e-10)

    def test_moments_by_monte_carlo(self):
        rng = np.random.default_rng(1)
        draws = nb1_rvs(rng, np.full(1_000_000, 3.0), 2.0)
        assert draws.mean() == pytest.approx(3.0, rel=0.01)
        assert draws.var() == pytest.approx(9.0, rel=0.01)  # mu (1 + nu)

    def test_aggregation_closure_exact_convolution(self):
        # sum of NB1 cells with shared nu is NB1 of the summed mean:
        # convolve three pmfs on 0..200 and compare, TV < 1e-10
        mus = [2.0, 3.0, 4.0]
        nu = 0.5
        support = np.arange(201)
        pmfs = [stats.nbinom.pmf(support, m / nu, 1 / (1 + nu)) for m in mus]
        conv = pmfs[0]
        for p in pmfs[1:]:
            conv = np.convolve(conv, p)[:201]
        direct = stats.nbinom.pmf(support, sum(mus) / nu, 1 / (1 + nu))
        assert 0.5 * np.abs(conv - direct).sum() < 1e-10

    def test_agg_loglik_equals_upstream_nb1(self):
        # cell likelihood with summed shape equals NB1 at the summed mean
        y_cell = np.array([4.0, 7.0])
        mu_rows = np.array([1.0, 2.0, 3.0, 1.5, 2.5])
        row_cell = np.array([0, 0, 0, 1, 1])
        nu = 0.8
        ll, _, _ = nb1_agg_loglik(y_cell, mu_rows, row_cell, nu)
        direct = nb1_loglik(y_cell, np.array([6.0, 4.0]), nu)[0]
        np.testing.assert_allclose(ll, direct, rtol=1e-12)

    def test_agg_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        y_cell = rng.integers(0, 30, size=4).astype(float)
        mu = rng.uniform(0.5, 4.0, size=10)
        row_cell = np.repeat(np.arange(4), [3, 2, 3, 2])
        nu = 0.6
        _, d_mu, d_nu = nb1_agg_loglik(y_cell, mu, row_cell, nu)
        h = 1e-6
        for j in range(10):
            dm = np.zeros(10)
            dm[j] = h
            num = (nb1_agg_loglik(y_cell, mu + dm, row_cell, nu)[0].sum()
                   - nb1_agg_loglik(y_cell, mu - dm, row_cell, nu)[0].sum()
                   ) / (2 * h)
            assert d_mu[j] == pytest.approx(num, rel=1e-5, abs=1e-8)
        num = (nb1_agg_loglik(y_cell, mu, row_cell, nu + h)[0].sum()
               - nb1_agg_loglik(y_cell, mu, row_cell, nu - h)[0].sum()
               ) / (2 * h)
        assert d_nu == pytest.approx(num, rel=1e-5)


class TestNbLogpmf:
    @pytest.mark.parametrize("kind", ["nb1", "nb2"])
    def test_pmf_sums_to_one(self, kind):
        y = np.arange(0, 600, dtype=float)
        mu = np.full(600, 4.0)
        if kind == "nb1":
            ll, _, _ = nb1_loglik(y, mu, 1.5)
        else:
            ll, _, _ = nb2_loglik(y, np.log(mu), 1.5)
        assert np.exp(ll).sum() == pytest.approx(1.0, abs=1e-10)
