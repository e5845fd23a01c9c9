import numpy as np
import pytest
from scipy.special import gammaln

from contactfatigue.evaluation import psis_loo


def _poisson_gamma(n_draws, seed=0, a=2.0, b=1.0):
    """Counts y_i ~ Poisson(lam) under lam ~ Gamma(a, rate b), with exact
    posterior draws of lam, their pointwise log likelihoods, and the exact
    leave-one-out predictive log densities: the posterior without y_i is
    Gamma(a + sum(y) - y_i, b + n - 1), whose predictive is negative
    binomial."""
    rng = np.random.default_rng(seed)
    y = rng.poisson(3.0, size=20).astype(float)
    y[0] = 12.0                       # one outlying count
    n = y.size
    lam = rng.gamma(a + y.sum(), 1.0 / (b + n), size=n_draws)
    loglik = (y * np.log(lam[:, None]) - lam[:, None] - gammaln(y + 1.0))
    alpha = a + y.sum() - y
    beta = b + n - 1.0
    exact = (gammaln(alpha + y) - gammaln(alpha) - gammaln(y + 1.0)
             + alpha * np.log(beta / (beta + 1.0)) - y * np.log(beta + 1.0))
    return loglik, exact


class TestPsisLoo:
    def test_matches_exact_leave_one_out(self):
        loglik, exact = _poisson_gamma(4000)
        loo = psis_loo(loglik)
        # Monte Carlo error over seeds 0-7 stays below 0.04 per point
        np.testing.assert_allclose(loo.pointwise, exact, atol=0.1)
        assert loo.elpd == pytest.approx(exact.sum(), abs=0.1)
        assert loo.n_high_k == 0

    @pytest.mark.parametrize("n_draws,threshold", [
        (100, 0.5), (1000, 2.0 / 3.0), (4000, 0.7)])
    def test_k_threshold_follows_the_draw_count(self, n_draws, threshold):
        # min(1 - 1/log10 S, 0.7)
        loo = psis_loo(_poisson_gamma(n_draws)[0])
        assert loo.k_threshold == pytest.approx(threshold, rel=1e-12)

    def test_needs_100_draws(self):
        with pytest.raises(ValueError, match="100 draws"):
            psis_loo(_poisson_gamma(99)[0])
