import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, log_ndtr

from contactfatigue.priors import (FORMULA, HALF_NORMAL_VAR_ADJUST,
                                   PriorSpec, RhsSpec, log_prior,
                                   regularized_scale, rhs_coefficients,
                                   rhs_log_prior)

ALL_SPECS = [
    PriorSpec("normal", (0.5, 2.0)),
    PriorSpec("halfnormal_pos", (0.0, 1.0)),
    PriorSpec("halfnormal_pos", (0.8, 0.5)),
    PriorSpec("cauchy_pos", (1.0,)),
    PriorSpec("invgamma", (5.0, 5.0)),
    PriorSpec("exponential", (1.0,)),
    PriorSpec("student_t_pos", (4.0, 0.3)),
]

def interior_points(spec, rng, n=20):
    x = rng.uniform(0.05, 3.0, size=n)
    if spec.family == "normal":
        return rng.uniform(-3, 3, size=n)
    return x


class TestLogPrior:
    def test_normal_grad_zero_at_mean(self):
        lp, grad = log_prior(PriorSpec("normal", (0.0, 10.0)), 0.0)
        assert grad == 0.0

    def test_exponential_plugin(self):
        lp, grad = log_prior(PriorSpec("exponential", (1.0,)), 2.0)
        assert lp == pytest.approx(-2.0)
        assert grad == pytest.approx(-1.0)

    def test_invgamma_mode(self):
        # mode of InvGamma(a, b) is b / (a + 1) = 5/6
        _, grad = log_prior(PriorSpec("invgamma", (5.0, 5.0)), 5.0 / 6.0)
        assert grad == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_gradients_match_finite_differences(self, spec):
        rng = np.random.default_rng(5)
        pts = interior_points(spec, rng)
        _, grad = log_prior(spec, pts)
        h = 1e-5
        num = (log_prior(spec, pts + h)[0] - log_prior(spec, pts - h)[0]) \
            / (2 * h)
        np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_density_integrates_to_one(self, spec):
        # constants are exact, so each density is properly normalized
        if spec.family == "normal":
            lo, hi = -np.inf, np.inf
        else:
            lo, hi = 0.0, np.inf
        total, _ = quad(lambda x: float(np.exp(log_prior(spec, x)[0])),
                        lo, hi, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_outside_support(self):
        lp, _ = log_prior(PriorSpec("exponential", (1.0,)), -1.0)
        assert lp == -np.inf

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PriorSpec("normal", (0.0, -1.0))
        with pytest.raises(ValueError):
            PriorSpec("beta", (1.0, 1.0))


def _written_out(family, theta, *params):
    """Each density with every term evaluated inline, as one expression:
    the reference that ``PriorSpec.terms`` must reproduce to the last bit."""
    if family in ("normal", "halfnormal_pos"):
        loc, scale = params
        z = (theta - loc) / scale
        lp = -0.5 * z**2 - np.log(scale) - 0.5 * np.log(2.0 * np.pi)
        grad = -z / scale
        if family == "normal":
            return lp, grad
        lp = lp - log_ndtr(loc / scale)
    elif family == "cauchy_pos":
        (scale,) = params
        lp = (np.log(2.0 / np.pi) - np.log(scale)
              - np.log1p((theta / scale) ** 2))
        grad = -2.0 * theta / (scale**2 + theta**2)
    elif family == "invgamma":
        a, b = params
        valid = theta > 0
        th = np.where(valid, theta, 1.0)
        lp = a * np.log(b) - gammaln(a) - (a + 1.0) * np.log(th) - b / th
        grad = -(a + 1.0) / th + b / th**2
        return np.where(valid, lp, -np.inf), np.where(valid, grad, 0.0)
    elif family == "exponential":
        (rate,) = params
        lp, grad = np.log(rate) - rate * theta, -rate
    else:
        df, scale = params
        lp = (np.log(2.0) + gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0)
              - 0.5 * np.log(df * np.pi) - np.log(scale)
              - (df + 1.0) / 2.0 * np.log1p(theta**2 / (df * scale**2)))
        grad = -(df + 1.0) * theta / (df * scale**2 + theta**2)
    return (np.where(theta >= 0, lp, -np.inf),
            np.where(theta >= 0, grad, 0.0))


#: zero, subnormal, tiny, ordinary and huge values of both signs
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.37, 2.5, 1e8,
                        1e300, 1.7e308, -5e-324, -1e-300, -0.8, -1e300])


class TestPriorTerms:
    """``log_prior`` with the value-independent terms computed once and
    kept by the spec (``PriorSpec.terms``) equals, bit for bit, the density
    with every term evaluated inline."""

    @staticmethod
    def _assert_same_bits(got, expected):
        for g, e in zip(got, expected):
            e = np.broadcast_to(e, np.shape(g))
            np.testing.assert_array_equal(g, e)
            np.testing.assert_array_equal(np.signbit(g), np.signbit(e))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    @pytest.mark.parametrize("per_element", [False, True])
    def test_equals_written_out_density(self, spec, per_element):
        params = spec.params
        if per_element:
            # one prior per value, every parameter varied over them
            factor = np.linspace(0.5, 2.0, EDGE_VALUES.size)
            params = tuple(p * factor for p in params)
        spec = PriorSpec(spec.family, params)    # no terms computed yet
        with np.errstate(all="ignore"):
            expected = _written_out(spec.family, EDGE_VALUES, *spec.params)
            # the first call computes the terms, the second reads them
            for _ in range(2):
                self._assert_same_bits(log_prior(spec, EDGE_VALUES),
                                       expected)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_scalar_value(self, spec):
        with np.errstate(all="ignore"):
            for x in EDGE_VALUES:
                self._assert_same_bits(
                    log_prior(spec, x),
                    _written_out(spec.family, np.asarray(x), *spec.params))


def _formula(coefficients, v):
    """``FORMULA`` written out at the values v, the terms of C log v only
    where the family has them."""
    c = dict.fromkeys(FORMULA, 0.0) | coefficients
    lp = (c["K"] - 0.5 * ((v - c["L"]) * c["Q"]) ** 2 + c["A"] * v
          + c["D"] / v + c["E"] * np.log1p(c["F"] * v**2))
    return lp + c["C"] * np.log(v) if "C" in coefficients else lp


class TestFormula:
    """Every family is a case of the one formula of the prior pass."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_coefficients_give_the_density(self, spec):
        pts = interior_points(spec, np.random.default_rng(3), n=50)
        np.testing.assert_allclose(_formula(spec.coefficients, pts),
                                   log_prior(spec, pts)[0], rtol=1e-13)


class TestRhsSpec:
    def test_eps0_formula(self):
        spec = RhsSpec(n_coef=16, p0=8.0, n_obs=100)
        assert spec.eps0 == pytest.approx(0.01)

    def test_p0_bounds(self):
        with pytest.raises(ValueError):
            RhsSpec(n_coef=4, p0=4.0, n_obs=10)


class TestRegularizedScale:
    def test_large_slab_limit_recovers_plain_horseshoe(self):
        zeta = np.array([0.3, 1.0, 4.0])
        zt, _ = regularized_scale(zeta, c2=1e12, eps=0.1)
        np.testing.assert_allclose(zt, zeta, rtol=1e-9)

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(3)
        zeta = rng.uniform(0.2, 2.0, size=5)
        c2, eps = 1.7, 0.3
        zt, partials = regularized_scale(zeta, c2, eps)
        h = 1e-6
        num_zeta = (regularized_scale(zeta + h, c2, eps)[0]
                    - regularized_scale(zeta - h, c2, eps)[0]) / (2 * h)
        num_c2 = (regularized_scale(zeta, c2 + h, eps)[0]
                  - regularized_scale(zeta, c2 - h, eps)[0]) / (2 * h)
        num_eps = (regularized_scale(zeta, c2, eps + h)[0]
                   - regularized_scale(zeta, c2, eps - h)[0]) / (2 * h)
        np.testing.assert_allclose(partials["zeta"], num_zeta, rtol=1e-6)
        np.testing.assert_allclose(partials["c2"], num_c2, rtol=1e-6)
        np.testing.assert_allclose(partials["eps"], num_eps, rtol=1e-6)


class TestRhsLogPrior:
    def _spec(self, sign="unconstrained"):
        return RhsSpec(n_coef=6, p0=2.0, n_obs=50, sign=sign)

    def test_gradients_match_finite_differences(self):
        spec = self._spec()
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(20):
            z = rng.normal(size=6)
            zeta = rng.uniform(0.3, 2.0, size=6)
            c2 = float(rng.uniform(0.5, 3.0))
            eps = float(rng.uniform(0.05, 0.5))
            _, grads = rhs_log_prior(spec, z, zeta, c2, eps)

            def lp(z=z, zeta=zeta, c2=c2, eps=eps):
                return rhs_log_prior(spec, z, zeta, c2, eps)[0]

            for k in range(6):
                dz = np.zeros(6)
                dz[k] = h
                num = (lp(z=z + dz) - lp(z=z - dz)) / (2 * h)
                assert grads["z"][k] == pytest.approx(num, rel=1e-6,
                                                      abs=1e-7)
                num = (lp(zeta=zeta + dz) - lp(zeta=zeta - dz)) / (2 * h)
                assert grads["zeta"][k] == pytest.approx(num, rel=1e-6,
                                                         abs=1e-7)
            num = (lp(c2=c2 + h) - lp(c2=c2 - h)) / (2 * h)
            assert grads["c2"] == pytest.approx(num, rel=1e-6, abs=1e-7)
            num = (lp(eps=eps + h) - lp(eps=eps - h)) / (2 * h)
            assert grads["eps"] == pytest.approx(num, rel=1e-6, abs=1e-7)

    def test_coefficient_partials_match_finite_differences(self):
        spec = self._spec()
        rng = np.random.default_rng(2)
        z = rng.normal(size=6)
        zeta = rng.uniform(0.3, 2.0, size=6)
        c2, eps = 1.2, 0.2
        beta, partials = rhs_coefficients(spec, z, zeta, c2, eps)
        h = 1e-6
        num_eps = (rhs_coefficients(spec, z, zeta, c2, eps + h)[0]
                   - rhs_coefficients(spec, z, zeta, c2, eps - h)[0]) / (2 * h)
        np.testing.assert_allclose(partials["eps"], num_eps, rtol=1e-6)
        num_c2 = (rhs_coefficients(spec, z, zeta, c2 + h, eps)[0]
                  - rhs_coefficients(spec, z, zeta, c2 - h, eps)[0]) / (2 * h)
        np.testing.assert_allclose(partials["c2"], num_c2, rtol=1e-5,
                                   atol=1e-10)


class TestHalfRhsNeg:
    def test_adjustment_constant(self):
        assert HALF_NORMAL_VAR_ADJUST == pytest.approx(2.75194, abs=5e-6)

    def test_conditional_variance_restored(self):
        # Var(gamma | eps, zeta_tilde) = eps^2 zeta_tilde^2 with the factor
        spec = RhsSpec(n_coef=1, p0=0.5, n_obs=50, sign="negative")
        rng = np.random.default_rng(0)
        zeta = np.array([1.3])
        c2, eps = 2.0, 0.4
        z = np.abs(rng.standard_normal((1_000_000, 1)))
        zt, _ = regularized_scale(zeta, c2, eps)
        scale = np.sqrt(HALF_NORMAL_VAR_ADJUST) * eps * zt[0]
        gammas = -scale * z[:, 0]
        target = (eps * zt[0]) ** 2
        assert np.var(gammas) == pytest.approx(target, rel=0.01)
        # without the adjustment the variance is (1 - 2/pi) of the target
        unadjusted = np.var(-eps * zt[0] * z[:, 0])
        assert unadjusted == pytest.approx(target / HALF_NORMAL_VAR_ADJUST,
                                           rel=0.01)
        assert unadjusted / target == pytest.approx(0.3634, abs=0.002)

    def test_draws_are_nonpositive(self):
        spec = RhsSpec(n_coef=4, p0=2.0, n_obs=50, sign="negative")
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = np.abs(rng.standard_normal(4))
            gamma, _ = rhs_coefficients(spec, z, rng.uniform(0.2, 2, 4),
                                        1.5, 0.3)
            assert np.all(gamma <= 0.0)

    def test_mean_shrinks_with_global_scale(self):
        # E(gamma | eps, zeta_tilde) -> 0 as eps -> 0
        spec = RhsSpec(n_coef=1, p0=0.5, n_obs=50, sign="negative")
        zeta = np.array([1.0])
        z = np.array([np.sqrt(2 / np.pi)])  # E|N(0,1)|
        means = []
        for eps in (0.5, 0.05, 0.005):
            gamma, _ = rhs_coefficients(spec, z, zeta, 2.0, eps)
            means.append(abs(float(gamma[0])))
        assert means[0] > means[1] > means[2]
        assert means[2] < 1e-2
