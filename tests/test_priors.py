"""Each prior family is one function from its parameters to coefficients
of the one formula, ``FORMULA``; ``scipy.stats`` is the reference for the
density that the coefficients give, and the prior table of a model, the
one evaluation of the formula, is checked against the formula written
out."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from contactfatigue.models.params import Block, Layout
from contactfatigue.priors import (HALF_NORMAL_VAR_ADJUST, PriorSpec,
                                   prior_table, regularized_scale,
                                   rhs_coefficients, table_log_prior)

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


def _per_element(spec, n):
    """The spec with each parameter varied over n elements."""
    factor = np.linspace(0.5, 2.0, n)
    return PriorSpec(spec.family, tuple(p * factor for p in spec.params))


def _scipy_logpdf(spec, v):
    """The spec's log density at v by ``scipy.stats``."""
    p = spec.params
    if spec.family == "normal":
        return stats.norm.logpdf(v, p[0], p[1])
    if spec.family == "halfnormal_pos":
        loc, scale = np.asarray(p[0]), np.asarray(p[1])
        return stats.truncnorm.logpdf(v, -loc / scale, np.inf, loc=loc,
                                      scale=scale)
    if spec.family == "cauchy_pos":
        return stats.halfcauchy.logpdf(v, scale=p[0])
    if spec.family == "invgamma":
        return stats.invgamma.logpdf(v, p[0], scale=p[1])
    if spec.family == "exponential":
        return stats.expon.logpdf(v, scale=1.0 / np.asarray(p[0]))
    # half-t: twice the Student-t density on [0, inf)
    half_t = np.log(2.0) + stats.t.logpdf(v, p[0], scale=p[1])
    return np.where(np.asarray(v) >= 0, half_t, -np.inf)


def _formula(coefficients, v):
    """``FORMULA`` written out at the values v, with the terms the family
    has."""
    c = coefficients
    lp = c["K"]
    if "Q" in c:
        lp = lp - 0.5 * ((v - c["L"]) * c["Q"]) ** 2
    if "A" in c:
        lp = lp + c["A"] * v
    if "C" in c:
        lp = lp + c["C"] * np.log(v)
    if "D" in c:
        lp = lp + c["D"] / v
    if "E" in c:
        lp = lp + c["E"] * np.log1p(c["F"] * v**2)
    return lp


def _prior_pass(spec, carried):
    """The log prior and its gradient that a model's prior table gives a
    block of ``spec`` at the carried values: the values themselves for a
    prior on the real line, their logs for a positive one. Like a model,
    it evaluates the table with NumPy's floating-point warnings off."""
    carried = np.atleast_1d(np.asarray(carried, dtype=float))
    transform = "identity" if spec.on_real_line else "log"
    table = prior_table(Layout([Block("a", carried.size, transform, spec)]))
    grad = np.zeros(carried.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nat = carried if spec.on_real_line else np.exp(carried)
        return (table_log_prior(table, carried.copy(), nat.copy(), grad),
                grad)


def _natural(spec, v):
    """``_prior_pass`` at the natural values v, as a log prior without the
    log-scale Jacobian and a gradient in v."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if spec.on_real_line:
        return _prior_pass(spec, v)
    lp, grad = _prior_pass(spec, np.log(v))
    return lp - np.log(v).sum(), (grad - 1.0) / v


class TestLogPrior:
    """The log prior that a spec's coefficients give, through the prior
    pass and written out."""

    def test_normal_grad_zero_at_mean(self):
        _, grad = _natural(PriorSpec("normal", (0.0, 10.0)), 0.0)
        assert grad[0] == 0.0

    def test_exponential_plugin(self):
        lp, grad = _natural(PriorSpec("exponential", (1.0,)), 2.0)
        assert lp == pytest.approx(-2.0)
        assert grad[0] == pytest.approx(-1.0)

    def test_invgamma_mode(self):
        # mode of InvGamma(a, b) is b / (a + 1) = 5/6
        _, grad = _natural(PriorSpec("invgamma", (5.0, 5.0)), 5.0 / 6.0)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_gradients_match_finite_differences(self, spec):
        # the analytic gradient of the prior pass on the carried scale
        pts = interior_points(spec, np.random.default_rng(5))
        carried = pts if spec.on_real_line else np.log(pts)
        _, grad = _prior_pass(spec, carried)
        h = 1e-5
        for j in range(carried.size):
            step = np.zeros(carried.size)
            step[j] = h
            num = (_prior_pass(spec, carried + step)[0]
                   - _prior_pass(spec, carried - step)[0]) / (2 * h)
            assert grad[j] == pytest.approx(num, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_density_integrates_to_one(self, spec):
        # constants are exact, so each density is properly normalized
        lo = -np.inf if spec.on_real_line else 0.0
        total, _ = quad(lambda x: float(np.exp(_formula(spec.coefficients,
                                                        x))),
                        lo, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_outside_support(self):
        # the families not on the real line have no mass below 0
        for spec in ALL_SPECS:
            below = _scipy_logpdf(spec, -0.5)
            assert (below == -np.inf) != spec.on_real_line

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PriorSpec("normal", (0.0, -1.0))
        with pytest.raises(ValueError):
            PriorSpec("beta", (1.0, 1.0))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, spec, bad):
        # a NaN scale passed the > 0 check, and a NaN or infinite param
        # made the density -inf or NaN everywhere; a scalar and a
        # per-element param are refused, naming the family and the index
        for idx in range(len(spec.params)):
            for value in (bad, np.array([1.0, bad])):
                params = list(spec.params)
                params[idx] = value
                with pytest.raises(ValueError, match=(
                        f"{spec.family} parameter {idx} must be finite")):
                    PriorSpec(spec.family, tuple(params))


#: zero, subnormal, tiny, ordinary and huge values of both signs
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.37, 2.5, 1e8,
                        1e300, 1.7e308, -5e-324, -1e-300, -0.8, -1e300])

#: log-scale values from v = 0 to v = inf, where v^2 under- and overflows
EDGE_LOGS = np.array([-800.0, -745.2, -700.0, -360.0, -30.0, -1e-8, 0.0,
                      1e-300, 0.37, 2.5, 30.0, 354.0, 356.0, 700.0, 800.0])


class TestPriorTerms:
    """The prior pass adds up the terms of ``FORMULA`` at each element's
    coefficients: it equals the formula written out, plus the log-scale
    Jacobian, with scalar and per-element parameters, and is non-finite
    where the written-out formula is. The pass takes 1 / v and v^2 only
    for the families that have those terms, as the formula does."""

    @staticmethod
    def _written_out(spec, carried):
        """The formula at each carried value, plus the log-scale
        Jacobian."""
        if spec.on_real_line:
            return _formula(spec.coefficients, carried)
        return _formula(spec.coefficients, np.exp(carried)) + carried

    def _assert_same(self, spec, carried):
        got, _ = _prior_pass(spec, carried)
        with np.errstate(all="ignore"):
            terms = self._written_out(spec, carried)
        expected = float(np.sum(terms))
        assert np.isfinite(got) == np.isfinite(expected)
        if np.isfinite(expected):
            assert abs(got - expected) <= 1e-13 * np.sum(np.abs(terms))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    @pytest.mark.parametrize("per_element", [False, True])
    def test_equals_written_out_density(self, spec, per_element):
        values = EDGE_VALUES if spec.on_real_line else EDGE_LOGS
        with np.errstate(all="ignore"):
            finite = values[np.isfinite(self._written_out(spec, values))]
        # every value at once, then the values where the pass is finite
        for carried in (values, finite):
            self._assert_same(_per_element(spec, carried.size)
                              if per_element else spec, carried)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_scalar_value(self, spec):
        for x in EDGE_VALUES if spec.on_real_line else EDGE_LOGS:
            self._assert_same(spec, x)


class TestFormula:
    """Every family is a case of the one formula: its coefficients give
    the ``scipy.stats`` density and its gradient."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_coefficients_give_the_density(self, spec):
        pts = interior_points(spec, np.random.default_rng(3), n=50)
        h = 1e-5
        for prior in (spec, _per_element(spec, pts.size)):
            coef = prior.coefficients
            np.testing.assert_allclose(_formula(coef, pts),
                                       _scipy_logpdf(prior, pts), rtol=1e-12)
            num = (_formula(coef, pts + h)
                   - _formula(coef, pts - h)) / (2 * h)
            ref = (_scipy_logpdf(prior, pts + h)
                   - _scipy_logpdf(prior, pts - h)) / (2 * h)
            np.testing.assert_allclose(num, ref, rtol=1e-6, atol=1e-8)


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
    def test_coefficient_partials_match_finite_differences(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=6)
        zeta = rng.uniform(0.3, 2.0, size=6)
        c2, eps = 1.2, 0.2
        beta, partials = rhs_coefficients(z, zeta, c2, eps, negative=False)
        h = 1e-6
        num_eps = (rhs_coefficients(z, zeta, c2, eps + h, negative=False)[0]
                   - rhs_coefficients(z, zeta, c2, eps - h, negative=False)[0]
                   ) / (2 * h)
        np.testing.assert_allclose(partials["eps"], num_eps, rtol=1e-6)
        num_c2 = (rhs_coefficients(z, zeta, c2 + h, eps, negative=False)[0]
                  - rhs_coefficients(z, zeta, c2 - h, eps, negative=False)[0]
                  ) / (2 * h)
        np.testing.assert_allclose(partials["c2"], num_c2, rtol=1e-5,
                                   atol=1e-10)


class TestHalfRhsNeg:
    def test_adjustment_constant(self):
        assert HALF_NORMAL_VAR_ADJUST == pytest.approx(2.75194, abs=5e-6)

    def test_conditional_variance_restored(self):
        # Var(gamma | eps, zeta_tilde) = eps^2 zeta_tilde^2 with the factor
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
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = np.abs(rng.standard_normal(4))
            gamma, _ = rhs_coefficients(z, rng.uniform(0.2, 2, 4), 1.5, 0.3,
                                        negative=True)
            assert np.all(gamma <= 0.0)

    def test_mean_shrinks_with_global_scale(self):
        # E(gamma | eps, zeta_tilde) -> 0 as eps -> 0
        zeta = np.array([1.0])
        z = np.array([np.sqrt(2 / np.pi)])  # E|N(0,1)|
        means = []
        for eps in (0.5, 0.05, 0.005):
            gamma, _ = rhs_coefficients(z, zeta, 2.0, eps, negative=True)
            means.append(abs(float(gamma[0])))
        assert means[0] > means[1] > means[2]
        assert means[2] < 1e-2
