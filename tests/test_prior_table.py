"""The prior table against densities computed independently with scipy."""

import dataclasses
import types

import numpy as np
import pytest
from scipy import stats

from contactfatigue.domain import build_design
from contactfatigue.models import FatigueSpec, ModelSpec, build_model
from contactfatigue.models.assemble import DISPERSION_PRIOR
from contactfatigue.models.params import Block, Layout
from contactfatigue.priors import PriorSpec, prior_table, table_log_prior

from conftest import SMALL_FEATURES, brc_model, make_records


def _half_t(df, scale):
    return lambda x: np.log(2.0) + stats.t.logpdf(x, df, scale=scale)


def _truncnorm(loc, scale):
    loc, scale = np.asarray(loc), np.asarray(scale)
    return lambda x: stats.truncnorm.logpdf(x, -loc / scale, np.inf,
                                            loc=loc, scale=scale)


def _norm(loc=0.0, scale=1.0):
    return lambda x: stats.norm.logpdf(x, loc, scale)


def _invgamma(a, b):
    return lambda x: stats.invgamma.logpdf(x, a, scale=b)


def _halfcauchy(x):
    return stats.halfcauchy.logpdf(x)


def _rhs_densities(prefix, negative, n_obs):
    # nu1 = 3, nu2 = 2, nu3 = 4 and slab scale s^2 = 2: half-t(3, 1) local
    # scales, an inverse-Gamma(nu2, nu2 s^2 / 2) slab, half-t(4, 1/n)
    z = _truncnorm(0.0, 1.0) if negative else _norm()
    return {f"{prefix}_z": (z, negative),
            f"{prefix}_zeta": (_half_t(3.0, 1.0), True),
            "rhs_c2": (_invgamma(2.0, 2.0), True),
            "rhs_eps": (_half_t(4.0, 1.0 / n_obs), True)}


def _hsgp_densities(name, magnitude, lengthscale, dim=1):
    out = {f"{name}_w": (_norm(), False)}
    suffixes = ("",) if dim == 1 else ("1", "2")
    for s in suffixes:
        out[f"{name}_sigma{s}"] = (magnitude, True)
        out[f"{name}_ell{s}"] = (lengthscale, True)
    return out


def _every_family():
    """One model of each family with its priors written out by block name,
    each as (natural-scale log density, carried on the log scale)."""
    design = build_design(make_records(), SMALL_FEATURES)
    repeaters = dataclasses.replace(
        build_design(make_records(30, seed=2, min_repeat=1), SMALL_FEATURES),
        offsets=np.full(30, 1.1))
    out = {}

    out["stage1"] = (build_model(ModelSpec(
        family="stage1_poisson", beta0_prior=PriorSpec("normal", (0.0, 100.0)),
        horseshoe=True), design), {
        "beta0": (_norm(0.0, 100.0), False),
        "alpha_raw": (_norm(), False),
        "sigma_alpha": (_halfcauchy, True),
        **_rhs_densities("beta", False, design.n)})

    out["stage2"] = (build_model(ModelSpec(family="stage2_poisson"),
                                 repeaters),
                     _rhs_densities("gamma", True, repeaters.n))

    out["longitudinal"] = (build_model(ModelSpec(
        family="longitudinal_nb", fatigue=FatigueSpec(kind="hill")), design), {
        "beta0": (_norm(0.0, 10.0), False),
        "beta_raw": (_norm(), False),
        "sigma_beta": (_halfcauchy, True),
        **_hsgp_densities("tau", _invgamma(5.0, 1.0), _invgamma(5.0, 1.0)),
        "hill_gamma": (_truncnorm(0.0, 1.0), True),
        "hill_zeta": (_norm(), False),
        "hill_eta": (lambda x: stats.expon.logpdf(x), True),
        "phi": (_invgamma(1.0, 1.0), True)})

    # the propagated priors of a later wave: per-element locations, one
    # per coefficient and one per Hill curve, with a half-normal eta
    beta_loc = (0.1, -0.2, 0.3, 0.05, -0.4)
    gamma_loc, zeta_loc, eta_loc = ((0.5, 0.6, 0.7), (-1.0, -0.8, -0.6),
                                    (0.9, 0.95, 1.0))
    out["gam"] = (build_model(ModelSpec(
        family="individual_gam",
        beta_prior=PriorSpec("normal", (beta_loc, 0.3)),
        fatigue=FatigueSpec(
            kind="hill",
            gamma_prior=PriorSpec("halfnormal_pos", (gamma_loc, 0.3)),
            zeta_prior=PriorSpec("normal", (zeta_loc, 0.1)),
            eta_prior=PriorSpec("halfnormal_pos", (eta_loc, 0.1)))),
        design), {
        "beta0": (_norm(0.0, 10.0), False),
        "beta": (_norm(np.array(beta_loc), 0.3), False),
        **_hsgp_densities("age", _invgamma(5.0, 1.0), _invgamma(5.0, 1.0)),
        "hill_gamma": (_truncnorm(gamma_loc, 0.3), True),
        "hill_zeta": (_norm(np.array(zeta_loc), 0.1), False),
        "hill_eta": (_truncnorm(eta_loc, 0.1), True),
        "phi": (_invgamma(1.0, 1.0), True)})

    half_cauchy = _halfcauchy
    out["brc"] = (brc_model("variant_b")[0], {
        "beta0": (_norm(0.0, 10.0), False),
        "tau": (_norm(), False),
        **_hsgp_densities("f_all", half_cauchy, _invgamma(5.0, 5.0), dim=2),
        "rho": (_norm(), False),
        **_hsgp_densities("fa", half_cauchy, _invgamma(5.0, 5.0)),
        **_hsgp_densities("fc", half_cauchy, _invgamma(5.0, 5.0)),
        "nu": (_invgamma(1.0, 1.0), True)})
    return out


FAMILIES = _every_family()


def _scipy_log_priors(model, densities, theta):
    """The log prior of each element of ``theta``."""
    out = np.zeros(theta.size)
    for b in model.layout.blocks:
        logpdf, on_log_scale = densities[b.name]
        raw = model.layout.raw(theta, b.name)
        out[model.layout.sl(b.name)] = logpdf(np.exp(raw) if on_log_scale
                                              else raw)
        if on_log_scale:
            out[model.layout.sl(b.name)] += raw   # log-Jacobian of exp(raw)
    return out


#: every family in one layout: normal on both scales and the positive
#: families on the log scale, each with its scipy density. D (inverse
#: Gamma), A (exponential) and the log-scale quadratic (half-normal) are
#: each held by one element only, between elements that do not hold them.
SIX_FAMILIES = (
    (Block("normal", 3, prior=PriorSpec(
        "normal", ((0.5, -1.0, 2.0), (1.0, 2.0, 0.5)))),
     _norm(np.array([0.5, -1.0, 2.0]), np.array([1.0, 2.0, 0.5]))),
    (Block("half_t", 2, "log", PriorSpec("student_t_pos", ((3.0, 5.0), 0.7))),
     _half_t(np.array([3.0, 5.0]), 0.7)),
    (Block("halfnormal", 1, "log", PriorSpec("halfnormal_pos", (0.8, 0.5))),
     _truncnorm(0.8, 0.5)),
    (Block("normal_log", 2, "log", PriorSpec("normal", (1.0, 2.0))),
     _norm(1.0, 2.0)),
    (Block("invgamma", 1, "log", PriorSpec("invgamma", (3.0, 2.0))),
     _invgamma(3.0, 2.0)),
    (Block("cauchy", 1, "log", PriorSpec("cauchy_pos", (1.5,))),
     lambda x: stats.halfcauchy.logpdf(x, scale=1.5)),
    (Block("exponential", 1, "log", PriorSpec("exponential", (2.0,))),
     lambda x: stats.expon.logpdf(x, scale=0.5)),
)

#: the layout without the families that have a D or a tail term
NO_INVERSE_OR_TAIL = tuple(
    (b, f) for b, f in SIX_FAMILIES
    if b.prior.family not in ("invgamma", "cauchy_pos", "student_t_pos"))


class TestPriorTable:
    @pytest.mark.parametrize("blocks", [SIX_FAMILIES, NO_INVERSE_OR_TAIL],
                             ids=["six-families", "no-inverse-or-tail"])
    def test_one_pass_over_every_family(self, blocks):
        # the table holds a term on the elements that have it, and the one
        # pass over the whole vector is the scipy-written density
        layout = Layout([b for b, _ in blocks])
        densities = {b.name: (f, b.transform == "log") for b, f in blocks}
        table = prior_table(layout)
        held = {b.prior.family for b, _ in blocks}
        assert any(d for _, _, d, _, _ in table.terms) == (
            "invgamma" in held)
        assert any(f for _, _, _, f, _ in table.terms) == (
            not held.isdisjoint({"cauchy_pos", "student_t_pos"}))
        bare = types.SimpleNamespace(layout=layout)
        rng = np.random.default_rng(5)
        for width in (1.0, 1.0, 8.0):
            theta = rng.uniform(-width, width, layout.size)
            nat = np.hstack(list(layout.constrained(theta).values()))
            grad = np.zeros(layout.size)
            logp = table_log_prior(table, theta, nat, grad)
            expected = _scipy_log_priors(bare, densities, theta)
            assert logp == pytest.approx(expected.sum(), rel=1e-12)
            h = 1e-6
            num = (_scipy_log_priors(bare, densities, theta + h)
                   - _scipy_log_priors(bare, densities, theta - h)) / (2 * h)
            np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_scipy_densities(self, name):
        model, densities = FAMILIES[name]
        assert {b.name for b in model.layout.blocks} == set(densities)
        rng = np.random.default_rng(11)
        # log-scale values from e^-1 to e^1, and from e^-8 to e^8
        for width in (1.0, 1.0, 1.0, 8.0):
            theta = rng.uniform(-width, width, model.layout.size)
            grad = np.zeros(model.layout.size)
            logp = table_log_prior(model.prior, theta,
                                   model._natural(theta), grad)
            expected = _scipy_log_priors(model, densities, theta)
            assert logp == pytest.approx(expected.sum(), rel=1e-10)
            # each element's prior depends on that element alone, so one
            # central difference of the per-element priors is the gradient
            h = 1e-6
            num = (_scipy_log_priors(model, densities, theta + h)
                   - _scipy_log_priors(model, densities, theta - h)) / (2 * h)
            np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-6)

    def test_the_global_scale_is_half_t_4_over_the_rows(self):
        # the guess of half the D candidates non-zero, p0 = D / 2, makes
        # eps0 = p0 / (D - p0) / n exactly 1 / n
        d = np.arange(1.0, 200.0)[:, None]
        n = np.arange(1.0, 3000.0)
        assert np.array_equal((d / 2.0) / (d - d / 2.0) / n,
                              np.broadcast_to(1.0 / n, (d.size, n.size)))
        for name in ("stage1", "stage2"):
            model = FAMILIES[name][0]
            (eps,) = [b for b in model.layout.blocks if b.name == "rhs_eps"]
            assert eps.prior == PriorSpec("student_t_pos",
                                          (4.0, 1.0 / model.data.n))

    def test_logp_grad_ends_with_the_pass(self):
        # a model with no data is its priors alone
        model = build_model(ModelSpec(family="stage1_poisson"),
                            build_design([], SMALL_FEATURES))
        theta = np.random.default_rng(2).uniform(-1, 1, model.layout.size)
        grad = np.zeros(model.layout.size)
        logp = table_log_prior(model.prior, theta, model._natural(theta),
                               grad)
        lp, g = model.logp_grad(theta)
        assert lp == pytest.approx(logp, rel=1e-12)
        np.testing.assert_allclose(g, grad, rtol=1e-12, atol=1e-12)

    def test_dispersion_prior_is_exponential_precision(self):
        # invgamma(1, 1) on log(phi) is 1/phi ~ Exp(1): -u - e^-u
        table = prior_table(Layout([Block("phi", 1, "log",
                                          DISPERSION_PRIOR)]))
        for u in np.linspace(-30.0, 30.0, 61):
            grad = np.zeros(1)
            logp = table_log_prior(table, np.array([u]), np.exp([u]), grad)
            assert logp == pytest.approx(-u - np.exp(-u), rel=1e-12, abs=1e-12)
            assert grad[0] == pytest.approx(np.exp(-u) - 1.0, rel=1e-12,
                                            abs=1e-12)

    def test_block_without_prior_is_refused(self):
        layout = Layout([Block("a", 2, prior=PriorSpec("normal", (0.0, 1.0))),
                         Block("b", 1, "log")])
        with pytest.raises(ValueError, match="'b' declares no prior"):
            prior_table(layout)

    @pytest.mark.parametrize("prior", [
        PriorSpec("halfnormal_pos", (0.0, 1.0)), PriorSpec("cauchy_pos", (1.0,)),
        DISPERSION_PRIOR, PriorSpec("exponential", (1.0,)),
        PriorSpec("student_t_pos", (3.0, 1.0))], ids=lambda p: p.family)
    def test_positive_prior_on_identity_scale_is_refused(self, prior):
        # positives are carried on the log scale
        layout = Layout([Block("a", 2, prior=prior)])
        with pytest.raises(ValueError, match="'a' has the positive"):
            prior_table(layout)

    def test_prior_params_must_fit_the_block(self):
        layout = Layout([Block("a", 3, prior=PriorSpec(
            "normal", (np.zeros(2), 1.0)))])
        with pytest.raises(ValueError, match="block 'a'"):
            prior_table(layout)
        # one gamma location per Hill curve: two for the GAM's three curves
        design = build_design(make_records(), SMALL_FEATURES)
        fatigue = FatigueSpec(kind="hill",
                              gamma_prior=PriorSpec("halfnormal_pos",
                                                    ((0.5, 0.6), 0.3)))
        with pytest.raises(ValueError, match="block 'hill_gamma'"):
            build_model(ModelSpec(family="individual_gam", fatigue=fatigue),
                        design)

    def test_array_scales_are_validated(self):
        with pytest.raises(ValueError):
            PriorSpec("normal", (0.0, np.array([1.0, -1.0])))
