import dataclasses
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import expit

import contactfatigue
from contactfatigue.domain import (AGE_GRID, AgeBand, CoarseBandSet,
                                   DataError, PopulationTable, SurveyRecord,
                                   build_design, default_coarse_bands)
from contactfatigue.models import (FatigueSpec, HillCurve,
                                   HsgpConfig, IndividualGamModel,
                                   LongitudinalNbModel, ModelSpec,
                                   RejectedState,
                                   Stage1PoissonModel, Stage2PoissonModel,
                                   brc_surface_config, build_model, hill,
                                   make_brc_data)
from contactfatigue.kernels import basis_at
from contactfatigue.models.assemble import (_FAMILY_CLASS, AGE_SD,
                                            _HsgpTerm, _surface_of)
from contactfatigue.models.fatigue import hill_grad_log, log_repeats
from contactfatigue.models.params import Block, Layout
from contactfatigue.priors import table_log_prior
from contactfatigue.selection import STAGE1_INTERCEPT_PRIOR

from conftest import (SMALL_FEATURES, assert_matches_reference, brc_model,
                      make_records, max_rel_grad_error)


class TestHill:
    def test_plugin(self):
        assert hill(HillCurve(1.0, 0.0, 1.0), 1.0) == pytest.approx(-0.5)

    @pytest.mark.parametrize("zeta", [-800.0, 800.0])
    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
    def test_extreme_curves_are_silent_and_bounded(self, zeta, eta):
        # the logistic's exp(-x) would overflow at x = -800; called
        # outside any np.errstate, no warning is raised, the curve stays
        # in [-gamma, 0] and its partials stay finite
        r = np.array([0.0, 1.0, 2.0, 5.0, 30.0, 1e6])
        curve = HillCurve(0.9, zeta, eta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = hill(curve, r)
            _, partials = hill_grad_log(curve.gamma, curve.zeta, curve.eta,
                                        *log_repeats(r))
        assert np.all((value >= -0.9) & (value <= 0.0))
        assert np.isfinite(partials).all()

    def test_zero_at_no_repeats(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            curve = HillCurve(rng.uniform(0.1, 3), rng.normal(),
                              rng.uniform(0.1, 3))
            assert hill(curve, 0.0) == 0.0

    def test_paper_asymptotic_reduction(self):
        # 100 (e^-gamma - 1) at gamma = 0.88 is -58.5%
        assert 100 * (np.exp(-0.88) - 1) == pytest.approx(-58.5, abs=0.1)
        curve = HillCurve(0.88, -1.55, 0.94)
        assert hill(curve, 1e9) == pytest.approx(-0.88, abs=1e-4)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 5.0), st.floats(-4.0, 4.0), st.floats(0.05, 4.0))
    def test_monotone_non_increasing(self, gamma, zeta, eta):
        curve = HillCurve(gamma, zeta, eta)
        values = hill(curve, np.arange(0, 51, dtype=float))
        assert np.all(np.diff(values) <= 1e-15)
        assert np.all(values <= 0.0)
        assert np.all(values > -gamma - 1e-12)

    def test_gradients_match_finite_differences(self):
        r = np.array([0.0, 1.0, 2.0, 7.0])
        g0, z0, e0 = 0.9, -1.2, 1.3
        _, grads = hill_grad_log(g0, z0, e0, *log_repeats(r))
        h = 1e-6
        # the partials in (gamma, zeta, eta), one row each
        for i, d in enumerate(((h, 0, 0), (0, h, 0), (0, 0, h))):
            up = hill(HillCurve(g0 + d[0], z0 + d[1], e0 + d[2]), r)
            dn = hill(HillCurve(g0 - d[0], z0 - d[1], e0 - d[2]), r)
            np.testing.assert_allclose(grads[i], (up - dn) / (2 * h),
                                       rtol=1e-6, atol=1e-9)

    def test_negative_repeats_rejected(self):
        with pytest.raises(ValueError):
            hill(HillCurve(1.0, 0.0, 1.0), -1.0)

    def test_curve_on_precomputed_logs_equals_written_out(self):
        # what a model computes once (log_repeats) and per gradient
        # (hill_grad_log), and hill, equal the curve written out in one
        # piece, bit for bit
        r = np.array([0.0, 1.0, 2.0, 3.0, 7.0, 1e300, 5e-324])
        positive = r > 0
        log_r = np.where(positive, np.log(np.where(positive, r, 1.0)), 0.0)
        logs = log_repeats(r)
        rng = np.random.default_rng(8)
        for _ in range(20):
            curve = HillCurve(np.exp(rng.normal(0.0, 3.0)),
                              rng.normal(0.0, 10.0),
                              np.exp(rng.normal(0.0, 3.0)))
            frac = np.where(positive,
                            expit(curve.zeta + curve.eta * log_r), 0.0)
            d_zeta = -curve.gamma * frac * (1.0 - frac)
            value, grads = hill_grad_log(curve.gamma, curve.zeta, curve.eta,
                                         *logs)
            np.testing.assert_array_equal(value, -curve.gamma * frac)
            np.testing.assert_array_equal(hill(curve, r), value)
            for i, g in enumerate((-frac, d_zeta, d_zeta * log_r)):
                np.testing.assert_array_equal(grads[i], g)


class TestParamVector:
    def test_pack_unpack_roundtrip(self):
        layout = Layout([Block("a", 2), Block("b", 3, "log"), Block("c", 1)])
        values = {"a": np.array([0.3, -1.2]), "b": np.array([0.5, 2.0, 7.0]),
                  "c": np.array([4.0])}
        theta = layout.pack(values)
        back = layout.constrained(theta)
        for k in values:
            np.testing.assert_allclose(back[k], values[k], rtol=1e-14)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Layout([Block("a", 1), Block("a", 2)])

    def test_parameter_names(self):
        layout = Layout([Block("a", 1), Block("b", 2)])
        assert layout.parameter_names() == ["a", "b[0]", "b[1]"]


GENDER_PAIRS = ("MM", "MF", "FM", "FF")


class TestGradientSuite:
    """Analytic gradients against central finite differences, rel < 1e-5."""

    def _check(self, model, n_points=10, h=1e-5, lo=-0.5, hi=0.5, seed=1):
        rng = np.random.default_rng(seed)
        for _ in range(n_points):
            theta = rng.uniform(lo, hi, size=model.layout.size)
            assert max_rel_grad_error(model, theta, h=h) < 1e-5

    def test_stage1_rhs(self, small_design):
        model = build_model(ModelSpec(family="stage1_poisson", horseshoe=True,
                                      beta0_prior=STAGE1_INTERCEPT_PRIOR),
                            small_design)
        self._check(model)

    def test_stage1_plain(self, small_design):
        model = build_model(ModelSpec(family="stage1_poisson",
                                      beta0_prior=STAGE1_INTERCEPT_PRIOR),
                            small_design)
        self._check(model)

    def test_stage2_negative_rhs(self):
        records = make_records(30, seed=2, min_repeat=1)
        design = build_design(records, SMALL_FEATURES)
        design = dataclasses.replace(design, offsets=np.full(30, 1.1))
        model = build_model(ModelSpec(family="stage2_poisson"), design)
        self._check(model)

    @pytest.mark.parametrize("kind,kw", [
        ("hill", {}), ("independent", {"max_repeat": 3}),
        ("independent", {"max_repeat": 1}), ("gp", {"max_repeat": 3}),
        ("none", {})])
    def test_longitudinal(self, small_design, kind, kw):
        spec = ModelSpec(family="longitudinal_nb",
                         fatigue=FatigueSpec(kind=kind, **kw))
        self._check(build_model(spec, small_design), n_points=4)

    @pytest.mark.parametrize("kind", ["hill", "none"])
    def test_gam(self, small_design, kind):
        spec = ModelSpec(family="individual_gam",
                         fatigue=FatigueSpec(kind=kind))
        self._check(build_model(spec, small_design), n_points=4)

    @pytest.mark.parametrize("kind", ["independent", "variant_a",
                                      "variant_b", "variant_c"])
    def test_brc(self, kind):
        # larger h: |logp| ~ 1e6 makes 1e-5 steps round-off dominated
        model, _ = brc_model(kind)
        self._check(model, n_points=3, h=1e-4, lo=-0.3, hi=0.3)

    def test_brc_gender_pairs(self):
        # three surfaces, each read by the rows of its own pairs only
        model, _ = brc_model(pairs=GENDER_PAIRS)
        self._check(model, n_points=3, h=1e-4, lo=-0.3, hi=0.3)

    def test_brc_on_bands_with_gaps(self):
        model, _ = _gapped_brc_model()
        self._check(model, n_points=3, h=1e-4, lo=-0.3, hi=0.3)


class TestLogPosteriorContracts:
    def test_zero_data_is_prior_only(self):
        design = build_design([], SMALL_FEATURES)
        model = build_model(ModelSpec(family="stage1_poisson",
                                      beta0_prior=STAGE1_INTERCEPT_PRIOR),
                            design)
        rng = np.random.default_rng(0)
        theta = rng.uniform(-1, 1, model.layout.size)
        logp, _ = model.logp_grad(theta)
        c = model.layout.constrained(theta)
        expected = (
            stats.norm.logpdf(c["beta0"][0], 0, 100)
            + stats.norm.logpdf(c["alpha_raw"]).sum()
            + stats.halfcauchy.logpdf(c["sigma_alpha"][0])
            + np.log(c["sigma_alpha"][0])     # log-transform Jacobian
            + stats.norm.logpdf(c["beta"]).sum())
        assert logp == pytest.approx(expected, rel=1e-10)

    def test_single_poisson_row_plugin(self):
        # y = 3 at predictor 0: loglik = -1 - log 6
        records = [SurveyRecord("p", 1, 0, 30, "M", "1",
                                {"employment": "retired"}, 3)]
        design = build_design(records, SMALL_FEATURES)
        model = build_model(ModelSpec(family="stage1_poisson",
                                      beta0_prior=STAGE1_INTERCEPT_PRIOR),
                            design)
        theta = model.layout.pack({
            "beta0": np.zeros(1), "alpha_raw": np.zeros(5),
            "sigma_alpha": np.ones(1), "beta": np.zeros(2)})
        ll = model.pointwise_loglik(theta)
        assert ll[0] == pytest.approx(-1 - np.log(6))

    def test_deterministic(self, small_design):
        model = build_model(ModelSpec(family="individual_gam",
                                      fatigue=FatigueSpec(
                                          kind="hill")),
                            small_design)
        theta = np.random.default_rng(3).uniform(-0.5, 0.5,
                                                 model.layout.size)
        a = model.logp_grad(theta)
        b = model.logp_grad(theta)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_nan_data_are_refused_at_build_naming_the_row(self,
                                                          small_design):
        bad = dataclasses.replace(
            small_design,
            offsets=np.where(np.arange(small_design.n) == 7, np.nan, 0.0))
        with pytest.raises(DataError, match="row 7"):
            build_model(ModelSpec(family="stage1_poisson",
                                  beta0_prior=STAGE1_INTERCEPT_PRIOR), bad)


class TestFatigueVariants:
    def test_band_midpoint_lookup(self):
        bands = default_coarse_bands()
        assert bands.bands[5].label == "25-34"
        assert bands.midpoints[5] == 29

    def test_variants_strictly_negative_for_repeats(self):
        model, _ = brc_model("variant_b")
        rng = np.random.default_rng(5)
        for _ in range(5):
            theta = rng.uniform(-0.5, 0.5, model.layout.size)
            fatigue = next(t for t in model.terms if t.fatigue)
            term = fatigue.values(model._natural(theta))[0][
                model.group_of]
            r = model.data.cell_repeat
            assert np.all(term[r >= 1] < 0.0)
            assert np.all(term[r == 0] == 0.0)

    @pytest.mark.parametrize("kind", ["independent", "variant_a",
                                      "variant_b", "variant_c"])
    @pytest.mark.parametrize("max_repeat", [1, 2, 5])
    def test_rho_follows_the_spec_max_repeat(self, kind, max_repeat):
        # the data reach repeat 2; the table is as long as the spec says
        base, _ = brc_model(kind)
        model = build_model(dataclasses.replace(
            base.spec, fatigue=FatigueSpec(kind, max_repeat=max_repeat)),
            base.data)
        rho = model.layout.sl("rho")
        assert rho.stop - rho.start == max_repeat

    def test_repeats_past_max_repeat_read_the_last_entry(self):
        base, _ = brc_model("independent")
        model = build_model(dataclasses.replace(
            base.spec, fatigue=FatigueSpec("independent", max_repeat=1)),
            base.data)
        theta = np.random.default_rng(6).uniform(-1, 1, model.layout.size)
        fatigue = next(t for t in model.terms if t.fatigue)
        term = fatigue.values(model._natural(theta))[0][model.group_of]
        r = model.data.cell_repeat
        assert r.max() == 2
        np.testing.assert_array_equal(
            term, np.where(r >= 1, model.layout.raw(theta, "rho")[0], 0.0))

    @pytest.mark.parametrize("kind", ["independent", "gp", "variant_a",
                                      "variant_b", "variant_c"])
    def test_a_repeat_table_needs_max_repeat(self, kind):
        with pytest.raises(ValueError, match="requires max_repeat >= 1"):
            FatigueSpec(kind)


class TestBrcData:
    @staticmethod
    def _data(**change):
        arguments = dict(y=[3.0, 5.0], wave=[1, 2], repeat=[0, 1],
                         age=[30, 40], band=[2, 3],
                         n_participants=[10.0, 10.0], s_prop=[0.9, 0.9],
                         population=PopulationTable.uniform(("all",), 500.0),
                         bands=default_coarse_bands())
        arguments.update(change)
        return make_brc_data(**arguments)

    def test_whole_years_and_band_indices_are_kept(self):
        d = self._data(age=[30.0, 84.0], band=[0.0, 12.0])
        np.testing.assert_array_equal(d.cell_age, [30, 84])
        np.testing.assert_array_equal(d.cell_band, [0, 12])

    @pytest.mark.parametrize("column,values,message", [
        ("age", [30.0, 30.7], r"cell 1: participant age 30\.7"),
        ("age", [85, 40], "cell 0: participant age 85"),
        ("age", [30, -1], "cell 1: participant age -1"),
        ("band", [99, 3], "cell 0: band 99"),
        ("y", [3.0, -1.0], "cell 1: count -1"),
        ("y", [2.5, 5.0], r"cell 0: count 2\.5"),
        ("repeat", [-1, 1], "cell 0: repeat -1"),
        ("wave", [1.5, 2], r"cell 0: wave 1\.5 is not a whole number in "
                           r"\[1, inf\)"),
        ("wave", [1, 0], "cell 1: wave 0"),
        ("n_participants", [10.0, 0.0],
         r"cell 1: participant count 0 is not > 0"),
        ("n_participants", [np.nan, 10.0], "cell 0: participant count nan"),
        ("s_prop", [0.9, 1.2], r"cell 1: S 1\.2 is not in \(0, 1\]"),
        ("s_prop", [0.0, 0.9], "cell 0: S 0 "),
        ("pair", ["all", "XY"],
         r"cell 1: pair 'XY' is not one of \('all',\)")])
    def test_out_of_contract_cells_are_refused_naming_the_cell(
            self, column, values, message):
        with pytest.raises(DataError, match=message):
            self._data(**{column: values})

    def test_log_pop_row_expands_the_cells_over_their_bands(self):
        # log P_b of the contact gender at each contact age of each cell's
        # band, cell by cell
        pop = PopulationTable({"M": np.linspace(300.0, 900.0, 85),
                               "F": np.linspace(800.0, 400.0, 85)})
        d = self._data(population=pop, pair=["MF", "FF"],
                       pairs=GENDER_PAIRS, band=[2, 5])
        bands = default_coarse_bands().bands
        expected = np.concatenate([
            np.log(pop.get(pair[1]))[bands[c].lo:bands[c].hi + 1]
            for pair, c in (("MF", 2), ("FF", 5))])
        np.testing.assert_array_equal(d.log_pop_row, expected)

    def test_a_surface_no_cell_reads_is_refused(self):
        # four gender pairs declared, cells of "MM" only: the "FM" and
        # "FF" surfaces would be read by no cell
        data = self._data(
            population=PopulationTable.uniform(("M", "F"), 500.0),
            pair=["MM", "MM"], pairs=GENDER_PAIRS)
        with pytest.raises(DataError, match="no cell reads the 'FM'"):
            build_model(ModelSpec(family="aggregated_brc"), data)


def _every_family_and_fatigue_kind():
    design = build_design(make_records(), SMALL_FEATURES)
    repeaters = dataclasses.replace(
        build_design(make_records(30, seed=2, min_repeat=1), SMALL_FEATURES),
        offsets=np.full(30, 1.1))
    models = {
        "stage1-rhs": build_model(ModelSpec(
            family="stage1_poisson", beta0_prior=STAGE1_INTERCEPT_PRIOR,
            horseshoe=True), design),
        "stage1-plain": build_model(ModelSpec(
            family="stage1_poisson", beta0_prior=STAGE1_INTERCEPT_PRIOR),
            design),
        "stage2-rhs": build_model(ModelSpec(family="stage2_poisson"),
                                  repeaters),
    }
    # each key names the model: "identical" is the one-entry table, one
    # effect for every repeat, and the GAM's Hill term fits one curve per
    # covariate of w
    for label, fatigue in [("none", FatigueSpec()),
                           ("independent", FatigueSpec("independent", 3)),
                           ("identical", FatigueSpec("independent", 1)),
                           ("gp", FatigueSpec("gp", 3)),
                           ("hill", FatigueSpec("hill"))]:
        models[f"longitudinal-{label}"] = build_model(ModelSpec(
            family="longitudinal_nb", fatigue=fatigue), design)
    for label, fatigue in [("none", FatigueSpec()),
                           ("hill_per_covariate", FatigueSpec("hill"))]:
        models[f"gam-{label}"] = build_model(ModelSpec(
            family="individual_gam", fatigue=fatigue), design)
    for kind in ("none", "independent", "variant_a", "variant_b",
                 "variant_c"):
        models[f"brc-{kind}"] = brc_model(kind)[0]
    models["brc-gender-pairs"] = brc_model(pairs=GENDER_PAIRS)[0]
    return models


MODELS = _every_family_and_fatigue_kind()


def _gp_terms(model):
    """Every ``_HsgpTerm`` that the model's terms hold, at any depth."""
    found, stack, seen = [], list(model.terms), set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _HsgpTerm):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__ == _HsgpTerm.__module__:
            stack.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("name", sorted(MODELS))
def test_each_gp_keeps_the_config_of_its_basis(name):
    # a GP term's config states its basis size, so the two cannot differ
    for gp in _gp_terms(MODELS[name]):
        assert gp.config.m == gp.basis.m, gp.block_names[0]


class TestLogpGradIsTotal:
    """For any finite theta, logp_grad returns a finite value or -inf with
    a finite gradient, and never raises."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_finite_or_rejected(self, name, data):
        model = MODELS[name]
        theta = data.draw(arrays(np.float64, model.layout.size,
                                 elements=st.floats(-50.0, 50.0)))
        logp, grad = model.logp_grad(theta)
        assert np.isfinite(logp) or logp == -np.inf
        assert grad.shape == (model.layout.size,)
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_extreme_states_reject_without_warning(self, name):
        # at the 9th of these states, brc-none overflows a product in its
        # surface hyperparameters' gradient; the state is rejected, and no
        # RuntimeWarning is raised on the way
        model = MODELS[name]
        rng = np.random.default_rng([2, 99])
        for _ in range(20):
            theta = rng.uniform(-50.0, 50.0, model.layout.size)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                logp, grad = model.logp_grad(theta)
            if logp == -np.inf:
                np.testing.assert_array_equal(grad, 0.0)
            else:
                assert np.isfinite(logp)
                assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("name,block", [
        ("gam-hill_per_covariate", "age_ell"), ("longitudinal-hill", "tau_ell")])
    def test_kernel_overflow_is_a_rejected_state(self, name, block):
        # a lengthscale of e^400 overflows ell**2
        model = MODELS[name]
        theta = np.zeros(model.layout.size)
        theta[model.layout.sl(block)] = 400.0
        logp, grad = model.logp_grad(theta)
        assert logp == -np.inf
        np.testing.assert_array_equal(grad, 0.0)

    @staticmethod
    def _source(model, block):
        """The source, or BRC surface, that owns ``block``."""
        sources = ([s for s, _, _ in model.sources]
                   + list(getattr(model, "surfaces", {}).values()))
        return next(s for s in sources
                    if block in [b.name for b in s.blocks()])

    @pytest.mark.parametrize("name,block", [
        ("gam-hill_per_covariate", "age_ell"),
        ("longitudinal-hill", "tau_ell"), ("brc-independent", "f_all_ell2"),
        ("stage1-rhs", "rhs_eps"), ("stage1-rhs", "rhs_c2"),
        ("stage2-rhs", "rhs_eps")])
    def test_weights_reject_a_scale_whose_square_overflows(self, name,
                                                           block):
        # e^400 is finite but its square is not; the density and the
        # horseshoe coefficients would come out finite zeros there, so
        # the source itself refuses the state
        model = MODELS[name]
        theta = np.zeros(model.layout.size)
        theta[model.layout.sl(block)] = 400.0
        source = self._source(model, block)
        with pytest.raises(RejectedState):
            source.weights(model._natural(theta))

    @pytest.mark.parametrize("name,block", [
        ("gam-hill_per_covariate", "age_ell"), ("stage1-rhs", "rhs_eps")])
    def test_the_largest_scale_with_a_finite_square_is_kept(self, name,
                                                            block):
        model = MODELS[name]
        source = self._source(model, block)
        nat = model._natural(np.zeros(model.layout.size))
        at = model.layout.sl(block)
        edge = np.sqrt(np.finfo(float).max)
        assert np.isfinite(edge**2)
        with np.errstate(all="ignore"):
            nat[at] = edge
            source.weights(nat)
            nat[at] = np.nextafter(edge, np.inf)
            with pytest.raises(RejectedState):
                source.weights(nat)

    @pytest.mark.parametrize("name,block", [
        ("stage1-rhs", "beta_zeta"), ("stage2-rhs", "gamma_zeta")])
    def test_horseshoe_scale_overflow_is_a_rejected_state(self, name, block):
        # a local scale of e^400 overflows zeta**2, which made the
        # coefficients NaN; the state is rejected without a warning
        model = MODELS[name]
        theta = np.zeros(model.layout.size)
        theta[model.layout.sl(block)] = 400.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp, grad = model.logp_grad(theta)
        assert logp == -np.inf
        np.testing.assert_array_equal(grad, 0.0)

    def test_nan_predictor_from_parameters_is_a_rejected_state(self):
        # sigma_alpha = e^709 times raw coefficients of +-5 overflows to
        # +-inf, and the design sums them to NaN: finite data, so the NaN
        # comes from the state, which is rejected
        model = MODELS["stage1-plain"]
        theta = np.zeros(model.layout.size)
        theta[model.layout.sl("sigma_alpha")] = 709.0
        theta[model.layout.sl("alpha_raw")] = [5.0, -5.0, 5.0, -5.0, 5.0]
        logp, grad = model.logp_grad(theta)
        assert logp == -np.inf
        np.testing.assert_array_equal(grad, 0.0)

    def test_nb1_shape_overflow_rejects_without_warning(self):
        # mu = e^690 over nu = e^-26 overflows the cells' NB1 shape
        model = MODELS["brc-independent"]
        theta = np.zeros(model.layout.size)
        theta[model.layout.sl("beta0")] = 690.0
        theta[model.layout.sl("nu")] = -26.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp, grad = model.logp_grad(theta)
        assert logp == -np.inf
        np.testing.assert_array_equal(grad, 0.0)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_exp_overflow_rejects_without_warning(self, name):
        # exp(800) overflows on every log-scale block: the state is
        # rejected, and no RuntimeWarning is raised (pyproject.toml makes
        # one from contactfatigue.models an error)
        model = MODELS[name]
        for block in model.layout.blocks:
            if block.transform != "log":
                continue
            theta = np.zeros(model.layout.size)
            theta[model.layout.sl(block.name)] = 800.0
            logp, grad = model.logp_grad(theta)
            assert logp == -np.inf, block.name
            np.testing.assert_array_equal(grad, 0.0)


class TestCallBudget:
    """Python frames of the package (``sys.setprofile`` "call" events
    whose code lies in ``contactfatigue``) in one ``logp_grad``: the
    per-call glue, whose count depends neither on the number of rows, nor
    on the host, nor on NumPy's own Python wrappers. Before the group
    design, the seed-3 benchmark models took 64 (gam-hill), 67
    (longitudinal-hill) and 65 (independent-fatigue BRC). Each budget is
    the count of the one flat pass (17, 17 and, with the BRC surfaces as
    one band-sum term on the cells, 21; the plain coefficient blocks take
    none, the spectral weights one frame per axis, the Hill curves one per
    curve, and ``table_log_prior``, with the log-scale chain rule, one)
    plus about 10 %, so that glue does not creep back unnoticed."""

    BUDGET = {"gam-hill_per_covariate": 19, "longitudinal-hill": 19,
              "brc-independent": 23}

    @pytest.mark.parametrize("name", sorted(BUDGET))
    def test_frames_per_gradient(self, name):
        model = MODELS[name]
        theta = np.random.default_rng(6).uniform(-1.0, 1.0,
                                                 model.layout.size)
        assert np.isfinite(model.logp_grad(theta)[0])
        package = os.path.dirname(contactfatigue.__file__) + os.sep
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += (event == "call"
                      and frame.f_code.co_filename.startswith(package))

        sys.setprofile(count)
        try:
            model.logp_grad(theta)
        finally:
            sys.setprofile(None)
        assert calls <= self.BUDGET[name]


class TestPredictionsRaiseRejectedState:
    """At a state that ``logp_grad`` rejects, the prediction paths raise
    the public ``RejectedState``."""

    @staticmethod
    def _rejected(model, block, value):
        theta = np.zeros(model.layout.size)
        theta[model.layout.sl(block)] = value
        assert model.logp_grad(theta)[0] == -np.inf
        return theta

    def test_age_curve_at_kernel_overflow(self):
        # a lengthscale of e^400 overflows ell**2
        model = MODELS["gam-hill_per_covariate"]
        theta = self._rejected(model, "age_ell", 400.0)
        with pytest.raises(RejectedState):
            model.age_curve(theta, AGE_GRID)

    @pytest.mark.parametrize("name", ["gam-none", "gam-hill_per_covariate"])
    def test_pointwise_loglik_at_dispersion_overflow(self, name):
        model = MODELS[name]
        theta = self._rejected(model, "phi", 800.0)
        with pytest.raises(RejectedState):
            model.pointwise_loglik(theta)

    def test_pointwise_loglik_at_horseshoe_overflow(self):
        # a global scale of e^400 overflows eps**2
        model = MODELS["stage1-rhs"]
        theta = self._rejected(model, "rhs_eps", 400.0)
        with pytest.raises(RejectedState):
            model.pointwise_loglik(theta)

    def test_debiased_prediction_skips_the_fatigue_terms(self):
        # the stage-2 horseshoe overflows, but the de-biased prediction
        # does not evaluate the fatigue term and is the offsets alone
        model = MODELS["stage2-rhs"]
        theta = self._rejected(model, "rhs_eps", 400.0)
        with pytest.raises(RejectedState):
            model.predict_log_intensity(theta)
        np.testing.assert_array_equal(
            model.predict_log_intensity(theta, debias=True),
            model.data.offsets)

    def test_surface_at_hyperparameter_overflow(self):
        model, pop = brc_model()
        theta = self._rejected(model, "f_all_ell1", 800.0)
        ages = np.arange(3)
        with pytest.raises(RejectedState):
            model.predict_log_m(theta, "all", 1, ages, ages, pop)


    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_replicate_draws_counts_or_rejects(self, name):
        # a mean or shape too large for NumPy's samplers rejects the state
        model = MODELS[name]
        rng = np.random.default_rng(31)
        for bound in (1.0, 8.0, 50.0):
            for _ in range(20):
                theta = rng.uniform(-bound, bound, model.layout.size)
                try:
                    y = model.replicate(theta, np.random.default_rng(0))
                except RejectedState:
                    continue
                assert y.shape == model.data.y.shape
                assert np.all(y >= 0)


class TestFamilies:
    @pytest.mark.parametrize("cls,family", [
        (LongitudinalNbModel, "stage1_poisson"),
        (IndividualGamModel, "longitudinal_nb"),
        (Stage1PoissonModel, "individual_gam")])
    def test_class_refuses_another_familys_spec(self, small_design, cls,
                                                family):
        with pytest.raises(ValueError, match="cannot fit a"):
            cls(ModelSpec(family=family), small_design)

    @pytest.mark.parametrize("family,kind", [
        ("individual_gam", "gp"), ("longitudinal_nb", "variant_a"),
        ("aggregated_brc", "hill"), ("aggregated_brc", "gp"),
        ("stage1_poisson", "hill"), ("stage1_poisson", "independent"),
        ("stage2_poisson", "hill"), ("stage2_poisson", "independent"),
        # kinds that no family lists: the hill kind fits one curve per
        # weight column, and a one-entry independent table is one shared
        # effect, so neither has a second name
        ("individual_gam", "cubic"), ("aggregated_brc", "cubic"),
        ("individual_gam", "hill_per_covariate"),
        ("longitudinal_nb", "hill_per_covariate"),
        ("longitudinal_nb", "identical")])
    def test_a_family_refuses_a_fatigue_kind_it_cannot_fit(self, family,
                                                           kind):
        # the stage models built such a spec and dropped its fatigue term
        with pytest.raises(ValueError, match=f"{family} cannot fit fatigue "
                                             f"kind '{kind}'"):
            ModelSpec(family=family, fatigue=FatigueSpec(kind, max_repeat=3))

    @pytest.mark.parametrize("family,kind", sorted(
        (family, kind) for family, cls in _FAMILY_CLASS.items()
        for kind in cls.fatigue_kinds))
    def test_every_listed_fatigue_kind_builds_its_term(self, family, kind):
        # a kind that a family lists but does not handle would build no
        # fatigue term and raise nothing; stage 2's model is its fatigue
        # term w' gamma, whatever the kind
        counts = [sum(t.fatigue for t in model.terms)
                  for model in MODELS.values()
                  if (model.spec.family, model.spec.fatigue.kind)
                  == (family, kind)]
        assert counts, "no model of this family and kind in MODELS"
        always = int(family == "stage2_poisson")
        for count in counts:
            assert count == always if kind == "none" else count > always

    @pytest.mark.parametrize("name,observation", [
        ("stage1-plain", "_PoissonGroups"), ("stage2-rhs", "_PoissonGroups"),
        ("longitudinal-none", "_Nb2Groups"), ("gam-none", "_Nb2Groups"),
        ("brc-none", "_Nb1Cells")])
    def test_family_observation(self, name, observation):
        assert type(MODELS[name].obs).__name__ == observation

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown model family"):
            ModelSpec(family="poisson")


class TestHsgpConfig:
    def test_unknown_family(self):
        # refused when the config is made, not at the first gradient
        with pytest.raises(ValueError, match="kernel family 'cubic'"):
            HsgpConfig(kernel="cubic")
        with pytest.raises(ValueError, match="unknown kernel family"):
            dataclasses.replace(brc_surface_config(), kernel="cubic")


ROW_LEVEL = sorted(name for name in MODELS if not name.startswith("brc"))


def _row_reference(model, theta, debias):
    """The log intensity of each fitted row, summed term by term from the
    row's own covariates, without the predictor groups."""
    d, layout = model.data, model.layout

    def raw(name):
        return layout.raw(theta, name)

    if isinstance(model, Stage2PoissonModel):
        fatigue = d.blocks["w"] @ model.effects(theta)[-1]
        return d.offsets + (0.0 if debias else fatigue)
    if isinstance(model, Stage1PoissonModel):
        alpha = np.exp(raw("sigma_alpha")) * raw("alpha_raw")
        return (raw("beta0") + d.blocks["u"] @ alpha
                + d.blocks["v"] @ model.effects(theta)[-1])
    if isinstance(model, LongitudinalNbModel):
        tau = next(t.source for t in model.terms
                   if isinstance(getattr(t, "source", None), _HsgpTerm)
                   and t.source.block_names[0] == "tau_w")
        beta = np.exp(raw("sigma_beta")) * raw("beta_raw")
        dates = np.searchsorted(np.unique(d.report_date), d.report_date)
        eta = (raw("beta0") + d.x @ beta
               + tau.values_at(model._natural(theta), dates))
        return eta if debias else eta + model.fatigue_curve(theta, d.repeat)
    eta = model.age_curve(theta, d.age) + d.blocks["u"] @ raw("beta")
    if debias or model.spec.fatigue.kind == "none":
        return eta
    curves = map(HillCurve, np.exp(raw("hill_gamma")), raw("hill_zeta"),
                 np.exp(raw("hill_eta")))
    return eta + sum(w * hill(curve, d.repeat)
                     for w, curve in zip(d.blocks["w"].T, curves))


def _single_year_rows(d):
    """(cell, b) of each single-year row of the BRC cells ``d``: the
    contact ages b of each cell's band, read from the band table, cell by
    cell."""
    return np.nonzero(d.bands.membership()[d.cell_band])


def _row_log_m(model, pop, theta):
    """The cell of each single-year row of a BRC model's cells and its
    log m(a, b), from the surface prediction of the cell's own gender pair
    and wave."""
    d = model.data
    cell, b = _single_year_rows(d)
    log_m = np.empty(cell.size)
    for p, pair in enumerate(d.pairs):
        for t, wave in enumerate(d.waves):
            rows = (d.cell_pair[cell] == p) & (d.cell_wave[cell] == t)
            log_m[rows] = model.predict_log_m(
                theta, pair, wave, d.cell_age[cell][rows], b[rows], pop)
    return cell, log_m


def _row_level_nb1(model, pop, theta):
    """The BRC log likelihood from its definition: each single-year row's
    mean from the surface prediction, the fatigue and log N + log S,
    summed over the cell's rows and scored by scipy's negative binomial
    (the variants' fatigue is read from the model's fatigue term on the
    cells)."""
    d = model.data
    kind = model.spec.fatigue.kind
    cell, log_m = _row_log_m(model, pop, theta)
    if kind == "none":
        fatigue = np.zeros(d.n_cells)
    elif kind == "independent":
        rho = model.layout.raw(theta, "rho")
        fatigue = np.concatenate([[0.0], rho])[d.cell_repeat]
    else:
        term = next(t for t in model.terms if t.fatigue)
        fatigue = term.values(model._natural(theta))[0][model.group_of]
    mu = np.bincount(cell, weights=np.exp(
        log_m + (fatigue + d.log_offset_cell)[cell]))
    nu = np.exp(model.layout.raw(theta, "nu")[0])
    return stats.nbinom.logpmf(d.y, mu / nu, 1.0 / (1.0 + nu)).sum()


#: contact bands that leave ages 5-9, 15-29 and 45-84 uncovered
GAPPED_BANDS = CoarseBandSet((AgeBand(0, 4), AgeBand(10, 14),
                              AgeBand(30, 44)))


def _gapped_brc_model():
    """A four-pair BRC model on ``GAPPED_BANDS`` whose participant ages
    report different subsets of the bands."""
    rng = np.random.default_rng(4)
    pop = PopulationTable({"M": np.linspace(300.0, 900.0, 85),
                           "F": np.linspace(800.0, 400.0, 85)})
    reported = {10: (0, 1), 25: (1, 2), 40: (0, 2), 60: (2,)}
    cells = np.array([(t, r, a, c, p) for t in (1, 2) for r in (0, 1, 2)
                      for a, bands in reported.items() for c in bands
                      for p in range(len(GENDER_PAIRS))])
    data = make_brc_data(
        y=rng.integers(0, 40, len(cells)), wave=cells[:, 0],
        repeat=cells[:, 1], age=cells[:, 2], band=cells[:, 3],
        n_participants=np.full(len(cells), 12.0),
        s_prop=np.full(len(cells), 0.9), population=pop,
        bands=GAPPED_BANDS, pair=[GENDER_PAIRS[p] for p in cells[:, 4]],
        pairs=GENDER_PAIRS)
    spec = ModelSpec(family="aggregated_brc",
                     fatigue=FatigueSpec(kind="independent", max_repeat=2),
                     hsgp_surface=brc_surface_config(6))
    return build_model(spec, data), pop


class TestGroupedLikelihood:
    """logp_grad runs the likelihood on predictor groups; minus the priors
    it equals the sum of ``pointwise_loglik`` over the rows (over the cells
    for the BRC models)."""

    @staticmethod
    def _grouped(model, theta):
        logp, _ = model.logp_grad(theta)
        return logp - table_log_prior(model.prior, theta,
                                      model._natural(theta),
                                      np.zeros(model.layout.size))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equals_row_level(self, name):
        model = MODELS[name]
        rng = np.random.default_rng(17)
        for _ in range(5):
            theta = rng.uniform(-1.0, 1.0, model.layout.size)
            assert self._grouped(model, theta) == pytest.approx(
                model.pointwise_loglik(theta).sum(), rel=1e-10)

    @pytest.mark.parametrize("name", ROW_LEVEL)
    def test_groups_reproduce_every_row(self, name):
        # the group design sums the terms in another order than the rows'
        # own covariates do: 5 states in [-1, 1] and 3 in [-8, 8]
        model = MODELS[name]
        rng = np.random.default_rng(23)
        for bound, n_states in ((1.0, 5), (8.0, 3)):
            for _ in range(n_states):
                theta = rng.uniform(-bound, bound, model.layout.size)
                for debias in (False, True):
                    np.testing.assert_allclose(
                        model.predict_log_intensity(theta, debias=debias),
                        _row_reference(model, theta, debias),
                        rtol=1e-12, atol=1e-12)

    def test_brc_rows_read_their_pair_surface(self):
        # a cell's fitted log expected count is the log of its rows' sum
        # of the surface predictions of its own gender pair and wave, plus
        # the repeat effect and log N + log S
        model, pop = brc_model(pairs=GENDER_PAIRS)
        d = model.data
        theta = np.random.default_rng(9).uniform(-0.5, 0.5,
                                                 model.layout.size)
        rho = np.concatenate([[0.0], model.layout.raw(theta, "rho")])
        cell, log_m = _row_log_m(model, pop, theta)
        expected = (np.log(np.bincount(cell, weights=np.exp(log_m)))
                    + rho[d.cell_repeat] + d.log_offset_cell)
        np.testing.assert_allclose(model.predict_log_intensity(theta),
                                   expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind,pairs", [
        ("none", ("all",)), ("independent", ("all",)),
        ("independent", GENDER_PAIRS), ("variant_a", ("all",)),
        ("variant_b", ("all",)), ("variant_c", ("all",))])
    def test_brc_likelihood_equals_the_row_level_nb1(self, kind, pairs):
        # the factored cell likelihood against its definition
        model, pop = brc_model(kind, pairs=pairs)
        rng = np.random.default_rng(19)
        for _ in range(5):
            theta = rng.uniform(-1.0, 1.0, model.layout.size)
            assert self._grouped(model, theta) == pytest.approx(
                _row_level_nb1(model, pop, theta), rel=1e-12)

    def test_brc_on_bands_with_gaps_equals_the_row_level_nb1(self):
        # bands that leave ages uncovered, and participant ages that
        # report different subsets of them
        model, pop = _gapped_brc_model()
        rng = np.random.default_rng(21)
        for _ in range(5):
            theta = rng.uniform(-1.0, 1.0, model.layout.size)
            assert self._grouped(model, theta) == pytest.approx(
                _row_level_nb1(model, pop, theta), rel=1e-12)

    @pytest.mark.parametrize("name", [n for n in ROW_LEVEL
                                      if "phi" in
                                      MODELS[n].layout.parameter_names()])
    def test_nb2_equals_row_level_where_mu_overflows(self, name):
        # exp(800) overflows, yet the NB2 log pmf stays finite
        model = MODELS[name]
        theta = np.zeros(model.layout.size)
        theta[model.layout.sl("beta0")] = 800.0
        row_level = model.pointwise_loglik(theta).sum()
        assert np.isfinite(row_level)
        assert self._grouped(model, theta) == pytest.approx(row_level,
                                                            rel=1e-10)


class TestFlowIdentity:
    def test_rate_consistency_exact(self):
        # P_a m(a,b) = P_b m(b,a) for every draw, algebraically
        model, pop = brc_model("independent")
        rng = np.random.default_rng(7)
        ages = np.arange(0, 85, 7, dtype=float)
        aa, bb = np.meshgrid(ages, ages)
        a, b = aa.ravel(), bb.ravel()
        p = pop.get("all")
        for _ in range(3):
            theta = rng.uniform(-0.5, 0.5, model.layout.size)
            log_m_ab = model.predict_log_m(theta, "all", 1, a, b, pop)
            log_m_ba = model.predict_log_m(theta, "all", 1, b, a, pop)
            flow_ab = np.log(p[a.astype(int)]) + log_m_ab
            flow_ba = np.log(p[b.astype(int)]) + log_m_ba
            np.testing.assert_allclose(flow_ab, flow_ba, rtol=1e-12,
                                       atol=1e-12)

    def test_cross_gender_flows_balance(self):
        # P^M_a m_MF(a,b) = P^F_b m_FM(b,a): "MF" reads the "FM" surface
        model, pop = brc_model(pairs=GENDER_PAIRS)
        rng = np.random.default_rng(8)
        ages = np.arange(0, 85, 7, dtype=float)
        aa, bb = np.meshgrid(ages, ages)
        a, b = aa.ravel(), bb.ravel()
        log_m, log_f = np.log(pop.get("M")), np.log(pop.get("F"))
        for _ in range(3):
            theta = rng.uniform(-0.5, 0.5, model.layout.size)
            flow_mf = log_m[a.astype(int)] + model.predict_log_m(
                theta, "MF", 2, a, b, pop)
            flow_fm = log_f[b.astype(int)] + model.predict_log_m(
                theta, "FM", 2, b, a, pop)
            np.testing.assert_allclose(flow_mf, flow_fm, rtol=1e-12,
                                       atol=1e-12)


AGE_GRID_A, AGE_GRID_B = (x.ravel() for x in np.meshgrid(
    AGE_GRID, AGE_GRID, indexing="ij"))


def _surface_term(model, block):
    """The HSGP term whose weights are ``{block}_w`` and the raw points of
    its grid: the age grid, or for variant_c the cells' ages x the band
    midpoints present."""
    if block == "fac":
        d = model.data
        smooth = next(t for t in model.terms if hasattr(t, "inner")).inner[1]
        mids = np.asarray(d.bands.midpoints, dtype=float)
        a, b = np.meshgrid(np.unique(d.cell_age),
                           np.unique(mids[d.cell_band]), indexing="ij")
        return smooth.source, a.ravel(), b.ravel()
    return model.surfaces[block[2:]], AGE_GRID_A, AGE_GRID_B


class TestFactoredSurfaces:
    """The 2D HSGP terms work through per-axis factors on a grid; their
    values, gradients and predictions agree with the dense reference
    basis."""

    @pytest.mark.parametrize("name,block", [
        ("brc-independent", "f_all"), ("brc-gender-pairs", "f_MM"),
        ("brc-gender-pairs", "f_FM"), ("brc-variant_c", "fac")])
    def test_term_matches_dense_basis(self, name, block):
        model = MODELS[name]
        gp, a, b = _surface_term(model, block)
        rng = np.random.default_rng(31)
        theta = rng.uniform(-1.0, 1.0, model.layout.size)
        nat = model._natural(theta)
        f, cache = gp.values(nat)
        v = gp.weights(nat)[0]
        _, sqrt_s, _ = cache
        phi = basis_at(gp.basis, a / AGE_SD, b / AGE_SD)
        assert_matches_reference(f, phi @ v)
        g = rng.standard_normal(f.size)
        grad = np.zeros(model.layout.size)
        gp.backprop(grad, g, cache)
        assert_matches_reference(grad[model.layout.sl(f"{block}_w")],
                                 sqrt_s * (phi.T @ g))

    @pytest.mark.parametrize("name", ["brc-independent", "brc-gender-pairs"])
    def test_band_sums_read_the_whole_grid(self, name):
        # each surface is evaluated only on the sub-grid of its points, yet
        # a cell's band sum is its rows' sum of exp(f + log P_b), f read
        # on the whole 85 x 85 grid: symmetric surfaces ("all", "MM",
        # "FF"), the unrestricted "FM" one and its transposed read by "MF"
        model = MODELS[name]
        d = model.data
        pop = brc_model(pairs=d.pairs)[1]
        cell, b = _single_year_rows(d)
        band_sums = next(t for t in model.terms if hasattr(t, "surfaces"))
        theta = np.random.default_rng(33).uniform(-1.0, 1.0,
                                                  model.layout.size)
        nat = model._natural(theta)
        f = np.empty(cell.size)
        for p, pair in enumerate(d.pairs):
            key, swap = _surface_of(pair)
            grid = model.surfaces[key].values(nat)[0].reshape(85, 85)
            rows = d.cell_pair[cell] == p
            a, c = d.cell_age[cell][rows], b[rows]
            log_pop = np.log(pop.get(pair if pair == "all" else pair[1]))
            f[rows] = (grid[c, a] if swap else grid[a, c]) + log_pop[c]
        expected = np.log(np.bincount(cell, weights=np.exp(f)))
        np.testing.assert_allclose(
            band_sums.values(nat)[0][model.group_of], expected, rtol=1e-13,
            atol=1e-13 * np.max(np.abs(expected)))
        for sub, _ in band_sums.grids:
            assert sub.basis.n_points < 85 * 85

    @pytest.mark.parametrize("pair", GENDER_PAIRS)
    def test_prediction_reads_the_dense_surface(self, pair):
        # "MF" reads the "FM" surface at (b, a)
        model, pop = brc_model(pairs=GENDER_PAIRS)
        key, swap = _surface_of(pair)
        gp = model.surfaces[key]
        theta = np.random.default_rng(32).uniform(-1.0, 1.0,
                                                  model.layout.size)
        a, b = (AGE_GRID_B, AGE_GRID_A) if swap else (AGE_GRID_A, AGE_GRID_B)
        surface = basis_at(gp.basis, a / AGE_SD, b / AGE_SD) @ gp.weights(
            model._natural(theta))[0]
        assert_matches_reference(
            model.predict_log_m(theta, pair, 1, AGE_GRID_A, AGE_GRID_B, pop),
            model.layout.raw(theta, "beta0")[0] + surface
            + np.log(pop.get(pair[1]))[AGE_GRID_B.astype(int)])

    @pytest.mark.parametrize("name", ["brc-independent", "brc-gender-pairs"])
    def test_surface_boxes_contain_the_age_grid(self, name):
        # the HSGP approximation holds inside its box only
        for term in MODELS[name].surfaces.values():
            basis = term.basis
            for center, half in zip(basis.center, basis.half_width):
                assert center - half <= AGE_GRID[0] / AGE_SD
                assert center + half >= AGE_GRID[-1] / AGE_SD

    @pytest.mark.parametrize("age", [10.5, -1.0, 85.0])
    def test_prediction_takes_whole_years_on_the_grid(self, age):
        model, pop = brc_model()
        theta = np.zeros(model.layout.size)
        for a, b in (([age], [3.0]), ([3.0], [age])):
            with pytest.raises(ValueError, match="whole years"):
                model.predict_log_m(theta, "all", 1, np.array(a),
                                    np.array(b), pop)
        gam = MODELS["gam-none"]
        with pytest.raises(ValueError, match="whole years"):
            gam.age_curve(np.zeros(gam.layout.size), np.array([3.0, age]))

    def test_surface_prediction_memory(self):
        # the dense basis on the 85 x 85 age grid at m = 40 is 47 MB
        model, pop = brc_model(m=40)
        theta = np.random.default_rng(4).uniform(-0.5, 0.5,
                                                 model.layout.size)
        tracemalloc.start()
        try:
            log_m = model.predict_log_m(theta, "all", 1, AGE_GRID_A,
                                        AGE_GRID_B, pop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(log_m))
        assert peak < 5e6


class TestPredictIntensity:
    @staticmethod
    def _gam_at_repeat(repeat, seed=0):
        """A Hill-fatigue GAM on records that all have ``repeat``."""
        records = make_records(30, seed=seed, min_repeat=repeat,
                               max_repeat=repeat)
        spec = ModelSpec(family="individual_gam",
                         fatigue=FatigueSpec(kind="hill"))
        return build_model(spec, build_design(records, SMALL_FEATURES))

    def test_debias_equals_raw_at_zero_repeats(self):
        model = self._gam_at_repeat(0)
        theta = np.random.default_rng(1).uniform(-0.5, 0.5,
                                                 model.layout.size)
        raw = model.predict_log_intensity(theta, debias=False)
        deb = model.predict_log_intensity(theta, debias=True)
        np.testing.assert_allclose(np.exp(raw), np.exp(deb), rtol=1e-12)

    def test_debias_ratio_saturates_at_exp_gamma(self):
        # every curve is at its asymptote -gamma_q, so de-biasing lifts a
        # row by exp(w' gamma)
        model = self._gam_at_repeat(10**6)
        theta = np.random.default_rng(2).uniform(-0.5, 0.5,
                                                 model.layout.size)
        gammas = np.exp(model.layout.raw(theta, "hill_gamma"))
        raw = model.predict_log_intensity(theta, debias=False)
        deb = model.predict_log_intensity(theta, debias=True)
        np.testing.assert_allclose(np.exp(deb - raw),
                                   np.exp(model.data.blocks["w"] @ gammas),
                                   rtol=1e-4)


class TestFatigueCurve:
    """``LongitudinalNbModel.fatigue_curve`` for each longitudinal model
    of ``MODELS``, on repeats past the largest one modelled (3)."""

    R = np.arange(8)

    @staticmethod
    def _curve(label):
        model = MODELS[f"longitudinal-{label}"]
        theta = np.random.default_rng(41).uniform(-1.0, 1.0,
                                                  model.layout.size)
        return model, theta, model.fatigue_curve(theta, TestFatigueCurve.R)

    @pytest.mark.parametrize("label", ["hill", "independent", "identical",
                                       "gp", "none"])
    def test_zero_at_no_repeats(self, label):
        assert self._curve(label)[2][0] == 0.0

    def test_hill_is_the_curve(self):
        model, theta, rho = self._curve("hill")
        raw = {b: model.layout.raw(theta, b)[0]
               for b in ("hill_gamma", "hill_zeta", "hill_eta")}
        curve = HillCurve(np.exp(raw["hill_gamma"]), raw["hill_zeta"],
                          np.exp(raw["hill_eta"]))
        np.testing.assert_array_equal(rho, hill(curve, self.R))

    def test_independent_reads_the_table_up_to_max_repeat(self):
        model, theta, rho = self._curve("independent")
        table = model.layout.raw(theta, "rho")
        r_max = model.spec.fatigue.max_repeat
        np.testing.assert_array_equal(
            rho[1:], table[np.minimum(self.R[1:], r_max) - 1])

    def test_identical_is_one_value_for_every_repeat(self):
        # the independent table with one entry
        model, theta, rho = self._curve("identical")
        assert model.spec.fatigue == FatigueSpec("independent", 1)
        np.testing.assert_array_equal(rho[1:],
                                      model.layout.raw(theta, "rho")[0])

    def test_gp_holds_its_last_value_past_max_repeat(self):
        model, _, rho = self._curve("gp")
        r_max = model.spec.fatigue.max_repeat
        np.testing.assert_array_equal(rho[r_max:], rho[r_max])

    def test_none_is_zero(self):
        np.testing.assert_array_equal(self._curve("none")[2], 0.0)
