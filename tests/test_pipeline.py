import dataclasses

import numpy as np
import pytest

from contactfatigue.domain import DataError, build_design
from contactfatigue.inference import (Diagnostics, PosteriorDraws,
                                      SamplerConfig)
from contactfatigue.models import FatigueSpec, ModelSpec, build_model
from contactfatigue.pipeline import (WaveFit, bootstrap_mean, cell_weights,
                                     fit_sequence, fit_wave,
                                     poststratified_mean)
from contactfatigue.priors import PriorSpec

from conftest import SMALL_FEATURES, brc_model, make_records


def _hill_fit(records):
    """A Hill-fatigue additive model on ``records`` with draws spread
    around zero in place of a sampler run."""
    return _fit(build_model(ModelSpec(
        family="individual_gam",
        fatigue=FatigueSpec(kind="hill_per_covariate")),
        build_design(records, SMALL_FEATURES)))


def _fit(model, n_draws=40, seed=0):
    """``model`` with draws spread around zero in place of a sampler
    run."""
    rng = np.random.default_rng(seed)
    draws = PosteriorDraws(
        layout=model.layout,
        draws=rng.uniform(-0.5, 0.5, (1, n_draws, model.layout.size)),
        divergent=np.zeros((1, n_draws), dtype=bool),
        step_sizes=np.ones(1), grad_evals=np.zeros(1),
        pointwise_loglik=None)
    return WaveFit(wave=1, draws=draws,
                   diagnostics=Diagnostics(rhat={}, ess_bulk={},
                                           divergences=0),
                   model=model, posterior_means=draws.point(np.mean),
                   posterior_medians=draws.point(np.median),
                   prior_provenance="initial")


def test_fitting_no_records_is_a_data_error():
    # a cap that keeps no record reached the Hill term's design with zero
    # rows and failed there with a reshape error
    spec = ModelSpec(family="individual_gam",
                     fatigue=FatigueSpec(kind="hill_per_covariate"))
    with pytest.raises(DataError, match="no records to fit"):
        fit_wave([], SMALL_FEATURES, spec, SamplerConfig())


def test_an_empty_wave_is_a_data_error():
    # an empty wave is refused as in fit_wave, not skipped with a warning
    spec = ModelSpec(family="individual_gam",
                     fatigue=FatigueSpec(kind="hill_per_covariate"))
    cfg = SamplerConfig(chains=1, warmup=100, sampling=5)
    with pytest.raises(DataError, match="no records to fit"):
        fit_sequence([[], make_records(40)], SMALL_FEATURES, spec, cfg)


def test_a_plain_gam_sequence_propagates_its_coefficient_priors():
    # a spec without Hill fatigue has no Hill blocks: the second wave
    # failed with KeyError 'hill_gamma' when their priors were propagated
    records = make_records(40, waves=2)
    waves = [[r for r in records if r.wave == t] for t in (1, 2)]
    spec = ModelSpec(family="individual_gam")
    cfg = SamplerConfig(chains=1, warmup=100, sampling=5)
    fits = fit_sequence(waves, SMALL_FEATURES, spec, cfg)
    assert [f.prior_provenance for f in fits] == ["initial", "propagated"]
    second = fits[1].model.spec
    assert second.beta_prior == PriorSpec("normal", (tuple(
        map(float, fits[0].posterior_means["beta"])), 0.3))
    assert second.fatigue == spec.fatigue


def test_cell_weights_without_shares_are_uniform():
    records = make_records(40)
    np.testing.assert_array_equal(cell_weights(records), np.full(40, 1 / 40))


def test_debiased_mean_is_at_least_the_raw_mean():
    # Hill fatigue only lowers intensities, so dropping it raises the
    # weighted mean of every draw
    records = make_records(40, min_repeat=1)
    fit = _hill_fit(records)
    weights = cell_weights(records)
    debiased = poststratified_mean(fit, weights, debias=True)
    raw = poststratified_mean(fit, weights, debias=False,
                              method="bayes-unadjusted")
    assert debiased.median > raw.median
    assert debiased.lower > raw.lower
    assert debiased.upper > raw.upper


def test_poststratified_mean_of_a_brc_fit():
    # one weight per coarse cell: the mean expected count of the cells
    model, _ = brc_model()
    fit = _fit(model)
    n = model.data.n_cells
    est = poststratified_mean(fit, np.full(n, 1.0 / n), debias=False)
    means = [np.exp(model.predict_log_intensity(theta)).mean()
             for theta in fit.draws.stacked()]
    assert est.median == pytest.approx(np.median(means), rel=1e-12)


def test_constant_counts_give_a_degenerate_bootstrap_interval():
    records = [dataclasses.replace(r, contacts_total=5)
               for r in make_records(40)]
    est = bootstrap_mean(records, 200, seed=3)
    assert est.median == pytest.approx(5.0, rel=1e-12)
    assert est.lower == pytest.approx(5.0, rel=1e-12)
    assert est.upper == pytest.approx(5.0, rel=1e-12)


def test_bootstrap_point_is_the_median_of_the_resampled_means():
    # three participants give resampled means k * 100 / 3 only; with an odd
    # number of resamples the median is one of them, while their mean is not
    records = [dataclasses.replace(r, participant_id=f"p{i}",
                                   contacts_total=[0, 0, 30][i])
               for i, r in enumerate(make_records(3))]
    est = bootstrap_mean(records, 101, seed=1)
    assert est.median in {0.0, 10.0, 20.0, 30.0}
    assert est.lower <= est.median <= est.upper


def test_bootstrapping_no_records_is_a_data_error():
    # it divided by the zero participants first, a ZeroDivisionError
    with pytest.raises(DataError, match="no records to resample"):
        bootstrap_mean([], 100)
