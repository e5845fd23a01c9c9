import numpy as np
import pytest

from contactfatigue.domain import (FeatureBlock, FeatureSpec, SurveyRecord,
                                   build_design)


def make_records(n=40, seed=0, waves=1, min_repeat=0, max_repeat=3,
                 age_range=(20, 60)):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(SurveyRecord(
            participant_id=f"p{i}",
            wave=int(rng.integers(1, waves + 1)),
            repeat=int(rng.integers(min_repeat, max_repeat + 1)),
            age=int(rng.integers(*age_range)),
            sex="M" if rng.uniform() < 0.5 else "F",
            household_size=str(rng.integers(1, 4)),
            covariates={"employment": ("full_time" if rng.uniform() < 0.5
                                       else "retired")},
            contacts_total=int(rng.integers(0, 12)),
            report_date=int(rng.integers(0, 30)),
        ))
    return out


SMALL_FEATURES = FeatureSpec(
    u=(FeatureBlock("sex", ("M", "F")),
       FeatureBlock("household_size", ("1", "2", "3"))),
    v=(FeatureBlock("employment", ("full_time", "retired")),),
    w=(FeatureBlock("const", ("1",)),
       FeatureBlock("employment", ("full_time", "retired"))),
)


@pytest.fixture
def small_design():
    return build_design(make_records(), SMALL_FEATURES)


def finite_difference_grad(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    for j in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h
        tm[j] -= h
        g[j] = (f(tp) - f(tm)) / (2 * h)
    return g


def max_rel_grad_error(model, theta, h=1e-6):
    _, grad = model.logp_grad(theta)
    num = finite_difference_grad(lambda t: model.logp_grad(t)[0], theta, h)
    return float(np.max(np.abs(grad - num) / np.maximum(np.abs(num), 1.0)))


def assert_matches_reference(x, reference):
    """Agreement with a dense reference to 1e-12, relative to each entry
    or to the largest one."""
    np.testing.assert_allclose(x, reference, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(reference)))
