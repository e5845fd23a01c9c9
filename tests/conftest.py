import dataclasses

import numpy as np
import pytest

from contactfatigue.domain import (FeatureBlock, FeatureSpec,
                                   PopulationTable, SurveyRecord,
                                   build_design, default_coarse_bands)
from contactfatigue.models import (FatigueSpec, ModelSpec, brc_surface_config,
                                   build_model, make_brc_data)


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


def brc_model(fatigue_kind="independent", m=6, seed=0, pairs=("all",)):
    """Cells over waves, repeats, participant ages, contact bands and the
    gender ``pairs``; pairs other than "all" get unequal populations."""
    rng = np.random.default_rng(seed)
    bands = default_coarse_bands()
    pop = (PopulationTable.uniform(("all",), 500.0) if pairs == ("all",)
           else PopulationTable({"M": np.linspace(300.0, 900.0, 85),
                                 "F": np.linspace(800.0, 400.0, 85)}))
    rows = []
    for t in (1, 2):
        for r in (0, 1, 2):
            for a in (10, 25, 40, 60):
                for c in (1, 5, 8):
                    for p in range(len(pairs)):
                        rows.append((t, r, a, c, float(rng.integers(0, 40)),
                                     p))
    rows = np.array(rows)
    data = make_brc_data(
        y=rows[:, 4], wave=rows[:, 0].astype(int),
        repeat=rows[:, 1].astype(int), age=rows[:, 2].astype(int),
        band=rows[:, 3].astype(int),
        n_participants=np.full(len(rows), 12.0),
        s_prop=np.full(len(rows), 0.9), population=pop, bands=bands,
        pair=[pairs[int(p)] for p in rows[:, 5]], pairs=pairs)
    surf = dataclasses.replace(brc_surface_config(), m=m)
    spec = ModelSpec(family="aggregated_brc",
                     fatigue=FatigueSpec(kind=fatigue_kind, max_repeat=2),
                     hsgp_surface=surf)
    return build_model(spec, data), pop


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
