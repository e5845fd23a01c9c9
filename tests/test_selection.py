"""Two-stage selection: the design surgery and one small seeded run."""

from dataclasses import replace

import numpy as np
import pytest

from contactfatigue.cli import scenario_feature_spec, selection_groups
from contactfatigue.domain import build_design
from contactfatigue.inference import SamplerConfig, sample_model
from contactfatigue.models import ModelSpec, Stage1PoissonModel
from contactfatigue.selection import (STAGE1_INTERCEPT_PRIOR, STAGE1_LOWER,
                                      STAGE1_UPPER, STAGE2_CUTOFF,
                                      replace_offsets, stage1_refit_offsets,
                                      stage1_select, stage2_select,
                                      subset_v_block, two_stage_select)
from contactfatigue.simulator import ScenarioConfig, simulate_panel

from conftest import SMALL_FEATURES, make_records


@pytest.fixture(scope="module")
def designs():
    """First-timers and repeaters of the seed-7 60-person panel, coded as
    the ``select`` command codes them."""
    panel = simulate_panel(ScenarioConfig(waves=3, panel_size=60, seed=7))[0]
    fs = scenario_feature_spec()
    return tuple(build_design(g, fs) for g in selection_groups(panel))


class TestSubsetVBlock:
    def test_keeps_u_the_named_v_columns_and_w(self):
        design = build_design(make_records(), SMALL_FEATURES)
        v_names = design.names["v"]
        # asked in reverse order, kept in v order, unknown names ignored
        keep = (v_names[1], "no_such_column", v_names[0])
        sub = subset_v_block(design, keep)
        assert sub.names == design.names
        for block in ("u", "v", "w"):
            np.testing.assert_array_equal(sub.blocks[block],
                                          design.blocks[block])
        np.testing.assert_array_equal(sub.x, design.x)

    def test_drops_the_v_columns_not_named(self):
        design = build_design(make_records(), SMALL_FEATURES)
        v_names = design.names["v"]
        sub = subset_v_block(design, (v_names[1],))
        assert sub.names == {**design.names, "v": (v_names[1],)}
        np.testing.assert_array_equal(sub.blocks["v"],
                                      design.blocks["v"][:, [1]])
        np.testing.assert_array_equal(sub.blocks["u"], design.blocks["u"])
        np.testing.assert_array_equal(sub.blocks["w"], design.blocks["w"])
        n_u, n_w = len(design.names["u"]), len(design.names["w"])
        assert sub.x.shape == (design.n, n_u + 1 + n_w)


def test_replace_offsets_refuses_a_wrong_length():
    design = build_design(make_records(), SMALL_FEATURES)
    with pytest.raises(ValueError, match="offset length"):
        replace_offsets(design, np.zeros(design.n - 1))
    out = replace_offsets(design, np.full(design.n, 0.5))
    np.testing.assert_array_equal(out.offsets, 0.5)


def test_each_stage_refuses_a_horseshoe_it_cannot_fit(designs):
    # refused by the stage models, before sampling: no horseshoe has zero
    # coefficients, so an empty candidate block has none that fits
    first, repeat = designs
    cfg = SamplerConfig(chains=1, warmup=100, sampling=1, seed=7)
    with pytest.raises(ValueError, match="at least one coefficient"):
        stage1_select(subset_v_block(first, ()), cfg)
    no_w = replace(repeat, blocks={**repeat.blocks,
                                   "w": repeat.blocks["w"][:, :0]},
                   names={**repeat.names, "w": ()})
    with pytest.raises(ValueError, match="at least one coefficient"):
        stage2_select(no_w, np.zeros(repeat.n), cfg)


def test_stage2_offsets_are_the_medians_of_the_drawn_effects(designs):
    # alpha = sigma_alpha * alpha_raw per draw, then the median; the
    # product of the two medians is not the median of alpha
    first, repeat = designs
    cfg = SamplerConfig(chains=1, warmup=100, sampling=20, seed=7)
    offsets = stage1_refit_offsets(first, repeat, cfg)
    model = Stage1PoissonModel(ModelSpec(
        family="stage1_poisson", beta0_prior=STAGE1_INTERCEPT_PRIOR), first)
    draws, _ = sample_model(model, cfg, compute_pointwise=False)
    coef = np.hstack([draws.constrained("sigma_alpha")
                      * draws.constrained("alpha_raw"),
                      draws.constrained("beta")])
    expected = (np.median(draws.constrained("beta0"))
                + np.hstack([repeat.blocks["u"], repeat.blocks["v"]])
                @ np.median(coef, axis=0))
    np.testing.assert_allclose(offsets, expected, rtol=1e-12, atol=1e-12)


class TestTwoStageSelect:
    CFG = SamplerConfig(chains=1, warmup=100, sampling=10, seed=7)

    @pytest.fixture(scope="class")
    def runs(self, designs):
        return [two_stage_select(*designs, self.CFG) for _ in range(2)]

    def test_names_the_candidate_columns(self, designs, runs):
        first, repeat = designs
        stage1, stage2 = runs[0]
        assert stage1.feature_names == first.names["v"]
        kept = subset_v_block(repeat, stage1.selected_features())
        assert stage2.feature_names == kept.names["w"]
        assert stage1.medians.shape == (len(stage1.feature_names),)
        assert stage2.medians.shape == (len(stage2.feature_names),)

    def test_selection_is_the_threshold_on_the_median(self, runs):
        stage1, stage2 = runs[0]
        assert stage1.selected == tuple(
            bool(m < STAGE1_LOWER or m > STAGE1_UPPER)
            for m in stage1.medians)
        assert stage2.selected == tuple(bool(m < STAGE2_CUTOFF)
                                        for m in stage2.medians)
        assert np.log(0.95) == STAGE1_LOWER == STAGE2_CUTOFF
        assert np.log(1.05) == STAGE1_UPPER

    def test_two_runs_are_equal(self, runs):
        for a, b in zip(*runs):
            assert a.feature_names == b.feature_names
            assert a.selected == b.selected
            for field in ("medians", "lower50", "upper50"):
                np.testing.assert_array_equal(getattr(a, field),
                                              getattr(b, field))
