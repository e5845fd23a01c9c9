import csv

import numpy as np
import pytest

from contactfatigue.domain import (CHILD_BANDS, SURVEY_COLUMNS, FeatureBlock,
                                   FeatureSpec, SurveyRecord, build_design)
from contactfatigue.models.fatigue import hill
from contactfatigue.models.likelihoods import nb2_rvs
from contactfatigue.simulator import (AGE_EFFECT, BETA, BETA0, DAYS_PER_WAVE,
                                      HILL_CURVES, ScenarioConfig,
                                      TruthManifest, _new_participant,
                                      panel_to_csv, scenario_schema,
                                      simulate_panel)

#: panel shapes as (waves, panel_size, retention): the default panel, a
#: small one, a long one, no retention, full retention and one participant
SHAPES = [(5, 300, 0.7), (3, 40, 0.7), (12, 300, 0.9), (2, 5, 0.0),
          (4, 50, 1.0), (3, 1, 0.7)]


def _reference_panel(cfg: ScenarioConfig
                     ) -> tuple[list[SurveyRecord], TruthManifest]:
    """The panel drawn one record at a time: each intensity from scalars,
    each NB2 count from a one-element array."""

    def covariate(p, column):
        attribute, level = column.split(":")
        if attribute == "const":
            return 1.0
        value = (p.covariates[attribute] if attribute in p.covariates
                 else getattr(p, attribute))
        return 1.0 if value == level else 0.0

    rng = np.random.default_rng(cfg.seed)
    participants, next_id = [], 0
    records, lam_free, lam_real, keys = [], [], [], []
    for wave in range(1, cfg.waves + 1):
        kept = [p for p in participants if rng.uniform() < cfg.retention]
        while len(kept) < cfg.panel_size:
            next_id += 1
            kept.append(_new_participant(next_id, rng))
        participants = kept
        for p in participants:
            log_lam0 = BETA0 + float(AGE_EFFECT(p.age))
            for column, effect in BETA.items():
                log_lam0 += effect * covariate(p, column)
            rho = 0.0
            for column, curve in HILL_CURVES.items():
                rho += covariate(p, column) * float(hill(curve, p.repeats))
            lam = float(np.exp(log_lam0 + rho))
            y = int(nb2_rvs(rng, np.array([lam]), cfg.phi)[0])
            records.append(SurveyRecord(
                participant_id=p.pid, wave=wave, repeat=p.repeats, age=p.age,
                sex=p.sex, household_size=p.household_size,
                covariates={"employment": p.covariates["employment"],
                            "preschool": p.covariates["preschool"]},
                contacts_total=y,
                report_date=(wave - 1) * DAYS_PER_WAVE
                            + int(rng.integers(0, DAYS_PER_WAVE))))
            lam_free.append(float(np.exp(log_lam0)))
            lam_real.append(lam)
            keys.append([p.pid, wave])
            p.repeats += 1
    return records, TruthManifest(
        beta0=BETA0, beta=dict(BETA), hill_curves=dict(HILL_CURVES),
        phi=cfg.phi, age_bumps=[list(b) for b in AGE_EFFECT.bumps],
        seed=cfg.seed, waves=cfg.waves, lambda_fatigue_free=lam_free,
        lambda_realized=lam_real, record_keys=keys)


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("waves,panel_size,retention", SHAPES)
def test_panel_equals_the_record_by_record_reference(seed, waves, panel_size,
                                                     retention):
    cfg = ScenarioConfig(waves=waves, panel_size=panel_size,
                         retention=retention, seed=seed)
    records, manifest = simulate_panel(cfg)
    ref_records, ref_manifest = _reference_panel(cfg)
    assert records == ref_records
    assert manifest.to_json() == ref_manifest.to_json()


@pytest.mark.parametrize("seed", [0, 7])
def test_the_manifest_survives_its_json(seed):
    _, manifest = simulate_panel(ScenarioConfig(waves=3, panel_size=40,
                                                seed=seed))
    assert TruthManifest.from_json(manifest.to_json()) == manifest


def _reference_csv(records: list[SurveyRecord], path) -> None:
    """The documented CSV schema written one dict per record."""
    cov_keys = sorted({k for r in records for k in r.covariates})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, SURVEY_COLUMNS + tuple(cov_keys),
                                lineterminator="\n")
        writer.writeheader()
        for r in records:
            age_text, band_text = str(r.age), ""
            if r.age < 18:
                band = next(b for b in CHILD_BANDS if r.age in b)
                age_text, band_text = "", band.label
            writer.writerow({
                **r.covariates, "participant_id": r.participant_id,
                "wave": r.wave, "repeat": r.repeat, "age": age_text,
                "age_band": band_text, "sex": r.sex,
                "household_size": r.household_size,
                "report_date": r.report_date, "y_total": r.contacts_total})


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_csv_equals_the_dict_writer_reference(seed, tmp_path):
    records, _ = simulate_panel(ScenarioConfig(seed=seed))
    # a record without one covariate leaves its cell empty
    records.append(SurveyRecord(
        participant_id="p999999", wave=5, repeat=0, age=17, sex="F",
        household_size="2", covariates={"employment": "student"},
        contacts_total=3))
    # every age is written, so every child band is too
    assert {r.age for r in records} >= set(range(0, 85))
    panel_to_csv(records, tmp_path / "fast.csv")
    _reference_csv(records, tmp_path / "reference.csv")
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def test_realized_intensity_is_the_fatigue_free_one_times_the_hill_curve():
    records, manifest = simulate_panel(ScenarioConfig(seed=7))
    repeats = np.array([r.repeat for r in records])
    assert repeats.max() >= 3
    free = np.array(manifest.lambda_fatigue_free)
    realized = np.array(manifest.lambda_realized)
    expected = free * np.exp(hill(HILL_CURVES["const:1"], repeats))
    np.testing.assert_allclose(realized, expected, rtol=1e-14)
    first = repeats == 0
    np.testing.assert_array_equal(realized[first], free[first])


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_a_written_panel_keeps_to_the_schema(seed, tmp_path):
    records, _ = simulate_panel(ScenarioConfig(waves=3, seed=seed))
    panel_to_csv(records, tmp_path / "r.csv")
    schema = scenario_schema()
    with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert (tuple(reader.fieldnames)
            == SURVEY_COLUMNS + tuple(schema.covariates))
    for column, allowed in schema.levels.items():
        if column != "const":
            assert {row[column] for row in rows} <= set(allowed)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_the_truth_is_stated_in_design_columns(seed):
    # BETA and HILL_CURVES are keyed by the columns that build_design codes
    # from the simulated records, with blocks named by their attributes
    records, manifest = simulate_panel(ScenarioConfig(waves=3, seed=seed))
    levels = scenario_schema().levels

    def blocks(columns):
        attributes = dict.fromkeys(c.split(":")[0] for c in columns)
        return tuple(FeatureBlock(a, levels[a]) for a in attributes)

    design = build_design(records, FeatureSpec(u=blocks(BETA),
                                               w=blocks(HILL_CURVES)))
    assert set(BETA) <= set(design.names["u"])
    assert set(HILL_CURVES) <= set(design.names["w"])
    beta = np.array([BETA.get(c, 0.0) for c in design.names["u"]])
    np.testing.assert_allclose(
        manifest.lambda_fatigue_free,
        np.exp(BETA0 + AGE_EFFECT(design.age) + design.blocks["u"] @ beta),
        rtol=1e-13)


@pytest.mark.parametrize("phi", [0.5, 8.0, 1e3])
def test_scalar_and_one_element_nb2_draws_agree(phi):
    # the simulator draws each count with a scalar mean; seeded panels stay
    # those of one-element-array draws only while NumPy keeps this property
    mus = np.random.default_rng(3).uniform(0.01, 40.0, 200)
    scalar_rng, array_rng = (np.random.default_rng(5),
                             np.random.default_rng(5))
    for mu in mus.tolist():
        assert (int(nb2_rvs(scalar_rng, mu, phi))
                == int(nb2_rvs(array_rng, np.array([mu]), phi)[0]))
    assert (scalar_rng.bit_generator.state
            == array_rng.bit_generator.state)


@pytest.mark.parametrize("field,value,message", [
    ("waves", 0, "waves must be >= 1"),
    ("panel_size", 0, "panel_size must be >= 1"),
    ("phi", 0.0, "phi must be finite and > 0"),
    ("phi", -1.0, "phi must be finite and > 0"),
    ("phi", float("nan"), "phi must be finite and > 0"),
    ("phi", float("inf"), "phi must be finite and > 0"),
])
def test_scenario_refuses_a_panel_it_cannot_draw(field, value, message):
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**{field: value})
