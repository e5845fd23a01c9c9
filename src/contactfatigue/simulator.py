"""Ground-truth synthetic panel and surface generators.

Every recovery and acceptance test draws its data from here: a longitudinal
panel whose counts follow the additive count model (baseline + covariate
effects + smooth age effect + per-covariate Hill fatigue, NB2 noise), and a
coarse-band contact-surface dataset whose latent intensities satisfy the
population flow identity exactly.

The panel's intensities draw nothing, so they are computed once per wave
in one array pass; only the draws run per record, in a fixed order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

from .domain import (AGE_GRID, AGE_MAX, CHILD_BANDS, SURVEY_COLUMNS,
                     CsvSchema, PopulationTable, SurveyRecord,
                     attribute_levels, default_coarse_bands)
from .models.fatigue import HillCurve, hill
from .models.likelihoods import nb1_rvs, nb2_rvs


@dataclass(frozen=True)
class AgeEffect:
    """Smooth age effect built from Gaussian bumps (amplitude, center,
    width) on 0..84."""

    bumps: tuple[tuple[float, float, float], ...]

    def __call__(self, age) -> np.ndarray:
        age = np.asarray(age, dtype=float)
        out = np.zeros_like(age)
        for amp, center, width in self.bumps:
            out = out + amp * np.exp(-0.5 * ((age - center) / width) ** 2)
        return out


# The true effects of every simulated panel, keyed by the design column
# "attribute:level" that ``build_design`` codes; its truth manifest records
# them
BETA0 = 1.2
BETA = {"sex:M": 0.12, "household_size:3": 0.25, "employment:student": 0.3}
HILL_CURVES = {"const:1": HillCurve(0.88, -1.55, 0.94)}
AGE_EFFECT = AgeEffect(((0.45, 10.0, 8.0), (0.35, 35.0, 12.0),
                        (-0.25, 70.0, 10.0)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Size, retention, NB2 dispersion and seed of a longitudinal panel."""

    waves: int = 5
    panel_size: int = 300
    retention: float = 0.7
    phi: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.waves < 1:
            raise ValueError("waves must be >= 1")
        if self.panel_size < 1:
            raise ValueError("panel_size must be >= 1")
        if not (0.0 <= self.retention <= 1.0):
            raise ValueError("retention must lie in [0, 1]")
        if not 0.0 < self.phi < np.inf:
            raise ValueError("phi must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TruthManifest:
    """Every true quantity behind a simulated panel."""

    beta0: float
    beta: dict
    hill_curves: dict
    phi: float
    age_bumps: list
    seed: int
    waves: int
    lambda_fatigue_free: list      # per emitted record
    lambda_realized: list
    record_keys: list              # (participant_id, wave)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TruthManifest":
        payload = json.loads(text)
        payload["hill_curves"] = {
            k: HillCurve(v["gamma"], v["zeta"], v["eta"])
            for k, v in payload["hill_curves"].items()}
        return cls(**payload)


@dataclass
class _Participant:
    pid: str
    age: int
    sex: str
    household_size: str
    covariates: dict[str, str]
    repeats: int = 0


#: the length of a wave; report dates fall uniformly within it
DAYS_PER_WAVE = 14

_HOUSEHOLDS = ("1", "2", "3")


def scenario_schema() -> CsvSchema:
    """The covariate columns of a simulated panel's CSV file and their
    levels; participants draw their employment from its levels."""
    return CsvSchema({"employment": ("full_time", "student", "retired"),
                      "preschool": ("yes", "no", "")})


def _indicator(participants: list[_Participant], column: str) -> np.ndarray:
    """The 0/1 value of the design column "attribute:level" for each
    participant, coded as ``build_design`` codes a record."""
    attribute, level = column.split(":")
    return (attribute_levels(participants, attribute) == level).astype(float)


def _new_participant(idx: int, rng: np.random.Generator) -> _Participant:
    if rng.uniform() < 0.15:
        age = int(rng.integers(0, 18))
    else:
        age = int(rng.integers(18, AGE_MAX + 1))
    employment = scenario_schema().covariates["employment"]
    return _Participant(
        pid=f"p{idx:06d}",
        age=age,
        sex="M" if rng.uniform() < 0.5 else "F",
        household_size=_HOUSEHOLDS[rng.integers(0, len(_HOUSEHOLDS))],
        covariates={
            "employment": (
                "student" if age < 25 and rng.uniform() < 0.6
                else employment[rng.integers(0, len(employment))]),
            "preschool": "yes" if age <= 5 and rng.uniform() < 0.7 else "no"},
    )


def simulate_panel(cfg: ScenarioConfig
                   ) -> tuple[list[SurveyRecord], TruthManifest]:
    """Generate a recruited/retained longitudinal panel with NB2 counts.

    Repeat counters equal the number of prior waves each participant
    appears in. The truth manifest records the fatigue-free and realized
    intensities of every emitted record.

    The draw order is the contract that keeps a seeded panel the same from
    one version to the next. Each wave draws one retention uniform per
    participant of the previous wave, then the new recruits (in
    ``_new_participant``'s order), then for each participant in turn the
    NB2 gamma, its Poisson and the report-date integer. Intensities draw
    nothing, so each wave computes them in one array pass first.
    """
    rng = np.random.default_rng(cfg.seed)
    participants: list[_Participant] = []
    next_id = 0
    records: list[SurveyRecord] = []
    manifest = TruthManifest(
        beta0=BETA0, beta=dict(BETA), hill_curves=dict(HILL_CURVES),
        phi=cfg.phi, age_bumps=[list(b) for b in AGE_EFFECT.bumps],
        seed=cfg.seed, waves=cfg.waves, lambda_fatigue_free=[],
        lambda_realized=[], record_keys=[])

    for wave in range(1, cfg.waves + 1):
        kept = [p for p in participants if rng.uniform() < cfg.retention]
        while len(kept) < cfg.panel_size:
            next_id += 1
            kept.append(_new_participant(next_id, rng))
        participants = kept

        log_lam0 = BETA0 + AGE_EFFECT([p.age for p in participants])
        for column, effect in BETA.items():
            log_lam0 = log_lam0 + effect * _indicator(participants, column)
        repeats = np.array([p.repeats for p in participants])
        rho = np.zeros(len(participants))
        for column, curve in HILL_CURVES.items():
            rho = rho + (_indicator(participants, column)
                         * hill(curve, repeats))
        lam = np.exp(log_lam0 + rho).tolist()
        manifest.lambda_fatigue_free += np.exp(log_lam0).tolist()
        manifest.lambda_realized += lam

        for p, lam_p in zip(participants, lam):
            y = int(nb2_rvs(rng, lam_p, cfg.phi))
            records.append(SurveyRecord(
                participant_id=p.pid, wave=wave, repeat=p.repeats, age=p.age,
                sex=p.sex, household_size=p.household_size,
                covariates=dict(p.covariates),
                contacts_total=y,
                report_date=(wave - 1) * DAYS_PER_WAVE
                            + int(rng.integers(0, DAYS_PER_WAVE)),
            ))
            manifest.record_keys.append([p.pid, wave])
            p.repeats += 1

    return records, manifest


#: the child reporting band label of each age below 18
_CHILD_BAND_LABEL = {age: next(b.label for b in CHILD_BANDS if age in b)
                     for age in range(18)}


def panel_to_csv(records: list[SurveyRecord], path: str) -> None:
    """Write records in the documented CSV schema.

    Child ages are coarsened to the child reporting bands: the age column is
    left blank and age_band carries the band, so loading exercises the
    uniform within-band imputation.
    """
    cov_keys = sorted({k for r in records for k in r.covariates})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SURVEY_COLUMNS + tuple(cov_keys))
        for r in records:
            band_text = _CHILD_BAND_LABEL.get(r.age, "")
            writer.writerow((
                r.participant_id, r.wave, r.repeat,
                "" if band_text else r.age, band_text, r.sex,
                r.household_size, r.report_date, r.contacts_total,
                *(r.covariates.get(k, "") for k in cov_keys)))


# ---------------------------------------------------------------------------
# Rate-consistency surface simulation
# ---------------------------------------------------------------------------

# The cells and true values of every simulated surface dataset: per wave,
# repeat count and participant age, a group of N participants with
# reporting share S; wave effects tau, fatigue rho per repeat (rho[0] = 0),
# NB1 odds nu, and the height and width of the surface's diagonal ridge
SURFACE_WAVES = (1, 2)
SURFACE_REPEATS = (0, 1, 2)
SURFACE_AGES = (5, 15, 25, 35, 45, 55, 65, 75)
SURFACE_N_PARTICIPANTS = 25.0
SURFACE_S_PROP = 0.9
SURFACE_BETA0 = -4.5
SURFACE_TAU = (0.0, -0.15)
SURFACE_RHO = (0.0, -0.2, -0.35)
SURFACE_NU = 0.5
SURFACE_DIAG_AMP = 1.0
SURFACE_DIAG_WIDTH = 12.0


@dataclass(frozen=True)
class SurfaceScenario:
    """The seed of a coarse-band contact-surface dataset."""

    seed: int


def symmetric_surface(a: np.ndarray, b: np.ndarray, amp: float,
                      width: float) -> np.ndarray:
    """Assortative (diagonal-ridge) surface, symmetric by construction."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return amp * np.exp(-0.5 * ((a - b) / width) ** 2)


def simulate_brc_surface(cfg: SurfaceScenario) -> dict:
    """Coarse-band NB1 counts over a latent rate-consistent surface.

    The population is one gender "all" of 800 per single-year age, the
    contact bands are ``default_coarse_bands()`` and the surface is the
    assortative ``symmetric_surface``; the cells and the other true values
    are the ``SURFACE_*`` constants. Returns a dict with per-cell arrays
    (``y``, ``wave``, ``repeat``, ``age``, ``band``, ``n_participants``,
    ``s_prop``), the true intensity matrix ``m_true`` (85 x 85, wave 1,
    repeat 0 scale), the ``population`` and the ``bands``.
    """
    rng = np.random.default_rng(cfg.seed)
    population = PopulationTable.uniform(("all",), 800.0)
    bands = default_coarse_bands()
    f_matrix = symmetric_surface(AGE_GRID[:, None], AGE_GRID[None, :],
                                 SURFACE_DIAG_AMP, SURFACE_DIAG_WIDTH)

    pop = population.get("all")
    log_m = SURFACE_BETA0 + f_matrix + np.log(pop)[None, :]
    m_true = np.exp(log_m)

    y, wave_col, rep_col, age_col, band_col = [], [], [], [], []
    n_col, s_col = [], []
    membership = bands.membership()
    for t_idx, t in enumerate(SURFACE_WAVES):
        for r in SURFACE_REPEATS:
            for a in SURFACE_AGES:
                mu_b = (m_true[a] * np.exp(SURFACE_TAU[t_idx] + SURFACE_RHO[r])
                        * SURFACE_N_PARTICIPANTS * SURFACE_S_PROP)
                mu_cells = membership @ mu_b
                draws = nb1_rvs(rng, mu_cells, SURFACE_NU)
                for c in range(len(bands)):
                    y.append(float(draws[c]))
                    wave_col.append(t)
                    rep_col.append(r)
                    age_col.append(a)
                    band_col.append(c)
                    n_col.append(SURFACE_N_PARTICIPANTS)
                    s_col.append(SURFACE_S_PROP)

    return {
        "y": np.asarray(y), "wave": np.asarray(wave_col),
        "repeat": np.asarray(rep_col), "age": np.asarray(age_col),
        "band": np.asarray(band_col), "n_participants": np.asarray(n_col),
        "s_prop": np.asarray(s_col), "m_true": m_true,
        "population": population, "bands": bands,
    }
