"""Survey data model, CSV ingestion, preprocessing rules, and design matrices.

The contact-band age grid runs over single years 0..84. Participants report
the ages of their contacts in coarse bands; participants under 18 report (or
are reported) in child age bands and have their exact age imputed uniformly
within the band.

A ``CsvSchema`` states the levels of every categorical column of a survey
file once: the loader checks each row against them, and feature specs take
their levels from them.

A design is three named blocks of indicator columns, u (baseline), v
(tested) and w (fatigue), each coded from ``attribute_levels``, as are the
simulator's true effects.
"""

from __future__ import annotations

import csv
import io
import logging
import pathlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

AGE_MIN = 0
AGE_MAX = 84
#: the single-year ages 0..84, as floats
AGE_GRID = np.arange(AGE_MAX + 1, dtype=float)
#: every contact count, total or per band, is capped at this value
CONTACT_CAP = 30

#: the sex levels of participants, which are also the genders of contacts
SEX_LEVELS = ("M", "F")
#: the household-size levels of the survey
HOUSEHOLD_LEVELS = ("1", "2", "3", "4", "5+")
#: the fixed columns of a survey CSV file, in written order; a file may lack
#: ``age``, ``age_band`` and ``report_date``
SURVEY_COLUMNS = ("participant_id", "wave", "repeat", "age", "age_band",
                  "sex", "household_size", "report_date", "y_total")


class DataError(ValueError):
    """Malformed or out-of-contract survey data."""


@dataclass(frozen=True)
class AgeBand:
    """Closed integer age interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (AGE_MIN <= self.lo <= self.hi <= AGE_MAX):
            raise DataError(f"invalid age band {self.lo}-{self.hi}")

    @property
    def midpoint(self) -> int:
        return (self.lo + self.hi) // 2

    @property
    def label(self) -> str:
        return f"{self.lo}-{self.hi}"

    def __contains__(self, age: int) -> bool:
        return self.lo <= age <= self.hi

    @classmethod
    def parse(cls, text: str) -> "AgeBand":
        try:
            lo, hi = text.split("-")
            return cls(int(lo), int(hi))
        except (ValueError, TypeError) as exc:
            raise DataError(f"cannot parse age band {text!r}") from exc


# Child participants report age in these bands only.
CHILD_BANDS = (AgeBand(0, 4), AgeBand(5, 9), AgeBand(10, 14), AgeBand(15, 18))


@dataclass(frozen=True)
class CoarseBandSet:
    """Ordered, disjoint age bands covering 0..84 used for contact reports."""

    bands: tuple[AgeBand, ...]

    def __post_init__(self) -> None:
        prev = -1
        for band in self.bands:
            if band.lo <= prev:
                raise DataError("coarse bands must be disjoint and ordered")
            prev = band.hi

    @property
    def midpoints(self) -> tuple[int, ...]:
        return tuple(b.midpoint for b in self.bands)

    def __len__(self) -> int:
        return len(self.bands)

    def membership(self) -> np.ndarray:
        """(n_bands, 85) 0/1 matrix mapping single-year ages to bands."""
        out = np.zeros((len(self.bands), AGE_MAX + 1))
        for k, band in enumerate(self.bands):
            out[k, band.lo : band.hi + 1] = 1.0
        return out


def default_coarse_bands() -> CoarseBandSet:
    """The survey's contact age grouping; midpoints are {2,7,...,77,82}."""
    edges = [(0, 4), (5, 9), (10, 14), (15, 19), (20, 24), (25, 34), (35, 44),
             (45, 54), (55, 64), (65, 69), (70, 74), (75, 79), (80, 84)]
    return CoarseBandSet(tuple(AgeBand(lo, hi) for lo, hi in edges))


@dataclass(frozen=True)
class SurveyRecord:
    """One participant-wave observation."""

    participant_id: str
    wave: int
    repeat: int
    age: int
    sex: str
    household_size: str
    covariates: Mapping[str, str]
    contacts_total: int
    contacts_by_band: tuple[int, ...] | None = None
    report_date: int = 0

    def __post_init__(self) -> None:
        if self.wave < 1:
            raise DataError(f"wave must be >= 1, got {self.wave}")
        if self.repeat < 0:
            raise DataError(f"repeat must be >= 0, got {self.repeat}")
        if not (AGE_MIN <= self.age <= AGE_MAX):
            raise DataError(f"age out of range 0–84: {self.age}")
        if self.contacts_total < 0:
            raise DataError(f"negative contact count {self.contacts_total}")
        bands = self.contacts_by_band
        if bands is not None:
            if min(bands, default=0) < 0:
                raise DataError("negative band count for "
                                f"participant {self.participant_id}")
            # a total at the cap no longer bounds the separately capped bands
            if (self.contacts_total < CONTACT_CAP
                    and sum(bands) > self.contacts_total):
                raise DataError(
                    "contacts_by_band sum exceeds contacts_total for "
                    f"participant {self.participant_id}"
                )


@dataclass(frozen=True)
class PopulationTable:
    """Population counts by gender and single-year age 0..84."""

    counts: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        for g, arr in self.counts.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (AGE_MAX + 1,):
                raise DataError(f"population for {g!r} must have 85 entries")
            if np.any(arr <= 0):
                raise DataError(f"population counts for {g!r} must be > 0")

    def get(self, gender: str) -> np.ndarray:
        return np.asarray(self.counts[gender], dtype=float)

    @classmethod
    def uniform(cls, genders: Sequence[str],
                count: float) -> "PopulationTable":
        return cls({g: np.full(AGE_MAX + 1, count) for g in genders})


# ---------------------------------------------------------------------------
# Preprocessing operations
# ---------------------------------------------------------------------------

def impute_child_age(band: AgeBand, rng: np.random.Generator) -> int:
    """Draw an exact age uniformly within a child reporting band."""
    if (band.lo, band.hi) not in {(b.lo, b.hi) for b in CHILD_BANDS} and band.lo != band.hi:
        raise DataError(
            f"band {band.label} is not a child band; adults report exact age"
        )
    return int(rng.integers(band.lo, band.hi + 1))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    """The categorical columns of a survey CSV file and their levels.

    Besides ``SURVEY_COLUMNS`` and the band counts ``y_<lo>_<hi>``, a file
    has the columns of ``covariates``, each mapped to the levels it
    accepts. ``levels`` maps every attribute that a design can code to its
    levels: "const" to "1", sex to ``SEX_LEVELS``, household size to
    ``HOUSEHOLD_LEVELS`` and each covariate to its own.
    """

    covariates: Mapping[str, tuple[str, ...]]

    @property
    def levels(self) -> dict[str, tuple[str, ...]]:
        return {"const": ("1",), "sex": SEX_LEVELS,
                "household_size": HOUSEHOLD_LEVELS, **self.covariates}


def _read_row(row: Mapping[str, str], levels: Mapping[str, tuple[str, ...]],
              band_cols: list[str] | None,
              rng: np.random.Generator) -> SurveyRecord | None:
    """One CSV row as a record, or None if it lacks sex or any age.
    ``levels`` maps each categorical column to the levels it accepts, and
    ``band_cols`` names the band count columns, if the file has them."""
    age_text = (row.get("age") or "").strip()
    band_text = (row.get("age_band") or "").strip()
    if not (row.get("sex") or "").strip() or (not age_text and not band_text):
        return None
    values: dict[str, str] = {}
    for column, allowed in levels.items():
        value = (row.get(column) or "").strip()
        if value not in allowed:
            raise DataError(f"unknown {column} level {value!r}")
        values[column] = value
    if age_text:
        age = int(age_text)
    else:
        age = impute_child_age(AgeBand.parse(band_text), rng)
    y_raw = int(row["y_total"])
    date_text = (row.get("report_date") or "0").strip()

    by_band = None
    if band_cols is not None:
        raw = [int(row[c] or 0) for c in band_cols]
        # a negative count is refused by SurveyRecord, under its own name
        if min(raw + [y_raw]) >= 0 and sum(raw) > y_raw:
            raise DataError(f"band counts sum to {sum(raw)}, "
                            f"more than y_total {y_raw}")
        by_band = tuple(min(v, CONTACT_CAP) for v in raw)

    return SurveyRecord(
        participant_id=row["participant_id"],
        wave=int(row["wave"]),
        repeat=int(row["repeat"]),
        age=age,
        sex=values.pop("sex"),
        household_size=values.pop("household_size"),
        covariates=values,
        contacts_total=min(y_raw, CONTACT_CAP),
        contacts_by_band=by_band,
        report_date=int(date_text) if date_text else 0,
    )


def read_text(path: str) -> str:
    """The text of the file ``path``; a byte that is not UTF-8 is a
    ``DataError`` naming its line."""
    raw = pathlib.Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text") from exc


def load_survey_csv(path: str, schema: CsvSchema, *,
                    rng: np.random.Generator
                    ) -> tuple[list[SurveyRecord], int]:
    """Read survey records from CSV, with the number of rows dropped.

    Rows missing participant age (with no child band to impute from) or sex
    are dropped and counted. Child rows carrying an ``age_band`` but no
    exact age have their age imputed uniformly within the band, drawn
    from ``rng``. Sex, household size and each covariate of ``schema`` must
    take a level that ``schema.levels`` lists. Band
    counts, when the file has a column for every band of
    ``default_coarse_bands()``, must be non-negative and, when they and
    ``y_total`` are, sum to at most ``y_total``, as reported. Both rules
    read the counts before the total and each band count are capped at
    ``CONTACT_CAP``, which keeps a negative count negative for
    ``SurveyRecord`` to refuse. A row that breaks a rule of the file or of
    ``SurveyRecord``, or is not UTF-8 CSV, is a ``DataError`` at ``path:line``.
    """
    levels = schema.levels
    del levels["const"]
    band_cols = [f"y_{b.lo}_{b.hi}" for b in default_coarse_bands().bands]
    records: list[SurveyRecord] = []
    n_dropped = 0

    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file without header")
        missing_cols = [c for c in SURVEY_COLUMNS
                        if c not in ("age", "age_band", "report_date")
                        and c not in reader.fieldnames]
        if missing_cols:
            raise DataError(f"{path}: missing columns {missing_cols}")
        has_bands = all(c in reader.fieldnames for c in band_cols)

        for lineno, row in enumerate(reader, start=2):
            try:
                record = _read_row(row, levels,
                                   band_cols if has_bands else None, rng)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            except (KeyError, ValueError) as exc:
                raise DataError(
                    f"{path}:{lineno}: malformed row ({exc})") from exc
            if record is None:
                n_dropped += 1
            else:
                records.append(record)
    except csv.Error as exc:    # e.g. a field over csv.field_size_limit()
        # the lines read; DictReader counts those of the rows it returned
        raise DataError(f"{path}:{reader.reader.line_num}: {exc}") from exc

    if n_dropped:
        logger.info("dropped %d of %d rows with missing age or sex",
                    n_dropped, n_dropped + len(records))
    return records, n_dropped


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureBlock:
    """A categorical feature expanded to indicator columns.

    ``attribute`` names the constant "const", a record field ("sex",
    "household_size") or a key in the record's covariate map. With a
    ``reference`` level set, that level's column is dropped; otherwise the
    block is a full one-hot.
    """

    attribute: str
    levels: tuple[str, ...]
    reference: str | None = None

    def column_levels(self) -> tuple[str, ...]:
        if self.reference is None:
            return self.levels
        if self.reference not in self.levels:
            raise DataError(
                f"reference {self.reference!r} not among levels of "
                f"{self.attribute!r}")
        return tuple(l for l in self.levels if l != self.reference)


@dataclass(frozen=True)
class FeatureSpec:
    """Design layout: baseline block u, tested block v, fatigue block w."""

    u: tuple[FeatureBlock, ...] = ()
    v: tuple[FeatureBlock, ...] = ()
    w: tuple[FeatureBlock, ...] = ()


def attribute_levels(records: Sequence, attribute: str) -> np.ndarray:
    """Each record's level of ``attribute``: "1" for the constant "const",
    the field itself for "sex" and "household_size", otherwise the entry of
    the record's covariate map. Any object with those three fields is coded
    as a record is."""
    if attribute == "const":
        return np.full(len(records), "1")
    if attribute in ("sex", "household_size"):
        return np.array([getattr(r, attribute) for r in records], dtype=str)
    try:
        return np.array([r.covariates[attribute] for r in records],
                        dtype=str)
    except KeyError as exc:
        raise DataError(f"record missing covariate {attribute!r}") from exc


@dataclass(frozen=True)
class DesignMatrix:
    """Model-ready data bundle shared by all regression families.

    ``blocks`` holds the (n, k) indicator columns of each role, u
    (baseline), v (tested) and w (fatigue), and ``names`` their column
    names "attribute:level"; ``x`` is the three side by side.
    """

    blocks: Mapping[str, np.ndarray]        # role -> (n, k) indicators
    names: Mapping[str, tuple[str, ...]]    # role -> its k column names
    y: np.ndarray                      # (n,) contact counts
    age: np.ndarray                    # (n,) integer years
    repeat: np.ndarray                 # (n,)
    report_date: np.ndarray            # (n,)
    offsets: np.ndarray                # (n,) summed log offsets

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def x(self) -> np.ndarray:
        """The (n, p) columns u | v | w."""
        return np.hstack([self.blocks[role] for role in "uvw"])


def _code(records: Sequence[SurveyRecord], blk: FeatureBlock) -> np.ndarray:
    """The (n, k) indicator columns of one feature block."""
    levels = attribute_levels(records, blk.attribute)
    unknown = levels[~np.isin(levels, blk.levels)]
    if unknown.size:
        raise DataError(f"unknown {blk.attribute} level {str(unknown[0])!r}")
    return (levels[:, None]
            == np.array(blk.column_levels(), dtype=str)).astype(float)


def build_design(records: Sequence[SurveyRecord],
                 feature_spec: FeatureSpec) -> DesignMatrix:
    """Code records into the u, v and w blocks of ``feature_spec``, with
    zero offsets. Population offsets enter per contact age inside the
    rate-consistency model, not per row here.
    """
    n = len(records)
    blocks, names = {}, {}
    for role in "uvw":
        spec_blocks = getattr(feature_spec, role)
        blocks[role] = np.hstack(
            [np.zeros((n, 0))] + [_code(records, b) for b in spec_blocks])
        names[role] = tuple(f"{b.attribute}:{l}" for b in spec_blocks
                            for l in b.column_levels())
    return DesignMatrix(
        blocks=blocks,
        names=names,
        y=np.array([r.contacts_total for r in records], dtype=float),
        age=np.array([r.age for r in records], dtype=float),
        repeat=np.array([r.repeat for r in records], dtype=float),
        report_date=np.array([r.report_date for r in records], dtype=float),
        offsets=np.zeros(n),
    )
