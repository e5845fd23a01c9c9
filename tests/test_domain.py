import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactfatigue.cli import gam_feature_spec, scenario_feature_spec
from contactfatigue.domain import (AgeBand, CoarseBandSet, CsvSchema,
                                   DataError, FeatureBlock, FeatureSpec,
                                   PopulationTable, SurveyRecord,
                                   build_design, default_coarse_bands,
                                   impute_child_age, load_survey_csv)
from contactfatigue.simulator import (ScenarioConfig, scenario_schema,
                                      simulate_panel)

from conftest import SMALL_FEATURES, make_records


class TestAgeBands:
    def test_default_midpoints(self):
        bands = default_coarse_bands()
        assert bands.midpoints == (2, 7, 12, 17, 22, 29, 39, 49, 59, 67,
                                   72, 77, 82)

    def test_band_bounds_validated(self):
        with pytest.raises(DataError):
            AgeBand(5, 3)
        with pytest.raises(DataError):
            AgeBand(0, 90)

    def test_bands_must_be_disjoint_and_ordered(self):
        with pytest.raises(DataError):
            CoarseBandSet((AgeBand(0, 5), AgeBand(5, 10)))


class TestImputation:
    def test_uniform_within_band(self):
        # frequency of each age within 3 sigma of 1/5 over 1e5 draws
        rng = np.random.default_rng(7)
        n = 100_000
        draws = np.array([impute_child_age(AgeBand(0, 4), rng)
                          for _ in range(n)])
        p = 0.2
        sigma = np.sqrt(p * (1 - p) / n)
        freq = np.bincount(draws, minlength=5) / n
        assert np.all(np.abs(freq - p) < 3 * sigma)

    def test_degenerate_band(self):
        rng = np.random.default_rng(0)
        assert impute_child_age(AgeBand(10, 10), rng) == 10

    def test_teen_band_support(self):
        rng = np.random.default_rng(1)
        vals = {impute_child_age(AgeBand(15, 18), rng) for _ in range(200)}
        assert vals == {15, 16, 17, 18}

    def test_adult_band_rejected(self):
        with pytest.raises(DataError):
            impute_child_age(AgeBand(25, 34), np.random.default_rng(0))

    def test_reproducible_under_seed(self):
        a = [impute_child_age(AgeBand(5, 9), np.random.default_rng(3))
             for _ in range(10)]
        b = [impute_child_age(AgeBand(5, 9), np.random.default_rng(3))
             for _ in range(10)]
        assert a == b


class TestRecords:
    def test_band_sum_exceeding_total_rejected(self):
        with pytest.raises(DataError):
            SurveyRecord("p", 1, 0, 30, "M", "1", {}, contacts_total=2,
                         contacts_by_band=(2, 1) + (0,) * 11)

    def test_age_out_of_range_rejected(self):
        with pytest.raises(DataError, match="age out of range"):
            SurveyRecord("p", 1, 0, 90, "M", "1", {}, contacts_total=0)

    def test_negative_band_count_rejected(self):
        with pytest.raises(DataError, match="negative"):
            SurveyRecord("p", 1, 0, 30, "M", "1", {}, contacts_total=5,
                         contacts_by_band=(-5, 3) + (0,) * 11)


def _load(path, schema=CsvSchema({})):
    """The records of a survey file and its count of dropped rows, child
    ages drawn from a seeded RNG."""
    return load_survey_csv(str(path), schema, rng=np.random.default_rng(0))


class TestCsvLoading:
    HEADER = ("participant_id,wave,repeat,age,age_band,sex,household_size,"
              "report_date,y_total")

    def test_missing_sex_dropped(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\n"
                        "a,1,0,30,,M,1,0,5\n"
                        "b,1,0,31,,,1,0,4\n"
                        "c,1,0,32,,F,2,0,3\n")
        records, n_dropped = _load(path)
        assert len(records) == 2
        assert n_dropped == 1

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\n")
        assert _load(path) == ([], 0)

    def test_age_out_of_range_is_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\na,1,0,90,,M,1,0,5\n")
        with pytest.raises(DataError, match="age out of range"):
            _load(path)

    @pytest.mark.parametrize("column", ["sex", "household_size",
                                        "employment", "preschool"])
    def test_unknown_level_names_the_level(self, tmp_path, column):
        header = self.HEADER.split(",") + ["employment", "preschool"]
        row = dict(zip(header, "a,1,0,30,,M,1,0,5,full_time,no".split(",")))
        row[column] = "X"
        path = tmp_path / "r.csv"
        path.write_text(",".join(header) + "\n" + ",".join(row.values())
                        + "\n")
        with pytest.raises(DataError,
                           match=f"r.csv:2: unknown {column} level 'X'"):
            _load(path, scenario_schema())

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\na,1,zero,30,,M,1,0,5\n")
        with pytest.raises(DataError, match=":2"):
            _load(path)

    @pytest.mark.parametrize("row,message", [
        ("a,0,0,30,,M,1,0,5", "wave must be >= 1, got 0"),
        ("a,1,-1,30,,M,1,0,5", "repeat must be >= 0, got -1"),
        ("a,1,0,30,,M,1,0,-1", "negative contact count -1"),
        # the band-sum rule reads only counts that pass the sign rules
        ("a,1,0,30,,M,1,0,20,-5,30" + ",0" * 11,
         "negative band count for participant a"),
        ("a,1,0,30,,M,1,0,-1" + ",0" * 13, "negative contact count -1")])
    def test_record_rules_name_the_line(self, tmp_path, row, message):
        # a row of more than nine fields carries the band counts
        cols = [f"y_{b.lo}_{b.hi}" for b in default_coarse_bands().bands]
        header = ",".join([self.HEADER] + cols[:row.count(",") - 8])
        path = tmp_path / "r.csv"
        path.write_text(header + "\n" + row + "\n")
        with pytest.raises(DataError, match=f"r.csv:2: {message}"):
            _load(path)

    def test_child_age_imputed_within_band(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\nkid,1,0,,5-9,F,2,0,3\n")
        records, _ = _load(path)
        assert 5 <= records[0].age <= 9

    def _band_file(self, tmp_path, y_total, first_bands):
        cols = [f"y_{b.lo}_{b.hi}" for b in default_coarse_bands().bands]
        counts = list(first_bands) + [0] * (len(cols) - len(first_bands))
        path = tmp_path / "r.csv"
        path.write_text(",".join([self.HEADER] + cols) + "\n"
                        + ",".join(["a,1,0,30,,M,1,0", str(y_total)]
                                   + [str(c) for c in counts]) + "\n")
        return str(path)

    def test_band_counts_checked_before_the_cap(self, tmp_path):
        # 25 + 25 = 50 is consistent with a total of 50 as reported; the
        # cap makes the total 30 and leaves each band at 25
        records, _ = _load(self._band_file(tmp_path, 50, [25, 25]))
        assert records[0].contacts_total == 30
        assert records[0].contacts_by_band[:2] == (25, 25)

    def test_band_sum_above_total_is_error_above_the_cap(self, tmp_path):
        with pytest.raises(DataError, match=":2: band counts sum to 50"):
            _load(self._band_file(tmp_path, 40, [25, 25]))

    def test_negative_band_count_is_error(self, tmp_path):
        with pytest.raises(DataError, match=":2: negative band count"):
            _load(self._band_file(tmp_path, 5, [-5, 3]))

    def test_contacts_truncated_on_load(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\na,1,0,30,,M,1,0,95\n")
        records, _ = _load(path)
        assert records[0].contacts_total == 30


def _reference_design(records, feature_spec):
    """The columns u | v | w and their names, coded one record and one
    level at a time."""

    def level(record, attribute):
        if attribute == "const":
            return "1"
        if attribute in ("sex", "household_size"):
            return getattr(record, attribute)
        return record.covariates[attribute]

    names, columns = [], []
    for blocks in (feature_spec.u, feature_spec.v, feature_spec.w):
        for blk in blocks:
            for col_level in blk.column_levels():
                names.append(f"{blk.attribute}:{col_level}")
                columns.append([1.0 if level(r, blk.attribute) == col_level
                                else 0.0 for r in records])
    return np.array(columns).T.reshape(len(records), len(names)), names


REFERENCE_CODED = FeatureSpec(
    u=(FeatureBlock("sex", ("M", "F"), reference="F"),
       FeatureBlock("household_size", ("1", "2", "3"), reference="1")),
    v=(FeatureBlock("employment", ("full_time", "student", "retired"),
                    reference="full_time"),),
    w=(FeatureBlock("const", ("1",)),))


class TestDesignMatrix:
    @pytest.mark.parametrize("feature_spec", [
        gam_feature_spec(), scenario_feature_spec(), REFERENCE_CODED,
        FeatureSpec()], ids=["gam", "scenario", "reference", "empty"])
    def test_equals_the_record_by_record_reference(self, feature_spec):
        records, _ = simulate_panel(ScenarioConfig(waves=3, panel_size=60,
                                                   seed=7))
        design = build_design(records, feature_spec)
        x, names = _reference_design(records, feature_spec)
        assert design.x.shape == x.shape
        assert design.x.tobytes() == x.tobytes()
        assert [n for role in "uvw" for n in design.names[role]] == names
        widths = [len(design.names[role]) for role in "uvw"]
        for role, block in zip("uvw", np.split(x, np.cumsum(widths)[:2],
                                               axis=1)):
            assert design.blocks[role].tobytes() == block.tobytes()

    def test_missing_covariate_rejected(self):
        records = [SurveyRecord("p", 1, 0, 30, "M", "1", {}, 1)]
        fs = FeatureSpec(v=(FeatureBlock("employment", ("student",)),))
        with pytest.raises(DataError, match="missing covariate 'employment'"):
            build_design(records, fs)

    def test_reference_dropping(self):
        records = make_records(2, seed=1)
        records = [
            SurveyRecord("a", 1, 0, 30, "M", "1", {}, 1),
            SurveyRecord("b", 1, 0, 30, "F", "1", {}, 1),
        ]
        fs = FeatureSpec(u=(FeatureBlock("sex", ("M", "F"), reference="F"),))
        design = build_design(records, fs)
        assert design.names["u"] == ("sex:M",)
        assert design.x[:, 0].tolist() == [1.0, 0.0]

    def test_unknown_level_rejected(self):
        records = [SurveyRecord("p", 1, 0, 30, "M", "9", {}, 1)]
        fs = FeatureSpec(u=(FeatureBlock("household_size", ("1", "2")),))
        with pytest.raises(DataError, match="'9'"):
            build_design(records, fs)

    def test_one_hot_rows_sum_to_at_most_one(self, small_design):
        for role in ("u", "v", "w"):
            block = small_design.blocks[role]
            # full one-hot categorical blocks: each block sums to 1
            assert np.all(block.sum(axis=1) <= block.shape[1])

    def test_deterministic(self):
        records = make_records(25, seed=3)
        a = build_design(records, SMALL_FEATURES)
        b = build_design(records, SMALL_FEATURES)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.names == b.names


class TestAggregation:
    def test_ones_band(self):
        out = default_coarse_bands().membership() @ np.ones(85)
        assert out[0] == 5.0

    def test_identity_ramp(self):
        out = default_coarse_bands().membership() @ np.arange(85.0)
        assert out[5] == sum(range(25, 35)) == 295

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=85, max_size=85))
    def test_partition_preserves_totals(self, values):
        per_age = np.asarray(values)
        out = default_coarse_bands().membership() @ per_age
        assert out.sum() == pytest.approx(per_age.sum(), rel=1e-9, abs=1e-6)


class TestTables:
    def test_population_positive(self):
        with pytest.raises(DataError):
            PopulationTable({"M": np.zeros(85)})
