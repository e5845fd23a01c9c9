import dataclasses
import logging
import pathlib
import re

import pytest

from contactfatigue import cli
from contactfatigue.cli import run, selection_groups
from contactfatigue.domain import DataError
from contactfatigue.inference import ConvergenceWarning, SamplerConfig
from contactfatigue.simulator import (ScenarioConfig, panel_to_csv,
                                      simulate_panel)


@pytest.fixture(scope="module")
def panel():
    return simulate_panel(ScenarioConfig(waves=3, panel_size=60, seed=7))[0]


class TestSelectionGroups:
    def test_default_skips_a_wave_of_first_timers_only(self, panel):
        wave1 = [r for r in panel if r.wave == 1]
        assert wave1 and all(r.repeat == 0 for r in wave1)
        first, repeat = selection_groups(panel)
        assert first and repeat
        assert {r.wave for r in first} == {r.wave for r in repeat} == {2}
        assert all(r.repeat == 0 for r in first)
        assert all(r.repeat >= 1 for r in repeat)

    def test_explicit_wave(self, panel):
        first, repeat = selection_groups(panel, 3)
        assert {r.wave for r in first + repeat} == {3}

    def test_wave_without_both_groups(self, panel):
        with pytest.raises(DataError, match="wave 1 lacks"):
            selection_groups(panel, 1)
        with pytest.raises(DataError, match="no wave has both"):
            selection_groups([r for r in panel if r.wave == 1])


def test_failed_simulate_write_leaves_no_file(tmp_path, monkeypatch,
                                             caplog):
    def failing_write(records, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("participant_id\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "panel_to_csv", failing_write)
    caplog.set_level(logging.INFO, logger="contactfatigue")
    out = tmp_path / "data"
    assert run(["simulate", "--waves", "2", "--panel-size", "10",
                "--out", str(out)]) == cli.EXIT_IO
    assert list(out.iterdir()) == []
    # the failed stage still logs its wall time
    assert any(r.getMessage().startswith("stage write")
               for r in caplog.records)


class TestFitAcceptsEverySchemaLevel:
    def test_household_of_four(self, panel, tmp_path):
        # the simulator draws households of 1-3; the schema also allows 4
        records = [dataclasses.replace(panel[0], household_size="4")]
        path = tmp_path / "records.csv"
        panel_to_csv(records + panel[1:], str(path))
        out = tmp_path / "fit"
        code = run(["--seed", "7", "--chains", "1", "--warmup", "100",
                    "--sampling", "20", "fit", "--model", "gam-hill",
                    "--data", str(path), "--out", str(out)])
        assert code == 0
        header = (out / "draws.csv").read_text().splitlines()[0].split(",")
        assert header.count("beta[6]") == 1   # sex (2) + household (5)


def test_unwritable_out_directory_is_an_io_error(tmp_path):
    # --out below a regular file cannot be created
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run(["simulate", "--waves", "2", "--panel-size", "10",
                "--out", str(blocker / "sub")])
    assert code == cli.EXIT_IO == 5


#: a sampler far too short to converge on the panel: 2 chains x (100 + 4)
#: transitions, with trees of at most 2**4 - 1 leapfrog steps
UNCONVERGED = ("seed = 7\nchains = 2\nwarmup = 100\nsampling = 4\n"
               "max_tree_depth = 4\n")

#: every sampling command, with the arguments besides --data and --out
SAMPLING_COMMANDS = {
    "fit": ["fit", "--model", "gam-hill"],
    "select": ["select"],
    "debias-sequence": ["debias-sequence"],
    "study": ["study", "--caps", "1"],
}


@pytest.fixture(scope="module")
def unconverged(panel, tmp_path_factory):
    """(config file, records file) of an unconverged run on the panel."""
    data = tmp_path_factory.mktemp("data")
    (data / "run.cfg").write_text(UNCONVERGED)
    panel_to_csv(panel, str(data / "records.csv"))
    return str(data / "run.cfg"), str(data / "records.csv")


def _run_sampling(command, flags, unconverged, out):
    config, records = unconverged
    return run(["--config", config] + flags + SAMPLING_COMMANDS[command]
               + ["--data", records, "--out", str(out)])


@pytest.mark.parametrize("command", SAMPLING_COMMANDS)
class TestStrict:
    def test_unconverged_run_exits_4_before_writing(self, command,
                                                   unconverged, tmp_path,
                                                   caplog):
        out = tmp_path / "out"
        code = _run_sampling(command, ["--strict"], unconverged, out)
        assert code == cli.EXIT_CONVERGENCE == 4
        assert list(out.glob("*.csv")) == []
        assert any(r.levelname == "ERROR" and r.getMessage().startswith(
            "max R-hat ") for r in caplog.records)

    def test_without_strict_the_run_writes_its_outputs(self, command,
                                                      unconverged, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(ConvergenceWarning):
            code = _run_sampling(command, [], unconverged, out)
        assert code == cli.EXIT_OK
        assert list(out.glob("*.csv")) != []



#: settings that a command refuses, as flags or config lines, each with
#: the message that names it: the command line without --config, --data
#: and --out, the config file and the message
BAD_SETTINGS = [
    (["--warmup", "50", "fit"], "", "warmup must be >= 100"),
    (["--sampling", "0", "fit"], "", "sampling must be >= 1"),
    (["fit"], "target_accept = 1.5\n", r"target_accept must be in \(0, 1\)"),
    (["fit"], "max_tree_depth = 0\n", "max_tree_depth must be >= 1"),
    (["--seed", "-1", "fit"], "", "seed must be >= 0"),
    (["--threads", "0", "fit"], "", "threads must be >= 1"),
    (["fit", "--model", "gam-plain"], "hsgp_m = 0\n",
     "basis size m must be >= 1"),
    (["fit", "--model", "gam-cubic"], "", "unknown model 'gam-cubic'"),
    (["--seed", "-1", "simulate"], "", "seed must be >= 0"),
    (["simulate"], "retention = 1.5\n", r"retention must lie in \[0, 1\]"),
    (["simulate", "--waves", "0"], "", "waves must be >= 1"),
    (["simulate", "--panel-size", "0"], "", "panel_size must be >= 1"),
] + [(["simulate"], f"phi = {phi}\n", "phi must be finite and > 0")
     for phi in ("0", "-1", "nan", "inf")] + [
    (["study", "--caps", "x"], "", "invalid literal for int"),
    (["study", "--caps=0,-1"], "", "caps must be >= 0"),
    (["debias-sequence"], "bootstrap_resamples = 10\n",
     "at least 100 bootstrap resamples"),
    (["select", "--wave", "0"], "", "wave must be >= 1, got 0"),
] + [(["--sampling", "0", *SAMPLING_COMMANDS[command]], "",
      "sampling must be >= 1")
     for command in SAMPLING_COMMANDS if command != "fit"]


@pytest.mark.parametrize(
    "argv,config,message", BAD_SETTINGS,
    ids=[" ".join(argv) + (f" [{config.strip()}]" if config else "")
         for argv, config, _ in BAD_SETTINGS])
def test_invalid_settings_are_a_config_error(argv, config, message,
                                             tmp_path, caplog):
    # refused before any data are read: the data file does not exist,
    # which would be a data error (exit 3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    data = [] if "simulate" in argv else ["--data",
                                          str(tmp_path / "missing.csv")]
    code = run(["--config", str(cfg)] + argv + data + ["--out", str(out)])
    assert code == cli.EXIT_CONFIG == 2
    assert not out.exists()
    assert any(r.levelname == "ERROR"
               and r.getMessage().startswith("config error: ")
               and re.search(message, r.getMessage())
               for r in caplog.records)


def test_the_run_config_table_lists_every_key_with_its_default():
    text = (pathlib.Path(__file__).resolve().parents[1] / "docs"
            / "formats.md").read_text(encoding="utf-8")
    section = text.split("## Run config", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert len(rows) == len(cli._DEFAULTS)
    assert {key: default for key, default, *_ in rows} == {
        key: str(value) for key, value in cli._DEFAULTS.items()}


@pytest.mark.parametrize("settings", [SamplerConfig, ScenarioConfig])
def test_the_default_run_is_the_librarys(settings):
    assert cli.configured(settings, cli.read_config(None, {})) == settings()


def test_the_fit_section_lists_every_model():
    text = (pathlib.Path(__file__).resolve().parents[1] / "docs"
            / "cli.md").read_text(encoding="utf-8")
    section = text.split("### `fit ", 1)[1].split("\n### ", 1)[0]
    names = [line.split("|")[1].strip().strip("`")
             for line in section.splitlines() if line.startswith("| `")]
    assert names == list(cli.MODELS)


@pytest.fixture(scope="module")
def small_run():
    """The records and truth manifest of a small seeded panel."""
    return simulate_panel(ScenarioConfig(waves=3, panel_size=40, seed=7))


def _data_error_logged(caplog, start: str) -> bool:
    return any(r.levelname == "ERROR"
               and r.getMessage().startswith(f"data error: {start}")
               for r in caplog.records)


#: records that a command cannot fit: the command line without --data and
#: --out, the edit of the panel's records and the message that names it
UNFITTABLE = [
    # a blank report date loads as 0
    (["fit", "--model", "longitudinal-hill"],
     lambda records: [dataclasses.replace(r, report_date=0)
                      for r in records],
     "longitudinal model needs >= 2 report dates"),
    (["study"], lambda records: [r for r in records if r.repeat >= 1],
     "study requires first-time participants"),
    (["study"], lambda records: [r for r in records if r.repeat == 0],
     "study requires repeating participants"),
]


@pytest.mark.parametrize("argv,edit,message", UNFITTABLE,
                         ids=[message for *_, message in UNFITTABLE])
def test_unfittable_records_are_a_data_error(argv, edit, message, small_run,
                                             tmp_path, caplog):
    path = tmp_path / "records.csv"
    panel_to_csv(edit(small_run[0]), str(path))
    out = tmp_path / "out"
    code = run(["--seed", "7", "--chains", "1", "--warmup", "100",
                "--sampling", "10"] + argv
               + ["--data", str(path), "--out", str(out)])
    assert code == cli.EXIT_DATA == 3
    assert not out.exists()
    assert _data_error_logged(caplog, message)


class TestEvaluateRefusesUnreadableInputs:
    TABLES = {
        "age_curve.csv": "age,median,lower,upper\n0,6.4,1.3,16.3\n"
                         "1,6.6,1.4,16.1\n",
        "hill.csv": "q,gamma_median,zeta_median,eta_median,gamma_lower,"
                    "gamma_upper\n0,0.38,0.17,0.83,0.18,0.81\n"}

    @staticmethod
    def _evaluate(tmp_path, truth_text, tables):
        fit = tmp_path / "fit"
        fit.mkdir()
        for name, text in tables.items():
            (fit / name).write_text(text)
        truth = tmp_path / "truth.manifest"
        truth.write_text(truth_text)
        return run(["evaluate", "--fit", str(fit), "--truth", str(truth),
                    "--out", str(tmp_path / "eval")])

    def test_well_formed_inputs_are_scored(self, small_run, tmp_path):
        code = self._evaluate(tmp_path, small_run[1].to_json(), self.TABLES)
        assert code == cli.EXIT_OK
        metrics = (tmp_path / "eval" / "metrics.csv").read_text()
        assert [line.split(",")[0] for line in metrics.splitlines()] == [
            "metric", "age_mape_pct", "age_coverage", "hill_gamma_median",
            "hill_gamma_abs_err"]

    def test_a_fit_without_an_age_curve(self, small_run, tmp_path, caplog):
        # a longitudinal fit writes no age curve
        code = self._evaluate(tmp_path, small_run[1].to_json(), {})
        assert code == cli.EXIT_DATA
        assert _data_error_logged(caplog,
                                  f"{tmp_path / 'fit' / 'age_curve.csv'}")
        assert not (tmp_path / "eval").exists()

    def test_a_truth_file_that_is_not_json(self, tmp_path, caplog):
        code = self._evaluate(tmp_path, "not json\n", self.TABLES)
        assert code == cli.EXIT_DATA
        assert _data_error_logged(
            caplog, f"{tmp_path / 'truth.manifest'}: not a truth manifest")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("table", TABLES)
    def test_a_table_with_a_short_row(self, table, small_run, tmp_path,
                                      caplog):
        tables = {**self.TABLES, table: self.TABLES[table] + "2,6.8\n"}
        code = self._evaluate(tmp_path, small_run[1].to_json(), tables)
        assert code == cli.EXIT_DATA
        assert _data_error_logged(caplog, f"{tmp_path / 'fit' / table}: ")
        assert not (tmp_path / "eval").exists()
