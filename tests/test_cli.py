"""End-to-end command-line tests: synth -> run -> verify, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxentcast import (RandomWalkSpec, RunConfig, clean, dumps_canonical,
                        generate, load_csv)
from maxentcast import design as design_module
from maxentcast import model as model_module
from maxentcast.cli import _build_parser, _run_config, main
from maxentcast.report import write_series_csv
from maxentcast.synth import (SPLICE_MAP_R, SPLICE_MAP_SCALE,
                              logistic_splice)

from test_fast_paths import _tokenizers

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err: str) -> dict:
    # argparse may print usage text first; the JSON line comes last
    lines = [ln for ln in err.strip().split("\n") if ln]
    assert lines, "expected a JSON error line on stderr"
    return json.loads(lines[-1])


# ----------------------------------------------------------------- basics

def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("maxentcast ")


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert stderr_json(err)["category"] == "config"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "maxentcast", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("maxentcast ")


# ------------------------------------------------------------------ synth

def test_synth_walk_artifacts(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "synth", "--kind", "walk", "--n", "60",
                           "--seed", "12", "--out", str(tmp_path))
    assert code == 0
    series = (tmp_path / "series.csv").read_text()
    assert series.startswith("date,value\n")
    assert len(series.strip().split("\n")) == 61
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["schema_version"] == 1
    assert truth["kind"] == "walk"
    assert truth["changepoint_index"] is None
    assert truth["seed"] == 12
    assert "wrote" in out


def test_synth_is_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run_cli(capsys, "synth", "--kind", "walk", "--n", "40",
                             "--seed", "3", "--out", str(tmp_path / sub))
        assert code == 0
    assert ((tmp_path / "a" / "series.csv").read_bytes()
            == (tmp_path / "b" / "series.csv").read_bytes())
    assert ((tmp_path / "a" / "truth.json").read_bytes()
            == (tmp_path / "b" / "truth.json").read_bytes())


def test_synth_requires_seed(tmp_path, capsys):
    code, _, err = run_cli(capsys, "synth", "--kind", "walk", "--n", "40",
                           "--out", str(tmp_path))
    assert code == 2
    assert stderr_json(err)["category"] == "config"


def test_synth_map_fixed_point(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "synth", "--kind", "map", "--n", "10",
                         "--seed", "0", "--dim", "1", "--coeffs", "0,1",
                         "--init", "0.7", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "series.csv").read_text().strip().split("\n")[1:]
    assert all(row.endswith(",0.69999999999999996") for row in rows)
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["params"]["coefficients"] == [0.0, 1.0]


def test_synth_map_requires_coefficients(tmp_path, capsys):
    code, _, err = run_cli(capsys, "synth", "--kind", "map", "--n", "10",
                           "--seed", "0", "--out", str(tmp_path))
    assert code == 2
    assert stderr_json(err)["error"] == "ValueError"


def test_synth_spliced_truth_changepoint(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "synth", "--kind", "spliced", "--n", "400",
                         "--seed", "2", "--splice", "300",
                         "--out", str(tmp_path))
    assert code == 0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["kind"] == "spliced"
    assert truth["changepoint_index"] == 300
    assert truth["params"]["map"]["seed"] == 3
    rows = (tmp_path / "series.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 400


@pytest.mark.parametrize("flag, noise", [([], 0.01),
                                         (["--noise-sigma", "0"], 0.0),
                                         (["--noise-sigma", "0.03"], 0.03)])
def test_synth_spliced_noise_sigma(flag, noise, tmp_path, capsys):
    code, _, _ = run_cli(capsys, "synth", "--kind", "spliced", "--n", "400",
                         "--seed", "1", "--splice", "300",
                         "--out", str(tmp_path), *flag)
    assert code == 0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["params"]["map"]["noise_sigma"] == noise
    # the map segment is the library's logistic splice at that noise
    spec = logistic_splice(RandomWalkSpec(n=300, sigma=1.0, seed=1), 100,
                           noise, SPLICE_MAP_R, SPLICE_MAP_SCALE, 1e6)
    written = load_csv(tmp_path / "series.csv").values
    assert written.tobytes() == generate(spec).values.tobytes()


def test_synth_map_noise_defaults_to_zero(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "synth", "--kind", "map", "--n", "10",
                         "--seed", "0", "--dim", "1", "--coeffs", "0.5,0.5",
                         "--init", "0.7", "--out", str(tmp_path))
    assert code == 0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["params"]["noise_sigma"] == 0.0


def test_synth_spliced_requires_interior_splice(tmp_path, capsys):
    code, _, err = run_cli(capsys, "synth", "--kind", "spliced", "--n", "100",
                           "--seed", "1", "--splice", "100",
                           "--out", str(tmp_path))
    assert code == 2
    assert stderr_json(err)["category"] == "config"


@pytest.mark.parametrize("kind, extra", [
    ("walk", []),
    ("map", ["--coeffs", "0,1", "--init", "0.7"]),
])
def test_synth_of_one_point_is_a_config_error(kind, extra, tmp_path, capsys):
    code, out, err = run_cli(capsys, "synth", "--kind", kind, "--n", "1",
                             "--seed", "3", "--out", str(tmp_path), *extra)
    assert code == 2 and out == ""
    assert stderr_json(err) == {
        "category": "config", "error": "ValueError",
        "message": "n must be an integer >= 2, got 1"}
    assert not (tmp_path / "series.csv").exists()
    # a two-point splice of one walk point and one map point is fine
    code, _, _ = run_cli(capsys, "synth", "--kind", "spliced", "--n", "2",
                         "--splice", "1", "--seed", "3",
                         "--out", str(tmp_path))
    assert code == 0
    assert len(load_csv(tmp_path / "series.csv")) == 2


MAP = ["--kind", "map", "--n", "10", "--coeffs", "0,3.5,-3.5", "--init", "0.3"]
SPLICED = ["--kind", "spliced", "--n", "100", "--splice", "50"]


@pytest.mark.parametrize("argv, message", [
    (MAP + ["--noise-sigma", "nan"],
     "noise_sigma must be finite and nonnegative, got nan"),
    (MAP + ["--noise-sigma", "inf"],
     "noise_sigma must be finite and nonnegative, got inf"),
    (SPLICED + ["--noise-sigma", "nan"],
     "noise_sigma must be finite and nonnegative, got nan"),
    (SPLICED + ["--map-r", "nan"],
     "coefficients and init values must be finite"),
    (SPLICED + ["--coeffs", "0,inf"],
     "coefficients and init values must be finite"),
    (["--kind", "map", "--n", "10", "--coeffs", "0,nan,-3.5", "--init", "0.3"],
     "coefficients and init values must be finite"),
    (["--kind", "map", "--n", "10", "--coeffs", "0,3.5,-3.5", "--init", "nan"],
     "coefficients and init values must be finite"),
    (["--kind", "walk", "--n", "10", "--sigma", "inf"],
     "sigma must be positive and finite, got inf"),
    (SPLICED + ["--sigma", "inf"],
     "sigma must be positive and finite, got inf"),
])
def test_synth_non_finite_setting_is_a_config_error(argv, message, tmp_path,
                                                    capsys):
    code, out, err = run_cli(capsys, "synth", *argv, "--seed", "1",
                             "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert stderr_json(err) == {"category": "config", "error": "ValueError",
                                "message": message}
    assert not (tmp_path / "out").exists()


def test_synth_overflowing_map_prints_one_json_line(tmp_path):
    # 1e100 * (1e300)^2 overflows a double at the third step; under -W error
    # a numpy warning would end the run before the orbit's own error
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "maxentcast",
                           "synth", "--kind", "map", "--n", "50", "--seed", "1",
                           "--coeffs", "0,0,1e100", "--init", "1",
                           "--bound", "1.7e308", "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 5 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {
        "category": "numerical", "error": "DivergentOrbitError",
        "message": "orbit exceeded |v| <= 1.7e+308 at step 3 (value inf)"}
    assert not (tmp_path / "out").exists()


def test_synth_overflowing_walk_prints_one_json_line(tmp_path):
    # 1e307 times the summed normals of seed 1 overflows a double at step
    # 162; numpy's overflow warning would be an error under both settings
    for flags, env in ((["-W", "error"], None),
                       ([], dict(os.environ, PYTHONWARNINGS="error"))):
        proc = subprocess.run([sys.executable, *flags, "-m", "maxentcast",
                               "synth", "--kind", "walk", "--n", "1000",
                               "--seed", "1", "--sigma", "1e307",
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 5 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0]) == {
            "category": "numerical", "error": "DivergentOrbitError",
            "message": "orbit exceeded |v| <= 1.79769e+308 at step 162 "
                       "(value inf)"}
        assert not (tmp_path / "out").exists()


# -------------------------------------------------------------------- run

@pytest.fixture()
def walk_csv_60(tmp_path, capsys):
    out = tmp_path / "data60"
    assert main(["synth", "--kind", "walk", "--n", "60", "--seed", "12",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out / "series.csv"


def test_run_minimal_configuration(walk_csv_60, tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, "run", "--input", str(walk_csv_60),
                              "--d", "1", "--np", "1", "--fit-window", "10",
                              "--anticipation", "1", "--bucket", "window:20",
                              "--out", str(out))
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "forecast_T1.csv").exists()
    assert (out / "summary.csv").exists()
    assert stdout.count("wrote ") == 3
    doc = json.loads((out / "report.json").read_text())
    assert [t["horizon"] for t in doc["payload"]["tracks"]] == [1]


def test_run_default_configuration_writes_four_tracks(tmp_path, capsys):
    data = tmp_path / "data1500"
    assert main(["synth", "--kind", "walk", "--n", "1500", "--seed", "4",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "run", "--input", str(data / "series.csv"),
                         "--out", str(out))
    assert code == 0
    for horizon in (7, 10, 13, 16):
        assert (out / f"forecast_T{horizon}.csv").exists()
    doc = json.loads((out / "report.json").read_text())
    config = doc["payload"]["config"]
    assert (config["dim"], config["lag"], config["degree"]) == (4, 1, 2)
    assert config["fit_window"] == 700
    assert config["anticipation"] == [7, 10, 13, 16]
    assert config["bucket"] == "year"


def test_run_missing_input_is_ingest_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--input",
                           str(tmp_path / "nope.csv"))
    assert code == 3
    assert stderr_json(err)["category"] == "ingest"


def test_run_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["run", "--input", "x.csv"])
    assert _run_config(args) == RunConfig(input_path="x.csv")


@pytest.mark.parametrize("flag", [("--theta", "1.5"), ("--min-run", "0"),
                                  ("--d", "0"), ("--anticipation", "0"),
                                  ("--bucket", "window:1"),
                                  ("--rank-tol", "2")], ids=" ".join)
def test_run_checks_settings_before_reading_input(flag, tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--input",
                           str(tmp_path / "nope.csv"), *flag)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["category"] == "config"


def test_run_bad_bucket_is_config_error(walk_csv_60, capsys):
    code, _, err = run_cli(capsys, "run", "--input", str(walk_csv_60),
                           "--bucket", "weekly")
    assert code == 2
    assert stderr_json(err)["category"] == "config"


def test_run_short_series_is_window_error(walk_csv_60, tmp_path, capsys):
    # 60 points cannot supply the default 700 fit constraints
    code, _, err = run_cli(capsys, "run", "--input", str(walk_csv_60),
                           "--out", str(tmp_path / "run"))
    assert code == 4
    assert stderr_json(err)["category"] == "window"


def test_run_overflowing_features_is_numerical_error(write_csv, tmp_path):
    # squares of values near 1e160 overflow a double
    days = np.busday_offset(np.datetime64("2000-01-03"), np.arange(1200),
                            roll="forward")
    values = 1e160 * (1.0 + 0.01 * np.sin(np.arange(1200.0)))
    path = write_csv([f"{d},{float(v)!r}"
                      for d, v in zip(np.datetime_as_string(days), values)])
    proc = subprocess.run([sys.executable, "-m", "maxentcast", "run",
                           "--input", str(path), "--np", "2",
                           "--out", str(tmp_path / "run")],
                          capture_output=True, text=True)
    assert proc.returncode == 5
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "NumericalFailureError"
    assert json.loads(lines[0])["category"] == "numerical"


def big_walk_csv(write_csv):
    """1,200 business days of 1e160 * (1 + 0.01 * walk)."""
    days = np.busday_offset(np.datetime64("2000-01-03"), np.arange(1200),
                            roll="forward")
    walk = np.cumsum(np.random.default_rng(1).standard_normal(1200))
    values = 1e160 * (1.0 + 0.01 * walk)
    return write_csv([f"{d},{float(v)!r}"
                      for d, v in zip(np.datetime_as_string(days), values)])


def test_forecast_rows_are_the_cleaned_series_rows(write_csv, tmp_path,
                                                   capsys):
    # 1,600 business days with 160 left out, which clean fills, and two
    # Saturdays, which it keeps: each forecast file's date,actual text is
    # the tail of the cleaned series as write_series_csv writes it
    rng = np.random.default_rng(3)
    days = np.busday_offset(np.datetime64("2000-01-03"), np.arange(1600),
                            roll="forward")
    kept = np.sort(np.concatenate([
        [0], 1 + rng.choice(1599, size=1439, replace=False)]))
    rows = [(str(d), v) for d, v in zip(days[kept],
                                        np.cumsum(rng.standard_normal(1440)))]
    rows += [("2001-06-02", 1.5), ("2003-03-08", -2.5)]
    path = write_csv([f"{d},{float(v)!r}" for d, v in sorted(rows)])
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, "run", "--input", str(path),
                           "--out", str(out))
    assert code == 0, err
    cleaned = clean(load_csv(path))
    assert len(cleaned) == 1602
    write_series_csv(tmp_path / "cleaned.csv", cleaned)
    series_rows = (tmp_path / "cleaned.csv").read_text().splitlines()[1:]
    for horizon in (7, 10, 13, 16):
        lines = (out / f"forecast_T{horizon}.csv").read_text().splitlines()
        assert lines[0] == "date,actual,predicted"
        assert len(lines) - 1 == len(cleaned) - 3 - 700 - horizon
        assert ([line.rsplit(",", 1)[0] for line in lines[1:]]
                == series_rows[-(len(lines) - 1):])


def test_run_near_overflow_prints_no_numpy_warning(write_csv, tmp_path):
    # with --np 1 the features stay finite, but the fit residual and the
    # window sums of squares overflow; the run still completes
    proc = subprocess.run([sys.executable, "-m", "maxentcast", "run",
                           "--input", str(big_walk_csv(write_csv)),
                           "--np", "1", "--out", str(tmp_path / "run")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not [line for line in proc.stderr.splitlines() if "Warning" in line]


def test_run_standardize_overflow_is_numerical_error(write_csv, tmp_path):
    # the column scales overflow, so no standardized fit can be formed
    proc = subprocess.run([sys.executable, "-m", "maxentcast", "run",
                           "--input", str(big_walk_csv(write_csv)),
                           "--np", "1", "--standardize",
                           "--out", str(tmp_path / "run")],
                          capture_output=True, text=True)
    assert proc.returncode == 5
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "NumericalFailureError"


# ----------------------------------------------------------------- verify

def synth_run_verify(capsys, tmp_path, synth_args, run_args):
    data = tmp_path / "data"
    assert main(["synth", *synth_args, "--out", str(data)]) == 0
    out = tmp_path / "run"
    assert main(["run", "--input", str(data / "series.csv"), *run_args,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code, stdout, err = run_cli(capsys, "verify",
                                "--report", str(out / "report.json"),
                                "--truth", str(data / "truth.json"))
    assert code == 0, err
    return json.loads(stdout)


def test_verify_detects_planted_regime(tmp_path, capsys):
    result = synth_run_verify(
        capsys, tmp_path,
        ["--kind", "spliced", "--n", "2000", "--seed", "0",
         "--splice", "1333"],
        ["--d", "2", "--np", "1", "--fit-window", "700", "--anticipation",
         "7", "--bucket", "window:125", "--standardize", "--rank-tol", "0.2"])
    assert result["hit"] is True
    assert result["false_flags"] == 0
    track = result["tracks"][0]
    assert track["horizon"] == 7
    assert abs(track["localization_error"]) <= 2


def test_verify_walk_truth_has_null_hit(tmp_path, capsys):
    result = synth_run_verify(
        capsys, tmp_path,
        ["--kind", "walk", "--n", "300", "--seed", "9"],
        ["--d", "1", "--np", "1", "--fit-window", "50", "--anticipation",
         "3", "--bucket", "window:40"])
    assert result["hit"] is None
    assert result["tracks"][0]["hit"] is None
    assert result["false_flags"] == sum(t["false_flags"]
                                        for t in result["tracks"])


def test_verify_unknown_truth_schema(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(
        {"meta": {}, "payload": {"schema_version": 1, "tracks": []}}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"schema_version": 99}))
    code, _, err = run_cli(capsys, "verify", "--report", str(report),
                           "--truth", str(truth))
    assert code == 6
    assert stderr_json(err)["category"] == "schema"


@pytest.mark.parametrize("which", ["report", "truth"])
def test_verify_non_object_json_is_schema_error(which, tmp_path, capsys):
    files = {"report": {"meta": {}, "payload": {"schema_version": 1,
                                                "tracks": []}},
             "truth": {"schema_version": 1, "changepoint_index": None}}
    files[which] = [1, 2]
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify",
                           "--report", str(tmp_path / "report.json"),
                           "--truth", str(tmp_path / "truth.json"))
    assert code == 6
    line = stderr_json(err)
    assert line["category"] == "schema"
    assert line["error"] == "SchemaMismatchError"


NO_TRACKS = {"schema_version": 1, "tracks": []}

# case: (report payload, truth less its schema version)
MALFORMED = {
    "no tracks": ({"schema_version": 1}, {"changepoint_index": 250}),
    "no end_index": ({"schema_version": 1, "tracks": [{
        "horizon": 7, "windows": [{"start_index": 0}],
        "detection": {"labels": [{"regime": "STOCHASTIC"}]}}]},
        {"changepoint_index": 250}),
    "string changepoint": (NO_TRACKS, {"changepoint_index": "abc"}),
    "float changepoint": (NO_TRACKS, {"changepoint_index": 2.7}),
    "bool changepoint": (NO_TRACKS, {"changepoint_index": True}),
    "no changepoint": (NO_TRACKS, {}),
    "more labels than windows": ({"schema_version": 1, "tracks": [{
        "horizon": 7, "windows": [{"start_index": 0, "end_index": 99},
                                  {"start_index": 100, "end_index": 199}],
        "detection": {"labels": [{"regime": "STOCHASTIC"},
                                 {"regime": "STOCHASTIC"},
                                 {"regime": "PREDICTABLE"}]}}]},
        {"changepoint_index": 150}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_verify_malformed_report_or_truth_is_schema_error(case, tmp_path,
                                                          capsys):
    payload, truth = MALFORMED[case]
    (tmp_path / "report.json").write_text(
        json.dumps({"meta": {}, "payload": payload}))
    (tmp_path / "truth.json").write_text(
        json.dumps({"schema_version": 1, **truth}))
    code, out, err = run_cli(capsys, "verify",
                             "--report", str(tmp_path / "report.json"),
                             "--truth", str(tmp_path / "truth.json"))
    assert (code, out) == (6, "")
    line = stderr_json(err)
    assert (line["category"], line["error"]) == ("schema",
                                                 "SchemaMismatchError")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_closed_stdout_exits_zero_without_a_message(command, tmp_path,
                                                    capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["synth", "--kind", "spliced", "--n", "1200", "--seed", "1",
                 "--splice", "800", "--out", str(data)]) == 0
    run = ["run", "--input", str(data / "series.csv"), "--d", "1", "--np",
           "1", "--fit-window", "200", "--bucket", "window:100",
           "--out", str(out)]
    if command == "verify":
        assert main(run) == 0
    capsys.readouterr()
    argv = {"run": run,
            "verify": ["verify", "--report", str(out / "report.json"),
                       "--truth", str(data / "truth.json")]}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "maxentcast", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (out / "report.json").is_file()


def test_verify_missing_report_is_ingest_error(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"schema_version": 1,
                                 "changepoint_index": None}))
    code, _, err = run_cli(capsys, "verify",
                           "--report", str(tmp_path / "absent.json"),
                           "--truth", str(truth))
    assert code == 3
    assert stderr_json(err)["category"] == "ingest"


# ---------------------------------------------------------------- scripts

# script: (arguments, a line start of its summary)
SCRIPT_RUNS = {
    "detection_power.py": (["--n-series", "2"], "trials: 2, hit rate"),
    "null_calibration.py": (["--n-series", "2"], "flagged windows:"),
    "spliced_demo.py": (["--out", "demo"], "changepoint planted at index"),
}


@pytest.mark.parametrize("script", sorted(SCRIPT_RUNS))
def test_script_runs(script, tmp_path):
    args, summary = SCRIPT_RUNS[script]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(summary) for line in proc.stdout.splitlines())


def test_run_near_overflow_reports_a_finite_residual_norm(write_csv, tmp_path,
                                                          capsys):
    # the residual's plain norm overflows; it is summed again after an
    # exact power-of-two scaling
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, "run", "--input", str(big_walk_csv(write_csv)),
                           "--np", "1", "--out", str(out))
    assert code == 0, err
    payload = json.loads((out / "report.json").read_text())["payload"]
    norms = [t["model"]["diagnostics"]["residual_norm"]
             for t in payload["tracks"]]
    assert len(norms) == 4
    assert all(isinstance(r, float) and 1e158 < r < 1e163 for r in norms)


def test_crlf_quoted_copy_gives_the_same_artifacts(tmp_path, capsys,
                                                  monkeypatch):
    # The LF original is split by load_csv's own tokenizer; the copy, with
    # CRLF endings and every field quoted, goes through csv.reader.
    used = _tokenizers(monkeypatch)
    data = tmp_path / "data"
    assert main(["synth", "--kind", "spliced", "--n", "3000", "--splice",
                 "2000", "--seed", "5", "--out", str(data)]) == 0
    original = data / "series.csv"
    copy = tmp_path / "quoted" / "series.csv"  # the same stem: the same name
    copy.parent.mkdir()
    copy.write_bytes("".join(
        ",".join(f'"{field}"' for field in line.split(",")) + "\r\n"
        for line in original.read_text().splitlines()).encode())
    artifacts = {}
    for name, path in (("lf", original), ("crlf", copy)):
        used.update(split=0, reader=0)
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(["run", "--input", str(path), "--out", "out"]) == 0
        out = tmp_path / name / "out"
        files = {p.name: p.read_bytes() for p in out.iterdir()
                 if p.name != "report.json"}
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload["config"].pop("input_path") == str(path)
        files["payload"] = dumps_canonical(payload)
        artifacts[name] = files
        assert (used["split"] > 0) is (name == "lf")
        assert (used["reader"] > 0) is (name == "crlf")
    assert sorted(artifacts["lf"]) == [
        "forecast_T10.csv", "forecast_T13.csv", "forecast_T16.csv",
        "forecast_T7.csv", "payload", "summary.csv"]
    assert artifacts["lf"] == artifacts["crlf"]


def refuse_feature_matrices(monkeypatch):
    """Make building any feature matrix, for a fit or a forecast, fail."""
    def no_features(*args, **kwargs):
        raise AssertionError("a feature matrix was built")

    for module in (design_module, model_module):
        monkeypatch.setattr(module, "feature_matrix", no_features)


def test_run_refuses_an_oversize_forecast_block(walk_csv_60, tmp_path, capsys,
                                                monkeypatch):
    # --d 60 --np 4 gives N_c = 635,376: a 254 MB fit design at M = 50,
    # and a forecast block buffer of 129 rows, 656 MB
    refuse_feature_matrices(monkeypatch)
    code, _, err = run_cli(capsys, "run", "--input", str(walk_csv_60),
                           "--d", "60", "--np", "4", "--fit-window", "50",
                           "--out", str(tmp_path / "run"))
    assert code == 4
    line = stderr_json(err)
    assert line["error"] == "InfeasibleWindowError"
    assert "forecast block of 129 rows x 635376 features" in line["message"]
    assert not (tmp_path / "run").exists()


def test_run_refuses_an_oversize_design_before_fitting(walk_csv_60, tmp_path,
                                                       capsys, monkeypatch):
    # --d 30 --np 5 gives N_c = 324,632: about 1.8 GB of design at M = 700
    refuse_feature_matrices(monkeypatch)
    code, _, err = run_cli(capsys, "run", "--input", str(walk_csv_60),
                           "--d", "30", "--np", "5",
                           "--out", str(tmp_path / "run"))
    assert code == 4
    assert len(err.strip().splitlines()) == 1
    line = stderr_json(err)
    assert line["category"] == "window"
    assert line["error"] == "InfeasibleWindowError"
    assert "324632 features" in line["message"]
