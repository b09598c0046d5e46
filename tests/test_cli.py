"""End-to-end command-line tests: synth -> run -> verify, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxentcast import RandomWalkSpec, RunConfig, generate, load_csv
from maxentcast import evaluate as evaluate_module
from maxentcast.cli import _build_parser, _run_config, main
from maxentcast.synth import (SPLICE_MAP_R, SPLICE_MAP_SCALE,
                              logistic_splice)

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


def test_run_refuses_an_oversize_design_before_fitting(walk_csv_60, tmp_path,
                                                       capsys, monkeypatch):
    # --d 30 --np 5 gives N_c = 324,632: about 1.8 GB of design at M = 700
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted")

    monkeypatch.setattr(evaluate_module, "fit", no_fit)
    code, _, err = run_cli(capsys, "run", "--input", str(walk_csv_60),
                           "--d", "30", "--np", "5",
                           "--out", str(tmp_path / "run"))
    assert code == 4
    assert len(err.strip().splitlines()) == 1
    line = stderr_json(err)
    assert line["category"] == "window"
    assert line["error"] == "InfeasibleWindowError"
    assert "324632 features" in line["message"]
