"""The experiment scripts, each run as a user runs it, in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_calibrate_refuses_bad_settings_as_usage_errors():
    for flag, value, message in (("--walks", "0", "--walks and --splices"),
                                 ("--splices", "0", "--walks and --splices"),
                                 ("--theta", "1.5", "theta must lie in"),
                                 ("--min-run", "0", "min_run must be")):
        proc = run_script("calibrate.py", flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith(
            f"calibrate.py: error: {message}")


def test_spliced_demo_hits_the_planted_regime(tmp_path):
    proc = run_script("spliced_demo.py", "--out", "demo", cwd=tmp_path)
    out = tmp_path / "demo"
    assert proc.returncode == 0, proc.stderr
    assert '"hit": true' in proc.stdout
    assert proc.stdout.splitlines()[-1] == (
        "changepoint planted at index 1333; flagged windows: "
        "['w005', 'w006', 'w007', 'w008', 'w009', 'w010']")
    for name in ("data/series.csv", "data/truth.json", "run/report.json",
                 "run/summary.csv", "run/forecast_T7.csv"):
        assert (out / name).is_file()
