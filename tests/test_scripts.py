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
