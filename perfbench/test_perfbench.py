"""The benchmark's small-size mode passes, and its checks catch bad outputs.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_passes(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "wide_200k", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--size", "small", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = workloads.CalibSweep(workloads.SIZES["small"], 3,
                              tmp_path_factory.mktemp("work"))
    wl.setup()
    return wl


def _first_track(sweep):
    results = sweep.run(traced=False).output
    sweep.check(results)  # unperturbed outputs pass
    return results, results[0][0].tracks[0]


def test_perturbed_prediction_fails(sweep):
    results, track = _first_track(sweep)
    predicted = track.frame.predicted.copy()
    predicted[0] *= 1 + 1e-6
    object.__setattr__(track.frame, "predicted", predicted)
    with pytest.raises(checks.CheckFailed, match="prediction at anchor"):
        sweep.check(results)


def test_perturbed_window_score_fails(sweep):
    results, track = _first_track(sweep)
    windows = list(track.windows)
    windows[1] = dataclasses.replace(windows[1], rel_mse=windows[1].rel_mse * (1 + 1e-6))
    object.__setattr__(track, "windows", tuple(windows))
    with pytest.raises(checks.CheckFailed, match="window 1 rel_mse"):
        sweep.check(results)
