"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Every test times itself against the criterion's runtime budget and prints a
single summary line, so a plain pytest run doubles as the acceptance report.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from maxentcast import (DetectorConfig, EmbedConfig, PolyMapSpec,
                        ProtocolConfig, classify, changepoints, clean,
                        count_coefficients, fit, generate, load_csv, rng,
                        run_protocol)
from maxentcast.cli import main as cli_main
from maxentcast.model import DEFAULT_RANK_TOLERANCE, _min_norm_solver

import calibrate
from map_families import chaotic_quad_map_coefficients, henon_map_coefficients
from test_evaluate import rel_mse


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)


# ---------------------------------------------------------------------------

def test_criterion_1_coefficient_round_trip():
    """Fits on noiseless map orbits recover the generating coefficients."""
    budget_s = 5.0
    t0 = time.perf_counter()
    worst = 0.0
    for idx in range(20):
        dim = (2, 3, 4)[idx % 3]
        coefs = (henon_map_coefficients() if dim == 2
                 else chaotic_quad_map_coefficients(dim))
        init = tuple(0.05 + 0.1 * u for u in rng.uniforms(1000 + idx, dim))
        series = generate(PolyMapSpec(n=600, dim=dim, coefficients=coefs,
                                      init=init, seed=idx))
        cfg = EmbedConfig(dim=dim, degree=2, horizon=1, n_fit=200)
        model = fit(series, cfg, start=300)
        err = float(np.max(np.abs(model.coefficients - np.asarray(coefs))))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < budget_s
    report_line("criterion 1: coefficient round-trip", ok,
                f"20 specs, max_abs_err={worst:.3g}, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < budget_s


def test_criterion_2_pseudoinverse_correctness():
    """Four defining pseudoinverse identities plus a normal-equations match,
    of the minimum-norm solver that fit runs: column j of a pseudoinverse
    is its solution for e_j."""
    budget_s = 10.0
    t0 = time.perf_counter()
    rnd = np.random.default_rng(20260819)
    worst_mp = 0.0
    worst_ne = 0.0
    n_ne = 0
    for k in range(200):
        shape_kind = k % 4
        m = int(rnd.integers(2, 40))
        n = int(rnd.integers(2, 40))
        if shape_kind == 0:        # overdetermined
            m = n + int(rnd.integers(1, 20))
        elif shape_kind == 1:      # underdetermined
            n = m + int(rnd.integers(1, 20))
        elif shape_kind == 2:      # square
            n = m
        a = rnd.standard_normal((m, n))
        if shape_kind == 3 and n >= 2:  # rank-deficient by construction
            a[:, -1] = a[:, 0] * 2.0 - (a[:, 1] if n > 2 else 0.0)
        solve, _, _ = _min_norm_solver(a, DEFAULT_RANK_TOLERANCE)
        p = np.column_stack([solve(e) for e in np.eye(m)])
        scale = np.linalg.norm(a)
        checks = (
            np.linalg.norm(a @ p @ a - a) / scale,
            np.linalg.norm(p @ a @ p - p) / max(1.0, np.linalg.norm(p)),
            np.linalg.norm((a @ p).T - a @ p) / max(1.0, scale),
            np.linalg.norm((p @ a).T - p @ a) / max(1.0, scale),
        )
        worst_mp = max(worst_mp, *checks)
        if shape_kind == 0:
            b = rnd.standard_normal(m)
            x = solve(b)
            oracle = np.linalg.solve(a.T @ a, a.T @ b)
            denom = max(1.0, float(np.linalg.norm(oracle)))
            worst_ne = max(worst_ne,
                           float(np.linalg.norm(x - oracle)) / denom)
            n_ne += 1
    elapsed = time.perf_counter() - t0
    ok = worst_mp < 1e-8 and worst_ne < 1e-8 and elapsed < budget_s
    report_line("criterion 2: pseudoinverse correctness", ok,
                f"200 matrices, max_mp_resid={worst_mp:.3g}, "
                f"max_ne_diff={worst_ne:.3g} over {n_ne} systems, "
                f"{elapsed:.2f}s")
    assert worst_mp < 1e-8
    assert worst_ne < 1e-8
    assert elapsed < budget_s


def test_criterion_3_coefficient_count_formula():
    """Closed-form coefficient count equals brute-force monomial enumeration."""
    def brute_force(dim: int, degree: int) -> int:
        return sum(1 for exps in itertools.product(range(degree + 1),
                                                   repeat=dim)
                   if sum(exps) <= degree)

    mismatches = [(d, p) for d in range(1, 7) for p in range(1, 5)
                  if count_coefficients(d, p) != brute_force(d, p)]
    ok = not mismatches and count_coefficients(4, 2) == 15
    report_line("criterion 3: coefficient count formula", ok,
                f"d<=6, degree<=4 all match; (4,2)={count_coefficients(4, 2)}")
    assert not mismatches
    assert count_coefficients(4, 2) == 15


def test_criterion_4_null_calibration():
    """Random walks must not look predictable under the default pipeline."""
    budget_s = 60.0
    t0 = time.perf_counter()
    figures = calibrate.null(range(50), DetectorConfig())
    elapsed = time.perf_counter() - t0
    flagged, total = figures["flagged"], figures["windows"]
    flag_fraction = flagged / total
    median_ratio = figures["quantiles"][50]
    ok = (flag_fraction <= 0.05 and 0.8 <= median_ratio <= 1.2
          and elapsed < budget_s)
    report_line("criterion 4: null calibration", ok,
                f"flagged {flagged}/{total} ({100 * flag_fraction:.2f}%), "
                f"median rel_mse/baseline={median_ratio:.4f}, {elapsed:.1f}s")
    assert flag_fraction <= 0.05
    assert 0.8 <= median_ratio <= 1.2
    assert elapsed < budget_s


def test_criterion_5_detection_power_and_localization():
    """Planted deterministic segments are found and localized."""
    budget_s = 120.0
    t0 = time.perf_counter()
    figures = calibrate.detection(range(100), DetectorConfig())
    elapsed = time.perf_counter() - t0
    hits = figures["hits"]
    within_two = sum(n for err, n in figures["localization"].items()
                     if abs(err) <= 2)
    ok = hits >= 95 and within_two >= 90 and elapsed < budget_s
    report_line("criterion 5: detection power and localization", ok,
                f"hits {hits}/100, within +/-2 windows {within_two}/{hits}, "
                f"{elapsed:.1f}s")
    assert hits >= 95
    assert within_two >= 90
    assert elapsed < budget_s


def test_criterion_6_affine_invariance():
    """The window rel_mse that run writes, scored here on frames whose
    records are one window, is unchanged by common affine maps of both
    inputs."""
    rnd = np.random.default_rng(616)
    worst = 0.0
    for _ in range(200):
        n = int(rnd.integers(2, 60))
        a = rnd.standard_normal(n)
        if np.ptp(a) == 0.0:
            a[0] += 1.0
        p = a + rnd.standard_normal(n)
        c = float(rnd.choice([-1.0, 1.0])) * 10.0 ** rnd.uniform(-3, 3)
        # shift proportional to the scaled data keeps the identity testable
        # at 1e-12 in floating point
        shift = float(rnd.uniform(-100.0, 100.0)) * abs(c)
        base = rel_mse(a, p)
        mapped = rel_mse(c * a + shift, c * p + shift)
        worst = max(worst, abs(mapped - base) / max(1.0, base))
    ok = worst < 1e-12
    report_line("criterion 6: affine invariance", ok,
                f"200 cases, max_rel_diff={worst:.3g}")
    assert worst < 1e-12


def test_criterion_7_reproducibility(tmp_path, capsys):
    """Identical config and input give a byte-identical report payload."""
    data = tmp_path / "data"
    assert cli_main(["synth", "--kind", "walk", "--n", "900", "--seed", "77",
                     "--out", str(data)]) == 0
    out = tmp_path / "run"
    argv = ["run", "--input", str(data / "series.csv"), "--d", "2", "--np",
            "2", "--fit-window", "200", "--anticipation", "7", "--bucket",
            "window:100", "--out", str(out)]
    payloads = []
    for _ in range(2):
        assert cli_main(list(argv)) == 0
        doc = json.loads((out / "report.json").read_text())
        payloads.append(json.dumps(doc["payload"], sort_keys=True))
    capsys.readouterr()
    ok = payloads[0] == payloads[1]
    report_line("criterion 7: reproducibility", ok,
                f"payload bytes equal across two runs: {ok}")
    assert payloads[0] == payloads[1]


BENCHMARK_ENV = "MAXENTCAST_BENCHMARK_CSV"


@pytest.mark.skipif(BENCHMARK_ENV not in os.environ,
                    reason=f"set {BENCHMARK_ENV} to a daily-rate CSV "
                           "(1999-2008) to enable the external-data check")
def test_criterion_8_external_benchmark_series():
    """On the 1999-2008 daily benchmark-rate series, late-period forecasts
    beat the 2002-2006 stretch at every horizon and a regime change lands
    in 2006-2007."""
    path = Path(os.environ[BENCHMARK_ENV])
    series = clean(load_csv(path))
    protocol = ProtocolConfig()  # d=4, degree=2, M=700, T in {7,10,13,16}
    detector = DetectorConfig()
    report = run_protocol(series, protocol)
    ok = True
    details = []
    cp_years = set()
    for track in report.tracks:
        def mean_over(years):
            vals = [w.rel_mse for w in track.windows
                    if not w.degenerate and int(w.label) in years]
            return float(np.mean(vals)) if vals else math.nan
        late = mean_over({2007, 2008})
        mid = mean_over(set(range(2002, 2007)))
        details.append(f"T={track.horizon}: 2007-08={late:.3f} "
                       f"vs 2002-06={mid:.3f}")
        if not late < mid:
            ok = False
        labels = classify(track.windows, detector)
        for i in changepoints(list(labels)):
            cp_years.add(int(track.windows[i].label))
    if not cp_years & {2006, 2007}:
        ok = False
    report_line("criterion 8: external benchmark series", ok,
                "; ".join(details) + f"; changepoint years={sorted(cp_years)}")
    assert ok
