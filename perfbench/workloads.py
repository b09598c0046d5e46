"""The three benchmark workloads.

Each workload makes its inputs in ``setup`` (timed apart, as set-up) and
does one round of its operation in ``run``; ``check`` tests a round's
outputs against computations made apart from the program, and ``digest``
fingerprints them, so that later rounds are held to the first one.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import checks
import inputs
import maxentcast as mx
from checks import require
from launch import vm_hwm_mb
from tracer import layer_values

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SIZES = {
    "full": {"cli_n": 200_000, "walks": 200, "splices": 100, "wide_n": 200_000},
    "small": {"cli_n": 6_000, "walks": 12, "splices": 8, "wide_n": 20_000},
}

HORIZONS = (7, 10, 13, 16)
THETA, MIN_RUN = 0.5, 2          # the detector defaults


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Geometry:
    """The fit and scoring settings a track was asked for."""

    dim: int
    degree: int
    width: int
    rank_tolerance: float
    standardize: bool
    horizons: tuple[int, ...] = HORIZONS
    n_fit: int = 700
    lag: int = 1

    def protocol(self):
        return mx.ProtocolConfig(dim=self.dim, degree=self.degree,
                                 fit_window=self.n_fit,
                                 anticipation=self.horizons,
                                 bucketing=mx.WindowBuckets(self.width),
                                 lag=self.lag)


# Acceptance criterion 4 (the null) and criterion 5 (detection), and the
# CLI flags of the README's detection example over four horizons.
NULL = Geometry(dim=4, degree=2, width=125, rank_tolerance=1e-10, standardize=False)
DETECT = Geometry(dim=2, degree=1, width=125, rank_tolerance=0.2,
                  standardize=True, horizons=(7,))
CLI = Geometry(dim=2, degree=1, width=125, rank_tolerance=0.2, standardize=True)
WIDE = Geometry(dim=6, degree=3, width=250, rank_tolerance=1e-10, standardize=False)


@dataclass
class Round:
    output: object
    attempted: int
    failed: int
    peak_mb: float
    layers: dict = field(default_factory=dict)


def _windows(track) -> list[tuple]:
    return [(w.rel_mse, w.baseline_rel_mse, w.start_index, w.end_index)
            for w in track.windows]


def _flags(labels) -> list[bool]:
    return [lab.regime is mx.Regime.PREDICTABLE for lab in labels]


def _check_report(series_values, report, labels, cps, geo: Geometry,
                  sample_count: int, seed, what: str) -> None:
    """Every track of an in-process run, and its labels."""
    require([t.horizon for t in report.tracks] == list(geo.horizons),
            f"{what}: horizons {[t.horizon for t in report.tracks]}")
    for track, labs, cp in zip(report.tracks, labels, cps):
        model = track.model
        windows = _windows(track)
        checks.check_track(
            series_values, dim=geo.dim, lag=geo.lag, degree=geo.degree,
            n_fit=geo.n_fit, horizon=track.horizon,
            labels=model.feature_labels, coefficients=model.coefficients,
            actual=track.frame.actual, predicted=track.frame.predicted,
            windows=windows, width=geo.width,
            sample=checks.sample_positions(len(track.frame), sample_count,
                                           [seed, track.horizon]))
        checks.check_labels(windows, _flags(labs), cp, THETA, MIN_RUN,
                            f"{what} T={track.horizon}")


def _pipeline(series, geo: Geometry, detector):
    report = mx.run_protocol(series, geo.protocol(),
                             rank_tolerance=geo.rank_tolerance,
                             standardize=geo.standardize)
    labels = [mx.classify(t.windows, detector) for t in report.tracks]
    return report, labels, [mx.changepoints(lab) for lab in labels]


class InProcess:
    """Jobs of (series, geometry, changepoint) run through the pipeline here."""

    in_process = True
    jobs: list

    def run(self, traced: bool) -> Round:
        detector = mx.DetectorConfig()
        results, failed = [], 0
        for series, geo, _ in self.jobs:
            try:
                results.append(_pipeline(series, geo, detector))
            except Exception as exc:  # counted, and the round goes on
                if not failed:
                    print(f"{self.name}: {series.name}: {exc!r}", file=sys.stderr)
                failed += 1
                results.append(None)
        return Round(output=results, attempted=len(self.jobs), failed=failed,
                     peak_mb=vm_hwm_mb())

    def digest(self, results) -> bytes:
        h = hashlib.sha256()
        for item in results:
            if item is None:
                h.update(b"failed")
                continue
            report, labels, _ = item
            for track, labs in zip(report.tracks, labels):
                h.update(track.model.coefficients.tobytes())
                h.update(track.frame.predicted.tobytes())
                h.update(np.array([w.rel_mse for w in track.windows]).tobytes())
                h.update(bytes(_flags(labs)))
        return h.digest()


class CliRun:
    """``maxentcast run`` as a subprocess on a spliced business-day CSV."""

    name = "cli_200k"
    in_process = False

    def __init__(self, size: dict, seed: int, work: Path):
        self.n = size["cli_n"]
        self.points = self.n
        self.seed = seed
        self.work = work / self.name
        self.out = self.work / "out"
        self.geo = CLI

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.input = inputs.cli_input(self.n, self.seed, self.work / "series.csv")

    def _argv(self) -> list[str]:
        geo = self.geo
        argv = ["run", "--input", self.input.path, "--d", str(geo.dim),
                "--np", str(geo.degree), "--fit-window", str(geo.n_fit)]
        for t in geo.horizons:
            argv += ["--anticipation", str(t)]
        argv += ["--bucket", f"window:{geo.width}", "--standardize",
                 "--rank-tol", str(geo.rank_tolerance), "--out", str(self.out)]
        return argv

    def run(self, traced: bool) -> Round:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.work / "cli.log", "wb") as log:
            spawned = clock()
            proc = subprocess.run(
                [sys.executable, str(HERE / "launch.py"), str(self._result(traced)),
                 repr(spawned), str(int(traced)), *self._argv()],
                env=env, stdout=log, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            tail = (self.work / "cli.log").read_text(errors="replace")[-400:]
            print(f"cli_200k: exit {proc.returncode}: {tail}", file=sys.stderr)
            return Round(output=None, attempted=1, failed=1, peak_mb=0.0)
        return Round(output=self.out, attempted=1, failed=0, peak_mb=0.0)

    def _result(self, traced: bool) -> Path:
        return self.work / ("spans.json" if traced else "launch.json")

    def finish(self, r: Round, traced: bool) -> None:
        """Read what the launcher recorded: peak memory, and the layers."""
        with open(self._result(traced), encoding="utf-8") as fh:
            doc = json.load(fh)
        r.peak_mb = doc["peak_mb"]
        if traced:
            r.layers = layer_values(doc)
            r.layers["cli.startup_s"] = doc["startup_s"]

    def check(self, out: Path) -> None:
        inp, geo = self.input, self.geo
        with open(out / "report.json", encoding="utf-8") as fh:
            payload = json.load(fh)["payload"]
        n = payload["series"]["n"]
        require(n == inp.rows_written + len(inp.dropped),
                f"series.n {n} is not the {inp.rows_written} rows written plus "
                f"the {len(inp.dropped)} business days left out")
        require(payload["detector"] == {"theta": THETA, "min_run": MIN_RUN},
                f"detector {payload['detector']}")
        require([t["horizon"] for t in payload["tracks"]] == list(geo.horizons),
                "horizons")
        expected = []
        for track in payload["tracks"]:
            horizon = track["horizon"]
            text = (out / f"forecast_T{horizon}.csv").read_text(encoding="utf-8")
            rows = [line.split(",") for line in text.splitlines()[1:]]
            first = (geo.dim - 1) * geo.lag + geo.n_fit
            require([r[0] for r in rows] == inp.dates[first + horizon:first + horizon + len(rows)],
                    f"T={horizon}: forecast dates are not the target business days")
            windows = [(w["rel_mse"], w["baseline_rel_mse"], w["start_index"],
                        w["end_index"]) for w in track["windows"]]
            model = track["model"]
            checks.check_track(
                inp.cleaned, dim=geo.dim, lag=geo.lag, degree=geo.degree,
                n_fit=geo.n_fit, horizon=horizon,
                labels=model["feature_labels"], coefficients=model["coefficients"],
                actual=np.array([r[1] for r in rows], dtype=float),
                predicted=np.array([r[2] for r in rows], dtype=float),
                windows=windows, width=geo.width,
                sample=checks.sample_positions(len(rows), 256, [self.seed, horizon]))
            detection = track["detection"]
            flags = [lab["regime"] == "PREDICTABLE" for lab in detection["labels"]]
            checks.check_labels(windows, flags,
                                [c["window_index"] for c in detection["changepoints"]],
                                THETA, MIN_RUN, f"T={horizon}")
            tw = checks.truth_window(windows, inp.changepoint)
            flagged = [k for k, f in enumerate(flags) if f]
            hits = [k for k in flagged if k >= tw]
            expected.append({
                "horizon": horizon, "truth_window": tw, "hit": bool(hits),
                "false_flags": len(flagged) - len(hits),
                "localization_error": min(flagged) - tw if flagged else None})
        # Whether the splice is found varies with the seed on this input, so
        # only the verdict's agreement with the labels is checked here; the
        # calibration bounds are checked on calib_sweep.
        verdict = mx.verify_detection(payload, {"changepoint_index": inp.changepoint})
        require(verdict["tracks"] == expected,
                f"verify_detection tracks {verdict['tracks']} differ from {expected}")
        require(verdict["hit"] is any(e["hit"] for e in expected)
                and verdict["false_flags"] == sum(e["false_flags"] for e in expected),
                f"verify_detection totals {verdict['hit']}, {verdict['false_flags']}")

    def digest(self, out: Path) -> bytes:
        h = hashlib.sha256()
        with open(out / "report.json", encoding="utf-8") as fh:
            h.update(json.dumps(json.load(fh)["payload"], sort_keys=True).encode())
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                h.update((out / name).read_bytes())
        return h.digest()


class CalibSweep(InProcess):
    """Null walks and planted splices through the protocol, in-process."""

    name = "calib_sweep"

    def __init__(self, size: dict, seed: int, work: Path):
        self.n_walks, self.n_splices = size["walks"], size["splices"]
        self.points = (self.n_walks + self.n_splices) * inputs.CALIB_N
        self.seed = seed

    def setup(self) -> None:
        walks, splices = inputs.calib_inputs(self.n_walks, self.n_splices, self.seed)
        self.jobs = ([(w, NULL, None) for w in walks]
                     + [(s.series, DETECT, s.changepoint) for s in splices])

    def check(self, results) -> None:
        null_flags = null_windows = 0
        null_scores, hits, localized, splices = [], 0, 0, 0
        for i, ((series, geo, changepoint), item) in enumerate(zip(self.jobs, results)):
            if item is None:
                continue
            report, labels, cps = item
            _check_report(series.values, report, labels, cps, geo, 16,
                          [self.seed, i], series.name)
            for track, labs in zip(report.tracks, labels):
                windows, flags = _windows(track), _flags(labs)
                if changepoint is None:
                    null_flags += sum(flags)
                    null_windows += len(flags)
                    null_scores += [s for s in checks.window_scores(windows)
                                    if s is not None]
                    continue
                splices += 1
                tw = checks.truth_window(windows, changepoint)
                flagged = [k for k, f in enumerate(flags) if f]
                if tw is not None and any(k >= tw for k in flagged):
                    hits += 1
                    localized += abs(min(flagged) - tw) <= 2
        if null_windows:
            require(null_flags <= 0.05 * null_windows,
                    f"null: {null_flags} of {null_windows} windows flagged")
            require(abs(median(null_scores) - 1) <= 0.2,
                    f"null: median score {median(null_scores):.3f}")
        if splices:
            require(hits >= 0.95 * splices, f"splices: {hits} of {splices} hit")
            require(localized >= 0.9 * hits,
                    f"splices: {localized} of {hits} hits within 2 windows")


class WideDesign(InProcess):
    """One long walk through a dim-6, degree-3 design, in-process."""

    name = "wide_200k"

    def __init__(self, size: dict, seed: int, work: Path):
        self.n = size["wide_n"]
        self.points = self.n
        self.seed = seed

    def setup(self) -> None:
        self.jobs = [(inputs.wide_input(self.n, self.seed), WIDE, None)]

    def check(self, results) -> None:
        if results[0] is None:
            return
        report, labels, cps = results[0]
        series, geo, _ = self.jobs[0]
        _check_report(series.values, report, labels, cps, geo, 256,
                      self.seed, self.name)
        for track in report.tracks:
            checks.check_lstsq(
                series.values, dim=geo.dim, lag=geo.lag, degree=geo.degree,
                n_fit=geo.n_fit, horizon=track.horizon,
                coefficients=track.model.coefficients,
                rank_tolerance=geo.rank_tolerance, what=f"T={track.horizon}")


WORKLOADS = {w.name: w for w in (CliRun, CalibSweep, WideDesign)}
