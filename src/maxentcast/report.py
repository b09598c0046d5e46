"""Report assembly and artifact output for full pipeline runs.

A run is reproducible from its :class:`RunConfig` alone: the config is
echoed, with every default resolved, into the report payload.  The payload
is serialized with sorted keys and no timestamps, so two runs from the same
config and input produce byte-identical payload sections.  Wall-clock
metadata lives in a separate ``meta`` section.  All files are written
atomically (temp file + rename) so concurrent runs into distinct output
directories never interfere.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

from ._version import __version__ as _pkg_version
from .detect import DetectorConfig, Regime, RegimeLabel, changepoints, classify
from .errors import SchemaMismatchError
from .evaluate import (PredictabilityReport, ProtocolConfig, WindowBuckets,
                       YearBuckets, run_protocol)
from .ingest import GAP_POLICIES, TimeSeries, clean, load_csv

REPORT_SCHEMA_VERSION = 1
TRUTH_SCHEMA_VERSION = 1

_BUCKET_YEAR = "year"


def parse_bucket(text: str) -> YearBuckets | WindowBuckets:
    """Parse a bucketing flag: ``year`` or ``window:N``."""
    if text == _BUCKET_YEAR:
        return YearBuckets()
    if text.startswith("window:"):
        raw = text.split(":", 1)[1]
        try:
            width = int(raw)
        except ValueError:
            raise ValueError(f"bad window width {raw!r} in bucket spec {text!r}")
        return WindowBuckets(width)
    raise ValueError(f"bucket must be 'year' or 'window:N', got {text!r}")


def bucket_text(bucketing: YearBuckets | WindowBuckets) -> str:
    if isinstance(bucketing, WindowBuckets):
        return f"window:{bucketing.width}"
    return _BUCKET_YEAR


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a pipeline run on one input file."""

    input_path: str
    date_col: str = "date"
    value_col: str = "value"
    date_format: str = "%Y-%m-%d"
    gap_policy: str = "ffill"
    dim: int = 4
    lag: int = 1
    degree: int = 2
    fit_window: int = 700
    anticipation: tuple[int, ...] = (7, 10, 13, 16)
    bucket: str = _BUCKET_YEAR
    theta: float = 0.5
    min_run: int = 2
    rank_tolerance: float = 1e-10
    standardize: bool = False
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.gap_policy not in GAP_POLICIES:
            raise ValueError(f"gap_policy must be one of {GAP_POLICIES}")
        object.__setattr__(self, "anticipation",
                           tuple(int(t) for t in self.anticipation))
        parse_bucket(self.bucket)  # validate eagerly

    def protocol(self) -> ProtocolConfig:
        return ProtocolConfig(dim=self.dim, degree=self.degree,
                              fit_window=self.fit_window,
                              anticipation=self.anticipation,
                              bucketing=parse_bucket(self.bucket),
                              lag=self.lag)

    def detector(self) -> DetectorConfig:
        return DetectorConfig(theta=self.theta, min_run=self.min_run)

    def to_payload(self) -> dict[str, Any]:
        return {
            "input_path": self.input_path,
            "date_col": self.date_col,
            "value_col": self.value_col,
            "date_format": self.date_format,
            "gap_policy": self.gap_policy,
            "dim": self.dim,
            "lag": self.lag,
            "degree": self.degree,
            "fit_window": self.fit_window,
            "anticipation": list(self.anticipation),
            "bucket": self.bucket,
            "theta": self.theta,
            "min_run": self.min_run,
            "rank_tolerance": self.rank_tolerance,
            "standardize": self.standardize,
            "out_dir": self.out_dir,
        }


def _clean_float(x: Any) -> Any:
    """JSON-safe float: NaN and infinities become null."""
    v = float(x)
    return v if math.isfinite(v) else None


def _sanitize(obj: Any) -> Any:
    if isinstance(obj, Mapping):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        return _clean_float(obj)
    if isinstance(obj, (datetime,)):
        return obj.isoformat()
    if isinstance(obj, date):
        return obj.isoformat()
    return obj


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, no NaN."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text durably via a temp file in the same directory, then rename.

    The file gets mode ``0o666 & ~umask``, as a plain ``open`` would give
    it.  It is fsynced before the rename and the directory after it, so a
    crash leaves either the old file or the whole new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_json_atomic(path: str | Path, obj: Any) -> None:
    write_text_atomic(path, dumps_canonical(obj) + "\n")


@dataclass(frozen=True)
class TrackDetection:
    """Detector output attached to one forecast track."""

    horizon: int
    labels: tuple[RegimeLabel, ...]
    changepoint_indices: tuple[int, ...]


@dataclass(frozen=True)
class RunResult:
    series: TimeSeries
    report: PredictabilityReport
    detections: tuple[TrackDetection, ...]
    config: RunConfig
    n_interpolated: int  # rows that clean filled in


def detect_tracks(report: PredictabilityReport,
                  detector: DetectorConfig) -> tuple[TrackDetection, ...]:
    out = []
    for track in report.tracks:
        labels = tuple(classify(track.windows, detector))
        cps = tuple(changepoints(list(labels)))
        out.append(TrackDetection(track.horizon, labels, cps))
    return tuple(out)


def run_from_config(config: RunConfig) -> RunResult:
    """Ingest, clean, fit, forecast, evaluate, and detect from one config."""
    raw = load_csv(config.input_path, date_col=config.date_col,
                   value_col=config.value_col, date_format=config.date_format)
    series = clean(raw, policy=config.gap_policy)
    report = run_protocol(series, config.protocol(),
                          rank_tolerance=config.rank_tolerance,
                          standardize=config.standardize)
    detections = detect_tracks(report, config.detector())
    return RunResult(series=series, report=report, detections=detections,
                     config=config,
                     n_interpolated=len(series) - (len(raw) - raw.n_missing))


def _window_payload(window) -> dict[str, Any]:
    return {
        "label": window.label,
        "start_date": window.start.isoformat(),
        "end_date": window.end.isoformat(),
        "start_index": window.start_index,
        "end_index": window.end_index,
        "n_points": window.n_points,
        "rel_mse": _clean_float(window.rel_mse),
        "baseline_rel_mse": _clean_float(window.baseline_rel_mse),
        "degenerate": window.degenerate,
    }


def _detection_payload(detection: TrackDetection, windows) -> dict[str, Any]:
    labels = [{
        "window": lab.window_label,
        "regime": lab.regime.value,
        "score": _clean_float(lab.score),
    } for lab in detection.labels]
    cps = [{
        "window_index": i,
        "window": windows[i].label,
        "date": windows[i].start.isoformat(),
        "to_regime": detection.labels[i].regime.value,
    } for i in detection.changepoint_indices]
    return {"labels": labels, "changepoints": cps}


def build_payload(result: RunResult) -> dict[str, Any]:
    """Assemble the deterministic report payload (no timestamps)."""
    series = result.series
    report = result.report
    tracks = []
    for track, detection in zip(report.tracks, result.detections):
        tracks.append({
            "horizon": track.horizon,
            "n_forecasts": int(track.frame.times.size),
            "rel_mse": _clean_float(track.rel_mse),
            "baseline_rel_mse": _clean_float(track.baseline_rel_mse),
            "model": track.model.to_json_dict(),
            "windows": [_window_payload(w) for w in track.windows],
            "detection": _detection_payload(detection, track.windows),
        })
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "error_formula": ("sum((predicted-actual)^2) / "
                          "sum((actual-mean(actual))^2)"),
        "baseline": "carry-forward forecast at matched horizon",
        "config": result.config.to_payload(),
        "series": {
            "name": series.name,
            "n": int(series.values.size),
            "first_date": series.dates[0].isoformat(),
            "last_date": series.dates[-1].isoformat(),
            "n_interpolated": result.n_interpolated,
        },
        "detector": {"theta": result.config.theta,
                     "min_run": result.config.min_run},
        "tracks": tracks,
    }


def build_report_doc(payload: dict[str, Any]) -> dict[str, Any]:
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "generator": f"maxentcast {_pkg_version}",
    }
    return {"meta": meta, "payload": payload}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_CHUNK_ROWS = 1024


def format_csv_rows(header: str, first: Sequence[str], *numbers) -> str:
    """CSV text: the header line, then one line per row of the columns.

    ``first`` holds the first field of each row as text; each array in
    ``numbers`` holds floats, written with ``%.17g`` so they read back
    exactly.  Rows are formatted a chunk at a time, one ``%`` per chunk,
    and only a chunk of the numbers is held as Python floats at once.
    """
    width = 1 + len(numbers)
    row = "%s" + ",%.17g" * len(numbers) + "\n"
    parts = [header, "\n"]
    for start in range(0, len(first), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        labels = first[start:stop]
        fields = [None] * (len(labels) * width)
        fields[0::width] = labels
        for k, column in enumerate(numbers, 1):
            fields[k::width] = column[start:stop].tolist()
        parts.append(row * len(labels) % tuple(fields))
    return "".join(parts)


def forecast_csv_text(frame, date_text: Sequence[str]) -> str:
    """The forecast CSV of one track; ``date_text[i]`` is series date i in ISO form."""
    return format_csv_rows("date,actual,predicted",
                           [date_text[i] for i in frame.target_times.tolist()],
                           frame.actual, frame.predicted)


def summary_csv_text(report: PredictabilityReport) -> str:
    lines = ["period,T,rel_mse,baseline"]
    for track in report.tracks:
        for w in track.windows:
            rel = "" if not math.isfinite(w.rel_mse) else _fmt(w.rel_mse)
            base = ("" if not math.isfinite(w.baseline_rel_mse)
                    else _fmt(w.baseline_rel_mse))
            lines.append(f"{w.label},{track.horizon},{rel},{base}")
    return "\n".join(lines) + "\n"


def write_run_artifacts(result: RunResult) -> dict[str, Path]:
    """Write report.json, per-horizon forecast CSVs, and the summary CSV."""
    out_dir = Path(result.config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = build_payload(result)
    paths: dict[str, Path] = {}

    report_path = out_dir / "report.json"
    write_json_atomic(report_path, build_report_doc(payload))
    paths["report"] = report_path

    date_text = [d.isoformat() for d in result.series.dates]
    for track in result.report.tracks:
        p = out_dir / f"forecast_T{track.horizon}.csv"
        write_text_atomic(p, forecast_csv_text(track.frame, date_text))
        paths[f"forecast_T{track.horizon}"] = p

    summary_path = out_dir / "summary.csv"
    write_text_atomic(summary_path, summary_csv_text(result.report))
    paths["summary"] = summary_path
    return paths


def load_report(path: str | Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise SchemaMismatchError("report file has no payload section")
    version = payload.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"report schema version {version!r}, expected "
            f"{REPORT_SCHEMA_VERSION}")
    return payload


def load_truth(path: str | Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != TRUTH_SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"truth schema version {version!r}, expected "
            f"{TRUTH_SCHEMA_VERSION}")
    return doc


def _window_of_index(windows: Sequence[Mapping[str, Any]],
                     series_index: int) -> int | None:
    """First window whose target-index range reaches series_index."""
    for k, w in enumerate(windows):
        if w["end_index"] >= series_index:
            return k
    return None


def verify_detection(payload: Mapping[str, Any],
                     truth: Mapping[str, Any]) -> dict[str, Any]:
    """Compare a report's detections against generator ground truth.

    For a truth with a changepoint: a hit is a PREDICTABLE window at or
    after the window containing the changepoint; localization error is
    (first flagged window - truth window), in windows.  Windows flagged
    strictly before the truth window count as false flags.  For a truth
    without a changepoint every flagged window is a false flag and hit
    is null.
    """
    truth_index = truth.get("changepoint_index")
    tracks_out = []
    any_hit: bool | None = None if truth_index is None else False
    for track in payload["tracks"]:
        windows = track["windows"]
        flagged = [k for k, lab in enumerate(track["detection"]["labels"])
                   if lab["regime"] == Regime.PREDICTABLE.value]
        entry: dict[str, Any] = {"horizon": track["horizon"]}
        if truth_index is None:
            entry["hit"] = None
            entry["localization_error"] = None
            entry["false_flags"] = len(flagged)
        else:
            truth_window = _window_of_index(windows, int(truth_index))
            entry["truth_window"] = truth_window
            if truth_window is None:
                entry["hit"] = False
                entry["localization_error"] = None
                entry["false_flags"] = len(flagged)
            else:
                hits = [k for k in flagged if k >= truth_window]
                entry["hit"] = bool(hits)
                entry["false_flags"] = len(flagged) - len(hits)
                if flagged:
                    entry["localization_error"] = min(flagged) - truth_window
                else:
                    entry["localization_error"] = None
                if entry["hit"]:
                    any_hit = True
        tracks_out.append(entry)
    return {
        "hit": any_hit,
        "false_flags": sum(t["false_flags"] for t in tracks_out),
        "tracks": tracks_out,
    }
