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
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Mapping, Sequence

import numpy as np

from ._version import __version__ as _pkg_version
from .csvtext import csv_rows, date_fields, float_fields, text_fields
from .detect import DetectorConfig, Regime, RegimeLabel, changepoints, classify
from .errors import SchemaMismatchError
from .evaluate import (PredictabilityReport, ProtocolConfig, WindowBuckets,
                       YearBuckets, run_protocol)
from .ingest import (DEFAULT_DATE_COL, DEFAULT_DATE_FORMAT, DEFAULT_GAP_POLICY,
                     DEFAULT_VALUE_COL, GAP_POLICIES, TimeSeries, clean,
                     day_ordinals, load_csv)
from .model import DEFAULT_RANK_TOLERANCE, ForecastFrame, check_rank_tolerance

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
    """The flag text of a bucketing; parse_bucket reads it back."""
    if isinstance(bucketing, WindowBuckets):
        return f"window:{bucketing.width}"
    return _BUCKET_YEAR


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a pipeline run on one input file,
    every setting checked when the config is built."""

    input_path: str
    date_col: str = DEFAULT_DATE_COL
    value_col: str = DEFAULT_VALUE_COL
    date_format: str = DEFAULT_DATE_FORMAT
    gap_policy: str = DEFAULT_GAP_POLICY
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE
    standardize: bool = False
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.gap_policy not in GAP_POLICIES:
            raise ValueError(f"gap_policy must be one of {GAP_POLICIES}")
        check_rank_tolerance(self.rank_tolerance)

    def to_payload(self) -> dict[str, Any]:
        """Every setting in one flat mapping, the protocol's and the
        detector's beside the rest."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("protocol", "detector")}
        protocol, detector = self.protocol, self.detector
        payload.update(dim=protocol.dim, lag=protocol.lag,
                       degree=protocol.degree, fit_window=protocol.fit_window,
                       anticipation=list(protocol.anticipation),
                       bucket=bucket_text(protocol.bucketing),
                       theta=detector.theta, min_run=detector.min_run)
        return payload


def _clean_float(x: Any) -> Any:
    """JSON-safe float: NaN and infinities become null."""
    v = float(x)
    return v if math.isfinite(v) else None


# The leaf types JSON writes as they are.
_JSON_LEAVES = (str, int, bool, type(None))


def _sanitize(obj: Any) -> Any:
    # Exact types are tried before the ABC checks: a report has about 90k
    # leaves, and an isinstance check against an ABC costs several times a
    # type comparison.
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else None
    if kind in _JSON_LEAVES:
        return obj
    if kind is dict or isinstance(obj, Mapping):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if kind is list or kind is tuple or isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        return _clean_float(obj)
    if isinstance(obj, date):  # datetime too
        return obj.isoformat()
    return obj


# Sorted keys, indent 2, no NaN: the one encoder of every JSON artifact.
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)

# write_json_atomic joins and writes this many encoder pieces at a time.
_JSON_BATCH = 8192


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, no NaN."""
    return "".join(_ENCODER.iterencode(_sanitize(obj)))


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle on a temp file in path's directory, renamed over
    path when the block ends without an exception.

    The file gets mode ``0o666 & ~umask``, as a plain ``open`` would give
    it.  It is fsynced before the rename and the directory after it, so a
    crash leaves either the old file or the whole new one.  When the block
    raises, the temp file is removed and path is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
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


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text as UTF-8 through :func:`atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def write_json_atomic(path: str | Path, obj: Any) -> None:
    """Write ``dumps_canonical(obj)`` and a newline through
    :func:`atomic_writer`, streamed from the encoder a batch at a time."""
    pieces = _ENCODER.iterencode(_sanitize(obj))
    with atomic_writer(path) as fh:
        while batch := list(islice(pieces, _JSON_BATCH)):
            fh.write("".join(batch).encode("utf-8"))
        fh.write(b"\n")


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
    report = run_protocol(series, config.protocol,
                          rank_tolerance=config.rank_tolerance,
                          standardize=config.standardize)
    detections = detect_tracks(report, config.detector)
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
        "detector": {"theta": result.config.detector.theta,
                     "min_run": result.config.detector.min_run},
        "tracks": tracks,
    }


def build_report_doc(payload: dict[str, Any]) -> dict[str, Any]:
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "generator": f"maxentcast {_pkg_version}",
    }
    return {"meta": meta, "payload": payload}


# The CSV writers format and write this many rows at a time, so only a
# chunk of a column is held as text at once.
_CHUNK_ROWS = 4096


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    """A series as ``date,value`` CSV, streamed a chunk of rows at a time
    through :func:`atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(b"date,value\n")
        for start in range(0, len(series), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            fh.write(csv_rows([
                date_fields(day_ordinals(series.dates[start:stop])),
                float_fields(series.values[start:stop])]))


def forecast_csv_text(dates: Sequence[date], values: np.ndarray, start: int,
                      tracks: Sequence[tuple[int, np.ndarray]]) -> list[bytes]:
    """The forecast CSV rows, as ASCII bytes, of each track among series
    rows ``start``, ``start + 1``, ... ``start + len(values) - 1``: one
    chunk of the walk.

    ``dates[i]`` and ``values[i]`` are the date and value of series row
    ``start + i``.  A track is ``(lo, predicted)``: its records target the
    rows ``lo``, ``lo + 1``, ... in turn.  Each row's date and actual
    value are formatted once, whichever tracks hold it, and each track then
    formats only its own predicted column; a track with no row in the chunk
    gets ``b""``.
    """
    days = date_fields(day_ordinals(dates))
    actual = float_fields(values)
    stop = start + len(values)
    texts = []
    for lo, predicted in tracks:
        i, j = max(start, lo), min(stop, lo + predicted.size)
        texts.append(csv_rows([days[i - start:j - start],
                               actual[i - start:j - start],
                               float_fields(predicted[i - lo:j - lo])])
                     if i < j else b"")
    return texts


def _target_span(frame: ForecastFrame, values: np.ndarray) -> tuple[int, int]:
    """The series rows [lo, hi) a frame's records target, checked to be
    consecutive, with actual values the series values there bit for bit."""
    t = frame.target_times
    lo = int(t[0]) if t.size else 0
    hi = lo + t.size
    if t.size and not (t[1:] - t[:-1] == 1).all():
        raise ValueError(f"T={frame.horizon}: forecast CSVs need consecutive "
                         "target times")
    if not np.array_equal(frame.actual.view(np.uint64),
                          values[lo:hi].view(np.uint64)):
        raise ValueError(f"T={frame.horizon}: actual values are not the "
                         "series values at the targets")
    return lo, hi


def write_forecast_csvs(out_dir: str | Path, frames: Sequence[ForecastFrame],
                        values: np.ndarray) -> list[Path]:
    """Write ``forecast_T<h>.csv`` for every frame in one chunked walk over
    the series rows, and return their paths in frame order.

    The frames come from one series, whose values are ``values``, and
    target consecutive rows, as ``run_protocol``'s do.  Each file is
    streamed to its own temp file, and all are renamed when the walk is
    done; if the walk fails, every temp file is removed and the old
    forecast files stay as they were.
    """
    values = np.asarray(values, dtype=float)
    dates = frames[0].series_dates if frames else ()
    if any(frame.series_dates != dates for frame in frames):
        raise ValueError("forecast frames must share one series")
    spans = [_target_span(frame, values) for frame in frames]
    tracks = [(lo, frame.predicted) for (lo, _), frame in zip(spans, frames)]
    live = [(lo, hi) for lo, hi in spans if hi > lo]
    first = min((lo for lo, _ in live), default=0)
    last = max((hi for _, hi in live), default=0)
    paths = [Path(out_dir) / f"forecast_T{frame.horizon}.csv"
             for frame in frames]
    with ExitStack() as stack:
        handles = [stack.enter_context(atomic_writer(p)) for p in paths]
        for fh in handles:
            fh.write(b"date,actual,predicted\n")
        for start in range(first, last, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, last)
            texts = forecast_csv_text(dates[start:stop], values[start:stop],
                                      start, tracks)
            for fh, text in zip(handles, texts):
                fh.write(text)
    return paths


def summary_csv_text(report: PredictabilityReport) -> str:
    """``period,T,rel_mse,baseline`` per window, a score left empty where
    it is not finite."""
    windows = [(w, track.horizon) for track in report.tracks
               for w in track.windows]
    scores = []
    for name in ("rel_mse", "baseline_rel_mse"):
        column = np.array([getattr(w, name) for w, _ in windows], dtype=float)
        fields = float_fields(column)
        fields[~np.isfinite(column)] = 0  # all NUL: an empty field
        scores.append(fields)
    rows = csv_rows([text_fields(w.label for w, _ in windows),
                     text_fields(str(h) for _, h in windows), *scores])
    return "period,T,rel_mse,baseline\n" + rows.decode("ascii")


def write_run_artifacts(result: RunResult) -> dict[str, Path]:
    """Write report.json, per-horizon forecast CSVs, and the summary CSV."""
    out_dir = Path(result.config.out_dir)
    paths: dict[str, Path] = {}

    # The payload is let go before the forecast CSVs are written, so their
    # chunk buffers reuse its memory instead of adding to the peak.
    report_path = out_dir / "report.json"
    write_json_atomic(report_path, build_report_doc(build_payload(result)))
    paths["report"] = report_path

    tracks = result.report.tracks
    forecasts = write_forecast_csvs(out_dir, [t.frame for t in tracks],
                                    result.series.values)
    for track, p in zip(tracks, forecasts):
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
    """First window whose target-index range reaches series_index; None
    when the index lies before the first window or after the last."""
    if not windows or series_index < windows[0]["start_index"]:
        return None
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
    strictly before the truth window count as false flags.  A changepoint
    outside the windows' target range has no truth window, no hit, and
    every flag is false.  For a truth without a changepoint every flagged
    window is a false flag and hit is null.
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
