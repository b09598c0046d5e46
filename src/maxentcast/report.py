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
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from numbers import Integral
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Mapping, Sequence

import numpy as np

from ._version import __version__ as _pkg_version
from .csvtext import csv_rows, date_fields, float_fields, text_fields
from .detect import (DetectorConfig, Regime, RegimeLabel, changepoints,
                     classify, detection_outcome)
from .errors import SchemaMismatchError
from .evaluate import (ErrorWindow, PredictabilityReport, ProtocolConfig,
                       WindowBuckets, YearBuckets, run_protocol)
from .ingest import (DEFAULT_DATE_COL, DEFAULT_DATE_FORMAT, DEFAULT_GAP_POLICY,
                     DEFAULT_VALUE_COL, GAP_POLICIES, TimeSeries, clean,
                     load_csv)
from .model import (DEFAULT_RANK_TOLERANCE, FittedModel, ForecastFrame,
                    check_rank_tolerance)

REPORT_SCHEMA_VERSION = 1
TRUTH_SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 1

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
    every setting checked and stored as a JSON value when the config is
    built; a path-like path is stored as its ``os.fspath``."""

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
        if not isinstance(self.standardize, (bool, np.bool_)):
            raise ValueError(
                f"standardize must be a bool, got {self.standardize!r}")
        object.__setattr__(self, "standardize", bool(self.standardize))
        object.__setattr__(self, "input_path", os.fspath(self.input_path))
        object.__setattr__(self, "out_dir", os.fspath(self.out_dir))
        object.__setattr__(self, "rank_tolerance", float(self.rank_tolerance))

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


# The encoder formats the items of a list this many at a time.
_JSON_BATCH_ROWS = 512


def _leaf_text(obj: Any) -> str:
    """The JSON text of a str, int, float, bool or None, a non-finite
    float as null, and a ``TypeError`` for any other type, subclasses
    included: the one text rule of every scalar the encoder writes."""
    kind = type(obj)
    if kind is float:
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    raise TypeError(f"Object of type {obj.__class__.__name__} "
                    "is not JSON serializable")


def _json_pieces(obj: Any, level: int = 0) -> Iterator[str]:
    """The text of obj as ``json.dumps(obj, sort_keys=True, indent=2)``
    writes it, in pieces, with non-finite floats as null."""
    if type(obj) is dict:
        yield from _dict_pieces(obj, level)
    elif type(obj) is list:
        yield from _list_pieces(obj, level)
    else:
        yield _leaf_text(obj)


def _dict_pieces(mapping: dict, level: int) -> Iterator[str]:
    for key in mapping:
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    if not mapping:
        yield "{}"
        return
    indent = "\n" + "  " * (level + 1)
    head = "{" + indent
    for key, value in sorted(mapping.items(), key=itemgetter(0)):
        yield head + encode_basestring_ascii(key) + ": "
        yield from _json_pieces(value, level + 1)
        head = "," + indent
    yield "\n" + "  " * level + "}"


def _list_pieces(seq: list, level: int) -> Iterator[str]:
    """A list's text: a batch of flat records that share their keys as one
    piece, any other item by itself."""
    if not seq:
        yield "[]"
        return
    indent = "\n" + "  " * (level + 1)
    sep = "," + indent
    yield "[" + indent
    for start in range(0, len(seq), _JSON_BATCH_ROWS):
        batch = seq[start:start + _JSON_BATCH_ROWS]
        if start:
            yield sep
        texts = _record_texts(batch, level + 1)
        if texts is not None:
            yield sep.join(texts)
            continue
        for i, item in enumerate(batch):
            if i:
                yield sep
            yield from _json_pieces(item, level + 1)
    yield "\n" + "  " * level + "]"


def _record_texts(rows: Sequence[Any], level: int) -> Iterator[str] | None:
    """The JSON text of each row of a batch of dicts that share one set of
    str keys and hold only scalars, as one ``%`` template filled from the
    columns' ``_leaf_text``; None for any other batch."""
    if set(map(type, rows)) != {dict}:
        return None
    keys = rows[0].keys()
    if (not keys or set(map(type, keys)) != {str}
            or not all(map(keys.__eq__, map(dict.keys, rows)))):
        return None
    names = sorted(keys)
    columns = [list(map(itemgetter(name), rows)) for name in names]
    if not {dict, list}.isdisjoint(map(type, chain.from_iterable(columns))):
        return None
    indent = "\n" + "  " * (level + 1)
    template = ("{" + indent
                + ("," + indent).join(
                    encode_basestring_ascii(name).replace("%", "%%") + ": %s"
                    for name in names)
                + "\n" + "  " * level + "}")
    return map(template.__mod__,
               zip(*[map(_leaf_text, column) for column in columns]))


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, indent 2, ASCII only,
    non-finite floats as null.  Types outside JSON's are a TypeError."""
    return "".join(_json_pieces(obj))


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
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
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
    :func:`atomic_writer`, a piece of the encoder's text at a time."""
    with atomic_writer(path) as fh:
        for piece in _json_pieces(obj):
            fh.write(piece.encode("ascii"))
        fh.write(b"\n")


@dataclass(frozen=True)
class RunResult:
    series: TimeSeries
    report: PredictabilityReport
    labels: tuple[tuple[RegimeLabel, ...], ...]  # one per window, per track
    config: RunConfig
    n_interpolated: int  # rows that clean filled in


def run_from_config(config: RunConfig) -> RunResult:
    """Ingest, clean, fit, forecast, evaluate, and detect from one config."""
    raw = load_csv(config.input_path, date_col=config.date_col,
                   value_col=config.value_col, date_format=config.date_format)
    series = clean(raw, policy=config.gap_policy)
    report = run_protocol(series, config.protocol,
                          rank_tolerance=config.rank_tolerance,
                          standardize=config.standardize)
    labels = tuple(tuple(classify(track.windows, config.detector))
                   for track in report.tracks)
    return RunResult(series=series, report=report, labels=labels,
                     config=config,
                     n_interpolated=len(series) - len(raw))


def _model_payload(model: FittedModel) -> dict[str, Any]:
    config = model.config
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "config": {"dim": config.dim, "degree": config.degree,
                   "horizon": config.horizon, "n_fit": config.n_fit,
                   "lag": config.lag},
        "feature_labels": list(model.feature_labels),
        "coefficients": model.coefficients.tolist(),
        "standardized": model.standardized,
        "diagnostics": {
            "rank": model.diagnostics.rank,
            "residual_norm": float(model.diagnostics.residual_norm),
            "singular_values": model.diagnostics.singular_values.tolist(),
        },
    }


def _iso_dates(ordinals) -> list[str]:
    """The ISO dates of day ordinals, in the CSV writers' calendar."""
    return [text.decode("ascii")
            for text in date_fields(ordinals).view("S12")[:, 0].tolist()]


def _window_payload(window: ErrorWindow, start_date: str,
                    end_date: str) -> dict[str, Any]:
    return {
        "label": window.label,
        "start_date": start_date,
        "end_date": end_date,
        "start_index": window.start_index,
        "end_index": window.end_index,
        "n_points": window.n_points,
        "rel_mse": window.rel_mse,
        "baseline_rel_mse": window.baseline_rel_mse,
        "degenerate": window.degenerate,
    }


def _detection_payload(labels: Sequence[RegimeLabel],
                       windows: Sequence[ErrorWindow],
                       start_dates: Sequence[str]) -> dict[str, Any]:
    cps = [{
        "window_index": i,
        "window": windows[i].label,
        "date": start_dates[i],
        "to_regime": labels[i].regime.value,
    } for i in changepoints(labels)]
    return {"labels": [{
        "window": w.label,
        "regime": lab.regime.value,
        "score": lab.score,
    } for w, lab in zip(windows, labels)], "changepoints": cps}


def build_payload(result: RunResult) -> dict[str, Any]:
    """Assemble the deterministic report payload (no timestamps)."""
    series = result.series
    days = series.days
    report = result.report
    tracks = []
    for track, labels in zip(report.tracks, result.labels):
        windows = track.windows
        dates = _iso_dates(days[[w.start_index for w in windows]
                                + [w.end_index for w in windows]])
        starts, ends = dates[:len(windows)], dates[len(windows):]
        tracks.append({
            "horizon": track.horizon,
            "n_forecasts": len(track.frame),
            "rel_mse": track.rel_mse,
            "baseline_rel_mse": track.baseline_rel_mse,
            "model": _model_payload(track.model),
            "windows": list(map(_window_payload, windows, starts, ends)),
            "detection": _detection_payload(labels, windows, starts),
        })
    first_date, last_date = _iso_dates(days[[0, -1]])
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "error_formula": ("sum((predicted-actual)^2) / "
                          "sum((actual-mean(actual))^2)"),
        "baseline": "carry-forward forecast at matched horizon",
        "config": result.config.to_payload(),
        "series": {
            "name": series.name,
            "n": int(series.values.size),
            "first_date": first_date,
            "last_date": last_date,
            "n_interpolated": result.n_interpolated,
        },
        "detector": {"theta": result.config.detector.theta,
                     "min_run": result.config.detector.min_run},
        "tracks": tracks,
    }


# The variables that set the BLAS thread count.  Payload bytes repeat only
# at one thread count, so meta records what the process saw of each.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_report_doc(payload: dict[str, Any]) -> dict[str, Any]:
    meta = {
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
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
                date_fields(series.days[start:stop]),
                float_fields(series.values[start:stop])]))


def forecast_csv_text(days: np.ndarray, values: np.ndarray, start: int,
                      tracks: Sequence[tuple[int, np.ndarray]]) -> list[bytes]:
    """The forecast CSV rows, as ASCII bytes, of each track among series
    rows ``start``, ``start + 1``, ... ``start + len(values) - 1``: one
    chunk of the walk.

    ``days[i]`` and ``values[i]`` are the day number (``date.toordinal``)
    and the value of series row ``start + i``.  A track is ``(lo, predicted)``: its records target the
    rows ``lo``, ``lo + 1``, ... in turn.  Each row's date and actual
    value are formatted once, whichever tracks hold it, and each track then
    formats only its own predicted column; a track with no row in the chunk
    gets ``b""``.
    """
    dates = date_fields(days)
    actual = float_fields(values)
    stop = start + len(values)
    texts = []
    for lo, predicted in tracks:
        i, j = max(start, lo), min(stop, lo + predicted.size)
        texts.append(csv_rows([dates[i - start:j - start],
                               actual[i - start:j - start],
                               float_fields(predicted[i - lo:j - lo])])
                     if i < j else b"")
    return texts


def write_forecast_csvs(out_dir: str | Path,
                        frames: Sequence[ForecastFrame]) -> list[Path]:
    """Write ``forecast_T<h>.csv`` for every frame in one chunked walk over
    the series rows, and return their paths in frame order.

    The frames must hold one series object, as ``run_protocol``'s do.
    Each file is streamed to its own temp file, and all are renamed when
    the walk is done; if the walk fails, every temp file is removed and the
    old forecast files stay as they were.  The renames run one file after
    another, last frame first, so a rename that fails leaves the files
    renamed before it replaced and the rest as they were.
    """
    if not frames:
        return []
    series = frames[0].series
    if any(frame.series is not series for frame in frames):
        raise ValueError("forecast frames must share one series")
    tracks = [(frame.first + frame.horizon, frame.predicted)
              for frame in frames]
    live = [(lo, lo + predicted.size) for lo, predicted in tracks
            if predicted.size]
    first = min((lo for lo, _ in live), default=0)
    last = max((hi for _, hi in live), default=0)
    names = run_artifact_paths(out_dir, [frame.horizon for frame in frames])
    paths = [names[f"forecast_T{frame.horizon}"] for frame in frames]
    with ExitStack() as stack:
        handles = [stack.enter_context(atomic_writer(p)) for p in paths]
        for fh in handles:
            fh.write(b"date,actual,predicted\n")
        for start in range(first, last, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, last)
            texts = forecast_csv_text(series.days[start:stop],
                                      series.values[start:stop], start, tracks)
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


def run_artifact_paths(out_dir: str | Path,
                       horizons: Sequence[int]) -> dict[str, Path]:
    """The path in out_dir of each file a run with these horizons writes,
    under the key write_run_artifacts returns it by."""
    out_dir = Path(out_dir)
    return {"report": out_dir / "report.json",
            **{f"forecast_T{h}": out_dir / f"forecast_T{h}.csv"
               for h in horizons},
            "summary": out_dir / "summary.csv"}


def write_run_artifacts(result: RunResult) -> dict[str, Path]:
    """Write report.json, per-horizon forecast CSVs, and the summary CSV."""
    tracks = result.report.tracks
    paths = run_artifact_paths(result.config.out_dir,
                               [t.horizon for t in tracks])
    # The payload is let go before the forecast CSVs are written, so their
    # chunk buffers reuse its memory instead of adding to the peak.
    write_json_atomic(paths["report"],
                      build_report_doc(build_payload(result)))
    write_forecast_csvs(result.config.out_dir, [t.frame for t in tracks])
    write_text_atomic(paths["summary"], summary_csv_text(result.report))
    return paths


def _read(doc: Any, key: str, kind: type | tuple[type, ...],
          where: str) -> Any:
    """doc[key] of a loaded report or truth, which must be a kind and not a
    bool; anything else is a SchemaMismatchError."""
    if not isinstance(doc, Mapping) or key not in doc:
        raise SchemaMismatchError(f"{where} is not a JSON object with {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaMismatchError(f"{where}.{key} has the wrong type: {value!r}")
    return value


def _versioned(doc: Any, version: int, where: str) -> dict[str, Any]:
    found = _read(doc, "schema_version", Integral, where)
    if found != version:
        raise SchemaMismatchError(
            f"{where} schema version {found!r}, expected {version}")
    return doc


def load_report(path: str | Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return _versioned(_read(doc, "payload", dict, "report"),
                      REPORT_SCHEMA_VERSION, "report payload")


def load_truth(path: str | Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return _versioned(json.load(fh), TRUTH_SCHEMA_VERSION, "truth")


def verify_detection(payload: Mapping[str, Any],
                     truth: Mapping[str, Any]) -> dict[str, Any]:
    """The :func:`~maxentcast.detect.detection_outcome` of each track of a
    report against generator ground truth; the run hits when any track
    does.  Without a changepoint the tracks get no ``truth_window`` and the
    run a null hit.  A key read here that is missing or holds a value of
    the wrong JSON type, or a track without one label per window, is a
    SchemaMismatchError."""
    changepoint = _read(truth, "changepoint_index", (Integral, type(None)),
                        "truth")
    tracks = []
    for k, track in enumerate(_read(payload, "tracks", list, "payload")):
        at = f"tracks[{k}]"
        labels = _read(_read(track, "detection", Mapping, at), "labels", list,
                       f"{at}.detection")
        spans = [(_read(w, "start_index", Integral, f"{at}.windows[{i}]"),
                  _read(w, "end_index", Integral, f"{at}.windows[{i}]"))
                 for i, w in enumerate(_read(track, "windows", list, at))]
        if len(labels) != len(spans):
            raise SchemaMismatchError(
                f"{at} has {len(labels)} labels for {len(spans)} windows")
        flagged = [i for i, lab in enumerate(labels)
                   if _read(lab, "regime", str, f"{at}.detection.labels[{i}]")
                   == Regime.PREDICTABLE.value]
        outcome = detection_outcome(spans, flagged, changepoint)
        if changepoint is None:
            del outcome["truth_window"]
        tracks.append({"horizon": _read(track, "horizon", Integral, at),
                       **outcome})
    return {
        "hit": None if changepoint is None else any(t["hit"] for t in tracks),
        "false_flags": sum(t["false_flags"] for t in tracks),
        "tracks": tracks,
    }
