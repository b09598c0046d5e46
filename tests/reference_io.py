"""Reference implementations of the text I/O paths, kept as test oracles.

These are the straightforward versions of ``load_csv``, ``clean``,
``forecast_csv_text`` and ``dumps_canonical`` (``csv.DictReader`` and
``strptime`` per row, a dict-and-set business-day grid, one ``format`` call
per number, a sanitizing copy fed to the standard library's JSON encoder).
The package's fast paths must return the same results, raise the same
exceptions with the same messages, and write the same bytes.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Mapping
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from maxentcast import GAP_POLICIES, TimeSeries
from maxentcast.errors import EmptySeriesError, GapError, ParseError


def load_csv(path, date_col: str = "date", value_col: str = "value",
             date_format: str = "%Y-%m-%d") -> TimeSeries:
    path = Path(path)
    rows: list[tuple[date, float, int]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptySeriesError(f"{path}: empty file")
        for col in (date_col, value_col):
            if col not in reader.fieldnames:
                raise ParseError(1, f"missing column {col!r} (header: {reader.fieldnames})")
        for record in reader:
            line_no = reader.line_num
            raw_date = (record.get(date_col) or "").strip()
            raw_value = (record.get(value_col) or "").strip()
            try:
                when = datetime.strptime(raw_date, date_format).date()
            except ValueError as exc:
                raise ParseError(line_no, f"bad date {raw_date!r}: {exc}") from exc
            rows.append((when, _parse_value(raw_value, line_no), line_no))
    if not rows:
        raise EmptySeriesError(f"{path}: no usable rows")
    rows.sort(key=lambda r: r[0])
    for (d1, _, _), (d2, _, line_no) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ParseError(line_no, f"duplicate date {d2}")
    return TimeSeries(
        name=path.stem,
        days=np.array([r[0].toordinal() for r in rows], dtype=np.int64),
        values=np.array([r[1] for r in rows]),
    )


def _parse_value(raw: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise ParseError(line_no, f"bad value {raw!r}")


def business_days(first: date, last: date) -> list[date]:
    out = []
    d = first
    one = timedelta(days=1)
    while d <= last:
        if d.weekday() < 5:
            out.append(d)
        d += one
    return out


def _dates(days) -> list[date]:
    return [date.fromordinal(d) for d in days.tolist()]


def _days(dates) -> np.ndarray:
    return np.array([d.toordinal() for d in dates], dtype=np.int64)


def clean(series: TimeSeries, policy: str = "ffill") -> TimeSeries:
    if policy not in GAP_POLICIES:
        raise ValueError(f"unknown gap policy {policy!r}; expected one of {GAP_POLICIES}")
    series_dates = _dates(series.days)
    observed = dict(zip(series_dates, series.values.tolist()))
    grid = sorted(set(series_dates) | set(business_days(series_dates[0], series_dates[-1])))

    if policy == "error":
        for d in grid:
            v = observed.get(d)
            if v is None:
                raise GapError(d, "missing business day")
            if math.isnan(v):
                raise GapError(d, "missing value")
        return series

    if policy == "ffill":
        dates_out: list[date] = []
        values_out: list[float] = []
        last_value: float | None = None
        for d in grid:
            v = observed.get(d)
            if v is None or math.isnan(v):
                if last_value is None:
                    raise GapError(d, "gap before any observed value")
                v = last_value
            last_value = v
            dates_out.append(d)
            values_out.append(v)
        return TimeSeries(series.name, _days(dates_out), np.array(values_out))

    kept = [(d, v) for d, v in zip(series_dates, series.values.tolist())
            if math.isfinite(v)]
    if len(kept) < 2:
        raise EmptySeriesError("fewer than two observations left after dropping gaps")
    return TimeSeries(series.name, _days(d for d, _ in kept),
                      np.array([v for _, v in kept]))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def forecast_csv_text(frame) -> str:
    lines = ["date,actual,predicted"]
    lo = frame.first + frame.horizon
    days = _dates(frame.series.days[lo:lo + len(frame)])
    for day, actual, predicted in zip(days, frame.actual, frame.predicted):
        lines.append(f"{day.isoformat()},{_fmt(actual)},{_fmt(predicted)}")
    return "\n".join(lines) + "\n"


def series_csv_text(series) -> str:
    """The ``synth`` writer's CSV: ``date,value`` per row."""
    lines = ["date,value"]
    for d, v in zip(_dates(series.days), series.values):
        lines.append(f"{d.isoformat()},{format(float(v), '.17g')}")
    return "\n".join(lines) + "\n"


# The leaf types JSON writes as they are.
_JSON_LEAVES = (str, int, bool, type(None))


def _sanitize(obj):
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
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, date):  # datetime too
        return obj.isoformat()
    return obj


def dumps_canonical(obj) -> str:
    """Sorted keys, indent 2, no NaN: the standard library's pure-Python
    encoder on a sanitized copy."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False)
