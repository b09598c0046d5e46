"""CSV ingestion and gap repair for daily rate series.

Observations are treated as equally spaced in *index* time once cleaned:
one step per row, calendar gaps carry no weight.  Everything downstream
(embedding, fitting, scoring) works purely on row indices; dates are kept
for labeling and calendar bucketing only.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path

import numpy as np

from .errors import EmptySeriesError, GapError, ParseError

GAP_POLICIES = ("ffill", "drop", "error")

# The defaults of load_csv and clean.
DEFAULT_DATE_COL = "date"
DEFAULT_VALUE_COL = "value"
DEFAULT_DATE_FORMAT = "%Y-%m-%d"
DEFAULT_GAP_POLICY = "ffill"


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered daily observations.

    ``values`` may contain NaN (a recorded-but-missing observation) until
    :func:`clean` has run; it never contains infinities.  Dates strictly
    increase and there are at least two rows.
    """

    name: str
    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(dates) != values.size:
            raise ValueError("dates and values must be 1-d and equally long")
        if values.size < 2:
            raise EmptySeriesError("a series needs at least two observations")
        for a, b in zip(dates, dates[1:]):
            if not a < b:
                raise ValueError(f"dates must strictly increase ({a} not before {b})")
        if np.isinf(values).any():
            raise ValueError("values must be finite (NaN allowed before cleaning)")

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (self.name == other.name and self.dates == other.dates
                and np.array_equal(self.values, other.values, equal_nan=True))

    @property
    def n_missing(self) -> int:
        return int(np.isnan(self.values).sum())


# The fields date.fromisoformat may parse in place of strptime("%Y-%m-%d").
# On others the two differ: fromisoformat takes "20000103" and refuses
# "2000-1-3".
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII).fullmatch


def _ordinals(dates) -> np.ndarray:
    return np.fromiter(map(date.toordinal, dates), dtype=np.int64, count=len(dates))


def load_csv(path, date_col: str = DEFAULT_DATE_COL,
             value_col: str = DEFAULT_VALUE_COL,
             date_format: str = DEFAULT_DATE_FORMAT, on_bad_value: str = "error",
             name: str | None = None) -> TimeSeries:
    """Read (date, value) rows into a TimeSeries sorted by date.

    ``on_bad_value`` controls rows whose value does not parse to a finite
    float: "error" raises ParseError naming the line, "nan" records the
    observation as missing so that :func:`clean` decides its fate.  Rows
    whose date does not parse always raise, since they cannot be placed.
    Duplicate dates raise ParseError.  Rows are read as ``csv.DictReader``
    reads them: blank lines are skipped, missing trailing fields read as
    empty, and a repeated header name refers to its last column.
    """
    if on_bad_value not in ("error", "nan"):
        raise ValueError(f"on_bad_value must be 'error' or 'nan', got {on_bad_value!r}")
    path = Path(path)
    # date.fromisoformat is about 30 times faster than strptime; any field it
    # refuses goes to strptime, which then gives the error message.
    iso = date_format == "%Y-%m-%d"
    dates: list[date] = []
    values: list[float] = []
    line_nos: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptySeriesError(f"{path}: empty file")
        for col in (date_col, value_col):
            if col not in header:
                raise ParseError(1, f"missing column {col!r} (header: {header})")
        date_i = len(header) - 1 - header[::-1].index(date_col)
        value_i = len(header) - 1 - header[::-1].index(value_col)
        width = max(date_i, value_i) + 1
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if len(row) < width:
                row += [""] * (width - len(row))
            raw_date = row[date_i].strip()
            when = None
            if iso and _ISO_DATE(raw_date):
                try:
                    when = date.fromisoformat(raw_date)
                except ValueError:
                    pass
            if when is None:
                try:
                    when = datetime.strptime(raw_date, date_format).date()
                except ValueError as exc:
                    raise ParseError(line_no, f"bad date {raw_date!r}: {exc}") from exc
            raw_value = row[value_i].strip()
            try:
                value = float(raw_value)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                if on_bad_value == "error":
                    raise ParseError(line_no, f"bad value {raw_value!r}")
                value = math.nan
            dates.append(when)
            values.append(value)
            line_nos.append(line_no)
    values = np.array(values)
    if np.isnan(values).all():
        raise EmptySeriesError(f"{path}: no usable rows")
    ordinals = _ordinals(dates)
    order = np.argsort(ordinals, kind="stable")
    repeated = np.flatnonzero(np.diff(ordinals[order]) == 0)
    if repeated.size:
        k = int(order[repeated[0] + 1])
        raise ParseError(line_nos[k], f"duplicate date {dates[k]}")
    if (np.diff(order) != 1).any():
        dates = [dates[k] for k in order.tolist()]
        values = values[order]
    return TimeSeries(name=name if name is not None else path.stem,
                      dates=tuple(dates), values=values)


def clean(series: TimeSeries, policy: str = DEFAULT_GAP_POLICY) -> TimeSeries:
    """Repair missing observations.

    A gap is a NaN value or a business day absent between the first and
    last dates.  "ffill" carries the previous value forward, "drop"
    removes the missing rows, "error" raises GapError at the first gap.
    Weekend rows already present are kept as-is.  Idempotent per policy:
    cleaning a clean series returns it unchanged.
    """
    if policy not in GAP_POLICIES:
        raise ValueError(f"unknown gap policy {policy!r}; expected one of {GAP_POLICIES}")
    # The grid: every business day from the first date to the last, plus the
    # weekend days the series has.  date(1, 1, 1), ordinal 1, was a Monday.
    ordinals = _ordinals(series.dates)
    days = np.arange(ordinals[0], ordinals[-1] + 1)
    on_grid = (days - 1) % 7 < 5
    on_grid[ordinals - ordinals[0]] = True
    grid = days[on_grid]
    row = np.full(grid.size, -1)  # the series row on each grid day, -1 if absent
    row[np.searchsorted(grid, ordinals)] = np.arange(len(series))
    value = np.where(row >= 0, series.values[row], math.nan)
    gap = np.isnan(value)

    if policy == "error":
        if gap.any():
            k = int(gap.argmax())
            raise GapError(date.fromordinal(int(grid[k])),
                           "missing value" if row[k] >= 0 else "missing business day")
        return series

    if policy == "ffill":
        if gap[0]:
            raise GapError(series.dates[0], "gap before any observed value")
        keep = np.arange(grid.size)
        source = np.maximum.accumulate(np.where(gap, 0, keep))
    else:  # drop
        keep = source = np.flatnonzero(~gap)
        if keep.size < 2:
            raise EmptySeriesError("fewer than two observations left after dropping gaps")
    dates = series.dates
    out = [dates[r] if r >= 0 else date.fromordinal(d)
           for r, d in zip(row[keep].tolist(), grid[keep].tolist())]
    return TimeSeries(series.name, tuple(out), value[source])
