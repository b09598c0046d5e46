"""CSV ingestion and gap repair for daily rate series.

Every value read is finite: a value that is not fails the load.  A gap is
a business day with no row, absent from the file between its first and
last dates, and :func:`clean` is the one place that repairs gaps.

Observations are treated as equally spaced in *index* time once cleaned:
one step per row, calendar gaps carry no weight.  Everything downstream
(embedding, fitting, scoring) works purely on row indices; dates are kept,
as ``date.toordinal`` day numbers, for labeling and calendar bucketing
only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .csvtext import iso_days
from .errors import EmptySeriesError, GapError, ParseError

GAP_POLICIES = ("ffill", "drop", "error")

# The defaults of load_csv and clean.
DEFAULT_DATE_COL = "date"
DEFAULT_VALUE_COL = "value"
DEFAULT_DATE_FORMAT = "%Y-%m-%d"
DEFAULT_GAP_POLICY = "ffill"


# date.toordinal of date.max, 9999-12-31; day 1 is 0001-01-01.
MAX_DAY = 3_652_059


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered daily observations.

    ``days`` holds each row's date as its ``date.toordinal`` day number
    (1 is 0001-01-01), int64, each after the one before.  ``values`` are
    finite.  There are at least two rows.  Both arrays are read-only
    copies of the ones given.
    """

    name: str
    days: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        days = np.array(self.days)
        if days.size and days.dtype.kind not in "iu":
            raise TypeError("days must be integer day numbers (date.toordinal)")
        days = days.astype(np.int64, copy=False)
        values = np.array(self.values, dtype=float)
        for arr in (days, values):
            arr.setflags(write=False)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or days.shape != values.shape:
            raise ValueError("days and values must be 1-d and equally long")
        if values.size < 2:
            raise EmptySeriesError("a series needs at least two observations")
        step = np.diff(days)
        if (step <= 0).any():
            k = int(np.argmax(step <= 0))
            raise ValueError(f"days must strictly increase ({days[k]} not "
                             f"before {days[k + 1]})")
        if not (1 <= days[0] and days[-1] <= MAX_DAY):
            raise ValueError(f"days must lie in [1, {MAX_DAY}]")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (self.name == other.name and np.array_equal(self.days, other.days)
                and np.array_equal(self.values, other.values))

    # Every value is finite, so no row is missing.  The benchmark's tracer
    # (perfbench/tracer.py, _filled) still reads this count.
    n_missing = 0


# load_csv parses the rows of a file this many bytes of whole lines, or
# this many rows, at a time.
_PARSE_CHUNK_BYTES = 1 << 20
_PARSE_CHUNK_ROWS = 1 << 15

# Bytes that make csv.reader do more than split lines on "\n" and fields
# on ",": quoting, CR line ends, and NUL.
_READER_BYTES = (b'"', b"\r", b"\0")


class _Fields(NamedTuple):
    """One chunk of rows: their line numbers and their raw date and value
    fields."""

    lines: np.ndarray
    dates: list[str]
    values: list[str]


def load_csv(path, date_col: str = DEFAULT_DATE_COL,
             value_col: str = DEFAULT_VALUE_COL,
             date_format: str = DEFAULT_DATE_FORMAT) -> TimeSeries:
    """Read (date, value) rows into a TimeSeries sorted by date and named
    after the file's stem.

    A row whose date does not parse, or whose value does not parse to a
    finite float, raises ParseError naming the first failing line of the
    file, its date checked before its value.  Duplicate dates raise
    ParseError.  Rows are read as ``csv.DictReader`` reads them: blank
    lines are skipped, missing trailing fields read as empty, and a
    repeated header name refers to its last column.

    The file is read once, less one leading UTF-8 byte-order mark.  An
    ASCII file without quotes, CR or NUL is split on "\n" and "," a chunk
    of lines at a time, as csv.reader would split it; any other file goes
    through csv.reader.
    """
    path = Path(path)
    data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 BOM
    if not data:
        raise EmptySeriesError(f"{path}: empty file")
    plain = data.isascii() and not any(b in data for b in _READER_BYTES)
    if plain:
        eol = data.find(b"\n")
        if eol < 0:
            eol = len(data)
        header = data[:eol].decode("ascii").split(",") if eol else []
    else:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                             newline=""))
        header = next(reader)
    for col in (date_col, value_col):
        if col not in header:
            raise ParseError(1, f"missing column {col!r} (header: {header})")
    columns = (len(header) - 1 - header[::-1].index(date_col),
               len(header) - 1 - header[::-1].index(value_col))
    if plain:
        chunks = _split_chunks(data, eol + 1, columns)
        bound = data.count(b"\n") + 1
    else:
        chunks = _reader_chunks(reader, columns)
        bound = data.count(b"\n") + data.count(b"\r") + 1
    # Every record takes at least one line, so bound rows are enough.
    days = np.empty(bound, dtype=np.int64)
    values = np.empty(bound)
    lines = np.empty(bound, dtype=np.int64)
    n = 0
    for chunk in chunks:
        m = chunk.lines.size
        days[n:n + m], values[n:n + m] = _parse_fields(chunk, date_format)
        lines[n:n + m] = chunk.lines
        n += m
    days, values, lines = days[:n], values[:n], lines[:n]
    if n == 0:
        raise EmptySeriesError(f"{path}: no usable rows")
    if not (np.diff(days) > 0).all():
        order = np.argsort(days, kind="stable")
        days, values, lines = days[order], values[order], lines[order]
        repeated = np.flatnonzero(np.diff(days) == 0)
        if repeated.size:
            k = int(repeated[0] + 1)
            raise ParseError(int(lines[k]),
                             f"duplicate date {date.fromordinal(int(days[k]))}")
    return TimeSeries(name=path.stem, days=days, values=values)


def _split_chunks(data: bytes, start: int, columns: tuple[int, int]):
    """The rows of an ASCII file without quotes, CR or NUL from byte start
    on, in chunks of about _PARSE_CHUNK_BYTES of whole lines."""
    line = 2
    while start < len(data):
        cut = data.find(b"\n", start + _PARSE_CHUNK_BYTES - 1)
        stop = len(data) if cut < 0 else cut + 1
        chunk = data[start:stop]
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        yield _split_lines(chunk, line, columns)
        line += chunk.count(b"\n")
        start = stop


def _split_lines(chunk: bytes, line: int, columns: tuple[int, int]) -> _Fields:
    """The rows of whole lines, each ended by "\n", the first on line
    ``line``, split as csv.reader splits them."""
    text = chunk.decode("ascii")
    date_i, value_i = columns
    buf = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    rows = ends.size
    k = commas.size // rows
    if k >= max(1, *columns) and commas.size == k * rows:
        # When each line holds k commas (so none is blank), one split of
        # the whole chunk gives each line's k + 1 fields in turn.
        at = commas.reshape(rows, k)
        if (at[1:, 0] > ends[:-1]).all() and (at[:, -1] < ends).all():
            fields = text.replace("\n", ",").split(",")
            step = k + 1
            return _Fields(np.arange(line, line + rows),
                           fields[date_i:rows * step:step],
                           fields[value_i:rows * step:step])
    return _fields(((line + i, text_line.split(",")) for i, text_line
                    in enumerate(text.split("\n")[:-1]) if text_line), columns)


def _reader_chunks(reader, columns: tuple[int, int]):
    """The rows csv.reader reads, _PARSE_CHUNK_ROWS at a time.  The rows
    read before the reader fails come first, so that a bad field in them
    is reported before the reader's error."""
    batch = []
    try:
        for row in reader:
            batch.append((reader.line_num, row))
            if len(batch) == _PARSE_CHUNK_ROWS:
                yield _fields(batch, columns)
                batch = []
    except (csv.Error, UnicodeDecodeError):
        yield _fields(batch, columns)
        raise
    yield _fields(batch, columns)


def _fields(numbered_rows, columns: tuple[int, int]) -> _Fields:
    """The date and value fields of (line number, row) pairs, as
    csv.DictReader gives them: an empty row is skipped, and a field past
    the end of a short row is empty."""
    date_i, value_i = columns
    lines, dates, values = [], [], []
    for line, row in numbered_rows:
        if row:
            lines.append(line)
            dates.append(row[date_i] if date_i < len(row) else "")
            values.append(row[value_i] if value_i < len(row) else "")
    return _Fields(np.array(lines, dtype=np.int64), dates, values)


def _parse_fields(chunk: _Fields,
                  date_format: str) -> tuple[np.ndarray, np.ndarray]:
    """The day numbers and values of a chunk's rows.  Raises ParseError at
    the chunk's first bad line, its date checked before its value; a value
    that is not a finite float is bad."""
    days, bad_date = _parse_dates(chunk.dates, date_format)
    values, bad_value = _parse_values(chunk.values)
    bad = min((b for b in (bad_date, bad_value) if b is not None),
              default=None, key=lambda b: b[0])
    if bad is not None:
        raise ParseError(int(chunk.lines[bad[0]]), bad[1])
    return days, values


def _parse_dates(fields: list[str], date_format: str):
    """Day numbers of date fields, and the index and message of the first
    that does not parse (None when all do).

    Under the default format, fields of exactly ``YYYY-MM-DD`` become days
    through one uint8 matrix; every other field, and every field under
    another format, goes through ``strptime`` once stripped.
    """
    n = len(fields)
    days = np.empty(n, dtype=np.int64)
    todo = np.arange(n)
    if date_format == DEFAULT_DATE_FORMAT and n:
        sized = np.fromiter(map(len, fields), dtype=np.int64, count=n) == 10
        rows = np.flatnonzero(sized)
        text = "".join(fields if rows.size == n else [fields[i] for i in rows])
        if text.isascii():
            got, ok = iso_days(np.frombuffer(text.encode("ascii"), np.uint8)
                               .reshape(rows.size, 10))
            days[rows[ok]] = got[ok]
            sized[rows[~ok]] = False
            todo = np.flatnonzero(~sized)
    for i in todo.tolist():
        raw = fields[i].strip()
        try:
            days[i] = datetime.strptime(raw, date_format).toordinal()
        except ValueError as exc:
            return days, (i, f"bad date {raw!r}: {exc}")
    return days, None


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_values(fields: list[str]):
    """Floats of value fields once stripped, and the index and message of
    the first that is not finite (None when all are)."""
    n = len(fields)
    try:
        # float strips what str.strip does but "\x1c" to "\x1f", which make
        # it fail; a field it takes reads the same stripped.
        values = np.fromiter(map(float, fields), dtype=np.float64, count=n)
    except ValueError:
        values = np.fromiter(map(_float_or_nan, map(str.strip, fields)),
                             dtype=np.float64, count=n)
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(bad.argmax())
        return values, (i, f"bad value {fields[i].strip()!r}")
    return values, None


def clean(series: TimeSeries, policy: str = DEFAULT_GAP_POLICY) -> TimeSeries:
    """Repair the gaps of a series: the business days absent between its
    first and last dates.

    "ffill" fills each absent day with the value of the day before,
    "drop" uses the rows as they are, "error" raises GapError at the first
    absent day.  Weekend rows already present are kept as-is.  Under
    "drop", and for a series without a gap, the series itself is returned.
    """
    if policy not in GAP_POLICIES:
        raise ValueError(f"unknown gap policy {policy!r}; expected one of {GAP_POLICIES}")
    if policy == "drop":
        return series
    # The grid: every business day from the first date to the last, plus the
    # weekend days the series has.  Day 1, 0001-01-01, was a Monday.
    days = series.days
    span = np.arange(days[0], days[-1] + 1)
    present = np.zeros(span.size, dtype=bool)
    present[days - days[0]] = True
    on_grid = present | ((span - 1) % 7 < 5)
    present = present[on_grid]
    if present.all():
        return series
    grid = span[on_grid]
    if policy == "error":
        raise GapError(date.fromordinal(int(grid[present.argmin()])),
                       "missing business day")
    # the last row at or before each grid day; the first day is a row
    return TimeSeries(series.name, grid, series.values[np.cumsum(present) - 1])
