"""The fast text I/O paths against the reference implementations.

``reference_io`` keeps the straightforward row-by-row versions of
``load_csv``, ``clean`` and the CSV writers.  Every case here runs both and
requires the same series, the same exception type, message and line
number, or the same bytes.
"""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io as ref
from maxentcast import (GAP_POLICIES, ForecastFrame, ProtocolConfig,
                        RandomWalkSpec, TimeSeries, WindowBuckets, clean,
                        generate, load_csv, run_protocol,
                        write_forecast_csvs)
from maxentcast.cli import main
from maxentcast.report import _CHUNK_ROWS

MONDAY = date(2000, 1, 3)


def outcome(fn, *args, **kwargs):
    """What a call did: its result, or its exception's type, text and line."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "line_no", None),
                getattr(exc, "when", None))
    if isinstance(result, TimeSeries):
        assert all(type(d) is date for d in result.dates)
        return ("series", result.name, result.dates, result.values.dtype,
                result.values.tobytes())
    return ("value", result)


def assert_same_load(path, **kwargs):
    expected = outcome(ref.load_csv, path, **kwargs)
    assert outcome(load_csv, path, **kwargs) == expected
    return expected


def assert_same_clean(series):
    for policy in GAP_POLICIES:
        assert outcome(clean, series, policy) == outcome(ref.clean, series, policy)


def write_lines(tmp_path, lines, name="in.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ------------------------------------------------------------------ load_csv

@pytest.mark.parametrize("lines, kwargs", [
    (["date,value", "2000-01-04,2", "2000-01-03,1", "2000-01-05,3"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04,2", "2000-01-03,3"], {}),
    (["date,value", "2000-01-03,1", "2000-01-08,2", "2000-01-10,3"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04,", "2000-01-05,3"],
     {"on_bad_value": "nan"}),
    (["date,value", "2000-01-03,nan", "2000-01-04,inf"], {"on_bad_value": "nan"}),
    (["date,value", "2000-01-03,1", "2000-01-04,n/a"], {}),
    (["date,value", "2000-1-3,1", "2000-1-4,2"], {}),
    (["date,value", "2000-01-03,1", "20000104,2"], {}),
    (["date,value", "2000-01-03,1", "2000-02-30,2"], {}),
    (["date,value", "0000-01-03,1", "2000-01-04,2"], {}),
    (["date,value", " 2000-01-03 , 1 ", "2000-01-04,2"], {}),
    (["date,value", "2000-01-03,1", "", "", "2000-01-04,2", "", "x,3"], {}),
    (["date,value", "", "2000-01-03,1", "", "2000-01-03,2"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04"], {"on_bad_value": "nan"}),
    (["date,value,date", "2000-01-03,1,2000-01-05", "2000-01-04,2,2000-01-06"], {}),
    (["date,value,date", "2000-01-03,1,2000-01-05", "2000-01-04,2"], {}),
    (["value,x,date", "1,a,2000-01-04", "2,b,2000-01-03,extra,fields"], {}),
    (["day,value", "2000-01-03,1"], {}),
    (["", "date,value", "2000-01-03,1"], {}),
    (["date,value"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04,2"], {"on_bad_value": "skip"}),
    (["when,rate", "03/01/2000,1", "4/1/2000,2", "2000-01-05,3"],
     {"date_col": "when", "value_col": "rate", "date_format": "%d/%m/%Y"}),
    (["when,rate", "03/01/2000,1", "04/01/2000,2"],
     {"date_col": "when", "value_col": "rate", "date_format": "%d/%m/%Y"}),
    (["date,value", "2000-01-03 00:00,1", "2000-01-04 00:00,2"],
     {"date_format": "%Y-%m-%d %H:%M"}),
    (["date,value", '"2000-01-03",1', '"2000-01-04","2"'], {}),
    (["date,value", "２０００-01-03,1", "2000-01-04,2"], {}),
])
def test_load_csv_cases(tmp_path, lines, kwargs):
    assert_same_load(write_lines(tmp_path, lines), **kwargs)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    expected = assert_same_load(path)
    assert expected[0] == "raised"


def _seeded_rows(seed, n=3000):
    """Business days with some left out, weekend rows, NaNs and a shuffle."""
    rng = np.random.default_rng(seed)
    first = MONDAY.toordinal()
    ordinals = np.arange(first, first + n * 7 // 5)
    keep = ((ordinals - 1) % 7 < 5) & (rng.random(ordinals.size) > 0.02)
    keep |= rng.random(ordinals.size) < 0.01  # a few weekend rows
    days = [date.fromordinal(int(o)) for o in ordinals[keep]]
    values = rng.standard_normal(len(days)).cumsum()
    fields = [repr(float(v)) for v in values]
    for k in rng.choice(len(fields), size=len(fields) // 100, replace=False):
        fields[k] = rng.choice(["", "nan", "n/a"])
    rows = [f"{d.isoformat()},{v}" for d, v in zip(days, fields)]
    order = rng.permutation(len(rows)) if seed % 2 else np.arange(len(rows))
    return [rows[k] for k in order]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_load_and_clean_seeded(tmp_path, seed):
    rows = _seeded_rows(seed)
    path = write_lines(tmp_path, ["date,value", *rows])
    kind, *_ = assert_same_load(path, on_bad_value="nan")
    assert kind == "series"
    series = load_csv(path, on_bad_value="nan")
    assert_same_clean(series)
    dup = write_lines(tmp_path, ["date,value", *rows, rows[len(rows) // 2]],
                      name="dup.csv")
    assert assert_same_load(dup, on_bad_value="nan")[0] == "raised"


DATE_TEXT = st.one_of(
    st.dates(date(1999, 12, 20), date(2000, 2, 10)).map(date.isoformat),
    st.sampled_from(["2000-1-3", "20000103", "2000-02-30", "2000-13-01",
                     " 2000-01-04", "", "x"]),
)
VALUE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(["", "nan", "-inf", "n/a", "1_0", " 2 "]),
)
ROW = st.one_of(
    st.tuples(DATE_TEXT, VALUE_TEXT).map(",".join),
    st.just(""),
    DATE_TEXT,
    st.tuples(DATE_TEXT, VALUE_TEXT, DATE_TEXT).map(",".join),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROW, max_size=25),
       header=st.sampled_from(["date,value", "value,date", "date,value,date"]),
       on_bad_value=st.sampled_from(["error", "nan"]))
def test_load_csv_matches_reference(tmp_path_factory, rows, header, on_bad_value):
    path = write_lines(tmp_path_factory.mktemp("h"), [header, *rows])
    assert_same_load(path, on_bad_value=on_bad_value)


@settings(max_examples=60, deadline=None)
@given(days=st.lists(st.dates(date(2000, 1, 1), date(2000, 3, 1)),
                     min_size=2, max_size=40, unique=True),
       on_bad_value=st.sampled_from(["error", "nan"]))
def test_load_csv_matches_reference_day_first(tmp_path_factory, days,
                                              on_bad_value):
    rows = [f"{d.day}/{d.month:02d}/{d.year},{k}" for k, d in enumerate(days)]
    path = write_lines(tmp_path_factory.mktemp("h"), ["date,value", *rows])
    assert_same_load(path, date_format="%d/%m/%Y", on_bad_value=on_bad_value)


# --------------------------------------------------------------------- clean

@pytest.mark.parametrize("offsets, values", [
    ([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0]),
    ([0, 3, 7, 8], [1.0, 2.0, 3.0, 4.0]),            # a gap over a weekend
    ([0, 5, 6, 7], [1.0, 2.0, math.nan, 4.0]),       # weekend rows, NaN on one
    ([0, 1, 2], [math.nan, 2.0, 3.0]),               # gap before any value
    ([-2, 0, 1], [math.nan, 2.0, 3.0]),              # leading weekend NaN
    ([0, 1, 2], [1.0, math.nan, math.nan]),
    ([0, 14], [-0.0, 5e-324]),
    ([4, 5], [1.0, 2.0]),                             # Friday, Saturday
])
def test_clean_cases(offsets, values):
    dates = tuple(MONDAY + timedelta(days=k) for k in offsets)
    assert_same_clean(TimeSeries("t", dates, np.array(values)))


@settings(max_examples=120, deadline=None)
@given(days=st.lists(st.integers(0, 60), min_size=2, max_size=40, unique=True),
       values=st.lists(st.one_of(st.floats(-50, 50), st.just(math.nan)),
                       min_size=40, max_size=40))
def test_clean_matches_reference(days, values):
    days.sort()
    dates = tuple(date(1999, 12, 30) + timedelta(days=k) for k in days)
    assert_same_clean(TimeSeries("t", dates, np.array(values[:len(days)])))


# ---------------------------------------------------------------- CSV output

def _frame(values, horizon=3):
    n = len(values)
    times = np.arange(n)
    dates = tuple(MONDAY + timedelta(days=k) for k in range(n + horizon))
    return ForecastFrame(times=times, target_times=times + horizon,
                         series_dates=dates,
                         actual=np.asarray(values, dtype=float),
                         predicted=-np.asarray(values, dtype=float),
                         horizon=horizon), n + horizon


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2 * 1024 + 7,
                               _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                               2 * _CHUNK_ROWS + 7])
def test_forecast_csv_matches_reference(n, tmp_path):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    special = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, 0.1]
    values[:len(special)] = special[:n]
    frame, n_dates = _frame(values)
    # the series values: the frame's actual values at its targets, after
    # the rows before its first target
    series_values = np.concatenate([rng.standard_normal(n_dates - n), values])
    [path] = write_forecast_csvs(tmp_path, [frame], series_values)
    assert path.name == "forecast_T3.csv"
    assert path.read_text(encoding="utf-8") == ref.forecast_csv_text(frame)


def test_forecast_csv_of_a_run_matches_reference(tmp_path):
    walk = generate(RandomWalkSpec(n=3000, sigma=1.0, seed=11))
    report = run_protocol(walk, ProtocolConfig(dim=2, degree=1, fit_window=300,
                                               anticipation=(7, 16),
                                               bucketing=WindowBuckets(250)))
    frames = [track.frame for track in report.tracks]
    paths = write_forecast_csvs(tmp_path, frames, walk.values)
    for frame, path in zip(frames, paths):
        assert path.read_text(encoding="utf-8") == ref.forecast_csv_text(frame)


@pytest.mark.parametrize("kind, extra", [
    ("walk", []),
    ("spliced", ["--splice", "1500"]),
    ("map", ["--coeffs", "0,3.7,-3.7", "--init", "0.3"]),  # values in (0, 1)
])
def test_synth_csv_matches_reference(tmp_path, capsys, kind, extra):
    assert main(["synth", "--kind", kind, "--n", "2500", "--seed", "4",
                 "--out", str(tmp_path), *extra]) == 0
    written = (tmp_path / "series.csv").read_text(encoding="utf-8")
    series = load_csv(tmp_path / "series.csv")
    assert written == ref.series_csv_text(series)
