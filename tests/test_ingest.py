"""CSV loading, validation, and gap repair."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentcast import GAP_POLICIES, TimeSeries, clean, load_csv
from maxentcast.errors import EmptySeriesError, GapError, ParseError
from maxentcast.ingest import MAX_DAY


def test_load_three_rows_ascending(write_csv):
    path = write_csv(["1999-01-01,5.0", "1999-01-02,5.1", "1999-01-03,5.2"])
    s = load_csv(path)
    assert len(s) == 3
    assert s.days.tolist() == [date(1999, 1, k).toordinal() for k in (1, 2, 3)]
    assert s.days.dtype == np.int64
    assert s.values.tolist() == [5.0, 5.1, 5.2]
    assert s.name == "series"


def test_load_shuffled_rows_sorts(write_csv):
    ordered = write_csv(["1999-01-01,5.0", "1999-01-02,5.1", "1999-01-03,5.2"])
    shuffled = write_csv(["1999-01-03,5.2", "1999-01-01,5.0", "1999-01-02,5.1"],
                         name="shuffled.csv")
    a, b = load_csv(ordered), load_csv(shuffled)
    assert (a.name, b.name) == ("series", "shuffled")
    assert a == TimeSeries("series", b.days, b.values)


def test_bad_value_raises_with_line_number(write_csv):
    path = write_csv(["1999-01-01,5.0", "1999-01-02,n/a", "1999-01-03,5.2"])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line_no == 3
    assert "n/a" in str(err.value)


def test_bad_date_always_raises(write_csv):
    path = write_csv(["1999-01-01,5.0", "not-a-date,5.1"])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line_no == 3


@pytest.mark.parametrize("kwargs", [{"on_bad_value": "nan"},
                                    {"on_bad_value": "error"},
                                    {"name": "x"}])
def test_load_csv_has_no_bad_value_or_name_setting(write_csv, kwargs):
    # a value that is not finite always fails the load, and a series is
    # named after its file
    path = write_csv(["1999-01-01,5.0", "1999-01-04,5.1"])
    with pytest.raises(TypeError):
        load_csv(path, **kwargs)


def test_duplicate_dates_raise(write_csv):
    path = write_csv(["1999-01-01,5.0", "1999-01-02,5.1", "1999-01-02,5.3"])
    with pytest.raises(ParseError, match="duplicate"):
        load_csv(path)


def test_missing_column_raises(write_csv):
    path = write_csv(["1999-01-01,5.0"], header="day,value")
    with pytest.raises(ParseError, match="date"):
        load_csv(path)


def test_header_only_file_is_empty(write_csv):
    path = write_csv([])
    with pytest.raises(EmptySeriesError):
        load_csv(path)


def test_custom_columns_and_format(write_csv):
    path = write_csv(["02/01/1999,4.5", "03/01/1999,4.6"], header="when,rate")
    s = load_csv(path, date_col="when", value_col="rate",
                 date_format="%d/%m/%Y")
    assert s.days[0] == date(1999, 1, 2).toordinal()
    assert s.values.tolist() == [4.5, 4.6]


def test_nonexistent_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/definitely/not/here.csv")


MONDAY = date(2000, 1, 3).toordinal()


def test_series_needs_two_rows():
    with pytest.raises(EmptySeriesError):
        TimeSeries("x", [MONDAY], np.array([1.0]))


def test_series_rejects_unsorted_dates():
    with pytest.raises(ValueError, match="strictly increase"):
        TimeSeries("x", [MONDAY + 1, MONDAY], np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="strictly increase"):
        TimeSeries("x", [MONDAY, MONDAY + 2, MONDAY + 2], np.ones(3))


@pytest.mark.parametrize("days", [[0, 1], [MAX_DAY, MAX_DAY + 1],
                                  [-5, MONDAY]])
def test_series_rejects_days_outside_the_calendar(days):
    # date.fromordinal takes 1 (0001-01-01) to 3,652,059 (9999-12-31)
    with pytest.raises(ValueError, match="lie in"):
        TimeSeries("x", days, np.array([1.0, 2.0]))
    TimeSeries("x", [1, MAX_DAY], np.array([1.0, 2.0]))
    assert MAX_DAY == date.max.toordinal() == 3_652_059


def test_series_rejects_days_that_are_not_day_numbers():
    with pytest.raises(TypeError):
        TimeSeries("x", (date(2000, 1, 3), date(2000, 1, 4)), np.ones(2))
    with pytest.raises(TypeError):
        TimeSeries("x", [1.0, 2.0], np.ones(2))
    with pytest.raises(ValueError, match="1-d"):
        TimeSeries("x", [[1, 2]], np.ones(2))


def test_series_rejects_infinities():
    with pytest.raises(ValueError):
        TimeSeries("x", [MONDAY, MONDAY + 1], np.array([1.0, math.inf]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_refuses_values_that_are_not_finite(bad):
    for values in ([bad, 1.0], [1.0, bad]):
        with pytest.raises(ValueError, match="values must be finite"):
            TimeSeries("x", [MONDAY, MONDAY + 1], np.array(values))
    assert TimeSeries.n_missing == 0


def test_series_values_read_only():
    days = np.arange(MONDAY, MONDAY + 3)
    s = TimeSeries("x", days, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        s.values[0] = 9.0
    # the day numbers too, and they are a copy of the array given
    with pytest.raises(ValueError):
        s.days[0] = 9
    assert s.days.dtype == np.int64 and not np.shares_memory(s.days, days)


def _business_days(n, first="2000-01-03"):
    """The day numbers of the first n business days from a Monday."""
    days = np.busday_offset(first, np.arange(n), roll="forward")
    return np.array([d.item().toordinal() for d in days])


def _isoformat(series):
    return [date.fromordinal(d).isoformat() for d in series.days.tolist()]


def test_ffill_grid_skips_weekends():
    # 2000-01-03 and 2000-01-10 were Mondays
    s = TimeSeries("t", [MONDAY, MONDAY + 7], np.array([1.0, 2.0]))
    out = clean(s, "ffill")
    assert _isoformat(out) == [
        "2000-01-03", "2000-01-04", "2000-01-05", "2000-01-06",
        "2000-01-07", "2000-01-10"]
    assert out.values.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 2.0]


def _weekday_series(values):
    return TimeSeries("t", _business_days(len(values)),
                      np.array(values, dtype=float))


# Monday, then Thursday: Tuesday 2000-01-04 and Wednesday are absent.
GAPPY = TimeSeries("t", [MONDAY, MONDAY + 3], np.array([5.0, 5.2]))


def test_ffill_replaces_missing_value():
    out = clean(GAPPY, "ffill")
    assert out.days.tolist() == [MONDAY, MONDAY + 1, MONDAY + 2, MONDAY + 3]
    assert out.values.tolist() == [5.0, 5.0, 5.0, 5.2]


def test_ffill_fills_missing_business_day():
    s = TimeSeries("t", [MONDAY, MONDAY + 1, MONDAY + 3],
                   np.array([1.0, 2.0, 3.0]))
    out = clean(s, "ffill")
    assert _isoformat(out) == [
        "2000-01-03", "2000-01-04", "2000-01-05", "2000-01-06"]
    assert out.values.tolist() == [1.0, 2.0, 2.0, 3.0]


def test_clean_series_unchanged_under_every_policy():
    s = _weekday_series([5.0, 5.1, 5.2, 5.3])
    for policy in GAP_POLICIES:
        assert clean(s, policy) is s


def test_drop_removes_missing_rows():
    # the rows are used as they are: drop has nothing to remove
    assert clean(GAPPY, "drop") is GAPPY


def test_error_policy_names_first_gap():
    with pytest.raises(GapError) as err:
        clean(GAPPY, "error")
    assert err.value.when == date(2000, 1, 4)
    assert str(err.value) == "2000-01-04: missing business day"


def test_unknown_policy_rejected():
    s = _weekday_series([5.0, 5.1])
    with pytest.raises(ValueError):
        clean(s, "zero")


@settings(max_examples=60, deadline=None)
@given(
    offsets=st.lists(st.integers(0, 60), min_size=2, max_size=40, unique=True),
    policy=st.sampled_from(GAP_POLICIES),
)
def test_clean_is_idempotent(offsets, policy):
    # any days, weekends among them, so business days may be absent
    days = MONDAY + np.sort(offsets)
    s = TimeSeries("t", days, np.arange(days.size) * 0.5)
    try:
        once = clean(s, policy)
    except GapError:
        return
    assert clean(once, policy) is once


def test_load_csv_order_insensitive(tmp_path):
    rows = [f"{date.fromordinal(d).isoformat()},{i}.5"
            for i, d in enumerate(_business_days(37, "2001-01-01").tolist())]
    path = tmp_path / "perm.csv"
    path.write_text("date,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    baseline = load_csv(path)
    rng = np.random.default_rng(2024)
    for _ in range(8):
        rng.shuffle(rows)
        path.write_text("date,value\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        assert load_csv(path) == baseline
