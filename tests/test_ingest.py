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
    assert load_csv(ordered, name="x") == load_csv(shuffled, name="x")


def test_bad_value_raises_with_line_number(write_csv):
    path = write_csv(["1999-01-01,5.0", "1999-01-02,n/a", "1999-01-03,5.2"])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line_no == 3
    assert "n/a" in str(err.value)


def test_bad_value_as_nan_is_kept_in_band(write_csv):
    path = write_csv(["1999-01-01,5.0", "1999-01-02,n/a", "1999-01-03,5.2"])
    s = load_csv(path, on_bad_value="nan")
    assert len(s) == 3
    assert math.isnan(s.values[1])
    assert s.n_missing == 1


def test_bad_date_always_raises(write_csv):
    path = write_csv(["1999-01-01,5.0", "not-a-date,5.1"])
    with pytest.raises(ParseError) as err:
        load_csv(path, on_bad_value="nan")
    assert err.value.line_no == 3


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


def test_ffill_replaces_missing_value():
    s = _weekday_series([5.0, math.nan, 5.2])
    assert clean(s, "ffill").values.tolist() == [5.0, 5.0, 5.2]


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
        assert clean(s, policy) == s


def test_leading_gap_cannot_ffill():
    s = _weekday_series([math.nan, 5.1, 5.2])
    with pytest.raises(GapError):
        clean(s, "ffill")


def test_drop_removes_missing_rows():
    s = _weekday_series([5.0, math.nan, 5.2])
    out = clean(s, "drop")
    assert out.values.tolist() == [5.0, 5.2]
    assert out.days.tolist() == [MONDAY, MONDAY + 2]


def test_drop_needs_two_survivors():
    s = _weekday_series([5.0, math.nan, math.nan])
    with pytest.raises(EmptySeriesError):
        clean(s, "drop")


def test_error_policy_names_first_gap():
    s = _weekday_series([5.0, math.nan, 5.2])
    with pytest.raises(GapError) as err:
        clean(s, "error")
    assert err.value.when == date(2000, 1, 4)


def test_unknown_policy_rejected():
    s = _weekday_series([5.0, 5.1])
    with pytest.raises(ValueError):
        clean(s, "zero")


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(min_value=-50, max_value=50), st.just(math.nan)),
        min_size=2, max_size=40),
    policy=st.sampled_from(GAP_POLICIES),
)
def test_clean_is_idempotent(values, policy):
    if math.isnan(values[0]):
        values[0] = 0.0  # leading gaps are a separate, tested error path
    s = _weekday_series(values)
    try:
        once = clean(s, policy)
    except (GapError, EmptySeriesError):
        return
    assert clean(once, policy) == once


def test_load_csv_order_insensitive(tmp_path):
    rows = [f"{date.fromordinal(d).isoformat()},{i}.5"
            for i, d in enumerate(_business_days(37, "2001-01-01").tolist())]
    path = tmp_path / "perm.csv"
    path.write_text("date,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    baseline = load_csv(path, name="p")
    rng = np.random.default_rng(2024)
    for _ in range(8):
        rng.shuffle(rows)
        path.write_text("date,value\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        assert load_csv(path, name="p") == baseline
