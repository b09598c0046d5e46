"""CSV loading, validation, and gap repair."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentcast import GAP_POLICIES, TimeSeries, clean, load_csv
from maxentcast.errors import EmptySeriesError, GapError, ParseError

from conftest import daily_series


def test_load_three_rows_ascending(write_csv):
    path = write_csv(["1999-01-01,5.0", "1999-01-02,5.1", "1999-01-03,5.2"])
    s = load_csv(path)
    assert len(s) == 3
    assert s.dates == (date(1999, 1, 1), date(1999, 1, 2), date(1999, 1, 3))
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
    assert s.dates[0] == date(1999, 1, 2)
    assert s.values.tolist() == [4.5, 4.6]


def test_nonexistent_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/definitely/not/here.csv")


def test_series_needs_two_rows():
    with pytest.raises(EmptySeriesError):
        TimeSeries("x", (date(2000, 1, 3),), np.array([1.0]))


def test_series_rejects_unsorted_dates():
    with pytest.raises(ValueError):
        TimeSeries("x", (date(2000, 1, 4), date(2000, 1, 3)),
                   np.array([1.0, 2.0]))


def test_series_rejects_infinities():
    with pytest.raises(ValueError):
        TimeSeries("x", (date(2000, 1, 3), date(2000, 1, 4)),
                   np.array([1.0, math.inf]))


def test_series_values_read_only():
    s = daily_series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def _business_days(n, first="2000-01-03"):
    """The first n business days from a Monday."""
    days = np.busday_offset(first, np.arange(n), roll="forward")
    return tuple(d.item() for d in days)


def test_ffill_grid_skips_weekends():
    # 2000-01-03 and 2000-01-10 were Mondays
    s = TimeSeries("t", (date(2000, 1, 3), date(2000, 1, 10)),
                   np.array([1.0, 2.0]))
    out = clean(s, "ffill")
    assert [d.isoformat() for d in out.dates] == [
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
    dates = (date(2000, 1, 3), date(2000, 1, 4), date(2000, 1, 6))
    s = TimeSeries("t", dates, np.array([1.0, 2.0, 3.0]))
    out = clean(s, "ffill")
    assert [d.isoformat() for d in out.dates] == [
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
    assert len(out.dates) == 2


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
    rows = [f"{d.isoformat()},{i}.5" for i, d in enumerate(_business_days(37, "2001-01-01"))]
    path = tmp_path / "perm.csv"
    path.write_text("date,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    baseline = load_csv(path, name="p")
    rng = np.random.default_rng(2024)
    for _ in range(8):
        rng.shuffle(rows)
        path.write_text("date,value\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        assert load_csv(path, name="p") == baseline
