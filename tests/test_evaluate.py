"""Window scoring, bucketing, and the fit-once protocol."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentcast import (DetectorConfig, EmbedConfig, PolyMapSpec,
                        ProtocolConfig, RandomWalkSpec, WindowBuckets,
                        YearBuckets, TimeSeries,
                        error_by_period, fit, forecast_batch,
                        gen_random_walk, gen_spliced, run_protocol)
from maxentcast.errors import InfeasibleWindowError
from maxentcast.model import ForecastFrame
from maxentcast.rng import normals

import reference_protocol as ref


def one_window(actual, predicted, horizon=1):
    """The one ErrorWindow of a frame whose records are one window."""
    frame = make_frame(actual, predicted, horizon)
    [window] = error_by_period(frame, WindowBuckets(len(actual)))
    return window


def rel_mse(actual, predicted):
    """The rel_mse that run writes for one window of records."""
    return one_window(actual, predicted).rel_mse


def test_perfect_forecast_scores_zero():
    a = np.array([1.0, 2.0, 5.0, 3.0])
    assert rel_mse(a, a) == 0.0


def test_mean_forecast_scores_one():
    a = np.array([1.0, 2.0, 3.0, 10.0])
    p = np.full(4, a.mean())
    assert math.isclose(rel_mse(a, p), 1.0, rel_tol=1e-12)


def test_hand_worked_example():
    assert rel_mse([1, 2, 3], [1, 1, 3]) == 0.5


# Inputs and shifts on this grid, with under 2**28 steps, and a scale that
# is a power of two, make c*x + shift exact.
GRID = 2.0 ** -20


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    scale_exp=st.integers(min_value=-10, max_value=10),
    sign=st.sampled_from([-1.0, 1.0]),
    shift_factor=st.floats(min_value=-100.0, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_affine_invariance(n, scale_exp, sign, shift_factor, seed):
    # The inputs are mapped exactly, so the mapped score differs from the
    # unmapped one only by rounding inside the window score, which the 1e-12
    # budget bounds.  Rounding c*a + shift itself can move the exact score
    # further when the shift is large against the spread of a.
    rng = np.random.default_rng(seed)
    a = np.round(rng.standard_normal(n) / GRID) * GRID
    if np.ptp(a) == 0.0:
        a[0] += 1.0
    p = a + np.round(rng.standard_normal(n) / GRID) * GRID
    c = sign * 2.0 ** scale_exp
    shift = 2.0 ** scale_exp * round(shift_factor / GRID) * GRID
    base = rel_mse(a, p)
    mapped = rel_mse(c * a + shift, c * p + shift)
    assert abs(mapped - base) <= 1e-12 * max(1.0, base)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_scores_are_nonnegative_and_zero_only_at_equality(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(12)
    p = rng.standard_normal(12)
    score = rel_mse(a, p)
    assert score >= 0.0
    if not np.array_equal(a, p):
        assert score > 0.0


def baseline(actual, horizon):
    """The baseline_rel_mse of a frame whose records are one window."""
    return one_window(actual, np.zeros(len(actual)), horizon).baseline_rel_mse


def test_baseline_on_ramp_is_exact():
    a = np.arange(1.0, 11.0)  # constant increments of 1
    # naive window: actuals 2..10 (mean 6), unit errors: 9 / 60
    assert baseline(a, 1) == ref.baseline_error(a, 1)
    assert math.isclose(baseline(a, 1), 9.0 / 60.0, rel_tol=1e-12)


def test_baseline_white_noise_near_two():
    a = normals(7, 10_000)
    assert baseline(a, 1) == ref.baseline_error(a, 1)
    assert abs(baseline(a, 1) - 2.0) < 0.1


def test_baseline_window_too_short():
    # 5 points leave one carry-forward pair at horizon 4: too few to score
    a = np.arange(5.0)
    with pytest.raises(ref.DegenerateWindow):
        ref.baseline_error(a, 4)
    frame = make_frame(a, a, horizon=4)
    [window] = error_by_period(frame, WindowBuckets(5))
    assert math.isnan(window.baseline_rel_mse) and window.degenerate
    assert window.rel_mse == 0.0


def test_baseline_horizon_validation():
    # the baseline's horizon is the frame's: a frame refuses, when it is
    # built, a horizon below 1 or one that is not an integer, and an
    # anchor below 0 or one that is not an integer
    with pytest.raises(ValueError):
        make_frame(np.arange(10.0), np.zeros(10), horizon=0)
    series = make_frame(np.arange(10.0), np.zeros(10)).series
    with pytest.raises(ValueError, match="horizon must be an integer >= 1, got 1.5"):
        ForecastFrame(series=series, first=0, horizon=1.5, predicted=np.zeros(5))
    for first in (-1, 1.0):
        with pytest.raises(ValueError, match=r"first must be an integer >= 0"):
            ForecastFrame(series=series, first=first, horizon=1,
                          predicted=np.zeros(5))
    frame = ForecastFrame(series=series, first=np.int64(2),
                          horizon=np.int32(3), predicted=np.zeros(5))
    assert (type(frame.first), type(frame.horizon)) == (int, int)


def make_frame(actual, predicted, horizon=1, start_date=date(2002, 1, 1),
               day_step=1):
    """A frame whose records target the series rows after its first
    horizon rows; the target of record i falls on start_date + i * day_step.
    The series has one row after the last target."""
    actual = np.asarray(actual, dtype=float)
    values = np.concatenate([np.zeros(horizon), actual, [0.0]])
    days = start_date.toordinal() + day_step * (np.arange(values.size) - horizon)
    return ForecastFrame(series=TimeSeries("t", days, values), first=0,
                         horizon=horizon, predicted=predicted)


def test_year_buckets_partition_by_calendar_year():
    # ~2.5 points/week for 7 years: span 2002..2008 with day_step=103
    n = 25
    frame = make_frame(np.sin(np.arange(n)) + np.arange(n) * 0.1,
                       np.zeros(n), day_step=103)
    windows = error_by_period(frame, YearBuckets())
    assert [w.label for w in windows] == [str(y) for y in range(2002, 2009)]
    assert sum(w.n_points for w in windows) == n


def test_year_buckets_match_the_calendar():
    # both ends of the date range, and 1 January and 1 March of years the
    # century and 400-year leap rules decide
    last = date.max.toordinal()
    days = {*range(1, 4000), *range(last - 4059, last + 1)}
    for year in (1600, 1700, 1900, 2000, 2100, 2400):
        for month in (1, 3):
            first = date(year, month, 1).toordinal()
            days.update(range(first - 40, first + 40))
    days = np.array(sorted(days))
    years = [date.fromordinal(d).year for d in days.tolist()]
    starts = [i for i, year in enumerate(years)
              if i == 0 or year != years[i - 1]]
    labels, got = YearBuckets().starts(days)
    assert labels == [str(years[i]) for i in starts]
    assert got.tolist() == starts


def test_single_bucket_perfect_forecast():
    a = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    windows = error_by_period(make_frame(a, a.copy()), WindowBuckets(100))
    assert len(windows) == 1
    assert windows[0].rel_mse == 0.0
    assert not windows[0].degenerate


def test_degenerate_bucket_stays_in_band():
    a = np.concatenate([np.arange(6.0), np.full(6, 2.0)])
    windows = error_by_period(make_frame(a, a + 0.1), WindowBuckets(6))
    assert len(windows) == 2
    assert not windows[0].degenerate
    assert windows[1].degenerate
    assert math.isnan(windows[1].rel_mse)
    assert sum(w.n_points for w in windows) == 12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    width=st.integers(min_value=2, max_value=50),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_window_buckets_partition_records(n, width, seed):
    rng = np.random.default_rng(seed)
    frame = make_frame(rng.standard_normal(n), rng.standard_normal(n))
    windows = error_by_period(frame, WindowBuckets(width))
    assert sum(w.n_points for w in windows) == n
    assert [w.label for w in windows] == \
        [f"w{k:03d}" for k in range(len(windows))]
    # index ranges tile the frame without gaps
    edges = [(w.start_index, w.end_index) for w in windows]
    for (a0, a1), (b0, b1) in zip(edges, edges[1:]):
        assert b0 == a1 + 1


def test_window_width_validation():
    with pytest.raises(ValueError):
        WindowBuckets(1)


def test_empty_frame_rejected():
    frame = make_frame(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        error_by_period(frame, WindowBuckets(5))


def test_protocol_produces_one_track_per_anticipation():
    series = gen_random_walk(2560, 1.0, 0.0, seed=42)
    report = run_protocol(series, ProtocolConfig())
    assert [t.horizon for t in report.tracks] == [7, 10, 13, 16]
    for track in report.tracks:
        assert len(track.frame) == 2560 - 703 - track.horizon


def test_minimal_protocol_point_count():
    series = gen_random_walk(20, 1.0, 0.0, seed=0)
    proto = ProtocolConfig(dim=1, degree=1, fit_window=5, anticipation=(1,),
                           bucketing=WindowBuckets(100))
    report = run_protocol(series, proto)
    assert len(report.tracks) == 1
    assert len(report.tracks[0].frame) == 14


def test_protocol_rejects_empty_anticipation():
    with pytest.raises(ValueError):
        ProtocolConfig(anticipation=())


def test_protocol_refuses_a_repeated_anticipation():
    with pytest.raises(ValueError, match="values must be distinct"):
        ProtocolConfig(anticipation=(7, 7))


@pytest.mark.parametrize("anticipation", [(7.5, 10.9), ("7",), (7, 0)])
def test_protocol_refuses_an_anticipation_that_is_not_an_integer(anticipation):
    with pytest.raises(ValueError,
                       match="anticipation must be an integer >= 1, got "):
        ProtocolConfig(anticipation=anticipation)


@pytest.mark.parametrize("make, message", [
    (lambda: EmbedConfig(dim=2, degree=2, horizon=7.5, n_fit=10),
     "horizon must be an integer >= 1, got 7.5"),
    (lambda: ProtocolConfig(fit_window=0),
     "fit_window must be an integer >= 1, got 0"),
    (lambda: WindowBuckets(1), "window width must be an integer >= 2, got 1"),
    (lambda: DetectorConfig(min_run=2.0),
     "min_run must be an integer >= 1, got 2.0"),
    (lambda: EmbedConfig(dim=2, degree=2, horizon=0, n_fit=10),
     "horizon must be an integer >= 1, got 0"),
    (lambda: RandomWalkSpec(n="5", sigma=1.0),
     "n must be an integer >= 1, got '5'"),
    (lambda: PolyMapSpec(n=5, dim=0, coefficients=(0.0, 1.0)),
     "dim must be an integer >= 1, got 0"),
    # a bool is not taken for an integer
    (lambda: EmbedConfig(dim=True, degree=2, horizon=1, n_fit=10),
     "dim must be an integer >= 1, got True"),
    (lambda: ProtocolConfig(anticipation=(7, True)),
     "anticipation must be an integer >= 1, got True"),
    (lambda: ProtocolConfig(fit_window=True),
     "fit_window must be an integer >= 1, got True"),
    (lambda: DetectorConfig(min_run=True),
     "min_run must be an integer >= 1, got True"),
    (lambda: RandomWalkSpec(n=True, sigma=1.0),
     "n must be an integer >= 1, got True"),
    (lambda: ForecastFrame(series=gen_random_walk(10, 1.0, seed=0),
                           first=False, horizon=1, predicted=np.zeros(5)),
     "first must be an integer >= 0, got False")])
def test_integer_settings_share_one_message(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("first", [700.9, True, 700.0, "700", -1])
def test_forecast_batch_refuses_an_anchor_that_is_not_an_integer(first):
    series = gen_random_walk(1_000, 1.0, seed=1)
    model = fit(series, EmbedConfig(dim=2, degree=1, horizon=1, n_fit=100))
    with pytest.raises(ValueError,
                       match=r"^first must be an integer >= 0, got "):
        forecast_batch(series, [model], first)
    # an integer of any type is taken
    frame = forecast_batch(series, [model], np.int32(700))[0]
    assert (frame.first, len(frame)) == (700, 299)


@pytest.mark.parametrize("bucketing", ["year", "window:125", None, 125])
def test_protocol_refuses_unknown_bucketing(bucketing):
    with pytest.raises(ValueError, match="bucketing"):
        ProtocolConfig(bucketing=bucketing)


def test_protocol_propagates_infeasibility():
    series = gen_random_walk(50, 1.0, 0.0, seed=0)
    with pytest.raises(InfeasibleWindowError):
        run_protocol(series, ProtocolConfig())


def test_spliced_halves_error_collapses_in_deterministic_half():
    """A slow deterministic glide after a random walk: second-half error
    is far below the first half's, under the plain default fit."""
    n, splice = 2000, 1354  # halves of the forecast range: 647 + 646
    walk = RandomWalkSpec(n=splice, sigma=1.0, x0=0.0, seed=1)
    glide = PolyMapSpec(n=n - splice, dim=1,
                        coefficients=(-150.0 / (n - splice), 1.0),
                        noise_sigma=0.0, seed=2)
    sp = gen_spliced(walk, glide, splice)
    proto = ProtocolConfig(dim=1, degree=1, fit_window=700, anticipation=(7,),
                           bucketing=WindowBuckets(647))
    track = run_protocol(sp.series, proto).tracks[0]
    first, second = track.windows
    assert (first.n_points, second.n_points) == (647, 646)
    assert second.start_index == sp.changepoint
    assert second.rel_mse < 0.1 * first.rel_mse


def test_track_level_scores_match_recomputation():
    series = gen_random_walk(900, 1.0, 0.0, seed=5)
    proto = ProtocolConfig(anticipation=(7,), bucketing=WindowBuckets(60))
    track = run_protocol(series, proto).tracks[0]
    assert math.isclose(track.rel_mse,
                        rel_mse(track.frame.actual, track.frame.predicted),
                        rel_tol=1e-12)
    assert math.isclose(track.baseline_rel_mse,
                        ref.baseline_error(track.frame.actual, 7), rel_tol=1e-12)


def test_scores_near_1e158_are_finite():
    # squares of values near 1e158 overflow; the window sums are taken
    # after scaling each window by a power of two
    walk = gen_random_walk(3_000, 1.0, 0.0, seed=2)
    huge = TimeSeries(walk.name, walk.days, walk.values * 1e158)
    assert np.abs(huge.values).max() > 2.0 ** 512  # its square overflows
    report = run_protocol(huge, ProtocolConfig(dim=2, degree=1, fit_window=300,
                                               anticipation=(7, 16),
                                               bucketing=WindowBuckets(250)))

    def score(a, p):  # at unit scale, where nothing overflows
        a, p = a * 1e-158, p * 1e-158
        return np.sum((p - a) ** 2) / np.sum((a - a.mean()) ** 2)

    for track in report.tracks:
        actual, predicted = track.frame.actual, track.frame.predicted
        h = track.horizon
        assert math.isclose(track.rel_mse, score(actual, predicted),
                            rel_tol=1e-9)
        assert math.isclose(track.baseline_rel_mse,
                            score(actual[h:], actual[:-h]), rel_tol=1e-9)
        lo = 0
        for w in track.windows:
            assert not w.degenerate
            a, p = actual[lo:lo + w.n_points], predicted[lo:lo + w.n_points]
            assert math.isclose(w.rel_mse, score(a, p), rel_tol=1e-9)
            assert math.isclose(w.baseline_rel_mse, score(a[h:], a[:-h]),
                                rel_tol=1e-9)
            lo += w.n_points
