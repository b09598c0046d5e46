"""One forecast pass for every horizon, and stacked window scoring, against
the one-horizon-at-a-time reference.

``reference_protocol`` keeps the loop that fits, forecasts and scores each
anticipation value on its own, window by window.  ``run_protocol`` builds
the features of each block of anchors once for all horizons and scores
equal-width windows as one stack; every track's coefficients,
predictions, window scores and whole-track scores must have the same
bytes.  The comparisons hold for one BLAS thread, which ``conftest`` pins
before numpy is imported.
"""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_design
import reference_protocol as ref
from maxentcast import (EmbedConfig, ForecastFrame, ProtocolConfig,
                        RandomWalkSpec, TimeSeries, WindowBuckets, YearBuckets,
                        error_by_period, forecast_batch, gen_random_walk,
                        gen_spliced, logistic_splice, run_protocol)
from maxentcast import evaluate
from maxentcast.model import forecast_block_rows

from conftest import BLAS_PINNED, daily_series
from test_blocked_forecast import model_for
from test_evaluate import make_frame


@pytest.fixture(autouse=True)
def blas_pinned():
    assert BLAS_PINNED, "numpy was imported before tests/conftest.py pinned BLAS"


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def window_rows(windows, days) -> list[tuple]:
    """Each window's fields, with the dates of its first and last target
    derived from the series day numbers days."""
    return [(w.label, date.fromordinal(int(days[w.start_index])),
             date.fromordinal(int(days[w.end_index])), w.start_index,
             w.end_index, w.n_points, bits(w.rel_mse),
             bits(w.baseline_rel_mse), w.degenerate)
            for w in windows]


def reference_rows(rows) -> list[tuple]:
    return [(*row[:6], bits(row[6]), bits(row[7]), row[8]) for row in rows]


def targets(frame) -> tuple[list[date], np.ndarray]:
    """The date and the series index of each record's target."""
    index = frame.first + frame.horizon + np.arange(len(frame))
    return [date.fromordinal(int(d)) for d in frame.series.days[index]], index


def assert_matches_reference(series, protocol, **fit_args):
    report = run_protocol(series, protocol, **fit_args)
    expected = ref.run_protocol(series, protocol, **fit_args)
    assert len(report.tracks) == len(expected)
    for track, (coef, actual, predicted, windows, rel, base) in zip(
            report.tracks, expected):
        what = f"T={track.horizon}"
        assert track.model.coefficients.tobytes() == coef.tobytes(), what
        assert track.frame.actual.tobytes() == actual.tobytes(), what
        assert track.frame.predicted.tobytes() == predicted.tobytes(), what
        assert (window_rows(track.windows, series.days)
                == reference_rows(windows)), what
        assert bits(track.rel_mse) == bits(rel), what
        assert bits(track.baseline_rel_mse) == bits(base), what
    return report


def test_last_block_of_one_row():
    # T = 7 has 15,361 anchors, ten 1,536-row blocks and one more
    protocol = ProtocolConfig(dim=6, degree=3, bucketing=WindowBuckets(250))
    report = assert_matches_reference(gen_random_walk(16_073, 1.0, seed=3),
                                      protocol)
    assert len(report.tracks[0].frame) == 10 * forecast_block_rows(84) + 1


def test_horizon_with_one_anchor():
    protocol = ProtocolConfig(dim=6, degree=3, bucketing=WindowBuckets(250))
    report = assert_matches_reference(gen_random_walk(722, 1.0, seed=4),
                                      protocol)
    assert [len(t.frame) for t in report.tracks] == [10, 7, 4, 1]


def test_year_buckets():
    report = assert_matches_reference(gen_random_walk(4_000, 1.0, seed=5),
                                      ProtocolConfig(bucketing=YearBuckets()))
    assert [w.label for w in report.tracks[0].windows][:2] == ["2001", "2002"]


@pytest.mark.parametrize("width", [7, 97, 250])
def test_short_last_window_and_narrow_windows(width):
    # width 7 is below T + 2 for every horizon: no window has a baseline
    series = gen_random_walk(3_001, 1.0, seed=6)
    report = assert_matches_reference(
        series, ProtocolConfig(dim=2, degree=1, bucketing=WindowBuckets(width)),
        rank_tolerance=0.2, standardize=True)
    assert any(len(t.frame) % width for t in report.tracks)


def test_zero_variance_windows():
    walk = gen_random_walk(3_000, 1.0, seed=7).values
    values = np.concatenate([walk[:1_500], np.full(400, walk[1_499]),
                             walk[1_500:]])
    report = assert_matches_reference(
        daily_series(values),
        ProtocolConfig(dim=2, degree=1, bucketing=WindowBuckets(50)))
    assert any(w.degenerate for w in report.tracks[0].windows)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 400), width=st.integers(2, 60),
       horizon=st.integers(1, 20), day_step=st.sampled_from([1, 7, 45]),
       flat=st.integers(0, 80), n_bad=st.integers(0, 3),
       scale=st.sampled_from([1.0, 1e-150, 1e155]),
       seed=st.integers(0, 2**31))
def test_scoring_matches_per_window_reference(n, width, horizon, day_step,
                                              flat, n_bad, scale, seed):
    rng = np.random.default_rng(seed)
    actual = scale * np.cumsum(rng.standard_normal(n))
    start = rng.integers(0, n)
    actual[start:start + flat] = actual[start]          # zero-variance stretch
    predicted = actual + scale * rng.standard_normal(n)
    predicted[rng.integers(0, n, size=n_bad)] = rng.choice(
        [np.nan, np.inf, -np.inf], size=n_bad)
    frame = make_frame(actual, predicted, horizon, day_step=day_step)
    target_dates, target_index = targets(frame)
    for bucketing in (WindowBuckets(width), YearBuckets(), WindowBuckets(n)):
        expected = ref.windows(target_dates, target_index, actual,
                               predicted, bucketing, horizon)
        assert (window_rows(error_by_period(frame, bucketing),
                            frame.series.days)
                == reference_rows(expected)), bucketing
    # the whole frame as one window is the whole-track score
    whole = error_by_period(frame, WindowBuckets(n))[0]
    rel, base = ref.scores(actual, predicted, horizon)
    assert (bits(whole.rel_mse), bits(whole.baseline_rel_mse)) == (bits(rel),
                                                                    bits(base))


def test_acceptance_seed_scores_keep_their_bits(monkeypatch):
    """Criterion 4's walks and criterion 5's splices: every window score
    has the bits of the unscaled sums, whether or not its window is scaled
    by a power of two first."""
    runs = [(gen_random_walk(2000, 1.0, seed=seed),
             ProtocolConfig(bucketing=WindowBuckets(125)), {})
            for seed in range(50)]
    detect = ProtocolConfig(dim=2, degree=1, fit_window=700,
                            anticipation=(7,), bucketing=WindowBuckets(125))
    for seed in range(100):
        spec = logistic_splice(RandomWalkSpec(n=1333, sigma=1.0, seed=seed),
                               667, noise_sigma=0.01)
        runs.append((gen_spliced(spec.first, spec.second).series, detect,
                     {"rank_tolerance": 0.2, "standardize": True}))
    tracks = [(track, protocol.bucketing) for series, protocol, fit_args in runs
              for track in run_protocol(series, protocol, **fit_args).tracks]

    def unscaled(frame, bucketing):
        return reference_rows(ref.windows(*targets(frame),
                                          frame.actual, frame.predicted,
                                          bucketing, frame.horizon,
                                          scaled=False))

    expected = [unscaled(t.frame, b) for t, b in tracks]
    assert [window_rows(t.windows, t.frame.series.days)
            for t, _ in tracks] == expected
    # scale every window
    monkeypatch.setattr("maxentcast.model._TINY_SUM", math.inf)
    assert [window_rows(error_by_period(t.frame, b), t.frame.series.days)
            for t, b in tracks] == expected


def test_shared_pass_matches_whole_matrix():
    # every model of the batch ends its anchors near a block edge: model k
    # has len(series) - first - horizon of them, so its horizon sets its count
    dim, degree = 6, 3
    block = forecast_block_rows(84)
    counts = [2 * block + 1, 2 * block, block + 1, block - 1, 65, 64, 1]
    rng = np.random.default_rng(8)
    span = dim - 1
    values = np.cumsum(rng.standard_normal(span + max(counts) + 1))
    horizons = [values.size - span - count for count in counts]
    models = [model_for(rng.standard_normal(84),
                        EmbedConfig(dim=dim, degree=degree, horizon=h, n_fit=1))
              for h in horizons]
    frames = forecast_batch(daily_series(values), models, span)
    for model, count, frame in zip(models, counts, frames):
        assert len(frame) == count
        times = np.arange(span, span + count)
        expected = reference_design.forecast_predicted(
            values, model.coefficients, times, dim, degree, 1)
        assert frame.predicted.tobytes() == expected.tobytes(), count
        target = times + model.config.horizon
        assert frame.actual.tobytes() == values[target].tobytes()


def test_models_that_end_one_row_past_a_block():
    # the longest model's anchors run on past the first block, so the block
    # that ends the shorter models is not the last: their last row must not
    # be predicted again, alone, in the next block, where a one-row product
    # may round differently
    dim, degree = 6, 3
    block = forecast_block_rows(84)
    rng = np.random.default_rng(10)
    span = dim - 1
    values = np.cumsum(rng.standard_normal(span + 2 * block + 2))
    horizons = [1] + [block + 1] * 16
    models = [model_for(rng.standard_normal(84),
                        EmbedConfig(dim=dim, degree=degree, horizon=h, n_fit=1))
              for h in horizons]
    frames = forecast_batch(daily_series(values), models, span)
    assert [len(f) for f in frames] == [2 * block + 1] + [block + 1] * 16
    for model, frame in zip(models, frames):
        expected = reference_design.forecast_predicted(
            values, model.coefficients, np.arange(span, span + len(frame)),
            dim, degree, 1)
        assert frame.predicted.tobytes() == expected.tobytes()


def test_batch_models_must_share_an_embedding():
    a = model_for(np.ones(3), EmbedConfig(dim=2, degree=1, horizon=1, n_fit=1))
    b = model_for(np.ones(6), EmbedConfig(dim=2, degree=2, horizon=2, n_fit=1))
    series = daily_series(np.arange(20.0))
    with pytest.raises(ValueError):
        forecast_batch(series, [a, b], 1)


def test_frame_holds_views_not_copies():
    series = gen_random_walk(1_000, 1.0, seed=9)
    frame = run_protocol(series, ProtocolConfig(anticipation=(7,),
                                                bucketing=WindowBuckets(50))
                         ).tracks[0].frame
    assert frame.series is series
    assert np.shares_memory(frame.actual, series.values)
    assert not frame.actual.flags.writeable
    assert frame.actual.tobytes() == series.values[710:].tobytes()
    predicted = np.arange(4.0)
    small = ForecastFrame(series=series, first=0, horizon=1,
                          predicted=predicted)
    assert np.shares_memory(small.predicted, predicted)
    assert predicted.flags.writeable and not small.predicted.flags.writeable


# ---------------------------------------------------------- window layout

def day_range(first: date, last: date) -> np.ndarray:
    return np.arange(first.toordinal(), last.toordinal() + 1)


def business_days(first: date, last: date) -> np.ndarray:
    days = day_range(first, last)
    return days[(days - 1) % 7 < 5]  # day 1, 0001-01-01, was a Monday


def frame_on_days(days: np.ndarray, horizon: int = 3, seed: int = 0):
    """A frame of a random walk and noisy predictions whose records target
    the given days; the series has horizon rows before the first."""
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal(horizon + days.size))
    series_days = np.concatenate([days[0] - np.arange(horizon, 0, -1), days])
    predicted = values[horizon:] + rng.standard_normal(days.size)
    return ForecastFrame(series=TimeSeries("t", series_days, values),
                         first=0, horizon=horizon, predicted=predicted)


# synth's calendar days: 2001-2003 are three years of 365 records, and
# 2005 has the width of 2001-2003 but does not follow them
CALENDAR = day_range(date(2000, 3, 1), date(2005, 12, 31))
LAYOUTS = {
    "years of equal width": (CALENDAR, YearBuckets()),
    "one-record first and last year": (
        day_range(date(1999, 12, 31), date(2002, 1, 1)), YearBuckets()),
    "business days across 1999/2000": (
        business_days(date(1999, 9, 1), date(2000, 2, 29)), YearBuckets()),
    "window as wide as the records": (CALENDAR, WindowBuckets(CALENDAR.size)),
    "window wider than the records": (CALENDAR,
                                      WindowBuckets(CALENDAR.size + 5)),
}


@pytest.mark.parametrize("days, bucketing", LAYOUTS.values(), ids=LAYOUTS)
def test_window_layout_matches_per_window_reference(days, bucketing):
    frame = frame_on_days(days)
    expected = ref.windows(*targets(frame), frame.actual, frame.predicted,
                           bucketing, frame.horizon)
    assert window_rows(error_by_period(frame, bucketing),
                       frame.series.days) == reference_rows(expected)


@pytest.mark.parametrize("days, stacks", [
    (CALENDAR, [(0, 1, 306), (306, 3, 365), (1401, 1, 366), (1767, 1, 365)]),
    (day_range(date(1999, 12, 31), date(2002, 1, 1)),
     [(0, 1, 1), (1, 1, 366), (367, 1, 365), (732, 1, 1)]),
], ids=["years of equal width", "one-record first and last year"])
def test_each_run_of_equal_widths_is_one_stack(days, stacks, monkeypatch):
    # equal widths that are not consecutive are scored apart
    calls = []
    score_frame = evaluate._score_frame

    def logged(frame, lo, k, w):
        calls.append((lo, k, w))
        return score_frame(frame, lo, k, w)

    monkeypatch.setattr(evaluate, "_score_frame", logged)
    error_by_period(frame_on_days(days), YearBuckets())
    assert calls == stacks
