"""Reference implementations of the protocol's forecast and scoring loops,
kept as test oracles.

These are the one-horizon-at-a-time versions: each anticipation value
gets its own fit from ``reference_design``, and builds its own anchors,
delay vectors and features, block by block.  Each window is scored on its
own with a dot product per sum, taken again after the package's exact
power-of-two scaling where they overflow or underflow.  The package's
shared forecast pass and stacked window scoring must give the same bytes.
Results are plain tuples and arrays, so the oracles do not depend on the
package's frame, window or model types.
"""

from __future__ import annotations

import math
from datetime import date

import numpy as np

from maxentcast import WindowBuckets, YearBuckets
from maxentcast.model import forecast_block_rows
from reference_design import delays, feature_matrix, fit, scaled_sums


class DegenerateWindow(Exception):
    """A window with too few points or zero variance to score."""


def forecast(series, cfg, coefficients,
             times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(target_times, actual, predicted) of one model, one block of anchors
    at a time, with a last block of one row moved 64 rows back."""
    t = np.asarray(list(times), dtype=int)
    target_times = t + cfg.horizon
    actual = series.values[target_times]
    rows = forecast_block_rows(cfg.n_features)
    predicted = np.empty(t.size)
    starts = list(range(0, t.size, rows))
    if t.size % rows == 1 and t.size > 1:
        starts[-1] -= 64
    for lo in starts:
        anchors = t[lo:lo + rows]
        features = feature_matrix(
            delays(series.values, anchors, cfg.dim, cfg.lag), cfg.degree)
        predicted[lo:lo + anchors.size] = features @ coefficients
    return target_times, actual, predicted


def relative_mse(a: np.ndarray, p: np.ndarray, scaled: bool = True) -> float:
    """The window score.  Sums that overflow, underflow or are 0 are taken
    again as scaled_sums takes them, each at its own power-of-two scale;
    with scaled False they are kept as they are."""
    if a.size < 2:
        raise ValueError("need at least two points to score a window")
    if not (np.isfinite(a).all() and np.isfinite(p).all()):
        raise ValueError("scores need finite inputs")
    num, denom, e_num, e_den = scaled_sums(a, p, scaled)
    if denom <= 0.0:
        raise DegenerateWindow("actual values have zero variance")
    with np.errstate(over="ignore"):
        return float(np.ldexp(num / denom, 2 * (e_num - e_den)))


def baseline_error(a: np.ndarray, horizon: int, scaled: bool = True) -> float:
    if a.size < horizon + 2:
        raise DegenerateWindow("window too short for the horizon")
    return relative_mse(a[horizon:], a[:-horizon], scaled)


def scores(a: np.ndarray, p: np.ndarray, horizon: int,
           scaled: bool = True) -> tuple[float, float]:
    """(rel_mse, baseline_rel_mse) of one window, NaN where unusable."""
    try:
        rel = relative_mse(a, p, scaled)
    except (DegenerateWindow, ValueError):
        rel = math.nan
    try:
        base = baseline_error(a, horizon, scaled)
    except DegenerateWindow:
        base = math.nan
    return rel, base


def partition(target_dates, bucketing) -> list[tuple[str, int, int]]:
    n = len(target_dates)
    if isinstance(bucketing, WindowBuckets):
        w = bucketing.width
        return [(f"w{k:03d}", lo, min(lo + w, n))
                for k, lo in enumerate(range(0, n, w))]
    assert isinstance(bucketing, YearBuckets)
    years = [d.year for d in target_dates]
    bounds = []
    lo = 0
    for i in range(1, n + 1):
        if i == n or years[i] != years[lo]:
            bounds.append((str(years[lo]), lo, i))
            lo = i
    return bounds


def windows(target_dates, target_times, actual, predicted, bucketing,
            horizon, scaled: bool = True) -> list[tuple]:
    """One tuple per window: label, start and end date and index, point
    count, rel_mse, baseline and the degenerate marker."""
    out = []
    for label, lo, hi in partition(target_dates, bucketing):
        rel, base = scores(actual[lo:hi], predicted[lo:hi], horizon, scaled)
        out.append((label, target_dates[lo], target_dates[hi - 1],
                    int(target_times[lo]), int(target_times[hi - 1]), hi - lo,
                    rel, base, not (math.isfinite(rel) and math.isfinite(base))))
    return out


def run_protocol(series, protocol, rank_tolerance=1e-10, standardize=False):
    """Per horizon: (coefficients, actual, predicted, windows, rel, base)."""
    tracks = []
    for horizon in protocol.anticipation:
        cfg = protocol.embed_config(horizon)
        coefficients, *_ = fit(series, cfg, rank_tolerance=rank_tolerance,
                               standardize=standardize)
        first = cfg.span + protocol.fit_window
        times = range(first, len(series) - horizon)
        target_times, actual, predicted = forecast(series, cfg, coefficients,
                                                   times)
        target_dates = [date.fromordinal(int(series.days[i])) for i in target_times]
        tracks.append((coefficients, actual, predicted,
                       windows(target_dates, target_times, actual, predicted,
                               protocol.bucketing, horizon),
                       *scores(actual, predicted, horizon)))
    return tracks


def min_run_filter(flags: list[bool], min_run: int) -> list[bool]:
    """The detector's run filter as an index loop: a flag stays set only
    inside a run of at least min_run set flags."""
    out = [False] * len(flags)
    i = 0
    while i < len(flags):
        if not flags[i]:
            i += 1
            continue
        j = i
        while j < len(flags) and flags[j]:
            j += 1
        if j - i >= min_run:
            out[i:j] = [True] * (j - i)
        i = j
    return out
