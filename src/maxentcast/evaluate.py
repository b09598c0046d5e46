"""Forecast scoring: variance-normalized error by calendar or fixed windows.

relative_mse is sum((predicted - actual)^2) / sum((actual - mean)^2), the
squared error normalized by the window's own variance (equivalently
1 - R^2): 0 is perfect, 1 is no better than the window mean, and the
score is invariant under affine rescaling of the data.  Each window also
gets a baseline: the same score for the naive carry-forward forecast at
matched horizon, v_hat(t + h) = v(t), computed from the window's actuals
alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .design import EmbedConfig
from .errors import DegenerateWindowError, check_int
from .ingest import TimeSeries
from .model import (DEFAULT_RANK_TOLERANCE, FittedModel, ForecastFrame, fit,
                    forecast_batch)


# A sum of squares at least this large cannot owe its last bit to a term
# that underflowed: such a term is below 2**-1022, over 2**100 times
# smaller.
_TINY_SUM = 2.0 ** -900


def _raw_sums(actual: np.ndarray, predicted: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):
        dev = actual - actual.mean(axis=1, keepdims=True)
        err = predicted - actual
        return (np.matmul(err[:, None, :], err[:, :, None])[:, 0, 0],
                np.matmul(dev[:, None, :], dev[:, :, None])[:, 0, 0])


def _sums(actual: np.ndarray, predicted: np.ndarray):
    """sum((predicted - actual)^2) and sum((actual - mean)^2) for each row of
    two (k, w) stacks of windows, at a scale where they neither overflow
    nor underflow.

    Each row gets the same bits as the one-window form would: a row-wise
    mean is the same pairwise sum, and a stacked (1, w) @ (w, 1) product is
    the same dot product as dev @ dev.  A row whose sums come out infinite,
    NaN or below _TINY_SUM is summed again after scaling it by 2**-e, where
    2**e bounds its largest magnitude.  Scaling by a power of two is exact,
    so num / denom keeps the bits the unscaled sums give wherever those
    neither overflow nor underflow, and rows near the ends of the float
    range can be scored.
    """
    num, denom = _raw_sums(actual, predicted)
    redo = ~((num >= _TINY_SUM) & (num < np.inf)
             & (denom >= _TINY_SUM) & (denom < np.inf))
    if redo.any():
        a, p = actual[redo], predicted[redo]
        mag = np.maximum(np.abs(a).max(axis=1), np.abs(p).max(axis=1))
        shift = -np.frexp(mag)[1][:, None]  # 0 where mag is 0, inf or NaN
        num[redo], denom[redo] = _raw_sums(np.ldexp(a, shift),
                                           np.ldexp(p, shift))
    return num, denom


def _scores(actual: np.ndarray, predicted: np.ndarray,
            horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """relative_mse, and that of the carry-forward forecast at horizon, of
    each row of two (k, w) stacks of windows with finite actual values;
    NaN where a row cannot be scored (non-finite predictions, zero
    variance, or too few points)."""
    num, denom = _sums(actual, predicted)
    usable = np.isfinite(predicted).all(axis=1) & (denom > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(usable, num / denom, np.nan)
        if actual.shape[1] < horizon + 2:
            return rel, np.full(actual.shape[0], np.nan)
        num, denom = _sums(actual[:, horizon:], actual[:, :-horizon])
        return rel, np.where(denom > 0.0, num / denom, np.nan)


def relative_mse(actual, predicted) -> float:
    """Squared forecast error over the window, relative to the window's
    squared deviation from its own mean."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.ndim != 1 or a.shape != p.shape:
        raise ValueError("actual and predicted must be 1-d and equally long")
    if a.size < 2:
        raise ValueError("need at least two points to score a window")
    if not (np.isfinite(a).all() and np.isfinite(p).all()):
        raise ValueError("scores need finite inputs")
    num, denom = _sums(a[None], p[None])
    if denom[0] <= 0.0:
        raise DegenerateWindowError("actual values have zero variance")
    return float(num[0]) / float(denom[0])


@dataclass(frozen=True)
class YearBuckets:
    """Partition records by the calendar year of their target date."""


@dataclass(frozen=True)
class WindowBuckets:
    """Partition records into consecutive fixed-width index windows."""

    width: int

    def __post_init__(self):
        object.__setattr__(self, "width", check_int("window width", self.width, 2))


Bucketing = YearBuckets | WindowBuckets


@dataclass(frozen=True)
class ErrorWindow:
    """Scores for one bucket of forecast records.

    Degenerate buckets (too few points or zero variance for either score)
    are kept in place with NaN scores, so window indices always partition
    the record range.
    """

    label: str
    start: date
    end: date
    start_index: int          # series index of the first target in the bucket
    end_index: int            # series index of the last target
    rel_mse: float
    baseline_rel_mse: float

    @property
    def n_points(self) -> int:
        return self.end_index - self.start_index + 1

    @property
    def degenerate(self) -> bool:
        """True unless both scores are finite."""
        return not (math.isfinite(self.rel_mse)
                    and math.isfinite(self.baseline_rel_mse))

    @property
    def score_ratio(self) -> float:
        """rel_mse / baseline_rel_mse; NaN when the window is degenerate or
        the baseline is not finite and positive."""
        if self.degenerate or not 0.0 < self.baseline_rel_mse < math.inf:
            return math.nan
        return self.rel_mse / self.baseline_rel_mse


def _stacks(frame: ForecastFrame, bucketing: Bucketing):
    """Window labels, and the windows as stacks (first record, windows,
    width) of consecutive windows of one width."""
    n = len(frame)
    if isinstance(bucketing, WindowBuckets):
        k, short = divmod(n, bucketing.width)
        stacks = [(0, k, bucketing.width)] if k else []
        if short:
            stacks.append((n - short, 1, short))
        return [f"w{i:03d}" for i in range(k + bool(short))], stacks
    if isinstance(bucketing, YearBuckets):
        days = frame.series.days[frame.first + frame.horizon:]

        def year(j: int) -> int:
            return date.fromordinal(int(days[j])).year

        labels, stacks, lo = [], [], 0
        while lo < n:
            hi = bisect_right(range(n), year(lo), lo, key=year)
            labels.append(str(year(lo)))
            stacks.append((lo, 1, hi - lo))
            lo = hi
        return labels, stacks
    raise ValueError(f"unknown bucketing {bucketing!r}")


def _score_frame(frame: ForecastFrame, lo: int, k: int, w: int,
                 horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """_scores of the k windows of width w from record lo on."""
    return _scores(frame.actual[lo:lo + k * w].reshape(k, w),
                   frame.predicted[lo:lo + k * w].reshape(k, w), horizon)


def error_by_period(frame: ForecastFrame, bucketing: Bucketing) -> list[ErrorWindow]:
    """Score every bucket of a forecast frame; buckets partition the records.

    The naive baseline is evaluated at the frame's horizon, the lead of the
    model forecasts.
    """
    if len(frame) == 0:
        raise ValueError("no forecast records to score")
    h = frame.horizon
    labels, stacks = _stacks(frame, bucketing)
    scores = [_score_frame(frame, lo, k, w, h) for lo, k, w in stacks]
    rel = np.concatenate([r for r, _ in scores]).tolist()
    base = np.concatenate([b for _, b in scores]).tolist()
    # The first and last record of each window, their targets' series
    # indices and their day numbers, each looked up in one array operation.
    records = np.array([(lo + i * w, lo + (i + 1) * w - 1)
                        for lo, k, w in stacks for i in range(k)]).reshape(-1, 2)
    index = frame.first + frame.horizon + records
    days = frame.series.days[index]
    return [ErrorWindow(label=label, start=date.fromordinal(d0),
                        end=date.fromordinal(d1), start_index=i0,
                        end_index=i1, rel_mse=r, baseline_rel_mse=b)
            for label, (i0, i1), (d0, d1), r, b
            in zip(labels, index.tolist(), days.tolist(), rel, base)]


@dataclass(frozen=True)
class ProtocolConfig:
    """Fit-once-forecast-rest experiment settings.

    The model is fitted on the earliest fit_window constraint rows and
    then predicts every remaining feasible point, independently for each
    anticipation (horizon) value.
    """

    dim: int = 4
    degree: int = 2
    fit_window: int = 700
    anticipation: tuple[int, ...] = (7, 10, 13, 16)
    bucketing: Bucketing = field(default_factory=YearBuckets)
    lag: int = 1

    def __post_init__(self):
        if not isinstance(self.bucketing, (YearBuckets, WindowBuckets)):
            raise ValueError("bucketing must be YearBuckets() or "
                             f"WindowBuckets(width), got {self.bucketing!r}")
        object.__setattr__(self, "anticipation", tuple(
            check_int("anticipation", t) for t in self.anticipation))
        if not self.anticipation:
            raise ValueError("anticipation set must be nonempty")
        if len(set(self.anticipation)) != len(self.anticipation):
            raise ValueError("anticipation values must be distinct")
        for field_name in ("dim", "degree", "fit_window", "lag"):
            object.__setattr__(self, field_name,
                               check_int(field_name, getattr(self, field_name)))

    def embed_config(self, horizon: int) -> EmbedConfig:
        return EmbedConfig(dim=self.dim, degree=self.degree, horizon=horizon,
                           n_fit=self.fit_window, lag=self.lag)


@dataclass(frozen=True)
class ForecastTrack:
    """Everything the protocol produced for one anticipation value."""

    model: FittedModel
    frame: ForecastFrame
    windows: tuple[ErrorWindow, ...]
    rel_mse: float            # over the whole out-of-sample stretch
    baseline_rel_mse: float

    @property
    def horizon(self) -> int:
        return self.frame.horizon


@dataclass(frozen=True)
class PredictabilityReport:
    tracks: tuple[ForecastTrack, ...]


def run_protocol(series: TimeSeries, protocol: ProtocolConfig,
                 rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
                 standardize: bool = False) -> PredictabilityReport:
    """Fit on the earliest fit_window constraints, separately for each
    anticipation value, then forecast everything after in one pass over
    the anchors and score per bucket."""
    models = [fit(series, protocol.embed_config(horizon),
                  rank_tolerance=rank_tolerance, standardize=standardize)
              for horizon in protocol.anticipation]
    first = models[0].config.span + protocol.fit_window
    frames = forecast_batch(series, models, first)
    tracks: list[ForecastTrack] = []
    for model, frame in zip(models, frames):
        windows = error_by_period(frame, protocol.bucketing)
        overall, base = _score_frame(frame, 0, 1, len(frame), frame.horizon)
        tracks.append(ForecastTrack(model=model, frame=frame,
                                    windows=tuple(windows),
                                    rel_mse=float(overall[0]),
                                    baseline_rel_mse=float(base[0])))
    return PredictabilityReport(tracks=tuple(tracks))
