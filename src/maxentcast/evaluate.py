"""Forecast scoring: variance-normalized error by calendar or fixed windows.

A window's rel_mse is sum((predicted - actual)^2) / sum((actual - mean)^2),
the squared error normalized by the window's own variance (equivalently
1 - R^2): 0 is perfect, 1 is no better than the window mean, and the
score is invariant under affine rescaling of the data.  Each window also
gets a baseline: the same score for the naive carry-forward forecast at
matched horizon, v_hat(t + h) = v(t), computed from the window's actuals
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvtext import civil_dates
from .design import EmbedConfig
from .errors import check_int
from .ingest import TimeSeries
from .model import (DEFAULT_RANK_TOLERANCE, FittedModel, ForecastFrame, _sums,
                    fit_batch, forecast_batch)


def _scores(actual: np.ndarray, predicted: np.ndarray,
            horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """rel_mse, and that of the carry-forward forecast at horizon, of
    each row of two (k, w) stacks of windows with finite actual values;
    NaN where a row cannot be scored (non-finite predictions, zero
    variance, or too few points)."""
    num, denom, e_num, e_den = _sums(actual, predicted)
    usable = np.isfinite(predicted).all(axis=1) & (denom > 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rel = np.where(usable, np.ldexp(num / denom, 2 * (e_num - e_den)),
                       np.nan)
        if actual.shape[1] < horizon + 2:
            return rel, np.full(actual.shape[0], np.nan)
        num, denom, e_num, e_den = _sums(actual[:, horizon:],
                                         actual[:, :-horizon])
        return rel, np.where(denom > 0.0,
                             np.ldexp(num / denom, 2 * (e_num - e_den)),
                             np.nan)


@dataclass(frozen=True)
class YearBuckets:
    """Partition records by the calendar year of their target date."""

    def starts(self, days: np.ndarray) -> tuple[list[str], np.ndarray]:
        """Labels and first records of the windows over records whose
        targets fall on the day numbers days, in order."""
        years = civil_dates(days)[0]
        starts = np.flatnonzero(np.diff(years, prepend=years[0] - 1))
        return [str(y) for y in years[starts].tolist()], starts


@dataclass(frozen=True)
class WindowBuckets:
    """Partition records into consecutive fixed-width index windows."""

    width: int

    def __post_init__(self):
        object.__setattr__(self, "width", check_int("window width", self.width, 2))

    def starts(self, days: np.ndarray) -> tuple[list[str], np.ndarray]:
        """Labels and first records of the windows over days.size records."""
        starts = np.arange(0, days.size, self.width)
        return [f"w{i:03d}" for i in range(starts.size)], starts


Bucketing = YearBuckets | WindowBuckets


@dataclass(frozen=True)
class ErrorWindow:
    """Scores for one bucket of forecast records.

    A window is the index range of its targets in the forecast series;
    their dates are that series' days at those indices.  Degenerate
    buckets (too few points or zero variance for either score) are kept in
    place with NaN scores, so window indices always partition the record
    range.
    """

    label: str
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


def _score_frame(frame: ForecastFrame, lo: int, k: int,
                 w: int) -> tuple[np.ndarray, np.ndarray]:
    """_scores of the k windows of width w from record lo on."""
    return _scores(frame.actual[lo:lo + k * w].reshape(k, w),
                   frame.predicted[lo:lo + k * w].reshape(k, w), frame.horizon)


def error_by_period(frame: ForecastFrame, bucketing: Bucketing) -> list[ErrorWindow]:
    """Score every bucket of a forecast frame; buckets partition the records.

    The naive baseline is evaluated at the frame's horizon, the lead of the
    model forecasts.
    """
    if len(frame) == 0:
        raise ValueError("no forecast records to score")
    n = len(frame)
    first = frame.first + frame.horizon  # the series index of the first target
    labels, starts = bucketing.starts(frame.series.days[first:first + n])
    # Each run of consecutive windows of one width is scored as one (k, w)
    # stack; widths are positive, so the first window heads a run.
    widths = np.diff(starts, append=n)
    heads = np.flatnonzero(np.diff(widths, prepend=0))
    scores = [_score_frame(frame, lo, k, w) for lo, k, w in zip(
        starts[heads].tolist(), np.diff(heads, append=widths.size).tolist(),
        widths[heads].tolist())]
    rel = np.concatenate([r for r, _ in scores]).tolist()
    base = np.concatenate([b for _, b in scores]).tolist()
    lo = first + starts  # the series index of each window's first target
    return [ErrorWindow(label, i0, i1, r, b) for label, i0, i1, r, b in zip(
        labels, lo.tolist(), (lo + widths - 1).tolist(), rel, base)]


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
    anticipation value but from one factorization, then forecast
    everything after in one pass over the anchors and score per bucket."""
    models = fit_batch(series, [protocol.embed_config(horizon)
                                for horizon in protocol.anticipation],
                       rank_tolerance=rank_tolerance, standardize=standardize)
    first = models[0].config.span + protocol.fit_window
    frames = forecast_batch(series, models, first)
    tracks: list[ForecastTrack] = []
    for model, frame in zip(models, frames):
        windows = error_by_period(frame, protocol.bucketing)
        overall, base = _score_frame(frame, 0, 1, len(frame))
        tracks.append(ForecastTrack(model=model, frame=frame,
                                    windows=tuple(windows),
                                    rel_mse=float(overall[0]),
                                    baseline_rel_mse=float(base[0])))
    return PredictabilityReport(tracks=tuple(tracks))
