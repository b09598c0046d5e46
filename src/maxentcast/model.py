"""Least-squares fitting through the SVD pseudoinverse, and prediction.

The coefficient estimate is the minimum-norm least-squares solution of
``features @ a = targets``: a = pinv(features) @ targets, with singular
values below rank_tolerance * s_max treated as zero.  For a system with
full column rank this is the unique least-squares solution; for an
underdetermined consistent system it is the interpolant of smallest
Euclidean norm, which is also the maximum-entropy point estimate of the
coefficient distribution under the fit constraints.  Intermediate
quantities of that derivation (multipliers, partition normalization) are
never materialized; the pseudoinverse is the whole computation.

Predictions are always direct: the fitted map sees observed delay
vectors only, never its own output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import (EmbedConfig, delay_matrix, embed, feature_matrix,
                     forecast_block_rows, monomial_labels)
from .errors import (DegenerateMatrixError, DimensionMismatchError,
                     InfeasibleWindowError, NumericalFailureError, check_int)
from .ingest import TimeSeries

_ABS_FLOOR = 1e-300

DEFAULT_RANK_TOLERANCE = 1e-10


def check_rank_tolerance(rank_tolerance: float) -> None:
    """Refuse a relative singular-value cutoff outside (0, 1)."""
    if not 0.0 < rank_tolerance < 1.0:
        raise ValueError(f"rank_tolerance must lie in (0, 1), got {rank_tolerance!r}")


def _svd_cutoff(matrix: np.ndarray, rank_tolerance: float):
    """U, s and Vt of a finite 2-d matrix, and the mask of the singular
    values above rank_tolerance * max(s): the ones that get inverted."""
    if matrix.ndim != 2 or not np.isfinite(matrix).all():
        raise ValueError("matrix must be 2-d and finite")
    check_rank_tolerance(rank_tolerance)
    try:
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] <= _ABS_FLOOR:
        raise DegenerateMatrixError("all singular values are numerically zero")
    return u, s, vt, s > rank_tolerance * s[0]


def lstsq_min_norm(matrix, rhs, rank_tolerance: float = DEFAULT_RANK_TOLERANCE):
    """Minimum-norm least-squares solution, plus (rank, singular_values).

    Factors matrix = U diag(s) Vt and inverts only singular values above
    rank_tolerance * max(s).
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != matrix.shape[:1] or not np.isfinite(rhs).all():
        raise ValueError("need a finite right-hand side, one value per matrix row")
    u, s, vt, keep = _svd_cutoff(matrix, rank_tolerance)
    coef = vt[keep].T @ ((u[:, keep].T @ rhs) / s[keep])
    return coef, int(np.count_nonzero(keep)), s


def pinv(matrix, rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff."""
    u, s, vt, keep = _svd_cutoff(np.asarray(matrix, dtype=float), rank_tolerance)
    return (vt[keep].T / s[keep]) @ u[:, keep].T


@dataclass(frozen=True)
class FitDiagnostics:
    rank: int
    singular_values: np.ndarray
    residual_norm: float

    def __post_init__(self):
        s = np.array(self.singular_values, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "singular_values", s)


@dataclass(frozen=True)
class FittedModel:
    """Coefficients plus the geometry that produced them."""

    coefficients: np.ndarray
    config: EmbedConfig
    diagnostics: FitDiagnostics
    standardized: bool = False

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=float)
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        if coef.ndim != 1 or coef.size != self.config.n_features:
            raise ValueError(
                f"expected {self.config.n_features} coefficients, got {coef.size}")
        if not np.isfinite(coef).all():
            raise ValueError("coefficients must be finite")

    @property
    def feature_labels(self) -> tuple[str, ...]:
        """The name of each coefficient's feature column."""
        return monomial_labels(self.config.dim, self.config.degree)


# A norm at least this large cannot owe its last bit to a square that
# underflowed: such a square is below 2**-1022, over 2**100 times smaller
# than the norm's square.
_TINY_NORM = 2.0 ** -450


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of a vector, summed again after scaling it by
    2**-e, where 2**e bounds its largest magnitude, when the plain norm
    overflows or may have underflowed.  Scaling by a power of two is exact,
    so a norm that needs no rescue keeps its bits."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(x)
    if _TINY_NORM <= norm < np.inf:
        return float(norm)
    shift = int(np.frexp(np.max(np.abs(x), initial=0.0))[1])
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(x, -shift)), shift))


def fit(series: TimeSeries, config: EmbedConfig, start: int | None = None,
        rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
        standardize: bool = False) -> FittedModel:
    """Estimate model coefficients from the constraint system that
    embed(series, config, start) builds.

    With standardize=True the non-constant feature columns are z-scored
    before the solve and the solution is mapped back to original units.
    In exact arithmetic predictions are unchanged; the switch only moves
    which directions fall under the rank cutoff, so it is a conditioning
    control, off by default.  Diagnostics describe the matrix actually
    decomposed; the residual norm is always in original units.  A column
    whose standard deviation overflows raises NumericalFailureError.
    """
    W, y = embed(series, config, start)
    if standardize:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = W.mean(axis=0)
            sd = W.std(axis=0)
        if not np.isfinite(sd).all():
            raise NumericalFailureError(
                f"feature column scales {sd.tolist()} are not finite")
        scale = np.where(sd > 0, sd, 1.0)
        center = np.where(sd > 0, mean, 0.0)
        scale[0] = 1.0
        center[0] = 0.0
        b, rank, s = lstsq_min_norm((W - center) / scale, y, rank_tolerance)
        coef = b / scale
        coef[0] = b[0] - float(np.sum((b[1:] / scale[1:]) * center[1:]))
    else:
        coef, rank, s = lstsq_min_norm(W, y, rank_tolerance)
    return FittedModel(
        coefficients=coef,
        config=config,
        diagnostics=FitDiagnostics(rank=rank, singular_values=s,
                                   residual_norm=_norm(W @ coef - y)),
        standardized=standardize,
    )


def predict(model: FittedModel, features) -> np.ndarray:
    """Apply the fitted map to feature rows; linear in the coefficients."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.coefficients.size:
        raise DimensionMismatchError(
            f"feature rows of shape {features.shape} do not fit a model of "
            f"{model.coefficients.size} coefficients")
    return features @ model.coefficients


@dataclass(frozen=True)
class ForecastFrame:
    """Aligned out-of-sample records of one model: one consecutive run of
    anchors.

    Record j predicts, from the delay vector anchored at series row
    first + j, the observation at row first + horizon + j; there are
    predicted.size records.  actual is the read-only view of the series
    values at those targets, and predicted a read-only view of the array
    given.
    """

    series: TimeSeries
    first: int
    horizon: int
    predicted: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "first", check_int("first", self.first, 0))
        object.__setattr__(self, "horizon", check_int("horizon", self.horizon))
        predicted = np.asarray(self.predicted, dtype=float).view()
        predicted.setflags(write=False)
        object.__setattr__(self, "predicted", predicted)
        if predicted.ndim != 1:
            raise ValueError("predicted must be 1-d")
        if self.first + self.horizon + predicted.size > len(self.series):
            raise ValueError(
                f"{predicted.size} records from anchor {self.first} at horizon "
                f"{self.horizon} do not fit a series of {len(self.series)} points")

    def __len__(self) -> int:
        return int(self.predicted.size)

    @property
    def actual(self) -> np.ndarray:
        lo = self.first + self.horizon
        return self.series.values[lo:lo + len(self)]


def forecast_batch(series: TimeSeries, models, first: int) -> list[ForecastFrame]:
    """Direct predictions of several models from one pass over the anchors.

    Each model predicts from every anchor first, first + 1, ... whose target
    lies in the series: len(series) - first - horizon of them.  The models
    share one embedding (dim, lag, degree) and may differ in horizon and
    coefficients, so the delay vectors and features of each block of
    forecast_block_rows anchors are built once, in one reused buffer, and
    every model applies its own coefficients to them.  Each prediction
    uses the observed delay vector at its anchor; model output is never
    fed back.  A model with no anchor raises InfeasibleWindowError.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    cfg = models[0].config
    if any((m.config.dim, m.config.degree, m.config.lag)
           != (cfg.dim, cfg.degree, cfg.lag) for m in models):
        raise ValueError("models in one batch must share dim, degree and lag")
    values = series.values
    n_obs = len(series)
    first = int(first)
    if first < cfg.span:
        raise InfeasibleWindowError(
            f"anchor {first} comes before the embedding span {cfg.span}")
    counts = [n_obs - first - m.config.horizon for m in models]
    for model, count in zip(models, counts):
        if count < 1:
            horizon = model.config.horizon
            raise InfeasibleWindowError(
                f"anticipation {horizon}: no out-of-sample anchors "
                f"(first candidate {first}, last feasible {n_obs - 1 - horizon})")
    predicted = [np.empty(c) for c in counts]
    rows = forecast_block_rows(cfg.n_features)
    block = np.empty((rows + 1, cfg.n_features))
    stop = max(counts)
    # numpy applies a one-row product as a dot product, whose sum can differ
    # in the last bit from gemv's: a one-row remainder joins the block before.
    for lo in range(0, max(stop - 1, 1), rows):
        hi = min(lo + rows + 1, stop)
        delays = delay_matrix(values, np.arange(first + lo, first + hi),
                              cfg.dim, cfg.lag)
        features = feature_matrix(delays, cfg.degree, out=block[:hi - lo])
        for k, c in enumerate(counts):
            if lo < max(c - 1, 1):
                m = c - lo if c - lo <= rows + 1 else rows
                predicted[k][lo:lo + m] = predict(models[k], features[:m])
    return [ForecastFrame(series=series, first=first, horizon=m.config.horizon,
                          predicted=p)
            for m, p in zip(models, predicted)]


def forecast_series(series: TimeSeries, model: FittedModel,
                    first: int) -> ForecastFrame:
    """Direct horizon-step predictions from every feasible anchor from
    first on: forecast_batch for one model."""
    return forecast_batch(series, [model], first)[0]
