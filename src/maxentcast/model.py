"""Least-squares fitting through the SVD pseudoinverse, and forecasting.

The coefficient estimate is the minimum-norm least-squares solution of
``features @ a = targets``, solved through the SVD of the features with
singular values at or below rank_tolerance * s_max treated as zero: in
exact arithmetic, the pseudoinverse of the features times the targets.
For a system with full column rank this is the unique least-squares
solution; for an underdetermined consistent system it is the interpolant
of smallest Euclidean norm, which is also the maximum-entropy point
estimate of the coefficient distribution under the fit constraints.
Intermediate quantities of that derivation (multipliers, partition
normalization) are never materialized; the pseudoinverse solve is the
whole computation.

Predictions are always direct: the fitted map sees observed delay
vectors only, never its own output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import (EmbedConfig, anchor_features, embed, fit_anchors,
                     forecast_block_rows, monomial_labels)
from .errors import (DegenerateMatrixError, InfeasibleWindowError,
                     NumericalFailureError, check_int)
from .ingest import TimeSeries

_ABS_FLOOR = 1e-300

DEFAULT_RANK_TOLERANCE = 1e-10


def check_rank_tolerance(rank_tolerance: float) -> None:
    """Refuse a relative singular-value cutoff outside (0, 1)."""
    if not 0.0 < rank_tolerance < 1.0:
        raise ValueError(f"rank_tolerance must lie in (0, 1), got {rank_tolerance!r}")


def _min_norm_solver(matrix: np.ndarray, rank_tolerance: float):
    """The SVD of a finite 2-d matrix as the function that maps a
    right-hand side to its minimum-norm least-squares solution, plus (rank,
    singular_values).  Only singular values above rank_tolerance * max(s)
    are inverted.  Each solution is the same two products, so it has the
    bits a solve with that right-hand side alone would have."""
    if matrix.ndim != 2 or not np.isfinite(matrix).all():
        raise ValueError("matrix must be 2-d and finite")
    check_rank_tolerance(rank_tolerance)
    try:
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] <= _ABS_FLOOR:
        raise DegenerateMatrixError("all singular values are numerically zero")
    keep = s > rank_tolerance * s[0]
    u_keep, v_keep, s_keep = u[:, keep], vt[keep].T, s[keep]

    def solve(rhs: np.ndarray) -> np.ndarray:
        return v_keep @ ((u_keep.T @ rhs) / s_keep)

    return solve, int(np.count_nonzero(keep)), s


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


# A sum of squares at least this large cannot owe its last bit to a term
# that underflowed: such a term is below 2**-1022, over 2**100 times
# smaller.
_TINY_SUM = 2.0 ** -900


def _row_dots(x: np.ndarray) -> np.ndarray:
    """x[i] @ x[i] for each row of a (k, w) stack: a stacked (1, w) @ (w, 1)
    product is the same dot product as the one-row form."""
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _own_scale(diff: np.ndarray, diff_m: np.ndarray, m: np.ndarray):
    """The sum of squares of each row of a difference at the scale 2**-e,
    where 2**e bounds the row's largest magnitude, and e.  diff is the
    difference taken unscaled; a row where it is not finite is taken from
    diff_m, the same difference at the scale 2**-m."""
    over = ~np.isfinite(diff).all(axis=1, keepdims=True)
    diff = np.where(over, diff_m, diff)
    e = np.frexp(np.abs(diff).max(axis=1, keepdims=True))[1]  # 0 at 0, inf, NaN
    return _row_dots(np.ldexp(diff, -e)), (e + np.where(over, m, 0))[:, 0]


def _sums(actual: np.ndarray, predicted: np.ndarray):
    """sum((predicted - actual)^2) and sum((actual - mean)^2) for each row of
    two (k, w) stacks, each at a scale where it neither overflows nor
    underflows, and the exponents of those scales: the true sums are
    num * 4**e_num and denom * 4**e_den.

    Each row gets the same bits as the one-row form would: a row-wise mean
    is the same pairwise sum, and a stacked (1, w) @ (w, 1) product is the
    same dot product as dev @ dev.  A row whose sums come out infinite, NaN
    or below _TINY_SUM is summed again, its error and its deviation each
    scaled by 2**-e, where 2**e bounds that difference's own largest
    magnitude; both exponents are 0 for every other row.  A difference is
    taken unscaled where it is finite across the row, and otherwise from
    the values scaled by their largest magnitude.  Scaling by a power of two is exact,
    so a rescued sum keeps the bits of the unscaled sum wherever that
    neither overflows nor underflows, and a term is lost only against its
    own sum's largest: ``_sums([[1e10, 1e-300, 2.0]], [[1e10, 0.0, 2.0]])``
    gives a residual of 1e-300.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        err = predicted - actual  # one (k, w) temporary at a time
        num = _row_dots(err)
        del err
        denom = _row_dots(actual - actual.mean(axis=1, keepdims=True))
        e_num, e_den = np.zeros((2, *num.shape), dtype=int)
        redo = ~((num >= _TINY_SUM) & (num < np.inf)
                 & (denom >= _TINY_SUM) & (denom < np.inf))
        if redo.any():
            a, p = actual[redo], predicted[redo]
            m = np.frexp(np.maximum(np.abs(a).max(axis=1, keepdims=True),
                                    np.abs(p).max(axis=1, keepdims=True)))[1]
            a_m, p_m = np.ldexp(a, -m), np.ldexp(p, -m)
            num[redo], e_num[redo] = _own_scale(p - a, p_m - a_m, m)
            denom[redo], e_den[redo] = _own_scale(
                a - a.mean(axis=1, keepdims=True),
                a_m - a_m.mean(axis=1, keepdims=True), m)
    return num, denom, e_num, e_den


def fit_batch(series: TimeSeries, configs, start: int | None = None,
              rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
              standardize: bool = False) -> list[FittedModel]:
    """One fitted model per config, from one factorization.

    The configs share dim, degree, lag and n_fit and may differ in
    horizon, so every constraint system embed(series, config, start)
    builds has the same feature matrix and its own targets.  That matrix
    is built, standardized and decomposed once; each horizon then takes
    its own projection of its targets, the mapping back to original units
    and its residual, each in the same operations as alone, so a model has
    the same bits in any batch.  A horizon whose targets leave the series
    raises InfeasibleWindowError, the first such in configs order.

    With standardize=True the non-constant feature columns are z-scored
    before the solve and the solution is mapped back to original units.
    In exact arithmetic predictions are unchanged; the switch only moves
    which directions fall under the rank cutoff, so it is a conditioning
    control, off by default.  Diagnostics describe the matrix actually
    decomposed; the residual norm is always in original units.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    head = configs[0]
    if any((c.dim, c.degree, c.lag, c.n_fit)
           != (head.dim, head.degree, head.lag, head.n_fit) for c in configs):
        raise ValueError("configs in one batch must share dim, degree, lag and n_fit")
    W, _ = embed(series, head, start)
    if standardize:
        # Each column's moments are taken after scaling it by 2**-e, where
        # 2**e bounds its largest magnitude, so no square overflows; the
        # scaling is exact, so a column that needs no rescue keeps its bits.
        shift = np.frexp(np.max(np.abs(W), axis=0))[1]
        scaled = np.ldexp(W, -shift)
        mean = np.ldexp(scaled.mean(axis=0), shift)
        sd = np.ldexp(scaled.std(axis=0), shift)
        scale = np.where(sd > 0, sd, 1.0)
        center = np.where(sd > 0, mean, 0.0)
        scale[0] = 1.0
        center[0] = 0.0
        solve, rank, s = _min_norm_solver((W - center) / scale, rank_tolerance)
    else:
        solve, rank, s = _min_norm_solver(W, rank_tolerance)
    models = []
    for config in configs:
        y = series.values[fit_anchors(series, config, start) + config.horizon]
        coef = b = solve(y)
        if standardize:
            coef = b / scale
            coef[0] = b[0] - float(np.sum((b[1:] / scale[1:]) * center[1:]))
        num, _, e, _ = _sums(y[None], (W @ coef)[None])
        models.append(FittedModel(
            coefficients=coef,
            config=config,
            diagnostics=FitDiagnostics(
                rank=rank, singular_values=s,
                residual_norm=float(np.ldexp(np.sqrt(num[0]), e[0]))),
            standardized=standardize,
        ))
    return models


def fit(series: TimeSeries, config: EmbedConfig, start: int | None = None,
        rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
        standardize: bool = False) -> FittedModel:
    """Estimate model coefficients from the constraint system that
    embed(series, config, start) builds: fit_batch of one config."""
    return fit_batch(series, [config], start, rank_tolerance, standardize)[0]


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
    forecast_block_rows anchors are built once, in buffers reused from
    block to block, and every model applies its own coefficients to them,
    writing its predictions in place.
    Each prediction uses the observed delay vector at its anchor; model
    output is never fed back.  A model with no anchor, or a first before the
    embedding span, raises InfeasibleWindowError.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    cfg = models[0].config
    if any((m.config.dim, m.config.degree, m.config.lag)
           != (cfg.dim, cfg.degree, cfg.lag) for m in models):
        raise ValueError("models in one batch must share dim, degree and lag")
    n_obs = len(series)
    first = check_int("first", first, 0)
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
    columns = np.empty((cfg.n_features, rows + 1))
    stop = max(counts)
    # numpy applies a one-row product as a dot product, whose sum can differ
    # in the last bit from gemv's: a one-row remainder joins the block before.
    for lo in range(0, max(stop - 1, 1), rows):
        hi = min(lo + rows + 1, stop)
        features = anchor_features(series.values, cfg, first + lo, hi - lo,
                                   out=block[:hi - lo],
                                   scratch=columns[:, :hi - lo])
        for k, c in enumerate(counts):
            if lo < max(c - 1, 1):
                m = c - lo if c - lo <= rows + 1 else rows
                np.matmul(features[:m], models[k].coefficients,
                          out=predicted[k][lo:lo + m])
    return [ForecastFrame(series=series, first=first, horizon=m.config.horizon,
                          predicted=p)
            for m, p in zip(models, predicted)]


def forecast_series(series: TimeSeries, model: FittedModel,
                    first: int) -> ForecastFrame:
    """Direct horizon-step predictions from every feasible anchor from
    first on: forecast_batch for one model."""
    return forecast_batch(series, [model], first)[0]
