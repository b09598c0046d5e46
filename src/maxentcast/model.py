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

import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .design import (DesignMatrix, EmbedConfig, delay_matrix, feature_matrix,
                     monomial_labels)
from .errors import (DegenerateMatrixError, DimensionMismatchError,
                     InfeasibleWindowError, NumericalFailureError,
                     SchemaMismatchError)
from .ingest import TimeSeries

_ABS_FLOOR = 1e-300

MODEL_SCHEMA_VERSION = 1


def _checked_svd(matrix: np.ndarray):
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc


def _validate_system(matrix, rhs, rank_tolerance) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or rhs.ndim != 1 or rhs.size != matrix.shape[0]:
        raise ValueError("need a 2-d matrix and a right-hand side of matching length")
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise ValueError("matrix and right-hand side must be finite")
    if not 0.0 < rank_tolerance < 1.0:
        raise ValueError(f"rank_tolerance must lie in (0, 1), got {rank_tolerance!r}")
    return matrix, rhs


def lstsq_min_norm(matrix, rhs, rank_tolerance: float = 1e-10):
    """Minimum-norm least-squares solution, plus (rank, singular_values).

    Factors matrix = U diag(s) Vt and inverts only singular values above
    rank_tolerance * max(s).
    """
    matrix, rhs = _validate_system(matrix, rhs, rank_tolerance)
    u, s, vt = _checked_svd(matrix)
    if s.size == 0 or s[0] <= _ABS_FLOOR:
        raise DegenerateMatrixError("all singular values are numerically zero")
    keep = s > rank_tolerance * s[0]
    coef = vt[keep].T @ ((u[:, keep].T @ rhs) / s[keep])
    return coef, int(np.count_nonzero(keep)), s


def pinv(matrix, rank_tolerance: float = 1e-10) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or not np.isfinite(matrix).all():
        raise ValueError("matrix must be 2-d and finite")
    if not 0.0 < rank_tolerance < 1.0:
        raise ValueError(f"rank_tolerance must lie in (0, 1), got {rank_tolerance!r}")
    u, s, vt = _checked_svd(matrix)
    if s.size == 0 or s[0] <= _ABS_FLOOR:
        raise DegenerateMatrixError("all singular values are numerically zero")
    keep = s > rank_tolerance * s[0]
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
    feature_labels: tuple[str, ...]
    diagnostics: FitDiagnostics
    standardized: bool = False

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=float)
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "feature_labels", tuple(self.feature_labels))
        if coef.ndim != 1 or coef.size != self.config.n_features:
            raise ValueError(
                f"expected {self.config.n_features} coefficients, got {coef.size}")
        if not np.isfinite(coef).all():
            raise ValueError("coefficients must be finite")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "config": {
                "dim": self.config.dim,
                "degree": self.config.degree,
                "horizon": self.config.horizon,
                "n_fit": self.config.n_fit,
                "lag": self.config.lag,
            },
            "feature_labels": list(self.feature_labels),
            "coefficients": [float(c) for c in self.coefficients],
            "standardized": self.standardized,
            "diagnostics": {
                "rank": self.diagnostics.rank,
                "residual_norm": float(self.diagnostics.residual_norm),
                "singular_values": [float(s) for s in self.diagnostics.singular_values],
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FittedModel":
        if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"model schema {doc.get('schema_version')!r}, "
                f"expected {MODEL_SCHEMA_VERSION}")
        cfg = EmbedConfig(**doc["config"])
        diag = FitDiagnostics(rank=int(doc["diagnostics"]["rank"]),
                              singular_values=np.array(doc["diagnostics"]["singular_values"]),
                              residual_norm=float(doc["diagnostics"]["residual_norm"]))
        return cls(coefficients=np.array(doc["coefficients"], dtype=float),
                   config=cfg, feature_labels=tuple(doc["feature_labels"]),
                   diagnostics=diag, standardized=bool(doc["standardized"]))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True),
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "FittedModel":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def fit(dm: DesignMatrix, rank_tolerance: float = 1e-10,
        standardize: bool = False) -> FittedModel:
    """Estimate model coefficients from a constraint system.

    With standardize=True the non-constant feature columns are z-scored
    before the solve and the solution is mapped back to original units.
    In exact arithmetic predictions are unchanged; the switch only moves
    which directions fall under the rank cutoff, so it is a conditioning
    control, off by default.  Diagnostics describe the matrix actually
    decomposed; the residual norm is always in original units.
    """
    W = dm.features
    y = dm.targets
    if standardize:
        mean = W.mean(axis=0)
        sd = W.std(axis=0)
        scale = np.where(sd > 0, sd, 1.0)
        center = np.where(sd > 0, mean, 0.0)
        scale[0] = 1.0
        center[0] = 0.0
        b, rank, s = lstsq_min_norm((W - center) / scale, y, rank_tolerance)
        coef = b / scale
        coef[0] = b[0] - float(np.sum((b[1:] / scale[1:]) * center[1:]))
    else:
        coef, rank, s = lstsq_min_norm(W, y, rank_tolerance)
    residual = float(np.linalg.norm(W @ coef - y))
    return FittedModel(
        coefficients=coef,
        config=dm.config,
        feature_labels=monomial_labels(dm.config.dim, dm.config.degree),
        diagnostics=FitDiagnostics(rank=rank, singular_values=s,
                                   residual_norm=residual),
        standardized=standardize,
    )


def predict(model: FittedModel, features) -> np.ndarray:
    """Apply the fitted map to feature rows; linear in the coefficients."""
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[None, :]
    if features.ndim != 2 or features.shape[1] != model.coefficients.size:
        raise DimensionMismatchError(
            f"feature rows have {features.shape[-1]} columns, "
            f"model has {model.coefficients.size} coefficients")
    return features @ model.coefficients


@dataclass(frozen=True)
class ForecastFrame:
    """Aligned out-of-sample records.

    Entry j predicts the observation at target_times[j] =
    times[j] + horizon from the delay vector anchored at times[j];
    dates/actual are indexed by the target.
    """

    times: np.ndarray
    target_times: np.ndarray
    dates: tuple[date, ...]
    actual: np.ndarray
    predicted: np.ndarray
    horizon: int

    def __post_init__(self):
        for name in ("times", "target_times", "actual", "predicted"):
            arr = np.array(getattr(self, name),
                           dtype=int if name.endswith("times") else float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dates", tuple(self.dates))
        n = self.times.size
        if not (self.target_times.size == len(self.dates) == self.actual.size
                == self.predicted.size == n):
            raise ValueError("all record fields must share one length")

    def __len__(self) -> int:
        return int(self.times.size)


# Forecast features are built in blocks of anchors, each about this many
# bytes of float64 (rows x N_c x 8), so memory does not grow with the anchor
# count and a block stays in cache while it is multiplied.
_FORECAST_BLOCK_BYTES = 1 << 20


def forecast_block_rows(n_features: int) -> int:
    """Anchors per forecast block: the byte budget, in whole multiples of 64.

    Blocks that start on multiples of 64 rows keep BLAS's grouping of
    output rows (OpenBLAS dgemv takes them four at a time) as it is in one
    product over every anchor, so with one BLAS thread each prediction has
    the same bits as it would have there.  At least 128 rows, so a last
    block moved 64 rows back (see forecast_series) still reaches the end.
    """
    return max(128, _FORECAST_BLOCK_BYTES // (8 * n_features) // 64 * 64)


def forecast_series(series: TimeSeries, model: FittedModel, times) -> ForecastFrame:
    """Direct horizon-step predictions for every anchor index in times.

    Each prediction uses the observed delay vector at its anchor; model
    output is never fed back.  An empty times yields an empty frame.
    Features are built and applied one block of forecast_block_rows
    anchors at a time, in one reused buffer.
    """
    cfg = model.config
    t = np.asarray(list(times), dtype=int)
    if t.size == 0:
        return ForecastFrame(times=t, target_times=t, dates=(),
                             actual=np.empty(0), predicted=np.empty(0),
                             horizon=cfg.horizon)
    n_obs = len(series)
    if int(t.min()) < cfg.span or int(t.max()) + cfg.horizon > n_obs - 1:
        raise InfeasibleWindowError(
            f"anchors [{t.min()}, {t.max()}] with span {cfg.span} and horizon "
            f"{cfg.horizon} do not fit a series of {n_obs} points",
            start=int(t.min()), needed=int(t.max()) + cfg.horizon + 1,
            available=n_obs)
    target_times = t + cfg.horizon
    actual = series.values[target_times]
    rows = forecast_block_rows(cfg.n_features)
    block = np.empty((rows, cfg.n_features))
    predicted = np.empty(t.size)
    starts = list(range(0, t.size, rows))
    if t.size % rows == 1 and t.size > 1:
        # numpy applies a one-row product as a dot product, whose sum can
        # differ in the last bit from gemv's: end on 65 rows instead.
        starts[-1] -= 64
    for lo in starts:
        anchors = t[lo:lo + rows]
        delays = delay_matrix(series.values, anchors, cfg.dim, cfg.lag)
        if not (np.isfinite(delays).all()
                and np.isfinite(actual[lo:lo + anchors.size]).all()):
            raise ValueError("series has missing values in the forecast range; "
                             "clean it first")
        features = feature_matrix(delays, cfg.degree, out=block[:anchors.size])
        predicted[lo:lo + anchors.size] = predict(model, features)
    return ForecastFrame(times=t, target_times=target_times,
                         dates=tuple(series.dates[i] for i in target_times),
                         actual=actual, predicted=predicted, horizon=cfg.horizon)
