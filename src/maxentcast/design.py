"""Delay vectors, polynomial features, and the linear constraint system.

A delay vector at index t collects dim lagged observations
``[v(t), v(t-lag), ..., v(t-(dim-1)*lag)]``.  The model is a full
polynomial in those components up to ``degree``.  Feature rows follow one
fixed total order: the constant 1 first, then every monomial of degree
1, 2, ... in turn, each degree block ordered lexicographically by its
non-decreasing tuple of component indices (v1 before v2, v1*v1 before
v1*v2 before v2*v2).  This order is part of the serialization contract
and never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import InfeasibleWindowError, NumericalFailureError, check_int
from .ingest import TimeSeries


@dataclass(frozen=True)
class EmbedConfig:
    """Reconstruction and fit geometry; every size is in index steps."""

    dim: int        # components per delay vector
    degree: int     # polynomial degree of the fitted map
    horizon: int    # how far ahead each prediction targets
    n_fit: int      # constraint rows used for fitting
    lag: int = 1    # index spacing between delay components

    def __post_init__(self):
        for field_name in ("dim", "degree", "horizon", "n_fit", "lag"):
            object.__setattr__(self, field_name,
                               check_int(field_name, getattr(self, field_name)))

    @property
    def span(self) -> int:
        """History needed before index t to build its delay vector."""
        return (self.dim - 1) * self.lag

    @property
    def n_features(self) -> int:
        return count_coefficients(self.dim, self.degree)


def count_coefficients(dim: int, degree: int) -> int:
    """Number of model coefficients: the constant term plus every monomial
    of degree 1..degree in dim variables (multisets, i.e. combinations
    with repetition)."""
    if dim < 1 or degree < 1:
        raise ValueError("dim and degree must both be >= 1")
    return 1 + sum(comb(dim + k - 1, k) for k in range(1, degree + 1))


@lru_cache(maxsize=None)
def monomial_terms(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Component-index multisets in the canonical feature order.

    () is the constant term, (0,) is v1, (0, 1) is v1*v2, and so on.
    """
    if dim < 1 or degree < 1:
        raise ValueError("dim and degree must both be >= 1")
    terms: list[tuple[int, ...]] = [()]
    for k in range(1, degree + 1):
        terms.extend(combinations_with_replacement(range(dim), k))
    return tuple(terms)


def monomial_labels(dim: int, degree: int) -> tuple[str, ...]:
    """Column names in feature order: "1", "v1", "v1*v2", ..."""
    return tuple("1" if not term else "*".join(f"v{i + 1}" for i in term)
                 for term in monomial_terms(dim, degree))


@lru_cache(maxsize=None)
def _prefix_columns(dim: int, degree: int) -> tuple[tuple[int, int], ...]:
    """(prefix column, component) for every column of degree >= 2.

    A term's prefix is the term less its last index, itself a column one
    degree lower: v1*v2*v3 is column v1*v2 times component v3.
    """
    terms = monomial_terms(dim, degree)
    position = {term: j for j, term in enumerate(terms)}
    return tuple((position[term[:-1]], term[-1]) for term in terms[dim + 1:])


def feature_matrix(delays: np.ndarray, degree: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Feature rows for a stack of delay vectors (one vector per row).

    Each column of degree k >= 2 is its degree-(k-1) prefix column times
    one delay component, so every product runs left to right:
    v1*v2*v3 = (v1*v2) * v3.  With out, the rows are written into that
    C-contiguous float64 (n_rows, n_features) array, which is returned.
    Non-finite features, such as an overflowing product, raise
    NumericalFailureError.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 2:
        raise ValueError("delays must be 2-d (n_rows, dim)")
    n, dim = delays.shape
    shape = (n, count_coefficients(dim, degree))
    if out is None:
        out = np.empty(shape)
    elif (out.shape != shape or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    out[:, 0] = 1.0
    out[:, 1:dim + 1] = delays
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (prefix, i) in enumerate(_prefix_columns(dim, degree), start=dim + 1):
            np.multiply(out[:, prefix], delays[:, i], out=out[:, j])
    if not np.isfinite(out).all():
        raise NumericalFailureError(
            f"degree-{degree} features of delay vectors up to "
            f"|v| = {np.max(np.abs(delays)):g} are not finite")
    return out


def delay_matrix(values, times, dim: int, lag: int = 1) -> np.ndarray:
    """Delay vectors for many indices at once, one per row."""
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=int)
    return np.column_stack([values[times - i * lag] for i in range(dim)])


# Forecast features are built in blocks of anchors, each about this many
# bytes of float64 (rows x N_c x 8), so memory does not grow with the anchor
# count and a block stays in cache while it is multiplied.
_FORECAST_BLOCK_BYTES = 1 << 20


def forecast_block_rows(n_features: int) -> int:
    """Anchors per forecast block: the byte budget, in whole multiples of 64.

    Blocks that start on multiples of 64 rows keep BLAS's grouping of
    output rows (OpenBLAS dgemv takes them four at a time) as it is in one
    product over every anchor, so with one BLAS thread each prediction has
    the same bits as it would have there.  At least 128 rows.  A block's
    buffer holds one row more, so that a last row left over joins the
    block before it (see forecast_batch).
    """
    return max(128, _FORECAST_BLOCK_BYTES // (8 * n_features) // 64 * 64)


# The largest feature matrix embed or forecast_batch builds, in bytes of
# float64 (rows x N_c x 8).  A fit holds several arrays of its design's
# size at once (the design and the SVD's factors), so a larger one would
# exhaust the memory of a typical machine.
MAX_DESIGN_BYTES = 1 << 28


def check_design_size(config: EmbedConfig) -> None:
    """Refuse an embedding whose fit design (n_fit rows) or forecast block
    (forecast_block_rows + 1 rows) would pass MAX_DESIGN_BYTES, from its
    sizes alone."""
    n_features = config.n_features
    block = forecast_block_rows(n_features) + 1
    rows = max(config.n_fit, block)
    size = 8 * rows * n_features
    if size > MAX_DESIGN_BYTES:
        what = "fit design" if config.n_fit >= block else "forecast block"
        raise InfeasibleWindowError(
            f"a {what} of {rows} rows x {n_features} features takes "
            f"{size:,} bytes, over the limit of {MAX_DESIGN_BYTES:,}")


def embed(series: TimeSeries, config: EmbedConfig,
          start: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The constraint system features @ a = targets of n_fit consecutive
    anchors, as the arrays (features, targets).

    Row n holds the features of the delay vector at t = start + n, and
    targets[n] is v(start + n + horizon).  start defaults to the earliest
    feasible index (dim-1)*lag, so the fit consumes the earliest rows.
    An embedding check_design_size refuses is refused before any is built.
    """
    check_design_size(config)
    values = series.values
    n_obs = values.size
    if start is None:
        start = config.span
    last_needed = start + config.n_fit - 1 + config.horizon
    if start < config.span or last_needed > n_obs - 1:
        raise InfeasibleWindowError(
            f"window start={start}, n_fit={config.n_fit}, horizon={config.horizon} "
            f"needs indices up to {last_needed}, series has {n_obs}")
    times = np.arange(start, start + config.n_fit)
    features = feature_matrix(delay_matrix(values, times, config.dim, config.lag),
                              config.degree)
    return features, values[times + config.horizon]
