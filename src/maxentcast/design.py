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


def feature_matrix(scratch: np.ndarray, dim: int, degree: int,
                   out: np.ndarray) -> np.ndarray:
    """Feature rows of the delay vectors whose components are rows 1..dim
    of scratch, a float64 (n_features, n_rows) array with contiguous rows.

    The remaining rows of scratch are built in place: row 0 is 1, and each
    column of degree k >= 2 is its degree-(k-1) prefix column times one
    delay component, so every product runs left to right:
    v1*v2*v3 = (v1*v2) * v3.  The transpose of scratch is then copied into
    out, a C-contiguous float64 (n_rows, n_features) array, which is
    returned.  Non-finite features, such as an overflowing product, raise
    NumericalFailureError.
    """
    n_features = count_coefficients(dim, degree)
    if (scratch.ndim != 2 or len(scratch) != n_features
            or scratch.strides[1] != scratch.itemsize
            or out.shape != scratch.shape[::-1] or not out.flags.c_contiguous
            or scratch.dtype != np.float64 or out.dtype != np.float64):
        raise ValueError(f"scratch and out must be float64 arrays, scratch of "
                         f"{n_features} contiguous rows and out C-contiguous, "
                         "of transposed shapes")
    scratch[0] = 1.0
    rows = list(scratch)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (prefix, i) in enumerate(_prefix_columns(dim, degree), start=dim + 1):
            np.multiply(rows[prefix], rows[i + 1], rows[j])
    # Each lower-degree column is the prefix of a top-degree one (the term
    # with its last index once more), and a non-finite factor leaves its
    # product non-finite, so the top-degree rows show every non-finite one.
    if not np.isfinite(scratch[-comb(dim + degree - 1, degree):]).all():
        raise NumericalFailureError(
            f"degree-{degree} features of delay vectors up to "
            f"|v| = {np.max(np.abs(scratch[1:dim + 1])):g} are not finite")
    out[...] = scratch.T
    return out


def anchor_features(values: np.ndarray, config: EmbedConfig, first: int,
                    count: int, out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Feature rows of config's delay vectors at the anchors first, ...,
    first + count - 1 of values, written into out (a new array if None).
    Component i of the vectors, the slice of values i * lag before them, is
    copied straight into row i + 1 of scratch (a new array if None), on
    which feature_matrix builds the rest.  InfeasibleWindowError unless
    every vector lies in values."""
    if first < config.span:
        raise InfeasibleWindowError(
            f"anchor {first} comes before the embedding span {config.span}")
    if first + count > len(values):
        raise InfeasibleWindowError(
            f"anchors up to {first + count - 1} leave a series of "
            f"{len(values)} points")
    if scratch is None:
        scratch = np.empty((config.n_features, count))
    if out is None:
        out = np.empty((count, config.n_features))
    for i in range(config.dim):
        lead = first - i * config.lag
        scratch[i + 1] = values[lead:lead + count]
    return feature_matrix(scratch, config.dim, config.degree, out)


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
# float64 (rows x N_c x 8).  A build also holds a column scratch of the
# same size, and a fit holds several arrays of its design's size at once
# (the design and the SVD's factors), so a larger one would exhaust the
# memory of a typical machine.
MAX_DESIGN_BYTES = 1 << 28


def check_design_size(config: EmbedConfig) -> None:
    """Refuse an embedding whose fit design (n_fit rows) or forecast block
    (forecast_block_rows + 1 rows) would pass MAX_DESIGN_BYTES, from its
    sizes alone.  Building either also takes a column scratch of its size
    (see feature_matrix), so the memory a build holds is twice the figure
    checked."""
    n_features = config.n_features
    block = forecast_block_rows(n_features) + 1
    rows = max(config.n_fit, block)
    size = 8 * rows * n_features
    if size > MAX_DESIGN_BYTES:
        what = "fit design" if config.n_fit >= block else "forecast block"
        raise InfeasibleWindowError(
            f"a {what} of {rows} rows x {n_features} features takes "
            f"{size:,} bytes, over the limit of {MAX_DESIGN_BYTES:,}")


def fit_anchors(series: TimeSeries, config: EmbedConfig,
                start: int | None = None) -> int:
    """The first of the n_fit consecutive anchors of a constraint system;
    InfeasibleWindowError unless each has its delay vector and its target,
    horizon steps on, in the series.  start defaults to the earliest
    feasible index (dim-1)*lag."""
    if start is None:
        start = config.span
    last_needed = start + config.n_fit - 1 + config.horizon
    if start < config.span or last_needed > len(series) - 1:
        raise InfeasibleWindowError(
            f"window start={start}, n_fit={config.n_fit}, horizon={config.horizon} "
            f"needs indices up to {last_needed}, series has {len(series)}")
    return start


def embed(series: TimeSeries, config: EmbedConfig,
          start: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The constraint system features @ a = targets of the fit_anchors of
    (series, config, start), as the arrays (features, targets).

    Row n holds the features of the delay vector at t = start + n, and
    targets[n] is v(start + n + horizon), so by default the fit consumes
    the earliest rows; targets is a read-only view of the series values.
    An embedding check_design_size refuses is refused before any is built.
    """
    check_design_size(config)
    first = fit_anchors(series, config, start)
    features = anchor_features(series.values, config, first, config.n_fit)
    return features, series.values[first + config.horizon:][:config.n_fit]
