"""Reference implementations of delay vectors, feature construction,
fitting and forecasting, kept as test oracles.

These are the whole-matrix versions: the delay vectors of many anchors
are one fancy index of the series, every feature column is a copy of
its first component times the rest, left to right, a forecast builds
one (anchors, N_c) matrix and applies the coefficients to it in a single
product, and a fit builds and decomposes its own matrix for its one
horizon and sums its residual with dot products.  The package's feature
build, blocked forecast and batched fit must give the same bytes.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

# Sums below this, or not finite, are taken again after scaling
TINY_SUM = 2.0 ** -900


def delays(values, times, dim: int, lag: int) -> np.ndarray:
    """The delay vectors [v(t), v(t - lag), ...] at times, one per row."""
    times = np.asarray(times, dtype=int)
    return np.asarray(values, dtype=float)[times[:, None] - lag * np.arange(dim)]


def feature_matrix(vectors: np.ndarray, degree: int) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=float)
    n, dim = vectors.shape
    # the documented order: 1, then each degree's non-decreasing index tuples
    terms = [()] + [term for k in range(1, degree + 1)
                    for term in combinations_with_replacement(range(dim), k)]
    out = np.empty((n, len(terms)))
    for j, term in enumerate(terms):
        if not term:
            out[:, j] = 1.0
        else:
            col = vectors[:, term[0]].copy()
            for i in term[1:]:
                col *= vectors[:, i]
            out[:, j] = col
    return out


def forecast_predicted(values, coefficients, times, dim: int, degree: int,
                       lag: int) -> np.ndarray:
    """Predictions at every anchor in times from one whole feature matrix."""
    return (feature_matrix(delays(values, times, dim, lag), degree)
            @ np.asarray(coefficients, dtype=float))


def sums(a: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """sum((p - a)**2) and sum((a - mean(a))**2) of one window, each a dot
    product."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = a - a.mean()
        err = p - a
        return float(err @ err), float(dev @ dev)


def own_scale(d: np.ndarray, d_m: np.ndarray, m: int) -> tuple[float, int]:
    """d @ d with d scaled by 2**-e, for the 2**e that bounds its largest
    magnitude, and e.  Where d is not finite, d_m, the same difference at
    the scale 2**-m, stands in for it."""
    shift = 0
    if not np.isfinite(d).all():
        d, shift = d_m, m
    e = math.frexp(float(np.abs(d).max()))[1]
    x = np.ldexp(d, -e)
    return float(x @ x), e + shift


def scaled_sums(a: np.ndarray, p: np.ndarray,
                scaled: bool = True) -> tuple[float, float, int, int]:
    """sums(a, p) and the exponents 0, 0; or, when scaled and either sum
    overflows, underflows or is 0, the own_scale sums of the error p - a and
    of the deviation a - mean(a) and their exponents.  Each difference is
    taken as it is when all finite, and otherwise from a and p scaled by
    2**-m, for the 2**m that bounds their largest magnitude.  The true sums are the
    ones returned times 4**e_num and 4**e_den."""
    num, denom = sums(a, p)
    if scaled and not (TINY_SUM <= num < math.inf
                       and TINY_SUM <= denom < math.inf):
        m = math.frexp(max(float(np.abs(a).max()), float(np.abs(p).max())))[1]
        a_m, p_m = np.ldexp(a, -m), np.ldexp(p, -m)
        with np.errstate(over="ignore", invalid="ignore"):
            num, e_num = own_scale(p - a, p_m - a_m, m)
            denom, e_den = own_scale(a - a.mean(), a_m - a_m.mean(), m)
        return num, denom, e_num, e_den
    return num, denom, 0, 0


def fit(series, config, start=None, rank_tolerance: float = 1e-10,
        standardize: bool = False):
    """(coefficients, rank, singular_values, residual_norm) of one horizon's
    fit, from its own whole feature matrix and its own SVD."""
    if start is None:
        start = config.span
    times = np.arange(start, start + config.n_fit)
    features = feature_matrix(
        delays(series.values, times, config.dim, config.lag), config.degree)
    targets = series.values[times + config.horizon]
    matrix = features
    if standardize:
        shift = np.frexp(np.max(np.abs(features), axis=0))[1]
        scaled = np.ldexp(features, -shift)
        mean = np.ldexp(scaled.mean(axis=0), shift)
        sd = np.ldexp(scaled.std(axis=0), shift)
        scale = np.where(sd > 0, sd, 1.0)
        center = np.where(sd > 0, mean, 0.0)
        scale[0] = 1.0
        center[0] = 0.0
        matrix = (features - center) / scale
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    keep = s > rank_tolerance * s[0]
    coef = vt[keep].T @ ((u[:, keep].T @ targets) / s[keep])
    if standardize:
        b = coef
        coef = b / scale
        coef[0] = b[0] - float(np.sum((b[1:] / scale[1:]) * center[1:]))
    num, _, e, _ = scaled_sums(targets, features @ coef)
    return (coef, int(np.count_nonzero(keep)), s,
            float(np.ldexp(np.sqrt(num), e)))
