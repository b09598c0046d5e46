"""Reference implementations of feature construction, fitting and
forecasting, kept as test oracles.

These are the whole-matrix versions: every feature column is a copy of
its first component times the rest, left to right, a forecast builds
one (anchors, N_c) matrix and applies the coefficients to it in a single
product, and a fit builds and decomposes its own matrix for its one
horizon.  The package's column-major feature build, blocked forecast and
batched fit must give the same bytes.
"""

from __future__ import annotations

import numpy as np

from maxentcast import monomial_terms
from maxentcast.design import delay_matrix
from maxentcast.model import _sums


def feature_matrix(delays: np.ndarray, degree: int) -> np.ndarray:
    delays = np.asarray(delays, dtype=float)
    n, dim = delays.shape
    terms = monomial_terms(dim, degree)
    out = np.empty((n, len(terms)))
    for j, term in enumerate(terms):
        if not term:
            out[:, j] = 1.0
        else:
            col = delays[:, term[0]].copy()
            for i in term[1:]:
                col *= delays[:, i]
            out[:, j] = col
    return out


def forecast_predicted(values, coefficients, times, dim: int, degree: int,
                       lag: int) -> np.ndarray:
    """Predictions at every anchor in times from one whole feature matrix."""
    delays = delay_matrix(values, np.asarray(times, dtype=int), dim, lag)
    return feature_matrix(delays, degree) @ np.asarray(coefficients, dtype=float)


def fit(series, config, start=None, rank_tolerance: float = 1e-10,
        standardize: bool = False):
    """(coefficients, rank, singular_values, residual_norm) of one horizon's
    fit, from its own whole feature matrix and its own SVD."""
    if start is None:
        start = config.span
    times = np.arange(start, start + config.n_fit)
    features = feature_matrix(
        delay_matrix(series.values, times, config.dim, config.lag),
        config.degree)
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
    num, _, e = _sums(targets[None], (features @ coef)[None])
    return (coef, int(np.count_nonzero(keep)), s,
            float(np.ldexp(np.sqrt(num[0]), e[0])))
