"""Reference implementations of feature construction and forecasting, kept
as test oracles.

These are the whole-matrix versions: every feature column is a copy of
its first component times the rest, left to right, and a forecast builds
one (anchors, N_c) matrix and applies the coefficients to it in a single
product.  The package's blocked forecast must give the same bytes.
"""

from __future__ import annotations

import numpy as np

from maxentcast import monomial_terms
from maxentcast.design import delay_matrix


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
