"""Reference iteration of a polynomial delay map, kept as a test oracle.

This is the step-by-step loop on NumPy scalars: each step sums every
term's coefficient times its product of lags, adds the noise, and checks
the new value against the bound before the next step.  The package's
chunked iteration on Python floats must give the same bytes, and the
same step and value when an orbit diverges.
"""

from __future__ import annotations

import numpy as np

from maxentcast import rng
from maxentcast.design import monomial_terms
from maxentcast.errors import DivergentOrbitError
from maxentcast.synth import PolyMapSpec, _infer_degree


def continue_poly_map(spec: PolyMapSpec, history: np.ndarray,
                      n_new: int) -> np.ndarray:
    """Iterate the map forward from the tail of history; n_new new values,
    the first at index len(history) of the caller's series."""
    dim = spec.dim
    terms = monomial_terms(dim, _infer_degree(dim, len(spec.coefficients)))
    if history.size < dim:
        raise ValueError(f"history of {history.size} values cannot seed a dim-{dim} map")
    window = list(history[-dim:])
    eps = rng.normals(spec.seed, n_new) if spec.noise_sigma > 0 else None
    out = np.empty(n_new)
    coefs = spec.coefficients
    for j in range(n_new):
        acc = coefs[0]
        for c, term in zip(coefs[1:], terms[1:]):
            prod = 1.0
            for i in term:
                prod *= window[-1 - i]  # component i is the i-th lag back
            acc += c * prod
        if spec.noise_sigma > 0:
            acc += spec.noise_sigma * eps[j]
        if not np.isfinite(acc) or abs(acc) > spec.bound:
            bad = acc if np.isfinite(acc) else float("inf")
            raise DivergentOrbitError(history.size + j, bad, spec.bound)
        out[j] = acc
        window = window[1:] + [acc]
    return out
