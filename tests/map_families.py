"""Chaotic polynomial delay maps whose coefficients the tests recover."""

from maxentcast.design import monomial_terms


def henon_map_coefficients(a: float = 1.4, b: float = 0.3) -> tuple[float, ...]:
    """v(t+1) = 1 - a v1^2 + b v2 (dim 2, degree 2), chaotic at defaults."""
    return (1.0, 0.0, float(b), -float(a), 0.0, 0.0)


def chaotic_quad_map_coefficients(dim: int, a: float = 1.76,
                                  b: float = 0.1) -> tuple[float, ...]:
    """v(t+1) = a - v_{dim-1}^2 - b v_dim for dim >= 2.

    A standard family of bounded chaotic quadratic delay maps whose
    memory genuinely spans all dim lags, which keeps the embedded feature
    matrix well conditioned for coefficient-recovery checks.
    """
    if dim < 2:
        raise ValueError("this family needs dim >= 2")
    terms = monomial_terms(dim, 2)
    index = {t: i for i, t in enumerate(terms)}
    out = [0.0] * len(terms)
    out[index[()]] = float(a)
    out[index[(dim - 1,)]] = -float(b)
    out[index[(dim - 2, dim - 2)]] = -1.0
    return tuple(out)
