"""Seeded series generators used as ground-truth fixtures.

Three families: random walks (the stochastic null), polynomial delay maps
(deterministic dynamics, optionally noisy), and splices that hand over
from one generator to another at a known index.  Every generator is a
pure function of its spec; randomness comes only from :mod:`maxentcast.rng`
(splitmix64 counter plus Box-Muller), so outputs are bit-reproducible
across platforms.  Synthetic series carry consecutive calendar dates from
2000-01-01; index time is what downstream code consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from . import rng
from .design import count_coefficients, monomial_terms
from .errors import DivergentOrbitError, check_int
from .ingest import TimeSeries

# The day number (date.toordinal) of 2000-01-01, the first synthetic day.
_EPOCH_DAY = date(2000, 1, 1).toordinal()


def _index_days(n: int) -> np.ndarray:
    return np.arange(_EPOCH_DAY, _EPOCH_DAY + n)


def _infer_degree(dim: int, n_coefficients: int) -> int:
    """The polynomial degree whose full coefficient count matches."""
    k = 1
    while count_coefficients(dim, k) < n_coefficients:
        k += 1
    if count_coefficients(dim, k) != n_coefficients:
        raise ValueError(
            f"{n_coefficients} coefficients do not form a full polynomial "
            f"basis in {dim} variables")
    return k


@dataclass(frozen=True)
class RandomWalkSpec:
    """v(0) = x0, v(t+1) = v(t) + sigma * eps(t) with eps the seed's normals."""

    n: int
    sigma: float
    x0: float = 0.0
    seed: int = 0

    kind = "walk"

    def __post_init__(self):
        check_int("n", self.n)
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite, "
                             f"got {self.sigma!r}")
        if not np.isfinite(self.x0):
            raise ValueError("x0 must be finite")


@dataclass(frozen=True)
class PolyMapSpec:
    """v(t+1) = coefficients . monomials(delay vector at t) + noise.

    The delay vector uses lag 1: [v(t), v(t-1), ..., v(t-dim+1)].  The
    degree is inferred from the coefficient count.  init supplies the
    opening values (at least dim of them); leave it None only when the
    spec is the second half of a splice, where the first segment's tail
    takes its place.
    """

    n: int
    dim: int
    coefficients: tuple[float, ...]
    init: tuple[float, ...] | None = None
    noise_sigma: float = 0.0
    seed: int = 0
    bound: float = 1e6

    kind = "map"

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))
        if self.init is not None:
            object.__setattr__(self, "init", tuple(float(x) for x in self.init))
        check_int("n", self.n)
        check_int("dim", self.dim)
        _infer_degree(self.dim, len(self.coefficients))
        if self.init is not None and len(self.init) < self.dim:
            raise ValueError(f"init needs at least dim={self.dim} values")
        if not np.isfinite(self.coefficients + (self.init or ())).all():
            raise ValueError("coefficients and init values must be finite")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and nonnegative, "
                             f"got {self.noise_sigma!r}")
        if not self.bound > 0:
            raise ValueError("bound must be positive")


@dataclass(frozen=True)
class SplicedSpec:
    """first, then second continuing from first's tail (its own x0 or init
    is ignored), so there is no level jump at the handover."""

    first: RandomWalkSpec | PolyMapSpec
    second: RandomWalkSpec | PolyMapSpec

    kind = "spliced"

    @property
    def splice_index(self) -> int:
        """The first index governed by second."""
        return self.first.n

    @property
    def n(self) -> int:
        return self.first.n + self.second.n


@dataclass(frozen=True)
class SplicedSeries:
    series: TimeSeries
    changepoint: int  # first index governed by the second spec


# The map iterates this many steps between copies of its new values into
# the output array, so the list it iterates on stays this short at any n.
_CHUNK_STEPS = 4096


def _continue_poly_map(spec: PolyMapSpec, history: np.ndarray,
                       n_new: int) -> np.ndarray:
    """Iterate the map forward from the tail of history; n_new new values,
    the first at index len(history) of the caller's series.

    The steps run on Python floats, whose arithmetic is the doubles' own,
    so no NumPy warning can come of an overflow.  Each chunk of steps is
    checked against the bound at once; the first value out of it, and
    its step, are the ones a check after every step would name."""
    dim = spec.dim
    terms = monomial_terms(dim, _infer_degree(dim, len(spec.coefficients)))
    if history.size < dim:
        raise ValueError(f"history of {history.size} values cannot seed a dim-{dim} map")
    c0, *coefs = spec.coefficients
    # component i of the delay vector is the i-th lag back, window[-1 - i];
    # a zero coefficient keeps its term, as 0 * inf is nan
    products = [(c, tuple(-1 - i for i in term))
             for c, term in zip(coefs, terms[1:])]
    sigma = spec.noise_sigma
    eps = rng.normals(spec.seed, n_new) if sigma > 0 else None
    window = history[-dim:].tolist()
    out = np.empty(n_new)
    for lo in range(0, n_new, _CHUNK_STEPS):
        hi = min(lo + _CHUNK_STEPS, n_new)
        noise = (sigma * eps[lo:hi]).tolist() if eps is not None else None
        for j in range(hi - lo):
            acc = c0
            for c, lags in products:
                prod = 1.0
                for lag in lags:
                    prod *= window[lag]
                acc += c * prod
            if noise is not None:
                acc += noise[j]
            window.append(acc)
        chunk = out[lo:hi]
        chunk[:] = window[dim:]
        # nan is never compared: a comparison may warn of it
        bad = ~np.isfinite(chunk)
        bad[~bad] = np.abs(chunk[~bad]) > spec.bound
        if bad.any():
            k = int(bad.argmax())
            value = float(chunk[k]) if np.isfinite(chunk[k]) else float("inf")
            raise DivergentOrbitError(history.size + lo + k, value, spec.bound)
        del window[:-dim]
    return out


def _extend(spec, history: np.ndarray, n_new: int) -> np.ndarray:
    """n_new values of spec's process continuing from history.  A walk
    that leaves the doubles raises DivergentOrbitError at its first value
    that is not finite."""
    if isinstance(spec, RandomWalkSpec):
        with np.errstate(over="ignore"):
            walk = history[-1] + spec.sigma * np.cumsum(rng.normals(spec.seed, n_new))
        bad = ~np.isfinite(walk)
        if bad.any():
            k = int(bad.argmax())
            raise DivergentOrbitError(history.size + k, float(walk[k]),
                                      float(np.finfo(float).max))
        return walk
    if isinstance(spec, PolyMapSpec):
        return _continue_poly_map(spec, history, n_new)
    raise ValueError(f"unknown generator spec {spec!r}")


def _values(spec) -> np.ndarray:
    """A spec's values: a splice is its first segment's values extended by
    its second spec, any other spec its opening values extended by itself."""
    if isinstance(spec, SplicedSpec):
        head = _values(spec.first)
        return np.concatenate([head, _extend(spec.second, head, spec.second.n)])
    if isinstance(spec, RandomWalkSpec):
        head = np.array([spec.x0], dtype=float)
    elif isinstance(spec, PolyMapSpec):
        if spec.init is None:
            raise ValueError("a standalone poly map spec needs init values")
        if spec.n < len(spec.init):
            raise ValueError(f"n={spec.n} is shorter than init ({len(spec.init)} values)")
        head = np.array(spec.init, dtype=float)
    else:
        raise ValueError(f"unknown generator spec {spec!r}")
    return np.concatenate([head, _extend(spec, head, spec.n - head.size)])


def generate(spec) -> TimeSeries:
    """The series a spec describes, on consecutive days from 2000-01-01.

    It is named walk-s<seed> or map-s<seed>, and spliced for a splice.  A
    spec of fewer than two points is refused: a TimeSeries has at least
    two rows."""
    if isinstance(spec, (RandomWalkSpec, PolyMapSpec, SplicedSpec)):
        check_int("n", spec.n, 2)
    values = _values(spec)
    name = (spec.kind if isinstance(spec, SplicedSpec)
            else f"{spec.kind}-s{spec.seed}")
    return TimeSeries(name, _index_days(values.size), values)


def gen_random_walk(n: int, sigma: float, x0: float = 0.0,
                    seed: int = 0) -> TimeSeries:
    """Gaussian random walk: v(0) = x0, v(t+1) = v(t) + sigma * eps(t)."""
    return generate(RandomWalkSpec(n=n, sigma=sigma, x0=x0, seed=seed))


def gen_spliced(first, second, splice_index: int | None = None) -> SplicedSeries:
    """The series of SplicedSpec(first, second) and its true changepoint,
    the first index governed by second.  splice_index, if given, must be
    first.n."""
    spec = SplicedSpec(first, second)
    if splice_index is not None and splice_index != spec.splice_index:
        raise ValueError(
            f"splice_index {splice_index} must equal the first "
            f"segment's length {first.n}")
    return SplicedSeries(series=generate(spec),
                         changepoint=spec.splice_index)


def logistic_map_coefficients(r: float) -> tuple[float, float, float]:
    """v(t+1) = r v (1 - v): a dim-1, degree-2 coefficient vector."""
    return (0.0, float(r), -float(r))


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


def rescale_map_coefficients(coefficients, dim: int, level: float,
                             scale: float) -> tuple[float, ...]:
    """Conjugate a polynomial delay map by the affine change v = level + scale*u.

    If the base coefficients define u(t+1) = G(u delay vector), the result
    defines H with H(v) = level + scale * G((v - level) / scale) applied
    componentwise, so the dynamics are identical up to units.  Useful for
    placing a bounded map at a series' local level and amplitude.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    degree = _infer_degree(dim, coefficients.size)
    terms = monomial_terms(dim, degree)
    index = {t: i for i, t in enumerate(terms)}
    mu = float(level)
    s = float(scale)
    if s == 0.0 or not (np.isfinite(mu) and np.isfinite(s)):
        raise ValueError("scale must be nonzero and level/scale finite")
    out = np.zeros_like(coefficients)
    for c, term in zip(coefficients, terms):
        partial: dict[tuple[int, ...], float] = {(): float(c)}
        for i in term:
            grown: dict[tuple[int, ...], float] = {}
            for mono, w in partial.items():
                up = tuple(sorted(mono + (i,)))
                grown[up] = grown.get(up, 0.0) + w / s
                grown[mono] = grown.get(mono, 0.0) - w * mu / s
            partial = grown
        for mono, w in partial.items():
            out[index[mono]] += w
    out *= s
    out[0] += mu
    return tuple(float(x) for x in out)


# The planted regime of the detection experiments: a two-band chaotic
# logistic map whose orbit spans SPLICE_MAP_SCALE walk sigmas.
SPLICE_MAP_R = 3.59
SPLICE_MAP_SCALE = 60.0


def logistic_splice(walk: RandomWalkSpec, n_map: int, noise_sigma: float,
                    map_r: float = SPLICE_MAP_R,
                    map_scale: float = SPLICE_MAP_SCALE,
                    bound: float = PolyMapSpec.bound) -> SplicedSpec:
    """A walk, then n_map points of the logistic map with parameter map_r,
    conjugated to map_scale * walk.sigma wide around the walk's last value
    so the deterministic half continues from where the walk stops.  The
    map's noise seed is walk.seed + 1."""
    # The unplaced map is built first, so that a bad setting is refused
    # before the walk is generated.
    second = PolyMapSpec(n=n_map, dim=1,
                         coefficients=logistic_map_coefficients(map_r),
                         noise_sigma=noise_sigma, seed=walk.seed + 1,
                         bound=bound)
    walk_end = float(_values(walk)[-1])
    scale = map_scale * walk.sigma
    coeffs = rescale_map_coefficients(second.coefficients, 1,
                                      walk_end - 0.5 * scale, scale)
    return SplicedSpec(walk, replace(second, coefficients=coeffs))
