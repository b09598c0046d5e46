"""Polynomial maps against the step-by-step oracle in ``reference_synth``.

``generate`` iterates a map on Python floats in chunks of
``synth._CHUNK_STEPS`` steps and checks each chunk against the bound at
once.  Every series here must have the oracle's bytes, and every orbit
that diverges must stop at the oracle's step with the oracle's value.
"""

import numpy as np
import pytest

from maxentcast import (DivergentOrbitError, PolyMapSpec, RandomWalkSpec,
                        SplicedSpec, generate, logistic_map_coefficients,
                        logistic_splice, monomial_terms, synth)

import reference_synth
from map_families import chaotic_quad_map_coefficients, henon_map_coefficients

CHUNK = synth._CHUNK_STEPS
# new values of a map: one step, each side of one chunk edge, and three
# whole chunks and a part
EDGES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)


def oracle(spec):
    """generate(spec) with the oracle iterating every map, or the
    DivergentOrbitError it raises; the oracle's NumPy scalars may warn of
    an overflow, which is not under test here."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(synth, "_continue_poly_map",
                   reference_synth.continue_poly_map)
        try:
            return generate(spec).values
        except DivergentOrbitError as exc:
            return exc


def assert_same_bytes(spec):
    expected = oracle(spec)
    assert isinstance(expected, np.ndarray), expected
    assert generate(spec).values.tobytes() == expected.tobytes()


def bounded_coefficients(dim, degree, seed):
    """Random coefficients whose absolute values sum to 0.9, a third of
    them zero: from values in [-1, 1] the orbit stays in [-1, 1] up to
    the noise."""
    gen = np.random.default_rng(seed)
    n = len(monomial_terms(dim, degree))
    c = gen.uniform(-1.0, 1.0, n)
    c[gen.choice(n, size=max(1, n // 3), replace=False)] = 0.0
    return tuple((0.9 * c / np.abs(c).sum()).tolist())


# the opening values hold -0.0 at the oldest and the newest lag
INIT = (-0.0, 0.5, -0.25, -0.0)


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bounded_map_matches_the_oracle(dim, degree, noise):
    coefficients = bounded_coefficients(dim, degree, 10 * dim + degree)
    assert 0.0 in coefficients
    assert_same_bytes(PolyMapSpec(n=dim + CHUNK + 1, dim=dim,
                                  coefficients=coefficients,
                                  init=INIT[:dim], noise_sigma=noise,
                                  seed=dim + degree))


def cubic_map_coefficients(a=2.8):
    """v(t+1) = a v - v^3, chaotic on [-1.95, 1.95]."""
    return (0.0, a, 0.0, -1.0)


CHAOTIC = {
    "logistic": (1, logistic_map_coefficients(3.9), (0.2,)),
    "henon": (2, henon_map_coefficients(), (0.1, -0.0)),
    "quad3": (3, chaotic_quad_map_coefficients(3), (0.1, 0.2, -0.0)),
    "cubic": (1, cubic_map_coefficients(), (0.3,)),
}


@pytest.mark.parametrize("n_new", EDGES)
@pytest.mark.parametrize("noise", [0.0, 1e-3])
@pytest.mark.parametrize("name", sorted(CHAOTIC))
def test_chaotic_map_matches_the_oracle_at_chunk_edges(name, noise, n_new):
    dim, coefficients, init = CHAOTIC[name]
    assert_same_bytes(PolyMapSpec(n=len(init) + n_new, dim=dim,
                                  coefficients=coefficients, init=init,
                                  noise_sigma=noise, seed=3))


@pytest.mark.parametrize("coefficients, init, first_new", [
    ((0.0, 1.0), (-0.0,), 0.0),     # 0.0 + 1.0 * -0.0 is 0.0
    ((-0.0, 1.0), (-0.0,), -0.0),   # -0.0 + 1.0 * -0.0 is -0.0
    ((-0.0, 0.0), (-0.0,), -0.0),   # -0.0 + 0.0 * -0.0 is -0.0
    # the zero-coefficient term is kept: without it the value would be -0.0
    ((-0.0, 0.0), (1.0,), 0.0),     # -0.0 + 0.0 * 1.0 is 0.0
])
def test_signed_zeros_match_the_oracle(coefficients, init, first_new):
    spec = PolyMapSpec(n=CHUNK + 2, dim=1, coefficients=coefficients,
                       init=init)
    assert_same_bytes(spec)
    assert np.signbit(generate(spec).values[1]) == np.signbit(first_new)


@pytest.mark.parametrize("n_map", EDGES)
def test_walk_to_map_splice_matches_the_oracle(n_map):
    assert_same_bytes(logistic_splice(
        RandomWalkSpec(n=500, sigma=1.0, seed=11), n_map, 0.01))


@pytest.mark.parametrize("n_map", EDGES)
def test_map_to_map_splice_matches_the_oracle(n_map):
    first = PolyMapSpec(n=CHUNK + 5, dim=2, coefficients=henon_map_coefficients(),
                        init=(0.1, 0.2))
    second = PolyMapSpec(n=n_map, dim=2,
                         coefficients=henon_map_coefficients(1.2, 0.3),
                         noise_sigma=1e-3, seed=8)
    assert_same_bytes(SplicedSpec(first, second))


def counting(bound):
    """v(t) = t from v(0) = 0."""
    return PolyMapSpec(n=2 * CHUNK, dim=1, coefficients=(1.0, 1.0),
                       init=(0.0,), bound=bound)


DIVERGENT = {
    # v(t) = 2^t first exceeds 1e6 at t = 20
    "bound": (PolyMapSpec(n=40, dim=1, coefficients=(0.0, 2.0), init=(1.0,)),
              20),
    # v(t) = t first exceeds 5000.5 at t = 5001, and CHUNK - 0.5 at the
    # last step of the first chunk
    "bound_second_chunk": (counting(5000.5), 5001),
    "bound_chunk_end": (counting(CHUNK - 0.5), CHUNK),
    "bound_chunk_start_second_chunk": (counting(CHUNK + 0.5), CHUNK + 1),
    # a noisy identity map, a walk, leaves 100
    "noisy_bound_second_chunk": (PolyMapSpec(n=2 * CHUNK, dim=1,
                                             coefficients=(0.0, 1.0),
                                             init=(0.0,), noise_sigma=1.0,
                                             bound=100.0), None),
    # 1e100 * (1e300)^2 overflows to inf at the third step
    "overflow": (PolyMapSpec(n=50, dim=1, coefficients=(0.0, 0.0, 1e100),
                             init=(1.0,), bound=1.7e308), 3),
    "overflow_second_chunk": (PolyMapSpec(n=2 * CHUNK, dim=1,
                                          coefficients=(0.0, 1.15),
                                          init=(1.0,), bound=np.inf), None),
    # v^2 overflows while v is finite: its zero coefficient gives 0 * inf,
    # which is nan
    "nan": (PolyMapSpec(n=200, dim=1, coefficients=(0.0, 10.0, 0.0),
                        init=(1.0,), bound=1e300), 156),
    "nan_second_chunk": (PolyMapSpec(n=2 * CHUNK, dim=1,
                                     coefficients=(0.0, 1.07, 0.0),
                                     init=(1.0,), bound=1e300), None),
}


@pytest.mark.parametrize("name", sorted(DIVERGENT))
def test_divergence_matches_the_oracle(name):
    spec, step = DIVERGENT[name]
    expected = oracle(spec)
    assert isinstance(expected, DivergentOrbitError)
    if step is not None:
        assert expected.step == step
    if name.endswith("second_chunk"):
        assert CHUNK < expected.step <= 2 * CHUNK
    if name.startswith(("overflow", "nan")):
        assert expected.value == np.inf
    with pytest.raises(DivergentOrbitError) as exc:
        generate(spec)
    got = exc.value
    assert (got.step, got.value, got.bound) == (
        expected.step, expected.value, expected.bound)
    assert type(got.value) is float
    assert str(got) == str(expected)
