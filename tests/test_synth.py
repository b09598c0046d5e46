"""Generator tests: frozen orbits, splice continuity, rescaling algebra."""

import math
import sys
import warnings
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentcast import (DivergentOrbitError, EmbedConfig, PolyMapSpec,
                        RandomWalkSpec, SplicedSpec,
                        chaotic_quad_map_coefficients, fit,
                        gen_random_walk, gen_spliced, generate,
                        henon_map_coefficients, logistic_map_coefficients,
                        logistic_splice, monomial_terms,
                        rescale_map_coefficients, rng)

# The generators fix their arithmetic order, so outputs are frozen exactly.
LOGISTIC_39_FROM_02 = (
    0.2,
    0.624,
    0.9150335999999999,
    0.30321373239705673,
    0.823973143043321,
)


def eval_poly_map(coefficients, dim, window):
    """One map step from a length-dim window (oldest first), reference impl."""
    degree = 1
    terms = monomial_terms(dim, degree)
    while len(terms) != len(coefficients):
        degree += 1
        terms = monomial_terms(dim, degree)
    acc = coefficients[0]
    for c, term in zip(coefficients[1:], terms[1:]):
        prod = 1.0
        for i in term:
            prod *= window[-1 - i]
        acc += c * prod
    return acc


# ---------------------------------------------------------------- walks

def test_walk_is_the_cumulative_sum_of_the_seed_normals():
    v = generate(RandomWalkSpec(n=6, sigma=1.5, x0=3.0, seed=9)).values
    assert v[0] == 3.0
    assert v[1:].tobytes() == (3.0 + 1.5 * np.cumsum(rng.normals(9, 5))).tobytes()


def test_walk_deterministic_and_seed_sensitive():
    a = gen_random_walk(200, 1.5, x0=3.0, seed=9)
    b = gen_random_walk(200, 1.5, x0=3.0, seed=9)
    c = gen_random_walk(200, 1.5, x0=3.0, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values[0] == 3.0
    assert len(a) == 200


def test_walk_increment_statistics():
    w = gen_random_walk(10001, 2.0, seed=11)
    inc = np.diff(w.values)
    assert abs(inc.mean()) < 0.1
    assert abs(inc.std(ddof=1) - 2.0) < 0.05 * 2.0


def test_walk_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gen_random_walk(10, 0.0)
    with pytest.raises(ValueError):
        gen_random_walk(10, -1.0)


@pytest.mark.parametrize("x0,sigma,in_multiply", [
    (0.0, 1e307, True),     # sigma times the summed normals overflows
    (1.79e308, 1e306, False),  # that product stays finite; x0 plus it does not
])
def test_walk_that_overflows_is_a_divergent_orbit(x0, sigma, in_multiply):
    # the step is the first value that is not finite, taken on Python floats
    sums = np.cumsum(rng.normals(1, 999)).tolist()
    step = next(j for j, c in enumerate(sums, 1)
                if not math.isfinite(x0 + sigma * c))
    assert math.isfinite(sigma * sums[step - 1]) != in_multiply
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergentOrbitError) as exc:
            generate(RandomWalkSpec(n=1000, sigma=sigma, x0=x0, seed=1))
    assert exc.value.step == step
    assert exc.value.value == math.inf
    assert exc.value.bound == sys.float_info.max


def test_walk_dates_are_consecutive_days():
    w = gen_random_walk(5, 1.0)
    assert w.days[0] == date(2000, 1, 1).toordinal()
    assert np.diff(w.days).tolist() == [1, 1, 1, 1]


# ------------------------------------------------------------- poly maps

def test_identity_map_is_fixed():
    s = generate(PolyMapSpec(n=10, dim=1, coefficients=(0.0, 1.0), init=(0.7,)))
    assert np.array_equal(s.values, np.full(10, 0.7))


def test_logistic_orbit_frozen():
    s = generate(PolyMapSpec(n=5, dim=1,
                             coefficients=logistic_map_coefficients(3.9),
                             init=(0.2,)))
    assert s.values.tolist() == list(LOGISTIC_39_FROM_02)
    # and the orbit tracks the algebraic recurrence to rounding error
    v = 0.2
    for got in s.values[1:]:
        v = 3.9 * v * (1.0 - v)
        assert abs(got - v) < 1e-12
        v = float(got)


def test_doubling_map_divergence_bookkeeping():
    # v(t) = 2^t from v(0)=1 first exceeds the default 1e6 bound at t=20
    with pytest.raises(DivergentOrbitError) as exc:
        generate(PolyMapSpec(n=40, dim=1, coefficients=(0.0, 2.0), init=(1.0,)))
    assert exc.value.step == 20
    assert exc.value.value == 2.0 ** 20
    assert exc.value.bound == 1e6


def test_map_noise_reproducible_and_active():
    args = dict(n=50, dim=1, coefficients=logistic_map_coefficients(3.6),
                init=(0.3,))
    clean = generate(PolyMapSpec(**args))
    n1 = generate(PolyMapSpec(**args, noise_sigma=0.01, seed=5))
    n2 = generate(PolyMapSpec(**args, noise_sigma=0.01, seed=5))
    n3 = generate(PolyMapSpec(**args, noise_sigma=0.01, seed=6))
    assert np.array_equal(n1.values, n2.values)
    assert not np.array_equal(n1.values, clean.values)
    assert not np.array_equal(n1.values, n3.values)
    # init rows are emitted verbatim; noise starts with the first iterate
    assert n1.values[0] == 0.3


def test_henon_layout_matches_manual_iteration():
    coefs = henon_map_coefficients()
    s = generate(PolyMapSpec(n=60, dim=2, coefficients=coefs, init=(0.1, 0.1)))
    v = s.values
    for t in range(2, 60):
        manual = 1.0 - 1.4 * v[t - 1] ** 2 + 0.3 * v[t - 2]
        assert abs(v[t] - manual) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_chaotic_quad_layout_matches_manual_iteration(dim):
    coefs = chaotic_quad_map_coefficients(dim, a=1.76, b=0.1)
    init = tuple(0.05 * (i + 1) for i in range(dim))
    s = generate(PolyMapSpec(n=80, dim=dim, coefficients=coefs, init=init))
    v = s.values
    for t in range(dim, 80):
        manual = 1.76 - v[t - dim + 1] ** 2 - 0.1 * v[t - dim]
        assert abs(v[t] - manual) < 1e-12


def test_poly_map_spec_validation():
    with pytest.raises(ValueError):
        PolyMapSpec(n=10, dim=2, coefficients=(1.0, 2.0, 3.0, 4.0))  # 3 or 6 form a basis
    with pytest.raises(ValueError):
        PolyMapSpec(n=10, dim=2, coefficients=(0.0,) * 6, init=(1.0,))
    for noise in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            PolyMapSpec(n=10, dim=1, coefficients=(0.0, 1.0), init=(1.0,),
                        noise_sigma=noise)
    for coefficients, init in [((0.0, math.nan), (1.0,)),
                               ((0.0, -math.inf), None),
                               ((0.0, 1.0), (math.nan,)),
                               ((0.0, 1.0), (1.0, math.inf))]:
        with pytest.raises(ValueError, match="must be finite"):
            PolyMapSpec(n=10, dim=1, coefficients=coefficients, init=init)
    with pytest.raises(ValueError, match="shorter than init"):
        generate(PolyMapSpec(n=2, dim=1, coefficients=(0.0, 1.0),
                             init=(1.0, 2.0, 3.0)))
    with pytest.raises(ValueError, match="needs init values"):
        generate(PolyMapSpec(n=2, dim=1, coefficients=(0.0, 1.0)))


def test_continue_poly_map_needs_enough_history():
    # a one-point walk cannot seed a dim-2 map
    with pytest.raises(ValueError):
        gen_spliced(RandomWalkSpec(n=1, sigma=1.0),
                    PolyMapSpec(n=3, dim=2, coefficients=henon_map_coefficients()))


# --------------------------------------------------------------- splices

def test_splice_walk_then_map_obeys_recurrence_after_changepoint():
    walk = RandomWalkSpec(n=120, sigma=0.2, x0=4.0, seed=21)
    # place the map's unit interval around the walk's tail so the handover
    # value lands inside the map's bounded basin
    tail = float(generate(walk).values[-1])
    placed = rescale_map_coefficients(logistic_map_coefficients(3.7), 1,
                                      level=tail - 0.5, scale=1.0)
    sp = gen_spliced(walk, PolyMapSpec(n=80, dim=1, coefficients=placed))
    v = sp.series.values
    assert sp.changepoint == 120
    assert len(v) == 200
    resid = np.array([v[t] - eval_poly_map(placed, 1, [v[t - 1]])
                      for t in range(1, 200)])
    assert np.max(np.abs(resid[119:])) < 1e-12
    # the walk half does not satisfy the deterministic recurrence
    assert np.median(np.abs(resid[:119])) > 1e-3


def test_logistic_splice_places_the_map_at_the_walk_end():
    walk = RandomWalkSpec(n=300, sigma=2.0, x0=5.0, seed=8)
    spec = logistic_splice(walk, 200, noise_sigma=0.03, map_r=3.7,
                           map_scale=40.0)
    end = float(generate(walk).values[-1])
    placed = rescale_map_coefficients(logistic_map_coefficients(3.7), 1,
                                      end - 40.0, 80.0)
    assert spec == SplicedSpec(walk, PolyMapSpec(
        n=200, dim=1, coefficients=placed, noise_sigma=0.03, seed=9))
    v = generate(spec).values
    assert abs(v[300:] - end).max() <= 40.0 + 1.0


def test_splice_walk_walk_is_level_continuous():
    sp = gen_spliced(RandomWalkSpec(n=50, sigma=0.5, seed=3),
                     RandomWalkSpec(n=30, sigma=0.5, x0=999.0, seed=4))
    v = sp.series.values
    assert len(v) == 80
    assert sp.changepoint == 50
    # second spec's x0 is ignored: it continues from the first tail
    expected_first = v[49] + 0.5 * rng.normals(4, 1)[0]
    assert v[50] == expected_first
    assert abs(v[50] - v[49]) < 5 * 0.5


def test_splice_index_must_match_first_length():
    first = RandomWalkSpec(n=50, sigma=1.0, seed=0)
    second = RandomWalkSpec(n=30, sigma=1.0, seed=1)
    # the spec derives its changepoint; gen_spliced accepts only that one
    assert SplicedSpec(first, second).splice_index == 50
    assert gen_spliced(first, second, splice_index=50).changepoint == 50
    for wrong in (40, 80):
        with pytest.raises(ValueError, match="must equal the first"):
            gen_spliced(first, second, splice_index=wrong)


def test_splice_second_map_without_init_uses_first_tail():
    coefs = henon_map_coefficients()
    sp = gen_spliced(PolyMapSpec(n=40, dim=2, coefficients=coefs,
                                 init=(0.1, 0.1)),
                     PolyMapSpec(n=40, dim=2, coefficients=coefs))
    whole = generate(PolyMapSpec(n=80, dim=2, coefficients=coefs,
                                 init=(0.1, 0.1)))
    assert np.array_equal(sp.series.values, whole.values)


# ---------------------------------------------------------------- names

def test_generate_default_names():
    walk_spec = RandomWalkSpec(n=30, sigma=1.0, x0=2.0, seed=8)
    # affine contraction toward 2.0: stable from any handover level
    map_spec = PolyMapSpec(n=30, dim=1, coefficients=(1.0, 0.5), init=(0.4,),
                           seed=3)
    assert generate(walk_spec).name == "walk-s8"
    assert gen_random_walk(30, 1.0, seed=8).name == "walk-s8"
    assert generate(map_spec).name == "map-s3"
    assert generate(SplicedSpec(walk_spec, map_spec)).name == "spliced"
    assert gen_spliced(walk_spec, map_spec).series.name == "spliced"
    with pytest.raises(ValueError, match="unknown generator spec"):
        generate("not a spec")


# ------------------------------------------------------------- rescaling

@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=3),
    level=st.floats(min_value=-50.0, max_value=50.0),
    scale=st.floats(min_value=0.1, max_value=20.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rescale_conjugation_identity(dim, level, scale, seed):
    # H(level + scale*u) == level + scale*G(u) for the conjugated map H
    rnd = np.random.default_rng(seed)
    base = tuple(rnd.uniform(-1.0, 1.0, len(monomial_terms(dim, 2))))
    placed = rescale_map_coefficients(base, dim, level, scale)
    for _ in range(5):
        u = rnd.uniform(-1.0, 1.0, dim)
        g = eval_poly_map(base, dim, list(u))
        h = eval_poly_map(placed, dim, list(level + scale * u))
        assert abs(h - (level + scale * g)) < 1e-8 * max(1.0, abs(level + scale * g))


def test_rescale_identity_transform_is_noop():
    base = henon_map_coefficients()
    again = rescale_map_coefficients(base, 2, level=0.0, scale=1.0)
    assert np.allclose(again, base, atol=1e-15)


def test_rescale_rejects_zero_scale():
    with pytest.raises(ValueError):
        rescale_map_coefficients((0.0, 1.0), 1, level=1.0, scale=0.0)


# ------------------------------------------------------------ round trip

def test_generated_map_coefficients_recoverable():
    coefs = henon_map_coefficients()
    series = generate(PolyMapSpec(n=400, dim=2, coefficients=coefs,
                                  init=(0.1, 0.1)))
    cfg = EmbedConfig(dim=2, degree=2, horizon=1, n_fit=200)
    model = fit(series, cfg, start=150)
    assert np.max(np.abs(model.coefficients - np.asarray(coefs))) < 1e-6
