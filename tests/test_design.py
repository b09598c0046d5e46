"""Delay vectors, monomials, and the constraint system."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentcast import (EmbedConfig, count_coefficients, embed,
                        feature_matrix, monomial_labels, monomial_terms)
from maxentcast import design as design_module
from maxentcast.design import (MAX_DESIGN_BYTES, anchor_features,
                               check_design_size, forecast_block_rows)
from maxentcast.errors import InfeasibleWindowError, NumericalFailureError

from conftest import daily_series


def brute_force_count(dim, degree):
    """Count exponent tuples with total degree <= degree, the slow way."""
    return sum(1 for exps in itertools.product(range(degree + 1), repeat=dim)
               if sum(exps) <= degree)


def test_count_examples():
    assert count_coefficients(4, 2) == 15
    assert count_coefficients(1, 1) == 2
    assert count_coefficients(3, 3) == 20


def test_count_matches_brute_force():
    for dim in range(1, 7):
        for degree in range(1, 5):
            assert count_coefficients(dim, degree) == \
                brute_force_count(dim, degree), (dim, degree)


def test_count_validates_inputs():
    with pytest.raises(ValueError):
        count_coefficients(0, 2)
    with pytest.raises(ValueError):
        count_coefficients(2, 0)


def features_of(delays, degree, out=None):
    """feature_matrix of a stack of delay vectors, one per row, from a
    scratch whose rows 1..dim hold them; into out, or a new array."""
    delays = np.asarray(delays, dtype=float)
    n, dim = delays.shape
    scratch = np.empty((count_coefficients(dim, degree), n))
    scratch[1:dim + 1] = delays.T
    if out is None:
        out = np.empty(scratch.shape[::-1])
    return feature_matrix(scratch, dim, degree, out)


def one_row(v, degree):
    """Features of a single delay vector, as a one-row stack."""
    return features_of([v], degree)[0]


def test_feature_row_two_components():
    assert one_row([2.0, 3.0], 2).tolist() == [1, 2, 3, 4, 6, 9]


def test_feature_row_single_component_powers():
    assert one_row([5.0], 3).tolist() == [1, 5, 25, 125]


def test_feature_row_all_ones_has_paper_length():
    assert one_row([1.0, 1.0, 1.0, 1.0], 2).tolist() == [1.0] * 15


def test_monomial_order_is_degree_then_lexicographic():
    # index multisets for dim=2, degree=2, after the constant term
    assert monomial_terms(2, 2) == ((), (0,), (1,), (0, 0), (0, 1), (1, 1))
    assert monomial_labels(2, 2) == ("1", "v1", "v2", "v1*v1", "v1*v2",
                                     "v2*v2")


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=5),
    degree=st.integers(min_value=1, max_value=4),
    scale=st.floats(min_value=0.1, max_value=10),
    data=st.data(),
)
def test_degree_blocks_scale_homogeneously(dim, degree, scale, data):
    v = np.array(data.draw(st.lists(
        st.floats(min_value=-5, max_value=5), min_size=dim, max_size=dim)))
    base = one_row(v, degree)
    scaled = one_row(scale * v, degree)
    for k, term in enumerate(monomial_terms(dim, degree)):
        expected = base[k] * scale ** len(term)
        assert math.isclose(scaled[k], expected, rel_tol=1e-9, abs_tol=1e-12)


def test_feature_matrix_fills_out_buffer():
    delays = np.array([[2.0, 3.0], [-1.0, 0.5]])
    out = np.full((2, 6), np.nan)
    assert features_of(delays, 2, out=out) is out
    assert out.tolist() == [[1, 2, 3, 4, 6, 9], [1, -1, 0.5, 1, -0.5, 0.25]]


def test_feature_matrix_rejects_mis_shaped_out():
    delays = np.ones((3, 2))
    for out in (np.empty((3, 5)), np.empty((6, 3)).T, np.empty((3, 6), np.float32)):
        with pytest.raises(ValueError):
            features_of(delays, 2, out=out)


def test_feature_overflow_is_numerical_failure():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError):
            features_of([[1e160, 0.0], [1.0, 2.0]], 2)


def test_delay_vector_orientation():
    # the delay vector at anchor t is [v(t), v(t - lag), ...]
    values = np.array([10.0, 20.0, 30.0])
    cfg = EmbedConfig(dim=2, degree=1, horizon=1, n_fit=1)
    assert anchor_features(values, cfg, 2, 1).tolist() == [[1.0, 30.0, 20.0]]


def test_anchor_features_of_consecutive_anchors():
    values = np.arange(10.0) ** 2
    cfg = EmbedConfig(dim=2, degree=2, horizon=1, n_fit=1, lag=3)
    out = np.empty((4, 6))
    scratch = np.empty((6, 4))
    got = anchor_features(values, cfg, 5, 4, out=out, scratch=scratch)
    assert got is out
    assert got.tobytes() == np.stack(
        [one_row([values[t], values[t - 3]], 2) for t in range(5, 9)]).tobytes()
    assert anchor_features(values, cfg, 5, 4).tobytes() == got.tobytes()


@pytest.mark.parametrize("first, count, message", [
    (2, 3, "anchor 2 comes before the embedding span 3"),
    (0, 1, "anchor 0 comes before the embedding span 3"),
    (3, 8, "anchors up to 10 leave a series of 10 points"),
    (9, 2, "anchors up to 10 leave a series of 10 points")])
def test_anchor_features_refuse_a_range_outside_the_series(first, count,
                                                           message):
    # a slice start below 0 would wrap to the series end, and one past it
    # would come up short
    cfg = EmbedConfig(dim=2, degree=2, horizon=1, n_fit=1, lag=3)
    with pytest.raises(InfeasibleWindowError, match=f"^{message}$"):
        anchor_features(np.arange(10.0), cfg, first, count)


def test_embed_tiny_worked_example():
    s = daily_series([1, 2, 3, 4, 5, 6])
    cfg = EmbedConfig(dim=2, degree=1, horizon=1, n_fit=2)
    features, targets = embed(s, cfg, start=1)
    assert features.tolist() == [[1, 2, 1], [1, 3, 2]]
    assert targets.tolist() == [3, 4]
    # row n is the delay vector anchored at start + n
    assert features[:, 1].tolist() == s.values[np.arange(1, 1 + 2)].tolist()


def _assert_embed_row_limit(n, dim, lag, horizon, limit):
    s = daily_series(range(n))
    embed(s, EmbedConfig(dim=dim, degree=1, horizon=horizon, n_fit=limit,
                         lag=lag))
    with pytest.raises(InfeasibleWindowError):
        embed(s, EmbedConfig(dim=dim, degree=1, horizon=horizon,
                             n_fit=limit + 1, lag=lag))


def test_max_rows_at_protocol_scale():
    _assert_embed_row_limit(2560, 4, 1, 7, 2550)


def test_max_rows_matches_enumeration():
    for n, dim, lag, horizon in ((30, 3, 2, 4), (12, 1, 1, 1), (9, 4, 2, 1)):
        span = (dim - 1) * lag
        feasible = [t for t in range(n)
                    if t - span >= 0 and t + horizon <= n - 1]
        _assert_embed_row_limit(n, dim, lag, horizon, len(feasible))


def test_embed_one_row_too_many():
    s = daily_series(range(20))
    embed(s, EmbedConfig(dim=2, degree=1, horizon=1, n_fit=18))
    with pytest.raises(InfeasibleWindowError):
        embed(s, EmbedConfig(dim=2, degree=1, horizon=1, n_fit=19))


def test_embed_start_before_span_is_infeasible():
    s = daily_series(range(20))
    with pytest.raises(InfeasibleWindowError):
        embed(s, EmbedConfig(dim=3, degree=1, horizon=1, n_fit=2), start=1)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    lag=st.integers(min_value=1, max_value=3),
    horizon=st.integers(min_value=1, max_value=9),
    n_fit=st.integers(min_value=1, max_value=12),
)
def test_ramp_targets_are_first_component_plus_horizon(dim, lag, horizon,
                                                       n_fit):
    s = daily_series(np.arange(60.0))
    features, targets = embed(s, EmbedConfig(dim=dim, degree=1,
                                             horizon=horizon, n_fit=n_fit,
                                             lag=lag))
    assert np.array_equal(targets, features[:, 1] + horizon)


def test_embed_config_span_and_features():
    cfg = EmbedConfig(dim=4, degree=2, horizon=7, n_fit=700, lag=2)
    assert cfg.span == 6
    assert cfg.n_features == 15


def test_embed_config_validation():
    with pytest.raises(ValueError):
        EmbedConfig(dim=0, degree=2, horizon=1, n_fit=10)
    with pytest.raises(ValueError):
        EmbedConfig(dim=2, degree=2, horizon=0, n_fit=10)
    with pytest.raises(ValueError):
        EmbedConfig(dim=2, degree=2.5, horizon=1, n_fit=10)


# ------------------------------------------------------- oversize designs

def test_design_size_limit_from_sizes_alone():
    # --d 30 --np 5 at M = 700: 324,632 features, about 1.8 GB of design.
    # Only sizes are computed; nothing of that size is allocated.
    big = EmbedConfig(dim=30, degree=5, horizon=7, n_fit=700)
    assert big.n_features == 324_632
    with pytest.raises(InfeasibleWindowError, match="324632 features"):
        check_design_size(big)
    n_fit = MAX_DESIGN_BYTES // (8 * 84)
    check_design_size(EmbedConfig(dim=6, degree=3, horizon=1, n_fit=n_fit))
    with pytest.raises(InfeasibleWindowError):
        check_design_size(EmbedConfig(dim=6, degree=3, horizon=1,
                                      n_fit=n_fit + 1))


def test_design_size_limit_covers_the_forecast_block():
    # --d 60 --np 4 --fit-window 50: 635,376 features.  The fit design is
    # 254 MB, under the limit, but a forecast block steps at least 128
    # rows and its buffer holds one more: 656 MB.  Only sizes are computed.
    cfg = EmbedConfig(dim=60, degree=4, horizon=1, n_fit=50)
    assert cfg.n_features == 635_376
    assert 8 * cfg.n_fit * cfg.n_features <= MAX_DESIGN_BYTES
    assert forecast_block_rows(cfg.n_features) == 128
    with pytest.raises(InfeasibleWindowError,
                       match="forecast block of 129 rows x 635376 features"):
        check_design_size(cfg)
    # degree 1 has dim + 1 features: the most whose 129-row buffer fits,
    # then one more
    dim = MAX_DESIGN_BYTES // (8 * 129) - 1
    check_design_size(EmbedConfig(dim=dim, degree=1, horizon=1, n_fit=1))
    with pytest.raises(InfeasibleWindowError, match="forecast block"):
        check_design_size(EmbedConfig(dim=dim + 1, degree=1, horizon=1,
                                      n_fit=1))


def test_embed_refuses_an_oversize_forecast_block(monkeypatch):
    def no_features(*args, **kwargs):
        raise AssertionError("features built for an oversize block")

    monkeypatch.setattr(design_module, "feature_matrix", no_features)
    with pytest.raises(InfeasibleWindowError, match="forecast block"):
        embed(daily_series(np.ones(200)),
              EmbedConfig(dim=60, degree=4, horizon=1, n_fit=50))


def test_embed_refuses_an_oversize_design_before_building_it(monkeypatch):
    def no_features(*args, **kwargs):
        raise AssertionError("features built for an oversize design")

    monkeypatch.setattr(design_module, "feature_matrix", no_features)
    with pytest.raises(InfeasibleWindowError, match="limit"):
        embed(daily_series(np.ones(1_000)),
              EmbedConfig(dim=30, degree=5, horizon=1, n_fit=700))
