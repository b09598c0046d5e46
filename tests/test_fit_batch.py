"""One factorization for every horizon, and the column-major feature build,
against the one-at-a-time references.

``fit_batch`` builds, standardizes and decomposes the constraint matrix of
several horizons once.  Each of its models must have the bytes that
``fit`` gives the horizon alone and that ``reference_design.fit`` gives
from a matrix and an SVD of its own: coefficients, singular values, rank
and residual norm.  ``feature_matrix`` builds its columns as the rows of
a column-major scratch; its rows must have the bytes of the reference's
column-by-column copies.  The comparisons hold for one BLAS thread, which
``conftest`` pins before numpy is imported.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_design as ref
from maxentcast import (EmbedConfig, ProtocolConfig, count_coefficients,
                        feature_matrix, fit, fit_batch, forecast_batch,
                        gen_random_walk, run_protocol)
from maxentcast import design as design_module
from maxentcast import model as model_module
from maxentcast.design import anchor_features
from maxentcast.errors import InfeasibleWindowError, NumericalFailureError

from conftest import BLAS_PINNED, daily_series

HORIZONS = (7, 10, 13, 16)


@pytest.fixture(autouse=True)
def blas_pinned():
    assert BLAS_PINNED, "numpy was imported before tests/conftest.py pinned BLAS"


def model_bits(model) -> tuple:
    d = model.diagnostics
    return (model.coefficients.tobytes(), d.singular_values.tobytes(), d.rank,
            d.residual_norm.hex())


def reference_bits(series, config, start, **fit_args) -> tuple:
    coef, rank, s, residual = ref.fit(series, config, start, **fit_args)
    return coef.tobytes(), s.tobytes(), rank, residual.hex()


# (dim, degree, lag, n_fit, start, fit arguments): the defaults, the
# detection flags, the wide geometry, a lag of 2 and a later start
SETTINGS = {
    "d4np2": (4, 2, 1, 700, None, {}),
    "detection": (2, 1, 1, 700, None,
                  {"standardize": True, "rank_tolerance": 0.2}),
    "d6np3": (6, 3, 1, 700, None, {}),
    "lag2": (4, 2, 2, 300, None, {}),
    "start": (4, 2, 1, 400, 1234, {"standardize": True}),
}


@pytest.mark.parametrize("dim, degree, lag, n_fit, start, fit_args",
                         SETTINGS.values(), ids=SETTINGS)
def test_batch_equals_one_fit_at_a_time(dim, degree, lag, n_fit, start,
                                        fit_args):
    series = gen_random_walk(3000, 1.0, seed=10 * dim + degree)
    configs = [EmbedConfig(dim=dim, degree=degree, horizon=h, n_fit=n_fit,
                           lag=lag) for h in (13, 7, 16, 10)]
    batch = fit_batch(series, configs, start, **fit_args)
    assert [m.config for m in batch] == configs
    for model, config in zip(batch, configs):
        assert model.standardized is fit_args.get("standardize", False)
        one = fit(series, config, start, **fit_args)
        assert model_bits(model) == model_bits(one)
        assert model_bits(model) == reference_bits(series, config, start,
                                                   **fit_args)


def test_protocol_models_are_the_batch():
    series = gen_random_walk(2500, 1.0, seed=3)
    protocol = ProtocolConfig(dim=2, degree=1)
    tracks = run_protocol(series, protocol, rank_tolerance=0.2,
                          standardize=True).tracks
    for track in tracks:
        one = fit(series, protocol.embed_config(track.horizon),
                  rank_tolerance=0.2, standardize=True)
        assert model_bits(track.model) == model_bits(one)


def test_batch_of_a_rank_deficient_matrix():
    # a constant series: every delay column equals the constant column
    series = daily_series([2.5] * 60)
    configs = [EmbedConfig(dim=3, degree=2, horizon=h, n_fit=40)
               for h in (1, 5)]
    for model, config in zip(fit_batch(series, configs), configs):
        assert model.diagnostics.rank == 1
        assert model_bits(model) == reference_bits(series, config, None)


def test_infeasible_horizon_raises_as_its_own_fit():
    # 760 points leave anchors 3..702 room for targets up to T = 57 only
    series = gen_random_walk(760, 1.0, seed=5)
    configs = [EmbedConfig(dim=4, degree=2, horizon=h, n_fit=700)
               for h in (7, 70, 60, 10)]
    with pytest.raises(InfeasibleWindowError) as alone:
        fit(series, configs[1])
    with pytest.raises(InfeasibleWindowError) as batch:
        fit_batch(series, configs)
    assert str(batch.value) == str(alone.value)
    assert "horizon=70" in str(batch.value)
    protocol = ProtocolConfig(anticipation=(7, 70, 60, 10))
    with pytest.raises(InfeasibleWindowError) as run:
        run_protocol(series, protocol)
    assert str(run.value) == str(alone.value)


def test_overflowing_features_come_before_a_later_infeasible_horizon():
    # as one fit at a time would: the first horizon's features overflow
    # before the second horizon's window is checked
    series = daily_series([1e110] * 30)
    configs = [EmbedConfig(dim=2, degree=3, horizon=h, n_fit=20)
               for h in (1, 20)]
    with pytest.raises(NumericalFailureError):
        fit_batch(series, configs)


def test_batch_configs_must_share_the_matrix():
    series = gen_random_walk(100, 1.0, seed=1)
    base = dict(dim=2, degree=1, horizon=1, n_fit=20, lag=1)
    for change in ({"dim": 3}, {"degree": 2}, {"lag": 2}, {"n_fit": 21}):
        configs = [EmbedConfig(**base), EmbedConfig(**{**base, **change})]
        with pytest.raises(ValueError, match="must share"):
            fit_batch(series, configs)
    with pytest.raises(ValueError, match="at least one"):
        fit_batch(series, [])


def test_batch_refuses_an_oversize_design_before_building_it(monkeypatch):
    def no_features(*args, **kwargs):
        raise AssertionError("features built for an oversize design")

    monkeypatch.setattr(design_module, "feature_matrix", no_features)
    series = daily_series(np.arange(60.0))
    configs = [EmbedConfig(dim=30, degree=5, horizon=h, n_fit=10)
               for h in (1, 2)]
    with pytest.raises(InfeasibleWindowError, match="limit"):
        fit_batch(series, configs)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["zero", "constant", "walk"]),
       level=st.sampled_from([0.0, 1e-300, -1.0, 3.5, 1e100]),
       step=st.sampled_from([1e-300, 1e-8, 1.0, 1e90]),
       dim=st.integers(1, 4), degree=st.integers(1, 3), lag=st.integers(1, 2),
       n_fit=st.integers(1, 60), standardize=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_every_decomposed_design_has_s_max_at_least_sqrt_n_fit(
        kind, level, step, dim, degree, lag, n_fit, standardize, seed):
    # Column 0 of every design fit_batch decomposes, raw or standardized,
    # is all ones, so s_max >= |column 0| = sqrt(n_fit) >= 1 (the SVD's
    # rounding can take the last bits off): the solver never meets a matrix
    # whose singular values are all numerically zero.
    config = EmbedConfig(dim=dim, degree=degree, horizon=1, n_fit=n_fit,
                         lag=lag)
    n = config.span + n_fit + 1
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(n))
    values = {"zero": np.zeros(n), "constant": np.full(n, level),
              "walk": level + step * walk}[kind]
    spectra = []

    def recording(matrix, rank_tolerance):
        assert (matrix[:, 0] == 1.0).all()
        solved = solver(matrix, rank_tolerance)
        spectra.append(solved[2])
        return solved

    solver = model_module._min_norm_solver
    with mock.patch.object(model_module, "_min_norm_solver", recording):
        fit_batch(daily_series(values), [config], standardize=standardize)
    [s] = spectra
    assert s[0] >= math.sqrt(n_fit) * (1 - 1e-12)


# ------------------------------------------------- column-major features

@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from([(1, 1), (2, 1), (3, 2), (6, 3), (4, 4)]),
       n=st.integers(1, 300), spare=st.integers(0, 5), data=st.data())
def test_feature_matrix_matches_reference(geometry, n, spare, data):
    dim, degree = geometry
    delays = data.draw(arrays(np.float64, (n, dim), elements=st.floats(
        -1e60, 1e60, allow_nan=False, allow_subnormal=True)))
    expected = ref.feature_matrix(delays, degree).tobytes()
    # out a row slice of a larger buffer, scratch a column slice of one
    # whose delay rows hold the delay vectors
    n_features = count_coefficients(dim, degree)
    buffer = np.full((n + spare, n_features), np.nan)
    columns = np.full((n_features, n + spare), np.nan)
    columns[1:dim + 1, :n] = delays.T
    out = feature_matrix(columns[:, :n], dim, degree, buffer[:n])
    assert out.base is buffer and out.tobytes() == expected
    assert np.isnan(buffer[n:]).all() and np.isnan(columns[:, n:]).all()


def test_feature_matrix_rejects_a_mis_shaped_scratch():
    for scratch in (np.empty((5, 3)), np.empty(6), np.empty((3, 6)).T,
                    np.empty((6, 3), np.float32), np.empty((6, 6))[:, ::2]):
        with pytest.raises(ValueError, match="scratch"):
            feature_matrix(scratch, 2, 2, np.empty((3, 6)))


def test_overflowing_product_in_a_scratch_is_numerical_failure():
    columns = np.empty((6, 3))
    columns[1:3, :2] = np.array([[1.0, 2.0], [1e160, 0.0]]).T
    with pytest.raises(NumericalFailureError):
        feature_matrix(columns[:, :2], 2, 2, np.empty((2, 6)))


def test_overflowing_lower_degree_column_is_numerical_failure():
    # the delay vector (1e200, 0): v1*v1 is inf and v1*v1*v2 is NaN
    cfg = EmbedConfig(dim=2, degree=3, horizon=1, n_fit=100)
    with pytest.raises(NumericalFailureError, match=r"\|v\| = 1e\+200 "):
        anchor_features(np.array([0.0, 1e200]), cfg, 1, 1)
    values = np.ones(2502) + np.arange(2502.0) * 1e-3
    values[2499:2501] = 0.0, 1e200
    series = daily_series(values)
    model = fit(series, cfg)
    with pytest.raises(NumericalFailureError, match=r"\|v\| = 1e\+200 "):
        forecast_batch(series, [model], cfg.span + cfg.n_fit)


def test_overflowing_forecast_block_is_numerical_failure():
    # the fit rows are small; a later delay vector's cube overflows
    values = np.ones(3000)
    values[2500] = 1e110
    series = daily_series(values + np.arange(3000.0) * 1e-3)
    cfg = EmbedConfig(dim=2, degree=3, horizon=1, n_fit=100)
    model = fit(series, cfg)
    with pytest.raises(NumericalFailureError):
        forecast_batch(series, [model], cfg.span + cfg.n_fit)
