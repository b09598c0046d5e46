"""Minimum-norm least squares, prediction, and model serialization."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentcast import (EmbedConfig, FitDiagnostics, FittedModel,
                        PolyMapSpec, embed, fit, forecast_series, generate,
                        lstsq_min_norm, monomial_labels, pinv, predict)
from maxentcast.errors import (DegenerateMatrixError, DimensionMismatchError,
                               InfeasibleWindowError, NumericalFailureError)
from maxentcast.model import _norm
from maxentcast.report import _model_payload

from conftest import daily_series


def random_matrix(rng, rows, cols, rank=None):
    if rank is None:
        return rng.standard_normal((rows, cols))
    rank = min(rank, rows, cols)
    return (rng.standard_normal((rows, rank))
            @ rng.standard_normal((rank, cols)))


def mp_residuals(a, p):
    """The four Moore-Penrose condition residuals, relative."""
    scale_a = max(1.0, np.linalg.norm(a))
    scale_p = max(1.0, np.linalg.norm(p))
    ap, pa = a @ p, p @ a
    return (
        np.linalg.norm(a @ p @ a - a) / scale_a,
        np.linalg.norm(p @ a @ p - p) / scale_p,
        np.linalg.norm(ap.T - ap) / max(1.0, np.linalg.norm(ap)),
        np.linalg.norm(pa.T - pa) / max(1.0, np.linalg.norm(pa)),
    )


def test_identity_system_returns_basis_vector():
    w = np.eye(15)
    target = np.zeros(15)
    target[2] = 1.0
    coef, rank, _ = lstsq_min_norm(w, target)
    assert np.allclose(coef, target, atol=1e-14)
    assert rank == 15


def test_pinv_of_identity():
    assert np.allclose(pinv(np.eye(6)), np.eye(6), atol=1e-14)


def test_moore_penrose_conditions_sampled():
    rng = np.random.default_rng(5)
    shapes = [(12, 5), (5, 12), (7, 7), (9, 6), (6, 9)]
    for i, (rows, cols) in enumerate(shapes * 4):
        rank = None if i % 2 else max(1, min(rows, cols) - 2)
        a = random_matrix(rng, rows, cols, rank)
        p = pinv(a)
        assert max(mp_residuals(a, p)) < 1e-8


def test_duplicated_column_residual_matches_dedup_oracle():
    rng = np.random.default_rng(11)
    base = np.hstack([np.ones((30, 1)), rng.standard_normal((30, 3))])
    w = np.hstack([base, base[:, 2:3]])  # column 2 appears twice
    target = rng.standard_normal(30)
    coef, _, _ = lstsq_min_norm(w, target)
    residual = np.linalg.norm(w @ coef - target)
    oracle_coef = np.linalg.solve(base.T @ base, base.T @ target)
    oracle_residual = np.linalg.norm(base @ oracle_coef - target)
    assert abs(residual - oracle_residual) < 1e-8
    # the minimum-norm solution spreads the duplicated weight evenly
    assert math.isclose(coef[2], coef[4], rel_tol=1e-9, abs_tol=1e-12)


def test_minimum_norm_among_exact_solutions():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((6, 15))  # underdetermined, full row rank
    target = rng.standard_normal(6)
    coef, rank, _ = lstsq_min_norm(w, target)
    assert rank == 6
    assert np.linalg.norm(w @ coef - target) < 1e-10
    null_basis = np.linalg.svd(w)[2][6:]  # rows spanning the null space
    for _ in range(100):
        other = coef + null_basis.T @ rng.standard_normal(9)
        assert np.linalg.norm(coef) <= np.linalg.norm(other) + 1e-12


def test_interpolation_when_underdetermined():
    rng = np.random.default_rng(7)
    for rows in (3, 8, 15):
        w = rng.standard_normal((rows, 15))
        target = rng.standard_normal(rows)
        coef, _, _ = lstsq_min_norm(w, target)
        assert np.linalg.norm(w @ coef - target) < 1e-8


def test_all_zero_matrix_is_degenerate():
    with pytest.raises(DegenerateMatrixError):
        lstsq_min_norm(np.zeros((4, 3)), np.zeros(4))


def test_rank_tolerance_bounds():
    w = np.eye(3)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            lstsq_min_norm(w, np.ones(3), rank_tolerance=bad)


def test_rank_tolerance_truncates_small_directions():
    w = np.diag([1.0, 1e-3, 1e-9])
    _, rank_tight, _ = lstsq_min_norm(w, np.ones(3), rank_tolerance=1e-12)
    _, rank_loose, _ = lstsq_min_norm(w, np.ones(3), rank_tolerance=1e-6)
    assert rank_tight == 3 and rank_loose == 2


QUAD_COEFFS = (0.3, 0.5, 0.0, 0.0, -0.2, 0.0)  # 0.3 + 0.5 v1 - 0.2 v1 v2


def hand_model(coefficients, cfg):
    return FittedModel(coefficients=np.asarray(coefficients, dtype=float),
                       config=cfg,
                       diagnostics=FitDiagnostics(rank=0, singular_values=(),
                                                  residual_norm=math.nan))


def held_out_rows(series, start, n_rows, horizon=1):
    cfg = EmbedConfig(dim=2, degree=2, horizon=horizon, n_fit=n_rows)
    return embed(series, cfg, start=start)


def quad_map_fit(n_fit=100, n=154):
    series = generate(PolyMapSpec(n=n, dim=2, coefficients=QUAD_COEFFS,
                                  init=(1.5, 1.5)))
    cfg = EmbedConfig(dim=2, degree=2, horizon=1, n_fit=n_fit)
    return series, cfg, fit(series, cfg)


def test_known_quadratic_map_recovery():
    _, _, model = quad_map_fit()
    assert np.abs(model.coefficients - QUAD_COEFFS).max() < 1e-6
    assert model.feature_labels == monomial_labels(2, 2)


def test_recovered_model_predicts_held_out_rows():
    series, _, model = quad_map_fit()
    features, targets = held_out_rows(series, start=102, n_rows=50)
    assert len(targets) >= 50
    errors = predict(model, features) - targets
    assert np.abs(errors).max() < 1e-6


def test_constant_coefficient_model_ignores_features():
    cfg = EmbedConfig(dim=2, degree=2, horizon=1, n_fit=4)
    model = hand_model([4.25, 0, 0, 0, 0, 0.0], cfg)
    rows = np.random.default_rng(0).standard_normal((20, 6))
    rows[:, 0] = 1.0
    assert np.allclose(predict(model, rows), 4.25)


def test_predict_rejects_wrong_width():
    _, _, model = quad_map_fit()
    with pytest.raises(DimensionMismatchError):
        predict(model, np.ones((3, 7)))


def test_predict_is_linear_in_coefficients():
    rng = np.random.default_rng(21)
    cfg = EmbedConfig(dim=2, degree=2, horizon=1, n_fit=4)
    rows = rng.standard_normal((25, 6))
    rows[:, 0] = 1.0
    a1, a2 = rng.standard_normal(6), rng.standard_normal(6)
    p1 = predict(hand_model(a1, cfg), rows)
    p2 = predict(hand_model(a2, cfg), rows)
    p12 = predict(hand_model(a1 + a2, cfg), rows)
    assert np.allclose(p12, p1 + p2, atol=1e-10)


def test_forecast_empty_range():
    # the last feasible anchor gives one record; past it there is none
    series, cfg, model = quad_map_fit()
    last = len(series) - 1 - cfg.horizon
    assert len(forecast_series(series, model, last)) == 1
    with pytest.raises(InfeasibleWindowError, match="no out-of-sample anchors"):
        forecast_series(series, model, last + 1)


def test_forecast_constant_series_is_exact():
    series = daily_series(np.full(40, 5.0))
    cfg = EmbedConfig(dim=3, degree=2, horizon=2, n_fit=12)
    model = fit(series, cfg)
    frame = forecast_series(series, model, 14)
    assert len(frame) == 24
    assert np.abs(frame.predicted - 5.0).max() < 1e-9


def test_forecast_alignment_on_ramp():
    series = daily_series(np.arange(60.0))
    cfg = EmbedConfig(dim=2, degree=1, horizon=7, n_fit=20)
    model = fit(series, cfg)
    frame = forecast_series(series, model, 25)
    # anchors 25..52 predict targets 32..59, the last row of the series;
    # actual is v(t+7) = t+7
    assert (frame.first, frame.horizon, len(frame)) == (25, 7, 28)
    assert frame.actual.tolist() == list(range(32, 60))
    assert np.allclose(frame.predicted, frame.actual)


def test_forecast_out_of_range_anchor():
    series, _, model = quad_map_fit()
    with pytest.raises(InfeasibleWindowError):
        forecast_series(series, model, 200)
    with pytest.raises(InfeasibleWindowError, match="embedding span"):
        forecast_series(series, model, 0)


def test_fit_diagnostics_shape():
    _, _, model = quad_map_fit()
    d = model.diagnostics
    assert d.rank <= 6
    assert len(d.singular_values) == min(100, 6)
    assert d.residual_norm < 1e-8


def test_json_dict_holds_exact_values():
    _, cfg, model = quad_map_fit()
    doc = json.loads(json.dumps(_model_payload(model)))
    assert doc["coefficients"] == model.coefficients.tolist()
    assert (doc["diagnostics"]["singular_values"]
            == model.diagnostics.singular_values.tolist())
    assert doc["feature_labels"] == list(monomial_labels(cfg.dim, cfg.degree))


def test_standardized_fit_matches_raw_when_well_conditioned():
    series, cfg, _ = quad_map_fit()
    raw = fit(series, cfg)
    std = fit(series, cfg, standardize=True)
    rows, _ = held_out_rows(series, start=105, n_rows=40)
    assert np.allclose(predict(raw, rows), predict(std, rows),
                       rtol=1e-7, atol=1e-9)
    assert std.standardized and not raw.standardized


def test_standardized_fit_refuses_overflowing_scales():
    # the squared deviations of values near 1e160 overflow a double
    walk = np.cumsum(np.random.default_rng(1).standard_normal(60))
    series = daily_series(1e160 * (1.0 + 0.01 * walk))
    cfg = EmbedConfig(dim=2, degree=1, horizon=1, n_fit=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError):
            fit(series, cfg, standardize=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_normal_equations_oracle_full_column_rank(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((40, 6))
    target = rng.standard_normal(40)
    coef, _, _ = lstsq_min_norm(w, target)
    oracle = np.linalg.solve(w.T @ w, w.T @ target)
    residual = np.linalg.norm(w @ coef - target)
    oracle_residual = np.linalg.norm(w @ oracle - target)
    assert abs(residual - oracle_residual) < 1e-8
    assert np.allclose(coef, oracle, atol=1e-8)


def test_residual_norm_survives_overflow_and_underflow():
    # squares near 1e320 overflow a double and squares near 1e-340 underflow;
    # scaling by a power of two scales the norm exactly
    x = np.random.default_rng(1).standard_normal(500)
    for scale in (2.0 ** 532, 2.0 ** -566):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _norm(scale * x) == scale * _norm(x)
    assert _norm(np.zeros(3)) == 0.0
    walk = np.cumsum(np.random.default_rng(1).standard_normal(60))
    norm = fit(daily_series(1e160 * (1.0 + 0.01 * walk)),
               EmbedConfig(dim=2, degree=1, horizon=1, n_fit=40)
               ).diagnostics.residual_norm
    assert math.isfinite(norm) and norm > 1e150


def test_residual_norm_keeps_the_plain_norm_bits():
    series = daily_series(np.sin(np.arange(80.0)))
    cfg = EmbedConfig(dim=3, degree=2, horizon=2, n_fit=50)
    model = fit(series, cfg)
    features, targets = embed(series, cfg)
    plain = float(np.linalg.norm(features @ model.coefficients - targets))
    assert model.diagnostics.residual_norm == plain
