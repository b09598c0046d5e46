"""Blocked forecasting against the whole-matrix reference.

``reference_design`` keeps the straightforward feature construction (a
copy of each term's first component times the rest) and the forecast that
builds one (anchors, N_c) feature matrix.  ``forecast_series`` builds its
features one block of anchors at a time; its predictions, and the fit
features of ``embed``, must have the same bytes.  ``forecast_series``
forecasts every anchor whose target lies in the series, so each anchor
count is reached by trimming the series.  The comparisons hold
for one BLAS thread, which ``conftest`` pins before numpy is imported.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_design as ref
from maxentcast import (EmbedConfig, FitDiagnostics, FittedModel, TimeSeries,
                        count_coefficients, embed, fit, forecast_series,
                        gen_random_walk)
from maxentcast.design import delay_matrix
from maxentcast.model import forecast_block_rows
from maxentcast.report import _model_payload

from conftest import BLAS_PINNED, daily_series

SRC = Path(__file__).resolve().parents[1] / "src"
# (dim, degree, lag)
GEOMETRIES = [(6, 3, 1), (8, 3, 1), (2, 1, 1), (4, 2, 2), (3, 4, 1)]
LONG = 200_000
HORIZON = 7


@pytest.fixture(scope="module")
def blas_pinned():
    assert BLAS_PINNED, (
        "numpy was imported before tests/conftest.py could pin BLAS to one "
        "thread, so whole-matrix reference products may split over threads "
        "and differ in their last bits; set OPENBLAS_NUM_THREADS=1 "
        "(and OMP_NUM_THREADS, MKL_NUM_THREADS) or run tests/ first")


@lru_cache(maxsize=None)
def fitted(dim, degree, lag):
    """A 200k-point walk and a model fitted on its earliest constraints."""
    cfg = EmbedConfig(dim=dim, degree=degree, horizon=HORIZON,
                      n_fit=3 * count_coefficients(dim, degree),
                      lag=lag)
    series = gen_random_walk(cfg.span + cfg.n_fit + LONG + HORIZON, 1.0,
                             seed=100 * dim + 10 * degree + lag)
    return series, cfg, fit(series, cfg)


def trimmed(series, n):
    """The first n points of a series."""
    return TimeSeries(series.name, series.days[:n], series.values[:n])


def anchor_counts(n_features):
    block = forecast_block_rows(n_features)
    return [1, 63, 64, 65, block - 1, block, block + 1, LONG]


@pytest.mark.usefixtures("blas_pinned")
@pytest.mark.parametrize("dim,degree,lag", GEOMETRIES)
def test_blocked_forecast_matches_whole_matrix(dim, degree, lag):
    series, cfg, model = fitted(dim, degree, lag)
    first = cfg.span + cfg.n_fit
    for count in anchor_counts(cfg.n_features):
        times = range(first, first + count)
        frame = forecast_series(trimmed(series, first + count + HORIZON),
                                model, first)
        expected = ref.forecast_predicted(series.values, model.coefficients,
                                          times, dim, degree, lag)
        assert frame.predicted.tobytes() == expected.tobytes(), count


@pytest.mark.parametrize("dim,degree,lag", GEOMETRIES)
def test_embed_features_match_reference(dim, degree, lag):
    series, cfg, _ = fitted(dim, degree, lag)
    features, _ = embed(series, cfg)
    delays = delay_matrix(series.values,
                          np.arange(cfg.span, cfg.span + cfg.n_fit), dim, lag)
    assert features.tobytes() == ref.feature_matrix(delays, degree).tobytes()


def test_block_rows_fill_the_budget_in_multiples_of_64():
    assert forecast_block_rows(84) == 1536       # 1,032,192 bytes
    assert forecast_block_rows(3) == 43648
    assert forecast_block_rows(165) == 768
    assert forecast_block_rows(1287) == 128      # dim 8, degree 5
    assert forecast_block_rows(10_000) == 128    # never below two groups


def model_for(coefficients, cfg):
    n = cfg.n_features
    return FittedModel(coefficients=coefficients, config=cfg,
                       diagnostics=FitDiagnostics(rank=n,
                                                  singular_values=np.ones(n),
                                                  residual_norm=0.0))


@pytest.mark.usefixtures("blas_pinned")
def test_blocked_forecast_matches_whole_matrix_past_the_floor():
    # N_c = 1287 gets the 128-row floor; 129 and 257 anchors leave a
    # one-row remainder, which joins the block before it
    cfg = EmbedConfig(dim=8, degree=5, horizon=2, n_fit=1)
    rng = np.random.default_rng(5)
    values = np.cumsum(rng.standard_normal(cfg.span + 400 + cfg.horizon))
    coefficients = rng.standard_normal(cfg.n_features)
    for count in (1, 64, 65, 127, 128, 129, 256, 257, 385):
        times = range(cfg.span, cfg.span + count)
        frame = forecast_series(daily_series(values[:cfg.span + count + cfg.horizon]),
                                model_for(coefficients, cfg), cfg.span)
        expected = ref.forecast_predicted(values, coefficients, times, 8, 5, 1)
        assert frame.predicted.tobytes() == expected.tobytes(), count


@pytest.mark.usefixtures("blas_pinned")
@settings(max_examples=40, deadline=None)
@given(geometry=st.sampled_from([(6, 3, 1), (8, 3, 1), (3, 4, 1)]),
       data=st.data())
def test_blocked_forecast_matches_whole_matrix_on_any_values(geometry, data):
    dim, degree, lag = geometry
    cfg = EmbedConfig(dim=dim, degree=degree, horizon=2, n_fit=1, lag=lag)
    block = forecast_block_rows(cfg.n_features)
    n_anchors = data.draw(st.integers(min_value=1, max_value=2 * block + 3))
    magnitude = st.floats(min_value=-1e60, max_value=1e60, width=64)
    values = data.draw(arrays(np.float64, cfg.span + n_anchors + cfg.horizon,
                              elements=magnitude))
    coefficients = data.draw(arrays(np.float64, cfg.n_features,
                                    elements=st.floats(-1e3, 1e3)))
    times = range(cfg.span, cfg.span + n_anchors)
    frame = forecast_series(daily_series(values), model_for(coefficients, cfg),
                            cfg.span)
    expected = ref.forecast_predicted(values, coefficients, times,
                                      dim, degree, lag)
    assert frame.predicted.tobytes() == expected.tobytes()


FORECAST_HASH = """
import hashlib, json, sys
from maxentcast import (EmbedConfig, FitDiagnostics, FittedModel,
                        forecast_series, gen_random_walk)
from maxentcast.model import forecast_batch
models = []
for doc in json.load(sys.stdin):
    cfg = EmbedConfig(**doc["config"])
    models.append(FittedModel(
        coefficients=doc["coefficients"], config=cfg,
        diagnostics=FitDiagnostics(rank=0, singular_values=(),
                                   residual_norm=0.0)))
series = gen_random_walk(int(sys.argv[1]), 1.0, seed=int(sys.argv[2]))
cfg = models[0].config
first = cfg.span + cfg.n_fit
frames = [forecast_series(series, models[0], first)]
frames += forecast_batch(series, models, first)
print(hashlib.sha256(b"".join(f.predicted.tobytes() for f in frames)).hexdigest())
"""


def test_predictions_do_not_depend_on_blas_threads():
    # 199,275 anchors: one product over all of them, split over two
    # threads, changes the last bits of some predictions.  The models are
    # fitted once and handed over as JSON, whose floats read back exactly,
    # because fitted coefficients themselves depend on the thread count.
    n, seed = 199_987, 11
    series = gen_random_walk(n, 1.0, seed=seed)
    models = json.dumps([
        _model_payload(fit(series, EmbedConfig(dim=6, degree=3,
                                               horizon=horizon, n_fit=700)))
        for horizon in (HORIZON, 10, 13, 16)])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", FORECAST_HASH, str(n),
                               str(seed)], input=models,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
