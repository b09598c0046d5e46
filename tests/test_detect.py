"""Regime labeling from window scores."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentcast import (DetectorConfig, Regime, RegimeLabel, changepoints,
                        classify, detection_outcome)

import reference_protocol as ref
from conftest import make_window


def windows_from_ratios(ratios, base=1.0):
    return [make_window(r * base, base, label=f"w{k:03d}", start_index=10 * k)
            for k, r in enumerate(ratios)]


def flagged(labels) -> set[int]:
    """Positions of the PREDICTABLE labels."""
    return {k for k, lab in enumerate(labels)
            if lab.regime is Regime.PREDICTABLE}


def regimes(ratios, theta=0.5, min_run=2):
    labels = classify(windows_from_ratios(ratios),
                      DetectorConfig(theta=theta, min_run=min_run))
    return [lab.regime for lab in labels]


def test_ratio_example_flags_last_three():
    out = regimes([1.0, 1.1, 0.05, 0.04, 0.06])
    assert out == [Regime.STOCHASTIC, Regime.STOCHASTIC, Regime.PREDICTABLE,
                   Regime.PREDICTABLE, Regime.PREDICTABLE]


def test_scores_equal_to_baseline_never_flag():
    for theta in (0.1, 0.5, 0.99):
        labels = classify(windows_from_ratios([1.0, 1.0, 1.0]),
                          DetectorConfig(theta=theta, min_run=1))
        assert all(lab.regime is Regime.STOCHASTIC for lab in labels)


def test_min_run_three_keeps_only_final_run():
    # raw flags T,T,F,T,T,T; with min_run=3 only the last run survives
    out = regimes([0.1, 0.1, 0.9, 0.1, 0.1, 0.1], min_run=3)
    assert out == [Regime.STOCHASTIC, Regime.STOCHASTIC, Regime.STOCHASTIC,
                   Regime.PREDICTABLE, Regime.PREDICTABLE,
                   Regime.PREDICTABLE]


def test_short_runs_are_suppressed():
    out = regimes([0.1, 0.9, 0.1, 0.9, 0.1], min_run=2)
    assert all(r is Regime.STOCHASTIC for r in out)


def test_degenerate_windows_are_stochastic_with_nan_score():
    win = [make_window(math.nan, math.nan), make_window(0.01, 1.0)]
    assert [w.degenerate for w in win] == [True, False]
    labels = classify(win, DetectorConfig(theta=0.5, min_run=1))
    assert labels[0].regime is Regime.STOCHASTIC
    assert math.isnan(labels[0].score)
    assert labels[1].regime is Regime.PREDICTABLE
    assert math.isclose(labels[1].score, 0.01)


def test_nonpositive_baseline_is_stochastic():
    labels = classify([make_window(0.0, 0.0)],
                      DetectorConfig(theta=0.5, min_run=1))
    assert labels[0].regime is Regime.STOCHASTIC


def test_infinite_baseline_is_stochastic():
    labels = classify([make_window(0.1, math.inf), make_window(0.1, 1.0)],
                      DetectorConfig(theta=0.5, min_run=1))
    assert labels[0].regime is Regime.STOCHASTIC
    assert math.isnan(labels[0].score)
    assert labels[1].regime is Regime.PREDICTABLE


def test_labels_follow_the_window_order():
    labels = classify(windows_from_ratios([0.9, 0.25, 0.1]), DetectorConfig())
    assert labels == [RegimeLabel(Regime.STOCHASTIC, 0.9),
                      RegimeLabel(Regime.PREDICTABLE, 0.25),
                      RegimeLabel(Regime.PREDICTABLE, 0.1)]


def test_classify_requires_windows():
    with pytest.raises(ValueError):
        classify([], DetectorConfig())


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(theta=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(theta=1.0)
    with pytest.raises(ValueError):
        DetectorConfig(min_run=0)


def test_changepoints_uniform_labels():
    labels = classify(windows_from_ratios([0.9, 0.9, 0.9]), DetectorConfig())
    assert changepoints(labels) == []


def test_changepoints_single_boundary():
    labels = classify(windows_from_ratios([0.9, 0.9, 0.05, 0.05]),
                      DetectorConfig())
    assert changepoints(labels) == [2]


def test_changepoints_alternating():
    labels = classify(windows_from_ratios([0.9, 0.05, 0.9, 0.05]),
                      DetectorConfig(min_run=1))
    assert [lab.regime for lab in labels] == [
        Regime.STOCHASTIC, Regime.PREDICTABLE, Regime.STOCHASTIC,
        Regime.PREDICTABLE]
    assert changepoints(labels) == [1, 2, 3]


def test_changepoints_require_labels():
    with pytest.raises(ValueError):
        changepoints([])


ratio_lists = st.lists(
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False), min_size=1,
    max_size=30)


@settings(max_examples=100, deadline=None)
@given(ratios=ratio_lists, data=st.data())
def test_lower_theta_never_adds_flags(ratios, data):
    lo = data.draw(st.floats(min_value=0.01, max_value=0.98))
    hi = data.draw(st.floats(min_value=lo, max_value=0.99))
    flagged_lo = flagged(classify(windows_from_ratios(ratios),
                                  DetectorConfig(theta=lo, min_run=2)))
    flagged_hi = flagged(classify(windows_from_ratios(ratios),
                                  DetectorConfig(theta=hi, min_run=2)))
    assert flagged_lo <= flagged_hi


@settings(max_examples=100, deadline=None)
@given(ratios=ratio_lists,
       min_run=st.integers(min_value=1, max_value=6))
def test_larger_min_run_never_adds_flags(ratios, min_run):
    flagged_small = flagged(classify(windows_from_ratios(ratios),
                                     DetectorConfig(min_run=min_run)))
    flagged_large = flagged(classify(windows_from_ratios(ratios),
                                     DetectorConfig(min_run=min_run + 1)))
    assert flagged_large <= flagged_small


@settings(max_examples=100, deadline=None)
@given(ratios=ratio_lists)
def test_changepoint_count_matches_adjacent_differences(ratios):
    labels = classify(windows_from_ratios(ratios), DetectorConfig())
    expected = [k for k in range(1, len(labels))
                if labels[k].regime is not labels[k - 1].regime]
    assert changepoints(labels) == expected


@settings(max_examples=50, deadline=None)
@given(ratios=ratio_lists)
def test_classify_is_deterministic(ratios):
    first = classify(windows_from_ratios(ratios), DetectorConfig())
    second = classify(windows_from_ratios(ratios), DetectorConfig())
    assert [a.regime for a in first] == [b.regime for b in second]


@settings(max_examples=400, deadline=None)
@given(ratios=st.lists(st.sampled_from([0.1, 0.4999, 0.5, 0.9, math.nan]),
                       min_size=1, max_size=80),
       min_run=st.integers(min_value=1, max_value=90))
def test_classify_keeps_exactly_the_long_runs(ratios, min_run):
    # the run filter's index loop is the oracle; a NaN ratio is a
    # degenerate window, never below theta
    windows = windows_from_ratios(ratios)
    labels = classify(windows, DetectorConfig(theta=0.5, min_run=min_run))
    below = [not math.isnan(r) and r < 0.5 for r in ratios]
    assert flagged(labels) == {
        k for k, kept in enumerate(ref.min_run_filter(below, min_run)) if kept}


# ------------------------------------------------------- detection outcome

def test_detection_outcome_outside_the_windows():
    # the truth window is the first window whose range reaches the
    # changepoint; before the first window and after the last there is none
    spans = [(707, 831), (832, 956)]
    assert [detection_outcome(spans, [], i)["truth_window"]
            for i in (100, 706, 707, 831, 832, 956, 957)] == [
        None, None, 0, 0, 1, 1, None]
    assert detection_outcome([], [], 5) == {
        "truth_window": None, "hit": False, "false_flags": 0,
        "localization_error": None}


def test_detection_outcome_without_a_truth_window_counts_every_flag_false():
    spans = [(707, 831), (832, 956)]
    for changepoint, hit in ((100, False), (957, False), (None, None)):
        assert detection_outcome(spans, [0, 1], changepoint) == {
            "truth_window": None, "hit": hit, "false_flags": 2,
            "localization_error": None}


@pytest.mark.parametrize("flagged", [[2], [5], [-1], [0, 2]])
def test_detection_outcome_refuses_a_flag_outside_the_windows(flagged):
    with pytest.raises(ValueError, match="must lie in range"):
        detection_outcome([(0, 99), (100, 199)], flagged, 150)
