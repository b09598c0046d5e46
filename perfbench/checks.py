"""Output checks computed apart from the program.

Nothing here calls the package's fitting, feature or scoring code, and no
output is compared with a stored copy: predictions are re-evaluated from
the reported coefficients on monomials enumerated here, window scores are
recomputed from the forecast records, labels are re-derived from the
scores, and fitted coefficients are compared with ``numpy.linalg.lstsq``
on a design built here.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

# Agreement allowed between a reported number and its recomputation, as a
# share of the magnitude of the terms summed.  Both sides sum the same
# terms in different orders, so they differ by a few ulps of that magnitude.
REL_TOL = 1e-9
EPS = np.finfo(float).eps


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def monomial_labels(dim: int, degree: int) -> list[str]:
    """Feature names in the documented order: "1", then each degree block
    of non-decreasing component-index tuples, as "v1", "v1*v2", ..."""
    labels = ["1"]
    for k in range(1, degree + 1):
        for term in combinations_with_replacement(range(1, dim + 1), k):
            labels.append("*".join(f"v{i}" for i in term))
    return labels


def _features(values: np.ndarray, anchors: np.ndarray, dim: int, lag: int,
              labels: list[str]) -> np.ndarray:
    """Monomial values of the delay vectors at anchors, one column per label."""
    comps = values[anchors[:, None] - lag * np.arange(dim)]
    out = np.ones((anchors.size, len(labels)))
    for j, label in enumerate(labels):
        if label != "1":
            for name in label.split("*"):
                out[:, j] *= comps[:, int(name[1:]) - 1]
    return out


def check_track(values, *, dim: int, lag: int, degree: int, n_fit: int,
                horizon: int, labels, coefficients, actual, predicted,
                windows, width: int, sample: np.ndarray) -> None:
    """Check one forecast track against the series it was made from.

    windows holds one (rel_mse, baseline, start_index, end_index) tuple per
    scored window, with None or NaN for a degenerate score.  sample holds
    positions in the forecast records whose predictions are re-evaluated.
    """
    values = np.asarray(values, dtype=float)
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    span = (dim - 1) * lag
    first = span + n_fit
    n_records = values.size - span - n_fit - horizon
    require(actual.size == predicted.size == n_records,
            f"T={horizon}: {predicted.size} forecasts, expected "
            f"n - (d-1)*lag - M - T = {n_records}")
    require(list(labels) == monomial_labels(dim, degree),
            f"T={horizon}: feature labels {list(labels)[:4]}... are not the "
            f"monomials of dim {dim}, degree {degree}")
    targets = np.arange(first, first + n_records) + horizon
    require(np.array_equal(actual, values[targets]),
            f"T={horizon}: actual values are not the series at the targets")

    anchors = first + sample
    terms = _features(values, anchors, dim, lag, list(labels)) * coefficients
    expect = terms.sum(axis=1)
    scale = np.abs(terms).sum(axis=1)
    bad = np.abs(predicted[sample] - expect) > REL_TOL * scale
    require(not bad.any(),
            f"T={horizon}: prediction at anchor {anchors[bad][:1]} differs from "
            f"the delay polynomial of the reported coefficients")

    n_windows = -(-n_records // width)
    require(len(windows) == n_windows,
            f"T={horizon}: {len(windows)} windows, expected {n_windows}")
    for k, (rel, base, start_index, end_index) in enumerate(windows):
        lo, hi = k * width, min((k + 1) * width, n_records)
        require((start_index, end_index) == (targets[lo], targets[hi - 1]),
                f"T={horizon}: window {k} covers targets "
                f"{start_index}..{end_index}, expected {targets[lo]}..{targets[hi - 1]}")
        a, p = actual[lo:hi], predicted[lo:hi]
        _same_score(rel, _rel_mse(a, p), f"T={horizon}: window {k} rel_mse")
        ref = _rel_mse(a[horizon:], a[:-horizon]) if a.size >= horizon + 2 else None
        _same_score(base, ref, f"T={horizon}: window {k} baseline")


def _rel_mse(a: np.ndarray, p: np.ndarray) -> float | None:
    """sum((p - a)^2) / sum((a - mean a)^2); None when undefined."""
    if a.size < 2:
        return None
    denom = float(np.sum(np.square(a - np.mean(a))))
    if not denom > 0:
        return None
    return float(np.sum(np.square(p - a))) / denom


def _same_score(reported, expected, what: str) -> None:
    if reported is None or not math.isfinite(reported):
        require(expected is None, f"{what}: reported degenerate, recomputed {expected}")
        return
    require(expected is not None and abs(reported - expected) <= REL_TOL * abs(expected),
            f"{what}: reported {reported!r}, recomputed {expected!r}")


def expected_flags(scores, theta: float, min_run: int) -> list[bool]:
    """Threshold each score, then keep only runs of at least min_run."""
    raw = [s is not None and math.isfinite(s) and s < theta for s in scores]
    out = [False] * len(raw)
    start = None
    for i, flag in enumerate(raw + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_run:
                out[start:i] = [True] * (i - start)
            start = None
    return out


def window_scores(windows) -> list[float | None]:
    """rel_mse / baseline per window; None where either side is unusable."""
    out = []
    for rel, base, _, _ in windows:
        usable = (rel is not None and base is not None and math.isfinite(rel)
                  and math.isfinite(base) and base > 0)
        out.append(rel / base if usable else None)
    return out


def check_labels(windows, flagged, changepoints, theta: float, min_run: int,
                 what: str) -> None:
    """Labels and changepoints as the detector rule gives them."""
    expect = expected_flags(window_scores(windows), theta, min_run)
    require(list(flagged) == expect, f"{what}: labels differ from the rule")
    switches = [i for i in range(1, len(expect)) if expect[i] != expect[i - 1]]
    require(list(changepoints) == switches,
            f"{what}: changepoints {list(changepoints)[:4]} differ from the "
            f"label switches {switches[:4]}")


def truth_window(windows, changepoint: int) -> int | None:
    """First window whose last target reaches the changepoint."""
    return next((k for k, w in enumerate(windows) if w[3] >= changepoint), None)


def check_lstsq(values, *, dim: int, lag: int, degree: int, n_fit: int,
                horizon: int, coefficients, rank_tolerance: float,
                what: str) -> None:
    """Coefficients against lstsq on a design built here.

    Both solve the same least-squares problem with the same relative
    singular-value cutoff, so they agree to within the rounding error of
    the solve, which grows with the condition number of the kept part.
    """
    span = (dim - 1) * lag
    anchors = np.arange(span, span + n_fit)
    values = np.asarray(values, dtype=float)
    design = _features(values, anchors, dim, lag, monomial_labels(dim, degree))
    ref, _, rank, s = np.linalg.lstsq(design, values[anchors + horizon],
                                      rcond=rank_tolerance)
    cond = float(s[0] / s[rank - 1])
    diff = float(np.linalg.norm(np.asarray(coefficients) - ref)
                 / np.linalg.norm(ref))
    require(diff <= 1e3 * cond * EPS,
            f"{what}: coefficients differ from lstsq by {diff:.3g} "
            f"(condition number {cond:.3g})")


def sample_positions(n: int, count: int, seed) -> np.ndarray:
    """The first and last record plus count seeded positions in between."""
    rng = np.random.default_rng(seed)
    inner = rng.integers(0, n, size=count)
    return np.unique(np.concatenate([[0, n - 1], inner]))
