"""Regime labeling from per-window scores.

A window is PREDICTABLE when the model's relative error is below theta
times the matched-horizon naive baseline for that window, and only when
that holds across at least min_run consecutive windows.  Everything else,
including degenerate windows, stays STOCHASTIC.  The defaults were
calibrated on the synthetic suite to keep the false-flag rate on pure
random walks at or under 5 percent.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Any

from .errors import check_int
from .evaluate import ErrorWindow


class Regime(str, Enum):
    STOCHASTIC = "STOCHASTIC"
    PREDICTABLE = "PREDICTABLE"


@dataclass(frozen=True)
class DetectorConfig:
    theta: float = 0.5
    min_run: int = 2

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta!r}")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "min_run", check_int("min_run", self.min_run))


@dataclass(frozen=True)
class RegimeLabel:
    """The label of the window at the same position in the window list."""

    regime: Regime
    score: float  # rel_mse / baseline_rel_mse; NaN for degenerate windows


def classify(windows: Sequence[ErrorWindow],
             config: DetectorConfig = DetectorConfig()) -> list[RegimeLabel]:
    """Label each window: every window of a run of at least min_run
    consecutive windows scored below theta is PREDICTABLE."""
    scores = [w.score_ratio for w in windows]
    if not scores:
        raise ValueError("no windows to classify")
    labels = []
    # a NaN score is never below theta
    for below, run in groupby(scores, lambda s: s < config.theta):
        run = list(run)
        regime = (Regime.PREDICTABLE if below and len(run) >= config.min_run
                  else Regime.STOCHASTIC)
        labels += [RegimeLabel(regime, s) for s in run]
    return labels


def changepoints(labels: Sequence[RegimeLabel]) -> list[int]:
    """Window indices whose regime differs from their predecessor."""
    labels = list(labels)
    if not labels:
        raise ValueError("no labels")
    return [i for i in range(1, len(labels))
            if labels[i].regime != labels[i - 1].regime]


def detection_outcome(spans: Sequence[tuple[int, int]], flagged: Sequence[int],
                      changepoint: int | None) -> dict[str, Any]:
    """Compare one track's flagged windows with a true changepoint.

    spans are the windows' ``(start_index, end_index)`` target-index ranges
    in order, flagged the positions of the PREDICTABLE windows.  The truth
    window is the first whose range reaches the changepoint; there is none
    for a changepoint that is None or outside the windows.  Flags at or
    after it are hits, all others false flags; hit is None without a
    changepoint.  localization_error is the first flag less the truth
    window, None without either.  A flagged position outside the spans is
    a ValueError."""
    if any(not 0 <= k < len(spans) for k in flagged):
        raise ValueError(f"flagged positions {list(flagged)} must lie in "
                         f"range({len(spans)})")
    truth = None
    if changepoint is not None and spans and changepoint >= spans[0][0]:
        truth = next((k for k, (_, end) in enumerate(spans)
                      if end >= changepoint), None)
    late = [k for k in flagged if truth is not None and k >= truth]
    return {
        "truth_window": truth,
        "hit": None if changepoint is None else bool(late),
        "false_flags": len(flagged) - len(late),
        "localization_error": (min(flagged) - truth
                               if flagged and truth is not None else None),
    }
