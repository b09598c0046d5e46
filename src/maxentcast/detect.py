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
from numbers import Integral

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
        if not isinstance(self.min_run, Integral) or self.min_run < 1:
            raise ValueError(f"min_run must be an integer >= 1, got {self.min_run!r}")
        object.__setattr__(self, "min_run", int(self.min_run))


@dataclass(frozen=True)
class RegimeLabel:
    window_index: int
    window_label: str
    regime: Regime
    score: float  # rel_mse / baseline_rel_mse; NaN for degenerate windows


def classify(windows: Sequence[ErrorWindow],
             config: DetectorConfig = DetectorConfig()) -> list[RegimeLabel]:
    """Label each window, applying the threshold and then the run filter."""
    windows = list(windows)
    if not windows:
        raise ValueError("no windows to classify")
    scores = [w.score_ratio for w in windows]
    raw = [s < config.theta for s in scores]  # False for NaN
    kept = _min_run_filter(raw, config.min_run)
    return [RegimeLabel(window_index=i, window_label=w.label,
                        regime=Regime.PREDICTABLE if k else Regime.STOCHASTIC,
                        score=s)
            for i, (w, s, k) in enumerate(zip(windows, scores, kept))]


def _min_run_filter(flags: list[bool], min_run: int) -> list[bool]:
    out = [False] * len(flags)
    i = 0
    while i < len(flags):
        if not flags[i]:
            i += 1
            continue
        j = i
        while j < len(flags) and flags[j]:
            j += 1
        if j - i >= min_run:
            out[i:j] = [True] * (j - i)
        i = j
    return out


def changepoints(labels: Sequence[RegimeLabel]) -> list[int]:
    """Window indices whose regime differs from their predecessor."""
    labels = list(labels)
    if not labels:
        raise ValueError("no labels")
    return [i for i in range(1, len(labels))
            if labels[i].regime != labels[i - 1].regime]
