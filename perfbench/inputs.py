"""Seeded benchmark inputs, made with the package's own generators.

Every input is a pure function of the benchmark seed.  The package's
functions are looked up on the module at call time (``mx.generate``, not a
name bound at import), so the tracer's wrappers see these calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import maxentcast as mx

SIGMA = 1.0
# The splice of acceptance criterion 5: a two-band logistic map, placed at
# the walk's final level with an amplitude of 60 sigma, with 0.01 sigma noise.
MAP_R = 3.59
MAP_SCALE = 60.0
MAP_NOISE = 0.01
CALIB_N = 2000
CALIB_SPLICE = 1333
# One business day in each block of DROP_BLOCK is left out of the CSV.  The
# position within the block is never the first or the last, so two left-out
# days are never adjacent and the first and last rows are always written.
DROP_BLOCK = 50
FIRST_DAY = np.datetime64("2000-01-03")  # a Monday


def splice(n: int, splice_at: int, seed: int) -> mx.SplicedSeries:
    """Seeded walk of splice_at points, then a low-noise logistic map."""
    walk = mx.RandomWalkSpec(n=splice_at, sigma=SIGMA, seed=seed)
    walk_end = float(mx.generate(walk).values[-1])
    scale = MAP_SCALE * SIGMA
    coeffs = mx.rescale_map_coefficients(
        mx.logistic_map_coefficients(MAP_R), 1, walk_end - 0.5 * scale, scale)
    second = mx.PolyMapSpec(n=n - splice_at, dim=1, coefficients=coeffs,
                            noise_sigma=MAP_NOISE * SIGMA, seed=seed + 1)
    return mx.gen_spliced(walk, second, splice_at)


def business_day_strings(n: int) -> list[str]:
    """ISO dates of n consecutive business days from FIRST_DAY."""
    days = np.busday_offset(FIRST_DAY, np.arange(n), roll="forward")
    return np.datetime_as_string(days, unit="D").tolist()


@dataclass
class CsvInput:
    """A spliced series written as a business-day CSV with days left out."""

    path: str
    dates: list[str]        # every business day, left-out ones included
    cleaned: np.ndarray     # the series after a forward fill of left-out days
    dropped: np.ndarray     # indices of the left-out business days
    changepoint: int
    rows_written: int


def cli_input(n: int, seed: int, path) -> CsvInput:
    """Splice two thirds of the way in; write all but the left-out days."""
    spliced = splice(n, 2 * n // 3, seed)
    values = spliced.series.values
    blocks = n // DROP_BLOCK
    pos = np.random.default_rng([seed, 1]).integers(1, DROP_BLOCK - 1, size=blocks)
    dropped = np.arange(blocks) * DROP_BLOCK + pos
    keep = np.ones(n, dtype=bool)
    keep[dropped] = False
    dates = business_day_strings(n)
    kept_values = values[keep].tolist()
    kept_dates = [d for d, k in zip(dates, keep.tolist()) if k]
    lines = [f"{d},{v!r}" for d, v in zip(kept_dates, kept_values)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,value\n" + "\n".join(lines) + "\n")
    cleaned = values.copy()
    cleaned[dropped] = values[dropped - 1]
    return CsvInput(path=str(path), dates=dates, cleaned=cleaned, dropped=dropped,
                    changepoint=spliced.changepoint, rows_written=len(lines))


def calib_inputs(n_walks: int, n_splices: int, seed: int):
    """The null walks and the planted splices of one calibration sweep."""
    base = seed * 10_000
    walks = [mx.gen_random_walk(CALIB_N, SIGMA, seed=base + i)
             for i in range(n_walks)]
    splices = [splice(CALIB_N, CALIB_SPLICE, base + 5_000 + 2 * j)
               for j in range(n_splices)]
    return walks, splices


def wide_input(n: int, seed: int) -> mx.TimeSeries:
    return mx.gen_random_walk(n, SIGMA, seed=seed)
