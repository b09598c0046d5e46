"""Shared fixtures and small builders for the test suite."""

import os
import sys
from datetime import date

# One BLAS thread, set before numpy is first imported.  Some tests compare
# predictions byte for byte with a whole-matrix reference product, and
# OpenBLAS splits such a product over its threads in a way that moves the
# last bits of some rows when the thread count changes.  BLAS reads these
# variables once, when numpy loads it: if numpy was imported before this
# file ran (another conftest or plugin first), the pin holds only if they
# were already 1.  BLAS_PINNED records which; tests that need the pin
# check it.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PINNED = ("numpy" not in sys.modules
               or all(os.environ.get(v) == "1" for v in _BLAS_VARS))
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from maxentcast import ErrorWindow, TimeSeries  # noqa: E402


@pytest.fixture
def write_csv(tmp_path):
    """Write rows to a temp CSV and return its path."""

    def _write(rows, header="date,value", name="series.csv"):
        path = tmp_path / name
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        return path

    return _write


def daily_series(values, start=date(2000, 1, 3), name="test"):
    """TimeSeries on consecutive calendar days, mirroring the synth layout."""
    values = np.asarray(values, dtype=float)
    days = start.toordinal() + np.arange(values.size)
    return TimeSeries(name=name, days=days, values=values)


def make_window(rel, base, *, label="w", n_points=10, start_index=0):
    """ErrorWindow for detector-level tests."""
    return ErrorWindow(
        label=label, start_index=start_index,
        end_index=start_index + n_points - 1, rel_mse=rel,
        baseline_rel_mse=base)
