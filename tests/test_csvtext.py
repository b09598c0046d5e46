"""The CSV text kernels against Python's own formatting.

Every float field must be byte for byte ``'%.17g' % v``, and every date
field ``date.isoformat()``.
"""

from datetime import date
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentcast.csvtext import (FLOAT_WIDTH, _decimal_digits, _quotient,
                                csv_rows, date_fields, float_fields,
                                text_fields)


def assert_percent_g(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    fields = float_fields(values)
    assert fields.dtype == np.uint8 and fields.shape == (values.size, FLOAT_WIDTH)
    got = csv_rows([fields])
    if got != ("%.17g\n" * values.size % tuple(values.tolist())).encode():
        bad = [(v, text) for v, text in zip(values.tolist(), got.split(b"\n"))
               if text != b"%.17g" % v]
        pytest.fail(f"{len(bad)} of {values.size} differ, first {bad[:3]}")


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


BITS_1E_4 = int(np.float64(1e-4).view(np.uint64))
BITS_1E15 = int(np.float64(1e15).view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_floats_match_percent_g(values):
    assert_percent_g(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=40))
def test_bit_patterns_match_percent_g(bits):
    assert_percent_g(from_bits(bits))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(BITS_1E_4 - 2, BITS_1E15 + 2), max_size=40),
       st.booleans())
def test_fixed_notation_range_matches_percent_g(bits, negative):
    values = from_bits(bits)
    assert_percent_g(-values if negative else values)


def test_seeded_sweep_matches_percent_g():
    # 10**6 patterns: half over every float, half around the fixed range
    rng = np.random.default_rng(20_240_801)
    anywhere = rng.integers(0, 2 ** 64 - 1, size=500_000, dtype=np.uint64,
                            endpoint=True)
    fixed = rng.integers(BITS_1E_4 - 1_000, BITS_1E15 + 1_000,
                         size=500_000, dtype=np.uint64)
    fixed |= rng.integers(0, 2, size=fixed.size, dtype=np.uint64) << np.uint64(63)
    assert_percent_g(from_bits(anywhere))
    assert_percent_g(from_bits(fixed))


def edge_values() -> list[float]:
    values = []
    for k in range(-5, 18):
        x = 10.0 ** k
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    values += [1e-4, np.nextafter(1e-4, 0.0), 1e15, np.nextafter(1e15, 0.0),
               2.0 ** -25, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
               0.0, -0.0, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, np.nan, np.inf, -np.inf,
               # 18 significant digits ending in 5: ties at 17 digits,
               # rounded to the even neighbour (down, then up)
               12345678901234.0625, 12345678901234.1875,
               0.1, 0.5, 1.0, 300.0, 1e14 + 0.5, 99999999999999.98]
    return values


def test_edge_values_match_percent_g():
    values = np.array(edge_values())
    assert_percent_g(np.concatenate([values, -values]))


def test_ties_round_half_to_even():
    # i + (2t + 1) / 2**j, with i of 18 - j digits, has 18 significant
    # digits and ends in 5: exactly halfway between two 17-digit texts.
    rng = np.random.default_rng(5)
    values = []
    for j in range(4, 18):
        i = rng.integers(10 ** (17 - j), 10 ** (18 - j), size=200)
        t = rng.integers(0, 2 ** (j - 1), size=200)
        values.append(i + (2 * t + 1) / 2.0 ** j)
    values = np.concatenate(values)
    assert all(len(Decimal(v).as_tuple().digits) == 18 for v in values.tolist())
    assert_percent_g(values)


def test_whole_numbers_and_short_decimals_match_percent_g():
    rng = np.random.default_rng(9)
    whole = np.arange(1.0, 20_001.0) * 10.0 ** rng.integers(0, 11, 20_000)
    short = (np.round(rng.uniform(0, 1e4, 20_000) * 10.0 ** rng.integers(0, 6, 20_000))
             / 10.0 ** rng.integers(0, 9, 20_000))
    assert_percent_g(np.concatenate([whole, short, -short]))


def test_kernel_intermediates_keep_integer_dtypes():
    # NumPy 1.x promotes uint64 mixed with int64 to float64, which would
    # lose the low bits of the 100-bit product.
    m = np.array([2 ** 53 - 1, 2 ** 52], dtype=np.uint64)
    p = np.array([20, 2], dtype=np.int64)
    s = np.array([46, 1], dtype=np.uint64)
    quotient, remainder = _quotient(m, p, s)
    assert quotient.dtype == remainder.dtype == np.uint64
    exact = [(int(a) * 5 ** int(b)) for a, b in zip(m, p)]
    assert quotient.tolist() == [x >> int(c) for x, c in zip(exact, s)]
    assert remainder.tolist() == [x & ((1 << int(c)) - 1)
                                  for x, c in zip(exact, s)]
    digits, exponent = _decimal_digits(np.array([1e-4, 0.1, 299.5, 9.99e14]))
    assert digits.dtype == np.uint64 and exponent.dtype == np.int64
    assert exponent.tolist() == [-4, -1, 2, 14]
    assert digits.tolist() == [int(("%.16e" % v).replace(".", "")[:17])
                               for v in (1e-4, 0.1, 299.5, 9.99e14)]


def test_empty_columns_make_no_text():
    assert float_fields([]).shape == (0, FLOAT_WIDTH)
    assert date_fields([]).shape == (0, 12)
    assert csv_rows([date_fields([]), float_fields([])]) == b""


def test_dates_match_isoformat_over_the_whole_calendar():
    last = date(9999, 12, 31).toordinal()
    for start in range(1, last + 1, 1_000_000):
        ordinals = range(start, min(start + 1_000_000, last + 1))
        fields = date_fields(np.arange(ordinals.start, ordinals.stop))
        assert fields.dtype == np.uint8
        expected = "\n".join(map(date.isoformat, map(date.fromordinal, ordinals)))
        assert csv_rows([fields]) == (expected + "\n").encode()


def test_csv_rows_joins_fields_and_drops_padding():
    rows = csv_rows([text_fields(["a", "bcd"]), text_fields([b"", b"e"], 4),
                     float_fields([0.5, -2.0])])
    assert rows == b"a,,0.5\nbcd,e,-2\n"
