"""CSV text built by numpy kernels, a chunk of rows at a time.

Each column of a chunk becomes a ``(rows, width)`` uint8 matrix of ASCII
text padded with NUL bytes, which may sit anywhere in a row.
:func:`csv_rows` lays the columns side by side with their commas and
newlines and drops the padding with ``tobytes().translate(None, b"\\0")``,
so no Python object is made per value.

:func:`float_fields` writes each float exactly as Python's ``'%.17g' % v``
does.  A finite ``v`` with ``1e-4 <= |v| < 1e15`` is printed in fixed
notation, and its digits are computed here: with ``|v| = M * 2**E``
(``M`` a 53-bit integer) and ``k`` the decimal exponent of ``|v|``, the 17
significant digits are ``round_half_even(M * 5**p * 2**(E + p))`` for
``p = 16 - k``.  ``p`` lies in [2, 20], so the product has under 100 bits;
it is formed from 32-bit limbs in two uint64 words and shifted right by 1
to 63 bits.  ``k`` starts from ``log10`` and is corrected where the exact
quotient falls outside ``[10**16, 10**17)``.  Every other value (zero,
subnormal, non-finite, or printed with an exponent) goes through one
``%`` call for all such values of the chunk.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_TEN16 = _U64(10 ** 16)
_TEN17 = _U64(10 ** 17)
_POW5 = np.array([5 ** p for p in range(21)], dtype=np.uint64)
_ZERO, _POINT, _MINUS = ord("0"), ord("."), ord("-")


class _Tables(NamedTuple):
    group_tz: np.ndarray  # trailing zeros of 0000..9999 (4 for 0000)
    spread: np.ndarray    # see _tables
    years: np.ndarray     # "YYYY" of 0..9999 as uint32 words
    months: np.ndarray    # "-MM-" of 0..12
    days: np.ndarray      # "DD" and two NULs of 0..31


def _words(texts: list[bytes]) -> np.ndarray:
    """Texts of up to 4 ASCII bytes as uint32 words, NUL-padded."""
    return np.array(texts, dtype="S4").view(np.uint32)


@cache
def _tables() -> _Tables:
    """The lookup tables, built on first use rather than at import.

    ``spread`` holds each 4-digit group as 8 bytes, a digit and a NUL slot
    per digit, viewed as one uint64: rows 0..9999 keep every digit, rows
    10000..19999 drop the group's trailing zeros.
    """
    group = np.arange(10_000, dtype=np.int16)
    digits = np.empty((10_000, 4), dtype=np.uint8)
    for column, unit in enumerate((1000, 100, 10, 1)):
        digits[:, column] = group // unit % 10 + _ZERO
    group_tz = np.zeros(10_000, dtype=np.uint8)
    for unit in (10, 100, 1000, 10_000):
        group_tz += group % unit == 0
    spread = np.zeros((2, 10_000, 8), dtype=np.uint8)
    spread[:, :, 0::2] = digits
    spread[1, :, 0::2][np.arange(4) >= 4 - group_tz[:, None]] = 0
    return _Tables(group_tz=group_tz,
                   spread=spread.reshape(20_000, 8).view(np.uint64).ravel(),
                   years=digits.view(np.uint32).ravel(),
                   months=_words([b"-%02d-" % m for m in range(13)]),
                   days=_words([b"%02d" % d for d in range(32)]))


# Fixed-notation layout of one float field, FLOAT_WIDTH slots:
#   0       '-' for a negative value
#   1-5     "0." and up to three "0" when |v| < 1
#   6 + 2i  digit i of the 17 (i = 0..16)
#   7 + 2i  the decimal point, when it follows digit i
# Slots 8-39 hold digits 1-16 as four spread 4-digit groups.
FLOAT_WIDTH = 40
_LEADS = np.zeros((5, 5), dtype=np.uint8)  # row -k: the lead of k = -1..-4
for _j in range(1, 5):
    _LEADS[_j, :_j + 1] = np.frombuffer(b"0." + b"0" * (_j - 1), np.uint8)


def _quotient(m: np.ndarray, p: np.ndarray,
              s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m * 5**p`` divided by ``2**s``: the quotient and the remainder.

    ``m`` < 2**53, ``p`` <= 20 and 1 <= ``s`` <= 63, all uint64 but ``p``;
    the product (under 2**100) is held as ``hi * 2**64 + lo``.
    """
    f = _POW5[p]
    mh, ml = m >> _U64(32), m & _LOW32
    fh, fl = f >> _U64(32), f & _LOW32
    ll = ml * fl
    mid = (ll >> _U64(32)) + ml * fh + mh * fl
    lo = (ll & _LOW32) | (mid << _U64(32))
    hi = mh * fh + (mid >> _U64(32))
    quotient = (hi << (_U64(64) - s)) | (lo >> s)
    return quotient, lo & ((_U64(1) << s) - _U64(1))


def _decimal_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits and the decimal exponent of each float
    ``1e-4 <= a < 1e15``: uint64 ``d`` in ``[10**16, 10**17)`` and int64
    ``k`` with ``d * 10**(k - 16)`` the value rounded half to even."""
    mantissa, exponent = np.frexp(a)
    m = np.ldexp(mantissa, 53).astype(np.uint64)
    e = exponent.astype(np.int64) - 53           # a = m * 2**e
    k = np.clip(np.floor(np.log10(a)), -4, 14).astype(np.int64)
    p = 16 - k
    s = (-e - p).astype(np.uint64)
    d, rem = _quotient(m, p, s)
    wrong = (d < _TEN16) | (d >= _TEN17)         # log10 was one off
    if wrong.any():
        k[wrong] += np.where(d[wrong] < _TEN16, -1, 1)
        p[wrong] = 16 - k[wrong]
        s[wrong] = (-e[wrong] - p[wrong]).astype(np.uint64)
        d[wrong], rem[wrong] = _quotient(m[wrong], p[wrong], s[wrong])
    half = _U64(1) << (s - _U64(1))
    d += (rem > half) | ((rem == half) & (d & _U64(1) == _U64(1)))
    carry = d == _TEN17
    d[carry] = _TEN16
    k[carry] += 1
    return d, k


def _fixed_fields(v: np.ndarray) -> np.ndarray:
    """``'%.17g' % x`` of each ``1e-4 <= |x| < 1e15``, in the slots laid
    out above."""
    n = v.size
    d, k = _decimal_digits(np.abs(v))
    # d is the lead digit and four 4-digit groups; a // then a multiply and
    # a subtract is faster than divmod.
    eights = (d // _U64(10 ** 8)).astype(np.int64)
    lead = eights // 10 ** 8
    groups = np.empty((4, n), dtype=np.int64)
    groups[1] = eights - lead * 10 ** 8
    groups[3] = (d - (eights * 10 ** 8).astype(np.uint64)).astype(np.int64)
    groups[0] = groups[1] // 10_000
    groups[2] = groups[3] // 10_000
    groups[1::2] -= groups[0::2] * 10_000
    # A group ends the digits, and drops its trailing zeros, when every
    # later group is zero; last is the index of the last nonzero digit.
    ends = np.ones((4, n), dtype=bool)
    for j in (2, 1, 0):
        np.logical_and(ends[j + 1], groups[j + 1] == 0, out=ends[j])
    tables = _tables()
    last = 16 - (tables.group_tz[groups] * ends).sum(axis=0, dtype=np.int64)
    out = np.zeros((n, FLOAT_WIDTH), dtype=np.uint8)
    out[:, 0] = (v < 0) * np.uint8(_MINUS)
    out[:, 6] = lead.astype(np.uint8) + np.uint8(_ZERO)
    out[:, 8:].view(np.uint64)[:] = tables.spread[(groups + 10_000 * ends).T]
    rows = np.flatnonzero((last > k) & (k >= 0))
    out[rows, 7 + 2 * k[rows]] = _POINT
    rows = np.flatnonzero(k < 0)
    out[rows, 1:6] = _LEADS[-k[rows]]
    # Whole numbers ending in zeros, such as 300: put back the integer
    # digits the groups dropped.
    rows = np.flatnonzero(last < k)
    if rows.size:
        i = np.arange(17)
        r, c = np.nonzero((i > last[rows, None]) & (i <= k[rows, None]))
        out[rows[r], 6 + 2 * c] = _ZERO
    return out


def float_fields(values) -> np.ndarray:
    """``'%.17g' % v`` of each float, as ``(n, FLOAT_WIDTH)`` NUL-padded
    text."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e15)
    if fixed.all():
        return _fixed_fields(v)
    out = np.zeros((v.size, FLOAT_WIDTH), dtype=np.uint8)
    rows = np.flatnonzero(fixed)
    if rows.size:
        out[rows] = _fixed_fields(v[rows])
    rows = np.flatnonzero(~fixed)
    text = ("%.17g\0" * rows.size % tuple(v[rows].tolist())).encode("ascii")
    out[rows] = text_fields(text.split(b"\0")[:-1], FLOAT_WIDTH)
    return out


def date_fields(ordinals) -> np.ndarray:
    """ISO ``YYYY-MM-DD`` of proleptic Gregorian day ordinals (1 is
    0001-01-01, as ``date.toordinal`` counts), as ``(n, 12)`` NUL-padded
    text."""
    # Days since 0000-03-01, split into 400-year eras of 146097 days, as in
    # Hinnant's civil_from_days; March-based years put the leap day last.
    z = np.asarray(ordinals, dtype=np.int64) + 305
    era, day_of_era = np.divmod(z, 146097)
    year_of_era = (day_of_era - day_of_era // 1460 + day_of_era // 36524
                   - day_of_era // 146096) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4
                                - year_of_era // 100)
    shifted_month = (5 * day_of_year + 2) // 153             # March is 0
    day = day_of_year - (153 * shifted_month + 2) // 5 + 1
    month = np.where(shifted_month < 10, shifted_month + 3, shifted_month - 9)
    year = 400 * era + year_of_era + (month <= 2)
    tables = _tables()
    out = np.empty((z.size, 3), dtype=np.uint32)  # "YYYY" "-MM-" "DD"
    out[:, 0] = tables.years[year]
    out[:, 1] = tables.months[month]
    out[:, 2] = tables.days[day]
    return out.view(np.uint8)


def text_fields(strings: Iterable[str | bytes],
                width: int | None = None) -> np.ndarray:
    """ASCII strings as NUL-padded rows, ``width`` bytes wide or as wide as
    the longest."""
    arr = np.array(list(strings), dtype=f"S{width}" if width else bytes)
    return arr.view(np.uint8).reshape(arr.size, arr.itemsize)


def csv_rows(columns: Sequence[np.ndarray]) -> bytes:
    """CSV lines from equally long field matrices: a row's fields joined
    by commas and ended by a newline, the NUL padding dropped."""
    widths = [c.shape[1] for c in columns]
    out = np.empty((columns[0].shape[0], sum(widths) + len(columns)),
                   dtype=np.uint8)
    at = 0
    for column, width in zip(columns, widths):
        out[:, at:at + width] = column
        out[:, at + width] = ord(",")
        at += width + 1
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")
