"""Seeded, platform-independent random streams for the generators.

All randomness in this package comes from one counter-based construction,
documented here and nowhere else:

* 64-bit outputs: splitmix64 (Steele, Lea & Vigna, 2014).  Output ``i`` of
  the stream with seed ``s`` is ``mix(s + (i + 1) * 0x9E3779B97F4A7C15)``
  mod 2**64, where ``mix`` is the xorshift-multiply finalizer with
  constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB and shifts 30/27/31.
* uniforms in [0, 1): the top 53 bits of an output, scaled by 2**-53.
* standard normals: the Box-Muller transform on consecutive uniform pairs,
  with the first element of each pair shifted into (0, 1] so the logarithm
  never sees zero.

Because the counter advances by pure arithmetic, each stream is a function
of (seed, n) only and is bit-identical across platforms, Python builds and
numpy versions.  Nothing here touches numpy's or Python's global RNGs, and
no platform normal generator is ever used.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


def outputs(seed: int, n: int) -> np.ndarray:
    """The first n raw uint64 stream outputs for the given seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    counter = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + counter * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def uniforms(seed: int, n: int) -> np.ndarray:
    """n doubles in [0, 1), from the top 53 bits of each stream output."""
    return (outputs(seed, n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def normals(seed: int, n: int) -> np.ndarray:
    """n standard normal deviates via Box-Muller on uniform pairs."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pairs = (n + 1) // 2
    u = uniforms(seed, 2 * pairs)
    u1 = u[0::2] + 2.0 ** -53  # (0, 1]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:n]
