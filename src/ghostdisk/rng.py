"""Deterministic counter-based random number generator.

Every stochastic feature of this package (the random-pattern baseline and
the optional bucket noise) draws from the generator defined here, so that
results are reproducible bit-for-bit from a 64-bit seed alone, on any
platform and any library version.

The generator is the SplitMix64 mixing function applied to a counter:

    word(seed, i) = mix64((seed + (i + 1) * PHI) mod 2^64)

where ``PHI = 0x9E3779B97F4A7C15`` (the 64-bit golden-ratio increment) and
``mix64`` is the xor-shift/multiply finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2^64.  Because ``word`` is a pure function of
``(seed, i)``, any draw can be computed independently of any other: streams
can be split by counter range and evaluated in parallel or out of order
without changing a single bit of the output.

Derived draws, also fixed by this module:

* bits      -- word ``i`` is consumed most-significant bit first.
* uniform   -- ``((word >> 11) + 1) * 2^-53``, a double in (0, 1].
* gaussian  -- one Box-Muller pair per two words:
               ``sqrt(-2 ln u1) * cos(2 pi u2)`` with ``u1`` from the even
               word and ``u2`` from the odd word.

``words`` evaluates a whole counter range at once in numpy ``uint64``.
``gaussians`` takes its uniforms from those words in ``uint64`` too (exact,
as the uniform's numerator is at most 2^53), ``log`` and ``cos`` through the
same libm calls as ``gaussian``, and every float step in the same order, so
each draw is bit-identical to the scalar one.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective mix of one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64), which would alias one inside it mod 2**64."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed: must be in [0, 2**64), got {seed}")


def word(seed: int, index: int) -> int:
    """The ``index``-th 64-bit output word of the stream for ``seed``."""
    if index < 0:
        raise ValueError("word index must be nonnegative")
    return mix64((seed + (index + 1) * _PHI) & _MASK64)


def uniform(seed: int, index: int) -> float:
    """Word ``index`` mapped to a double in (0, 1]."""
    return ((word(seed, index) >> 11) + 1) * 2.0**-53


def gaussian(seed: int, index: int) -> float:
    """The ``index``-th standard normal draw (Box-Muller, two words each)."""
    u1 = uniform(seed, 2 * index)
    u2 = uniform(seed, 2 * index + 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def words(seed: int, lo: int, hi: int) -> np.ndarray:
    """Words ``lo .. hi-1`` as uint64, equal to ``word`` for each index."""
    if not 0 <= lo <= hi:
        raise ValueError(f"word range must satisfy 0 <= lo <= hi, got [{lo}, {hi})")
    # Every operand is an explicit uint64: NumPy 1.x would turn uint64 mixed
    # with a Python int into float64.  Products wrap modulo 2^64 on purpose.
    with np.errstate(over="ignore"):
        first = np.uint64((seed + (lo + 1) * _PHI) & _MASK64)
        z = first + np.arange(hi - lo, dtype=np.uint64) * np.uint64(_PHI)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def gaussians(seed: int, lo: int, hi: int) -> np.ndarray:
    """Draws ``lo .. hi-1`` as float64, equal bit for bit to ``gaussian``."""
    count = hi - lo
    z = words(seed, 2 * lo, 2 * hi)
    u = ((z >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    # np.log/np.cos may differ from libm in the last bit; map the math calls.
    log_u1 = np.fromiter(map(math.log, u[0::2].tolist()), np.float64, count)
    cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()), np.float64, count)
    return np.sqrt(-2.0 * log_u1) * cos_u2
