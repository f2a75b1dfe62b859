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

``words`` evaluates a whole counter range, or every ``step``-th word of
one, at once in numpy ``uint64``.  ``rounded_noise`` gives the noise counts
``floor(sigma * z + 0.5)`` of a range of draws, equal to the scalar ones,
from its even and its odd words as two contiguous arrays; a float32 ``cos``
screens its ``z``, then numpy's float64 pass and libm's redo only the draws
a last-bit difference could still move across a rounding edge.
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


def words(seed: int, lo: int, hi: int, step: int = 1) -> np.ndarray:
    """Words ``lo, lo + step, ...`` below ``hi`` as uint64, equal to ``word`` for each index."""
    if not 0 <= lo <= hi:
        raise ValueError(f"word range must satisfy 0 <= lo <= hi, got [{lo}, {hi})")
    # Every operand is an explicit uint64: NumPy 1.x would turn uint64 mixed
    # with a Python int into float64.  Products wrap modulo 2^64 on purpose.
    with np.errstate(over="ignore"):
        z = np.arange(len(range(lo, hi, step)), dtype=np.uint64)
        z *= np.uint64(step * _PHI & _MASK64)
        z += np.uint64((seed + (lo + 1) * _PHI) & _MASK64)
        t = np.empty_like(z)  # each shift's result, so every step runs in place
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _uniforms(z: np.ndarray) -> np.ndarray:
    """uint64 words ``z`` as ``uniform`` maps them, to doubles in (0, 1]; overwrites ``z``."""
    z >>= np.uint64(11)
    z += np.uint64(1)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def rounded_noise(seed: int, lo: int, hi: int, sigma: float) -> np.ndarray:
    """``floor(sigma * gaussian(seed, i) + 0.5)`` for ``i`` in ``lo .. hi-1``, as int64.

    ``y = sigma * z + 0.5`` takes ``gaussian``'s float steps, from the even
    and odd words as two contiguous arrays, in up to three passes: a screen
    with float32 ``cos`` (margin ``sigma * 2**-12 + 2**-50``, run below
    1/16), numpy's float64 ``log`` and ``cos`` (``sigma * 2**-30 + 2**-50``,
    below 1/2) and libm's.  A draw (not NaN) farther than a pass's margin
    from an integer keeps that floor; README's "Determinism and noise"
    derives the margins from the error each pass is assumed to have.
    """
    u1, t = (_uniforms(words(seed, 2 * lo + odd, 2 * hi + odd, 2)) for odd in (0, 1))
    t *= 2.0 * math.pi
    y, near = np.empty_like(u1), slice(None)
    screen, margin = sigma * 2.0**-12 + 2.0**-50, sigma * 2.0**-30 + 2.0**-50
    if screen < 1 / 16:
        y = _numpy_y(u1, t.astype(np.float32), sigma)
        near = np.flatnonzero(_near(y, screen))
        y[near] = _numpy_y(u1[near], t[near], sigma)
        near = near[_near(y[near], margin)]
    elif margin < 0.5:
        y = _numpy_y(u1, t, sigma)
        near = _near(y, margin)
    log_u1 = np.fromiter(map(math.log, u1[near].tolist()), np.float64)
    cos_t = np.fromiter(map(math.cos, t[near].tolist()), np.float64)
    y[near] = sigma * (np.sqrt(-2.0 * log_u1) * cos_t) + 0.5
    return np.floor(y).astype(np.int64)


def _numpy_y(u1: np.ndarray, t: np.ndarray, sigma: float) -> np.ndarray:
    """``sigma * (sqrt(-2 log u1) * cos t) + 0.5`` by numpy, ``cos`` in ``t``'s dtype."""
    y = np.log(u1)  # then in place: log and cos take no out=
    y *= -2.0
    np.sqrt(y, out=y)
    y *= np.cos(t).astype(np.float64, copy=False)
    y *= sigma
    y += 0.5
    return y


def _near(y: np.ndarray, margin: float) -> np.ndarray:
    """Where ``y`` is NaN or within ``margin`` of an integer."""
    return ~(np.abs(y - np.round(y)) > margin)
