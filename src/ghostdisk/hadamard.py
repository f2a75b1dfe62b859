"""Reduced-Hadamard illumination pattern sets.

A Sylvester Hadamard matrix ``H`` of order ``N_H = 2^m`` has entries in
{-1, +1} and mutually orthogonal rows, and (in the normalized form built
here) carries an all-ones first row and first column.  Mapping
``-1 -> 0`` turns each row into a binary illumination pattern, but the
first pattern is then all-bright and the first pixel of every pattern is
always lit; both only add background.  Dropping the first row and column
leaves ``N = N_H - 1`` patterns of ``N`` pixels each -- the reduced set
used throughout this package.

The reduced set has a rigid correlation (Gram) structure: with
``R`` the 0/1 pattern matrix,

    (R @ R.T)[i, j] = c_max = (N + 1)/2 - 1   if i == j
                    = c_min = (N + 1)/4 - 1   if i != j

exactly, in integers.  ``c_max`` sets the reconstruction peak and
``c_min`` the background, so the pair fixes the achievable image contrast
before any simulation is run.  At ``N = 3`` the patterns degenerate to
single lit pixels (``c_min = 0``): plain point scanning.

Hadamard matrices exist for every order divisible by 4, but only the
Sylvester powers of two are constructed here; other families are out of
scope for this toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pnm, rng

__all__ = [
    "ReducedPatternSet",
    "GramCoefficients",
    "sylvester_hadamard",
    "reduce_matrix",
    "gram",
    "gram_coefficients",
    "is_supported_order",
    "random_pattern_set",
    "write_pattern_matrix",
    "write_pattern_pgms",
]


def is_supported_order(order: int) -> bool:
    """True when ``order`` is a constructible (power-of-two) Hadamard order."""
    return order >= 2 and (order & (order - 1)) == 0


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class ReducedPatternSet:
    """The ``N x N`` binary pattern set left after reduction.

    Row ``i`` is illumination pattern ``i``; entry 1 means the pixel is lit.
    """

    pattern_length: int
    patterns: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.patterns, dtype=np.int64)
        n = self.pattern_length
        if n < 1:
            raise ValueError("pattern_length must be >= 1")
        if p.shape != (n, n):
            raise ValueError(f"patterns shape {p.shape} does not match length {n}")
        if not np.all((p == 0) | (p == 1)):
            raise ValueError("pattern entries must be 0 or 1")
        object.__setattr__(self, "patterns", _freeze(p))


@dataclass(frozen=True)
class GramCoefficients:
    """Diagonal/off-diagonal values of the pattern-set Gram matrix."""

    c_min: int
    c_max: int


def sylvester_hadamard(order: int) -> np.ndarray:
    """Build the Sylvester Hadamard matrix of the given power-of-two order.

    Doubling step: ``H_{2m} = [[H_m, H_m], [H_m, -H_m]]`` starting from
    ``[[1, 1], [1, -1]]``.  Exact integer arithmetic throughout, and the
    result is orthogonal and normalized by construction, so it is not
    re-checked.  Returns a read-only +-1 int64 array.
    """
    if not is_supported_order(order):
        raise ValueError(
            f"order {order} is not supported: only the Sylvester construction "
            "(order a power of two, >= 2) is built"
        )
    h = np.array([[1]], dtype=np.int64)
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.kron(block, h)
    return _freeze(h)


def reduce_matrix(matrix: np.ndarray) -> ReducedPatternSet:
    """Map ``-1 -> 0`` and drop the first row and column."""
    bits = (matrix[1:, 1:] + 1) // 2
    return ReducedPatternSet(pattern_length=len(bits), patterns=bits)


def gram(patterns: ReducedPatternSet) -> np.ndarray:
    """Pattern correlation matrix ``R @ R.T`` (exact integers)."""
    p = patterns.patterns
    return p @ p.T


def gram_coefficients(pattern_length: int) -> GramCoefficients:
    """Closed-form Gram values for a reduced set of this pattern length."""
    n = pattern_length
    if n < 3 or not is_supported_order(n + 1):
        raise ValueError(
            f"pattern length {n} is not supported: need length >= 3 with "
            "length + 1 a power of two"
        )
    return GramCoefficients(c_min=(n + 1) // 4 - 1, c_max=(n + 1) // 2 - 1)


def random_pattern_set(pattern_length: int, count: int, seed: int) -> np.ndarray:
    """Seeded random binary baseline: each bit is 1 with probability 1/2.

    Bits come from the package's counter-based generator (see ``rng``), so
    the same ``(pattern_length, count, seed)`` always produces the same
    array.  Returns a ``count x pattern_length`` 0/1 integer matrix; a
    seed outside [0, 2**64) raises ``ValueError``.
    """
    if pattern_length < 1:
        raise ValueError("pattern_length must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng.check_seed(seed)
    size = pattern_length * count
    big_endian = rng.words(seed, 0, -(-size // 64)).astype(">u8")
    bits = np.unpackbits(big_endian.view(np.uint8))[:size]
    return _freeze(bits.astype(np.int64).reshape(count, pattern_length))


# ---------------------------------------------------------------------------
# Pattern-set exports: plain-text matrix and one PGM per pattern.
# ---------------------------------------------------------------------------


def write_pattern_matrix(path, patterns: np.ndarray) -> None:
    """Write one pattern per line, bits space-separated; bits must be 0 or 1."""
    p = np.asarray(patterns)
    if not np.all((p == 0) | (p == 1)):
        raise ValueError("pattern entries must be 0 or 1")
    text = np.full((p.shape[0], 2 * p.shape[1]), ord(" "), dtype=np.uint8)
    text[:, 0::2] = p.astype(np.uint8) + ord("0")
    text[:, -1] = ord("\n")
    Path(path).write_bytes(text.tobytes())


def write_pattern_pgms(directory, patterns: np.ndarray) -> list:
    """Write ``pattern_<index>.pgm``, one ``1 x N`` binary PGM per pattern.

    Lit bits become 255, dark bits 0.  Returns the paths written.
    """
    directory = Path(directory)
    paths = []
    for index, row in enumerate(np.asarray(patterns)):
        image = (row[np.newaxis, :] * 255).astype(np.uint8)
        path = directory / f"pattern_{index}.pgm"
        pnm.write_pgm(path, image)
        paths.append(path)
    return paths
