"""Pattern construction: orthogonality, reduction, Gram structure, file exports."""

from __future__ import annotations

import numpy as np
import pytest

from ghostdisk import hadamard, pnm

# The reduced order-8 set, derived by hand from the Sylvester doubling
# construction: map -1 -> 0, drop first row and column.
REDUCED_8 = np.array(
    [
        [0, 1, 0, 1, 0, 1, 0],
        [1, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0, 1],
        [1, 1, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [1, 0, 0, 0, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 0],
    ],
    dtype=np.int64,
)


@pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64, 128])
def test_sylvester_orthogonality(order):
    h = hadamard.sylvester_hadamard(order)
    assert h.shape == (order, order)
    assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
    assert np.all(h[0] == 1)
    assert np.all(h[:, 0] == 1)


@pytest.mark.parametrize("order", [2**m for m in range(1, 11)])
def test_sylvester_matches_popcount_closed_form(order):
    # Sylvester (1867): H[i, j] = (-1)^popcount(i & j).
    i, j = np.indices((order, order))
    parity = np.zeros_like(i)
    bits = i & j
    while bits.any():
        parity ^= bits & 1
        bits >>= 1
    h = hadamard.sylvester_hadamard(order)
    assert h.dtype == np.int64
    assert np.array_equal(h, 1 - 2 * parity)


def test_sylvester_matrix_is_read_only():
    h = hadamard.sylvester_hadamard(8)
    with pytest.raises(ValueError):
        h[0, 0] = -1


@pytest.mark.parametrize("order", [0, 1, 3, 6, 12, 20, 100])
def test_unsupported_orders_rejected(order):
    with pytest.raises(ValueError):
        hadamard.sylvester_hadamard(order)


def test_reduction_of_order_8_is_exact():
    reduced = hadamard.reduce_matrix(hadamard.sylvester_hadamard(8))
    assert reduced.pattern_length == 7
    assert np.array_equal(reduced.patterns, REDUCED_8)


def test_reduction_drops_constant_row_and_column():
    h = hadamard.sylvester_hadamard(16)
    reduced = hadamard.reduce_matrix(h)
    assert reduced.pattern_length == 15
    # Every reduced row must keep the balanced structure: weight (N+1)/2 - 1.
    assert np.all(reduced.patterns.sum(axis=1) == 7)
    assert np.all(reduced.patterns.sum(axis=0) == 7)


@pytest.mark.parametrize("order", [4, 8, 16, 32, 64])
def test_gram_matches_closed_form(order):
    reduced = hadamard.reduce_matrix(hadamard.sylvester_hadamard(order))
    n = order - 1
    coeffs = hadamard.gram_coefficients(n)
    g = hadamard.gram(reduced)
    expected = np.full((n, n), coeffs.c_min, dtype=np.int64)
    np.fill_diagonal(expected, coeffs.c_max)
    assert np.array_equal(g, expected)
    assert coeffs.c_max == order // 2 - 1
    assert coeffs.c_min == order // 4 - 1


@pytest.mark.parametrize("length", [0, 1, 2, 4, 5, 6, 8, 35])
def test_gram_coefficients_reject_unsupported_lengths(length):
    with pytest.raises(ValueError):
        hadamard.gram_coefficients(length)


def test_pattern_set_validation():
    with pytest.raises(ValueError):
        hadamard.ReducedPatternSet(pattern_length=3, patterns=np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        hadamard.ReducedPatternSet(
            pattern_length=2, patterns=np.array([[0, 2], [1, 0]], dtype=np.int64)
        )


def test_patterns_are_read_only():
    reduced = hadamard.reduce_matrix(hadamard.sylvester_hadamard(8))
    with pytest.raises(ValueError):
        reduced.patterns[0, 0] = 1


def test_random_pattern_set_is_seed_deterministic():
    a = hadamard.random_pattern_set(35, 10, seed=5)
    b = hadamard.random_pattern_set(35, 10, seed=5)
    c = hadamard.random_pattern_set(35, 10, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (10, 35)
    assert set(np.unique(a)) <= {0, 1}


def test_random_pattern_set_matches_bitstream():
    from ghostdisk import rng

    flat = rng.BitStream(11).take(4 * 6)
    expected = np.array(flat, dtype=np.int64).reshape(4, 6)
    assert np.array_equal(hadamard.random_pattern_set(6, 4, seed=11), expected)


def test_pattern_matrix_round_trip(tmp_path):
    reduced = hadamard.reduce_matrix(hadamard.sylvester_hadamard(8))
    path = tmp_path / "patterns.txt"
    hadamard.write_pattern_matrix(path, reduced.patterns)
    lines = [" ".join(str(b) for b in row) for row in reduced.patterns.tolist()]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
    assert lines[0] == "0 1 0 1 0 1 0"


@pytest.mark.parametrize(
    "bad", [[[0, 2]], [[-1, 1]], [[0.5, 1]], [[float("nan"), 0]], [[True, 3]]]
)
def test_pattern_matrix_refuses_non_binary_entries(tmp_path, bad):
    path = tmp_path / "patterns.txt"
    with pytest.raises(ValueError, match="0 or 1"):
        hadamard.write_pattern_matrix(path, np.array(bad))
    assert not path.exists()


def test_pattern_pgm_round_trip(tmp_path):
    reduced = hadamard.reduce_matrix(hadamard.sylvester_hadamard(16))
    paths = hadamard.write_pattern_pgms(tmp_path, reduced.patterns)
    assert paths == [tmp_path / f"pattern_{i}.pgm" for i in range(15)]
    for row, path in zip(reduced.patterns, paths):
        image = pnm.read_pgm(path)
        assert image.dtype == np.uint8
        assert np.array_equal(image, 255 * row[None, :])


def test_pattern_pgm_index_order_not_lexicographic(tmp_path):
    # 12 patterns: pattern_10.pgm sorts before pattern_2.pgm by name, but
    # the file index is the pattern's row index.
    arr = np.eye(12, dtype=np.int64)
    hadamard.write_pattern_pgms(tmp_path, arr)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"pattern_{i}.pgm" for i in range(12))
    for i in (2, 10):
        assert np.flatnonzero(pnm.read_pgm(tmp_path / f"pattern_{i}.pgm")[0]).tolist() == [i]
