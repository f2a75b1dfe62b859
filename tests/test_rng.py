"""Counter-based generator: reference vectors and stream properties."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghostdisk import rng
from ghostdisk.sim import NOISE_SIGMA_MAX

# First outputs of the reference generator for seed 0, computed from the
# published constants with an independent implementation.
SEED0_WORDS = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_reference_vectors_seed_zero():
    for index, expected in enumerate(SEED0_WORDS):
        assert rng.word(0, index) == expected


def test_word_is_pure_and_order_free():
    values = [rng.word(42, i) for i in range(16)]
    assert [rng.word(42, i) for i in reversed(range(16))] == values[::-1]
    assert rng.word(42, 3) == values[3]


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        rng.word(0, -1)


def test_uniform_matches_word_mapping():
    for index in range(8):
        expected = ((rng.word(7, index) >> 11) + 1) * 2.0**-53
        assert rng.uniform(7, index) == expected


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10_000))
def test_uniform_in_half_open_unit_interval(seed, index):
    u = rng.uniform(seed, index)
    assert 0.0 < u <= 1.0


def test_gaussian_uses_consecutive_word_pair():
    u1 = rng.uniform(9, 4)
    u2 = rng.uniform(9, 5)
    expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    assert rng.gaussian(9, 2) == expected


def test_gaussian_is_finite_and_centered():
    draws = [rng.gaussian(1234, i) for i in range(4000)]
    assert all(math.isfinite(z) for z in draws)
    mean = sum(draws) / len(draws)
    var = sum(z * z for z in draws) / len(draws)
    assert abs(mean) < 0.08
    assert abs(var - 1.0) < 0.1


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64 + 5])
def test_words_match_scalar_word(seed):
    got = rng.words(seed, 3, 300)
    assert got.dtype == np.uint64
    assert got.tolist() == [rng.word(seed, i) for i in range(3, 300)]
    assert rng.words(seed, 5, 5).shape == (0,)
    with pytest.raises(ValueError):
        rng.words(seed, 4, 3)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=300))
def test_bitstream_restart_reproduces(seed, count):
    # Restarting the word stream, from its start or midway, gives the same words.
    whole = rng.words(seed, 0, count)
    assert np.array_equal(whole, rng.words(seed, 0, count))
    assert np.array_equal(whole[count // 2 :], rng.words(seed, count // 2, count))


def test_distinct_seeds_disagree():
    a = [rng.word(0, i) for i in range(8)]
    b = [rng.word(1, i) for i in range(8)]
    assert a != b


# (seed, lo, hi): 1,050,000 draws in all, mostly away from index 0.
GAUSSIAN_RANGES = (
    (0, 0, 250_000),
    (1, 144_150, 344_150),
    (7, 12_345, 212_345),
    (12_345_678_901_234_567, 2**40, 2**40 + 200_000),
    (2**64 - 1, 3 * 4096 - 7, 3 * 4096 + 199_993),
)


@pytest.mark.parametrize("seed,lo,hi", GAUSSIAN_RANGES)
def test_gaussians_match_scalar_bit_for_bit(seed, lo, hi):
    got = rng.gaussians(seed, lo, hi)
    want = [rng.gaussian(seed, i) for i in range(lo, hi)]
    assert got.dtype == np.float64 and got.shape == (hi - lo,)
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    # The rounded noise the simulator adds, against the scalar formula.
    for sigma in (0.5, 1.0, 7.3, 1e17, NOISE_SIGMA_MAX):
        rounded = np.floor(sigma * got + 0.5).astype(np.int64)
        assert rounded.tolist() == [math.floor(sigma * z + 0.5) for z in want], sigma


def test_gaussians_empty_and_invalid_ranges():
    assert rng.gaussians(5, 9, 9).shape == (0,)
    assert rng.gaussians(5, 0, 0).shape == (0,)
    with pytest.raises(ValueError):
        rng.gaussians(5, -1, 3)
    with pytest.raises(ValueError):
        rng.gaussians(5, 4, 3)
