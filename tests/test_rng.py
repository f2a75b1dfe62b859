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
    # Every step-th word, as rounded_noise draws its even and odd words.
    for lo, step in ((3, 2), (4, 2), (10, 7)):
        assert rng.words(seed, lo, 300, step).tolist() == got[lo - 3 :: step].tolist()
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
    # An odd first draw and an odd number of draws, so the even and the
    # odd word arrays each start at an odd draw and hold an odd count.
    (11, 3 * 4096 + 1, 3 * 4096 + 20_002),
)


# From the subnormal minimum, past 2**29 (every draw takes the libm path)
# up to NOISE_SIGMA_MAX.
NOISE_SIGMAS = (5e-324, 0.5, 1.0, 7.3, 2.0**24, 2.0**30, 1e17, NOISE_SIGMA_MAX)


@pytest.mark.parametrize("seed,lo,hi", GAUSSIAN_RANGES)
def test_rounded_noise_matches_scalar_formula(seed, lo, hi):
    want = [rng.gaussian(seed, i) for i in range(lo, hi)]
    for sigma in NOISE_SIGMAS:
        got = rng.rounded_noise(seed, lo, hi, sigma)
        assert got.dtype == np.int64 and got.shape == (hi - lo,)
        assert got.tolist() == [math.floor(sigma * z + 0.5) for z in want], sigma


def test_rounded_noise_empty_and_invalid_ranges():
    assert rng.rounded_noise(5, 9, 9, 1.0).shape == (0,)
    assert rng.rounded_noise(5, 0, 0, 1.0).dtype == np.int64
    with pytest.raises(ValueError):
        rng.rounded_noise(5, -1, 3, 1.0)
    with pytest.raises(ValueError):
        rng.rounded_noise(5, 4, 3, 1.0)


def _libm_log_calls(monkeypatch) -> list[float]:
    """Record every ``math.log`` argument: the draws that take the libm path."""
    calls, log = [], math.log
    monkeypatch.setattr(math, "log", lambda x: calls.append(x) or log(x))
    return calls


def _off_by_ulps(fn):
    """``fn`` with each result moved 1 to 64 units in the last place, up or down.

    A float32 result (the screen's ``cos``) moves instead by 1/64 to 64/64
    of ``2**-17``, an eighth of the error ``rounded_noise`` allows it.
    """

    def shifted(x):
        out = np.array(fn(x))
        index = np.arange(out.size)
        ulps = index * 7 % 64 + 1
        toward = np.where(index % 2, np.inf, -np.inf)
        if out.dtype == np.float32:
            return (out + np.sign(toward) * ulps / 64 * 2.0**-17).astype(np.float32)
        for step in range(64):
            moved = ulps > step
            out[moved] = np.nextafter(out[moved], toward[moved])
        return out

    return shifted


def test_rounded_noise_exact_under_off_by_ulps_log_and_cos(monkeypatch):
    seed, lo, hi = 3, 1000, 201_000
    want = [rng.gaussian(seed, i) for i in range(lo, hi)]
    u = ((rng.words(seed, 2 * lo, 2 * hi) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    monkeypatch.setattr(np, "log", _off_by_ulps(np.log))
    monkeypatch.setattr(np, "cos", _off_by_ulps(np.cos))
    fast = np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2.0 * math.pi * u[1::2])
    missed = 0
    for sigma in (1.0, 2.5, 255.0, 2.0**20, 2.0**28, 1e14):
        exact = [math.floor(sigma * z + 0.5) for z in want]
        assert rng.rounded_noise(seed, lo, hi, sigma).tolist() == exact, sigma
        missed += int(np.count_nonzero(np.floor(sigma * fast + 0.5).astype(np.int64) != exact))
    # Unguarded, the shifted functions do change rounded draws.
    assert missed > 0


def test_rounded_noise_recomputes_nan_draws(monkeypatch):
    exact = [math.floor(2.5 * rng.gaussian(4, i) + 0.5) for i in range(5000)]
    log = np.log

    def nan_every_97th(x):
        out = log(x)
        out[::97] = np.nan
        return out

    monkeypatch.setattr(np, "log", nan_every_97th)
    assert rng.rounded_noise(4, 0, 5000, 2.5).tolist() == exact


def test_rounded_noise_flags_draws_within_one_ulp_of_an_integer(monkeypatch):
    cases = []
    for seed, index, target in ((3, 10, 1), (3, 11, 1), (9, 1000, 7), (9, 1001, 1),
                                (2**64 - 1, 77_777, 2**20), (0, 51, -3)):
        z = rng.gaussian(seed, index)
        sigma = (target - 0.5) / z
        assert sigma > 0
        for _ in range(20):
            sigma = math.nextafter(sigma, 0)
        # Each sigma near (target - 1/2) / z that puts sigma * z + 1/2 within
        # one unit in the last place of target, below, on or above it.
        found = {}
        for _ in range(41):
            y = sigma * z + 0.5
            if abs(y - target) <= math.ulp(target):
                found.setdefault((y > target) - (y < target), sigma)
            sigma = math.nextafter(sigma, math.inf)
        assert 0 in found
        cases += [(seed, index, sigma) for sigma in found.values()]
    want = [[math.floor(sigma * rng.gaussian(seed, i) + 0.5) for i in range(index // 2, 2 * index)]
            for seed, index, sigma in cases]
    calls = _libm_log_calls(monkeypatch)
    for (seed, index, sigma), exact in zip(cases, want):
        calls.clear()
        assert rng.rounded_noise(seed, index // 2, 2 * index, sigma).tolist() == exact
        assert rng.uniform(seed, 2 * index) in calls, (seed, index, sigma)


def test_rounded_noise_libm_path_is_rare_then_total(monkeypatch):
    calls = _libm_log_calls(monkeypatch)
    rng.rounded_noise(0, 0, 1_000_000, 1.0)
    assert len(calls) < 10
    # From sigma = 2**29 the margin passes 1/2: every draw takes the libm path.
    calls.clear()
    rng.rounded_noise(0, 0, 10_000, 2.0**29)
    assert len(calls) == 10_000


@pytest.mark.parametrize("sigma", [2.0**29, 1e17])
def test_rounded_noise_skips_numpy_pass_when_every_draw_is_flagged(monkeypatch, sigma):
    seed, lo, hi = 6, 4_000, 9_000
    exact = [math.floor(sigma * rng.gaussian(seed, i) + 0.5) for i in range(lo, hi)]

    def unused(x):
        raise AssertionError("numpy pass ran although every draw takes libm's")

    monkeypatch.setattr(np, "log", unused)
    monkeypatch.setattr(np, "cos", unused)
    assert rng.rounded_noise(seed, lo, hi, sigma).tolist() == exact


def test_rounded_noise_keeps_numpy_pass_below_half_margin(monkeypatch):
    # The largest sigma whose margin sigma * 2**-30 + 2**-50 stays below 1/2.
    sigma = math.nextafter((0.5 - 2.0**-50) * 2.0**30, 0)
    assert sigma * 2.0**-30 + 2.0**-50 < 0.5
    calls, log = [], np.log
    monkeypatch.setattr(np, "log", lambda x: calls.append(len(x)) or log(x))
    exact = [math.floor(sigma * rng.gaussian(2, i) + 0.5) for i in range(300)]
    assert rng.rounded_noise(2, 0, 300, sigma).tolist() == exact
    assert calls == [300]


# The float32 screen runs while sigma * 2**-12 + 2**-50 < 1/16, the float64
# pass while sigma * 2**-30 + 2**-50 < 1/2; each limit is the first sigma
# that skips its pass.
SCREEN_LIMIT = (1 / 16 - 2.0**-50) * 2.0**12
FLOAT64_LIMIT = (0.5 - 2.0**-50) * 2.0**30


def test_float32_cos_stays_within_the_screen_assumption():
    # rounded_noise assumes |float32 cos(t) - libm cos(t)| <= 2**-16 for
    # t = 2 pi u2; this checks a quarter of that over 1,048,576 draws.
    u2 = ((rng.words(17, 1, 2 * 2**20 + 1, 2) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    t = 2.0 * math.pi * u2
    libm = np.fromiter(map(math.cos, t.tolist()), np.float64, count=len(t))
    assert np.max(np.abs(np.cos(t.astype(np.float32)) - libm)) <= 2.0**-20


@pytest.mark.parametrize("limit", [SCREEN_LIMIT, FLOAT64_LIMIT], ids=["screen", "float64"])
def test_rounded_noise_exact_around_each_pass_limit(limit):
    seed, lo, hi = 21, 5_000, 35_000
    want = [rng.gaussian(seed, i) for i in range(lo, hi)]
    for sigma in (math.nextafter(limit, 0), limit, math.nextafter(limit, math.inf)):
        exact = [math.floor(sigma * z + 0.5) for z in want]
        assert rng.rounded_noise(seed, lo, hi, sigma).tolist() == exact, sigma


def test_float32_screen_runs_only_below_its_limit(monkeypatch):
    calls, cos = [], np.cos
    monkeypatch.setattr(np, "cos", lambda x: calls.append((x.dtype, len(x))) or cos(x))
    for sigma in (1.0, math.nextafter(SCREEN_LIMIT, 0)):
        calls.clear()
        rng.rounded_noise(8, 0, 3_000, sigma)
        # The screen over every draw, then float64 over the flagged ones.
        assert calls[0] == (np.float32, 3_000) and calls[1][0] == np.float64
        assert calls[1][1] < (300 if sigma == 1.0 else 1_000)
    for sigma in (SCREEN_LIMIT, 300.0):
        calls.clear()
        rng.rounded_noise(8, 0, 3_000, sigma)
        assert calls == [(np.float64, 3_000)]
