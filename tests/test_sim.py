"""Clocked measurement: buckets, windows, noise, overflow bounds, exports."""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import tempfile
import time
from unittest import mock
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostdisk import disk, hadamard, metrics, scene, sim


def make_setup(n=6, k=2, order_mode="pattern_major"):
    spec = disk.make_spec(n, k)
    patterns = hadamard.reduce_matrix(hadamard.sylvester_hadamard(spec.n_cell + 1))
    schedule = disk.build_schedule(spec, order_mode)
    return spec, patterns, schedule


def random_scene(n, seed):
    gen = np.random.default_rng(seed)
    return scene.SceneObject(pixels=gen.integers(0, 256, size=(n, n, 3), dtype=np.uint8))


def one_rev_timing(period=Fraction(1, 5)):
    return sim.TimingConfig(
        revolution_period=period,
        persistence_window=period,
        window_mode="tumbling",
        total_duration=period,
    )


def assert_traces_equal(a, b):
    assert a.slot_dt == b.slot_dt
    assert a.buckets.dtype == b.buckets.dtype == np.int64
    assert np.array_equal(a.buckets, b.buckets)


def frame_spans(timing, slot_dt, frames=None):
    """``(start, end)`` seconds of each frame index in ``frames`` (every frame
    by default), as ``SimulationResult`` defines them from ``sim.window_grid``."""
    step, count = sim.window_grid(timing, slot_dt)
    indices = range(count) if frames is None else frames
    return [(i * step, i * step + timing.persistence_window) for i in indices]


def bucket_value(mask, frame):
    """Per-channel sum of frame values under the mask, shape (3,) int64."""
    lit = mask.astype(np.int64)
    return np.tensordot(lit, frame.astype(np.int64), axes=([0, 1], [0, 1]))


def slot_contribution(mask, bucket):
    """The slot's term of the correlation sum: bucket broadcast over the mask."""
    return mask.astype(np.int64)[:, :, None] * np.asarray(bucket, dtype=np.int64)[None, None, :]


def test_bucket_value_matches_naive():
    spec, patterns, schedule = make_setup()
    frame = random_scene(6, 0).pixels.astype(np.int64)
    for slot in schedule.slots[:8]:
        mask = disk.place_pattern(spec, slot, patterns)
        expected = [
            sum(
                int(frame[r, c, ch])
                for r in range(6)
                for c in range(6)
                if mask[r, c]
            )
            for ch in range(3)
        ]
        assert bucket_value(mask, frame).tolist() == expected


def test_slot_contribution_shape_and_support():
    spec, patterns, schedule = make_setup()
    mask = disk.place_pattern(spec, schedule.slots[3], patterns)
    contrib = slot_contribution(mask, np.array([2, 5, 7]))
    assert contrib.shape == (6, 6, 3)
    assert np.array_equal(contrib[:, :, 0], mask * 2)
    assert np.array_equal(contrib[:, :, 2], mask * 7)


@pytest.mark.parametrize("order_mode", ["pattern_major", "part_major"])
def test_one_revolution_equals_matrix_oracle(order_mode):
    spec, patterns, schedule = make_setup(order_mode=order_mode)
    obj = random_scene(6, 3)
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, one_rev_timing())
    assert len(result.frames) == 1
    matrix = metrics.build_measurement_matrix(schedule, patterns)
    oracle = metrics.oracle_reconstruct(matrix, obj.pixels.reshape(-1, 3)).reshape(6, 6, 3)
    assert np.array_equal(result.frames[0], oracle)


def test_frame_equals_sum_of_trace_contributions():
    spec, patterns, schedule = make_setup()
    obj = random_scene(6, 4)
    result = sim.simulate(
        obj, scene.Trajectory(), schedule, patterns, one_rev_timing(),
        noise_sigma=2.5, seed=99,
    )
    acc = np.zeros((6, 6, 3), dtype=np.int64)
    for s, bucket in enumerate(result.trace.buckets):
        mask = disk.place_pattern(spec, schedule.slots[s % 36], patterns)
        acc += slot_contribution(mask, bucket)
    assert np.array_equal(result.frames[0], acc)


def test_three_revolutions_three_identical_frames():
    spec, patterns, schedule = make_setup()
    obj = random_scene(6, 5)
    period = Fraction(1, 5)
    timing = sim.TimingConfig(
        revolution_period=period,
        persistence_window=period,
        window_mode="tumbling",
        total_duration=3 * period,
    )
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
    assert len(result.frames) == 3
    assert result.trace.buckets.shape == (3 * 36, 3)
    spans = frame_spans(timing, result.trace.slot_dt)
    assert spans == [(w * period, (w + 1) * period) for w in range(3)]
    for frame in result.frames:
        assert np.array_equal(frame, result.frames[0])


def test_tumbling_subrevolution_windows_match_direct_sums():
    spec, patterns, schedule = make_setup(n=3, k=1)
    obj = random_scene(3, 6)
    period = Fraction(9)
    timing = sim.TimingConfig(
        revolution_period=period,          # slot_dt = 1
        persistence_window=Fraction(3),    # 3 slots per window
        window_mode="tumbling",
        total_duration=Fraction(9),
    )
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
    assert len(result.frames) == 3
    for w, frame in enumerate(result.frames):
        acc = np.zeros((3, 3, 3), dtype=np.int64)
        for s in range(3 * w, 3 * (w + 1)):
            mask = disk.place_pattern(spec, schedule.slots[s % 9], patterns)
            bucket = bucket_value(mask, obj.pixels)
            acc += slot_contribution(mask, bucket)
        assert np.array_equal(frame, acc)


def test_incomplete_window_emits_no_frame():
    spec, patterns, schedule = make_setup(n=3, k=1)
    obj = random_scene(3, 7)
    timing = sim.TimingConfig(
        revolution_period=Fraction(9),
        persistence_window=Fraction(100),
        window_mode="tumbling",
        total_duration=Fraction(9),
    )
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
    assert result.frames.shape == (0, 3, 3, 3)
    assert result.trace.buckets.shape == (9, 3)


def test_empty_windows_emit_zero_frames():
    spec, patterns, schedule = make_setup(n=3, k=1)
    obj = random_scene(3, 8)
    timing = sim.TimingConfig(
        revolution_period=Fraction(9),     # slot_dt = 1
        persistence_window=Fraction(1, 2),  # two windows per slot
        window_mode="tumbling",
        total_duration=Fraction(3),
    )
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
    assert len(result.frames) == 6
    # Slot s starts at t = s: window 2s holds exactly that slot, the gap
    # windows [s + 1/2, s + 1) hold none.
    for w, frame in enumerate(result.frames):
        if w % 2 == 0:
            mask = disk.place_pattern(spec, schedule.slots[w // 2], patterns)
            expected = slot_contribution(mask, bucket_value(mask, obj.pixels))
            assert np.array_equal(frame, expected)
        else:
            assert not frame.any()


def test_sliding_windows_match_direct_sums():
    spec, patterns, schedule = make_setup(n=3, k=1)
    obj = random_scene(3, 9)
    timing = sim.TimingConfig(
        revolution_period=Fraction(9),     # slot_dt = 1
        persistence_window=Fraction(4),
        window_mode="sliding",
        total_duration=Fraction(9),
    )
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
    # Windows start at slot times 0..5: 5*1 + 4 <= 9.
    assert len(result.frames) == 6
    spans = frame_spans(timing, result.trace.slot_dt)
    assert spans == [(Fraction(i), Fraction(i + 4)) for i in range(6)]
    for i, frame in enumerate(result.frames):
        acc = np.zeros((3, 3, 3), dtype=np.int64)
        for s in range(i, i + 4):
            mask = disk.place_pattern(spec, schedule.slots[s % 9], patterns)
            acc += slot_contribution(mask, bucket_value(mask, obj.pixels))
        assert np.array_equal(frame, acc)


def test_sliding_too_short_duration_gives_no_frames():
    spec, patterns, schedule = make_setup(n=3, k=1)
    obj = random_scene(3, 10)
    timing = sim.TimingConfig(
        revolution_period=Fraction(9),
        persistence_window=Fraction(20),
        window_mode="sliding",
        total_duration=Fraction(9),
    )
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
    assert result.frames.shape == (0, 3, 3, 3)


def test_moving_scene_is_sampled_at_slot_starts():
    spec, patterns, schedule = make_setup(n=7, k=1)
    obj = scene.builtin_letter("T", 7, "white")
    period = Fraction(1, 5)
    # One pixel per revolution, held constant within each revolution.
    traj = scene.Trajectory(
        mode="linear", velocity=(Fraction(5), Fraction(0)), hold_interval=period
    )
    timing = sim.TimingConfig(
        revolution_period=period,
        persistence_window=period,
        window_mode="tumbling",
        total_duration=3 * period,
    )
    result = sim.simulate(obj, traj, schedule, patterns, timing)
    matrix = metrics.build_measurement_matrix(schedule, patterns)
    for w, frame in enumerate(result.frames):
        shifted = scene.translate_image(obj.pixels, w, 0)
        oracle = metrics.oracle_reconstruct(matrix, shifted.astype(np.int64).reshape(-1, 3))
        assert np.array_equal(frame, oracle.reshape(7, 7, 3))


def test_largest_noise_sigma_fits_int64():
    spec, patterns, schedule = make_setup()
    obj = random_scene(6, 17)
    result = sim.simulate(
        obj, scene.Trajectory(), schedule, patterns, one_rev_timing(),
        noise_sigma=sim.NOISE_SIGMA_MAX, seed=5,
    )
    assert result.trace.buckets.max() > 10**17


def test_frame_overflow_refused_up_front():
    # Ten revolutions per tumbling window at the largest sigma: the running
    # accumulator wrapped int64 (7 pixels differed from a Python-int sum,
    # the smallest was -9.1e18) before the bound was checked.
    spec, patterns, schedule = make_setup(n=7, k=1)
    obj = scene.builtin_letter("T", 7, "white")
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(10),
        total_duration=Fraction(10),
    )
    with pytest.raises(ValueError, match="past int64"):
        sim.simulate(
            obj, scene.Trajectory(), schedule, patterns, timing,
            noise_sigma=sim.NOISE_SIGMA_MAX, seed=0,
        )
    # Just under the bound: c_max = 3, 2 revolutions per window, and
    # 6 * (765 + floor(sigma * 8.5717) + 1) < 2**63 for this sigma.
    sigma = (2**63 // 6 - 766) / 8.5717
    timing = dataclasses.replace(timing, persistence_window=Fraction(2), total_duration=Fraction(2))
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing, noise_sigma=sigma)
    (image,) = result.frames
    expected = np.zeros((7, 7, 3), dtype=object)
    for s, bucket in enumerate(result.trace.buckets.tolist()):
        mask = disk.place_pattern(spec, schedule.slots[s % 49], patterns)
        expected += mask[:, :, None].astype(object) * np.array(bucket, dtype=object)
    assert image.min() >= 0 and image.tolist() == expected.tolist()
    with pytest.raises(ValueError, match="past int64"):
        sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing, noise_sigma=1.01 * sigma)


def test_projected_window_near_int64_bound_is_exact():
    # Windows of 7/2 revolutions at n = 35 take the pattern-domain update:
    # np.add.at sums up to 4 slots per position, from 3 1/2 revolutions.  A
    # window visits each slot at most 4 times and c_max = 3, so the bound is
    # 12 * (765 + floor(sigma * 8.5717) + 1) < 2**63 for this sigma.
    spec, patterns, schedule = make_setup(n=35, k=5)
    per_rev = spec.slots_per_revolution
    obj = scene.builtin_letter("X", 35, "white")
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(7, 2),
        total_duration=Fraction(7),
    )
    sigma = (2**63 // 12 - 766) / 8.5717
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing, noise_sigma=sigma)
    assert len(result.frames) == 2
    lit = [np.argwhere(disk.place_pattern(spec, slot, patterns)) for slot in schedule.slots]
    buckets, slot_dt = result.trace.buckets.tolist(), result.trace.slot_dt
    for frame, (start, end) in zip(result.frames, frame_spans(timing, slot_dt), strict=True):
        expected = [[[0] * 3 for _ in range(35)] for _ in range(35)]
        for s in range(math.ceil(start / slot_dt), math.ceil(end / slot_dt)):
            for r, c in lit[s % per_rev]:
                for ch in range(3):
                    expected[r][c][ch] += buckets[s][ch]
        assert frame.tolist() == expected, start
    assert result.frames.max() > 2**59
    with pytest.raises(ValueError, match="past int64"):
        sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing, noise_sigma=1.01 * sigma)


def test_unindexable_frame_count_refused_up_front(monkeypatch):
    spec, patterns, schedule = make_setup(n=3, k=1)
    obj = random_scene(3, 0)

    def no_work(*args):
        raise AssertionError("the bucket pass ran")

    monkeypatch.setattr(sim, "_bucket_blocks", no_work)
    # 42,700,796,466,920,259 frames of 9 pixels take 216 bytes each: just past 2**63 - 1.
    timing = sim.TimingConfig(persistence_window=Fraction(1, 42_700_796_466_920_259))
    with pytest.raises(ValueError, match="^42700796466920259 frames of 3x3 pixels cannot be"):
        sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
    timing = sim.TimingConfig(persistence_window=Fraction(1, 10**400))
    with pytest.raises(ValueError, match="^over 10\\*\\*18 frames"):
        sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_refused_up_front(monkeypatch, seed):
    spec, patterns, schedule = make_setup(n=3, k=1)

    def no_work(*args):
        raise AssertionError("the bucket pass ran")

    monkeypatch.setattr(sim, "_bucket_blocks", no_work)
    with pytest.raises(ValueError, match=r"^seed: must be in \[0, 2\*\*64\)"):
        sim.simulate(
            random_scene(3, 0), scene.Trajectory(), schedule, patterns, one_rev_timing(),
            noise_sigma=1.0, seed=seed,
        )


def test_fine_hold_interval_costs_slots_not_blocks():
    spec, patterns, schedule = make_setup(n=7, k=1)
    obj = scene.builtin_letter("T", 7, "white")
    period = Fraction(1, 5)                        # 49 slots of 1/245 s
    hold = Fraction(1, 10_000_000)
    # v * t = +-s/14 is a rounding tie at slots 7, 21, 35; the hold takes t
    # just below the slot start, so those slots round toward zero.
    traj = scene.Trajectory(
        mode="linear", velocity=(Fraction(245, 14), Fraction(-245, 14)), hold_interval=hold
    )
    timing = sim.TimingConfig(
        revolution_period=period,
        persistence_window=period / 7,
        window_mode="tumbling",
        total_duration=period,
    )
    start = time.perf_counter()
    result = sim.simulate(obj, traj, schedule, patterns, timing)
    assert time.perf_counter() - start < 1.0
    slot_dt = period / 49
    offsets = [traj.offset_at(s * slot_dt) for s in range(49)]
    assert offsets[7] == (0, 0) and offsets[8] == (1, -1)
    assert len(result.frames) == 7
    for w, frame in enumerate(result.frames):
        acc = np.zeros((7, 7, 3), dtype=np.int64)
        for s in range(7 * w, 7 * w + 7):
            mask = disk.place_pattern(spec, schedule.slots[s], patterns)
            pose = scene.translate_image(obj.pixels, *offsets[s])
            acc += slot_contribution(mask, bucket_value(mask, pose))
        assert np.array_equal(frame, acc), w


def test_noise_is_seed_deterministic_and_clamped():
    spec, patterns, schedule = make_setup()
    obj = random_scene(6, 11)
    kwargs = dict(noise_sigma=50.0, seed=7)
    a = sim.simulate(obj, scene.Trajectory(), schedule, patterns, one_rev_timing(), **kwargs)
    b = sim.simulate(obj, scene.Trajectory(), schedule, patterns, one_rev_timing(), **kwargs)
    c = sim.simulate(
        obj, scene.Trajectory(), schedule, patterns, one_rev_timing(),
        noise_sigma=50.0, seed=8,
    )
    assert_traces_equal(a.trace, b.trace)
    assert np.array_equal(a.frames[0], b.frames[0])
    assert not np.array_equal(a.trace.buckets, c.trace.buckets)
    assert (a.trace.buckets >= 0).all()


def test_zero_sigma_equals_noise_free():
    spec, patterns, schedule = make_setup()
    obj = random_scene(6, 12)
    a = sim.simulate(obj, scene.Trajectory(), schedule, patterns, one_rev_timing())
    b = sim.simulate(
        obj, scene.Trajectory(), schedule, patterns, one_rev_timing(),
        noise_sigma=0.0, seed=123,
    )
    assert_traces_equal(a.trace, b.trace)
    assert np.array_equal(a.frames[0], b.frames[0])


def test_noise_matches_counter_indexing():
    from ghostdisk import rng

    spec, patterns, schedule = make_setup()
    obj = random_scene(6, 13)
    sigma, seed = 3.0, 21
    # One revolution, and a run over three bucket blocks plus a remainder.
    long_run = Fraction(3 * sim.BLOCK_SLOTS + 100, 36 * 5)
    for timing in (
        one_rev_timing(),
        sim.TimingConfig(
            revolution_period=Fraction(1, 5),
            persistence_window=long_run,
            window_mode="tumbling",
            total_duration=long_run,
        ),
    ):
        clean = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
        noisy = sim.simulate(
            obj, scene.Trajectory(), schedule, patterns, timing,
            noise_sigma=sigma, seed=seed,
        )
        assert noisy.trace.buckets.shape == clean.trace.buckets.shape
        for s, (clean_row, noisy_row) in enumerate(
            zip(clean.trace.buckets.tolist(), noisy.trace.buckets.tolist())
        ):
            for ch in range(3):
                z = rng.gaussian(seed, 3 * s + ch)
                expected = max(0, clean_row[ch] + math.floor(sigma * z + 0.5))
                assert noisy_row[ch] == expected
    assert len(noisy.trace.buckets) == 3 * sim.BLOCK_SLOTS + 100


@pytest.mark.parametrize("hold", [None, Fraction(173, 7)])
def test_pose_runs_across_bucket_blocks_match_per_slot_oracle(hold):
    from ghostdisk import rng

    spec, patterns, schedule = make_setup()
    obj = random_scene(6, 19)
    period = Fraction(1, 5)
    slot_dt = period / 36
    slot_count = 2 * sim.BLOCK_SLOTS + 500
    sigma, seed = 2.5, 4
    # Slow motion keeps the object in view over the whole 48 s run and
    # gives poses held longer than a block.
    traj = scene.Trajectory(
        mode="linear", velocity=(Fraction(1, 30), Fraction(-1, 40)), hold_interval=hold
    )
    offsets = [traj.offset_at(s * slot_dt) for s in range(slot_count)]
    # No pose changes at a fixed noise-block edge, and a moved pose is held
    # for more than one bucket block.
    edges = range(sim.BLOCK_SLOTS, slot_count, sim.BLOCK_SLOTS)
    assert all(offsets[edge - 1] == offsets[edge] for edge in edges)
    held = [len(list(run)) for offset, run in itertools.groupby(offsets) if offset != (0, 0)]
    assert max(held) > sim.BLOCK_SLOTS
    timing = sim.TimingConfig(
        revolution_period=period,
        persistence_window=period,
        window_mode="tumbling",
        total_duration=slot_count * slot_dt,
    )
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=sigma, seed=seed)
    assert result.trace.buckets.shape == (slot_count, 3)
    masks = [disk.place_pattern(spec, slot, patterns) for slot in schedule.slots]
    poses = {}
    for s, (row, offset) in enumerate(zip(result.trace.buckets.tolist(), offsets)):
        if offset not in poses:
            poses[offset] = scene.translate_image(obj.pixels, *offset)
        clean = bucket_value(masks[s % 36], poses[offset]).tolist()
        expected = [
            max(0, clean[ch] + math.floor(sigma * rng.gaussian(seed, 3 * s + ch) + 0.5))
            for ch in range(3)
        ]
        assert row == expected, s


@pytest.mark.parametrize(
    "velocity, hold",
    [
        ((2000, -1500), None),  # leaves the field within a block
        ((1e300, 0), None),  # leaves it at slot 1
        ((0, -1e-300), None),  # never moves
        ((30, -20), Fraction(1, 7)),  # a hold edge at slot 3,433
    ],
    ids=["leaves_field", "fast", "slow", "held"],
)
def test_n155_buckets_match_per_slot_oracle(velocity, hold):
    from ghostdisk import rng

    spec, patterns, schedule = make_setup(n=155, k=5)
    obj = random_scene(155, 29)
    per_rev = spec.slots_per_revolution
    slot_dt = Fraction(1, per_rev)
    slot_count = sim.BLOCK_SLOTS + 300
    sigma, seed = 2.5, 6
    traj = scene.Trajectory(mode="linear", velocity=velocity, hold_interval=hold)
    offsets = [traj.offset_at(s * slot_dt) for s in range(slot_count)]
    if hold is not None:
        # The pose changes inside the first block, not at its edge.
        changes = [s for s in range(1, slot_count) if offsets[s] != offsets[s - 1]]
        assert changes == [3_433]
    elif velocity[0] > 1:
        assert all(abs(dx) >= 155 for dx, _ in offsets[2_000:])
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=slot_count * slot_dt,
        total_duration=slot_count * slot_dt,
    )
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=sigma, seed=seed)
    poses = {}
    for s, (row, offset) in enumerate(zip(result.trace.buckets.tolist(), offsets)):
        # Cached per pose; any offset past the side moves the whole scene out.
        offset = tuple(max(-155, min(155, d)) for d in offset)
        if offset not in poses:
            poses[offset] = scene.translate_image(obj.pixels, *offset).astype(np.int64)
        lit = np.nonzero(disk.place_pattern(spec, schedule.slots[s % per_rev], patterns))
        clean = poses[offset][lit].sum(axis=0).tolist()
        expected = [
            max(0, clean[ch] + math.floor(sigma * rng.gaussian(seed, 3 * s + ch) + 0.5))
            for ch in range(3)
        ]
        assert row == expected, s


@pytest.mark.parametrize("lit", [128, 129], ids=["int16", "int32"])
def test_bucket_products_either_side_of_int16_match_python_ints(lit):
    # n_cell = 255: rows lighting 128 pixels keep 255 * 128 = 32,640 below
    # 2**15, the int16 range; 129 would pass it (32,895).  Red is white, so
    # every red bucket reaches 255 * lit.
    spec = disk.make_spec(255, 1)
    schedule = disk.build_schedule(spec)
    gen = np.random.default_rng(lit)
    bits = np.zeros((255, 255), dtype=np.int64)
    for row in bits:
        row[gen.choice(255, lit, replace=False)] = 1
    patterns = hadamard.ReducedPatternSet(pattern_length=255, patterns=bits)
    pixels = gen.integers(0, 256, size=(255, 255, 3), dtype=np.uint8)
    pixels[:, :, 0] = 255
    obj = scene.SceneObject(pixels=pixels)
    per_rev = spec.slots_per_revolution
    slot_count = 2 * sim.BLOCK_SLOTS + 100
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(1),
        total_duration=Fraction(slot_count, per_rev),
    )
    buckets = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing).trace.buckets
    assert len(buckets) == slot_count
    values = pixels.tolist()
    for s in range(0, slot_count, 61):
        slot = schedule.slots[s % per_rev]
        mask = disk.place_pattern(spec, slot, patterns)
        expected = [sum(values[y][x][ch] for y, x in zip(*np.nonzero(mask))) for ch in range(3)]
        assert expected[0] == 255 * lit
        assert buckets[s].tolist() == expected, s


@pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
def test_bucket_block_at_n_cell_255_traces_under_3_mib(moving):
    import tracemalloc

    # Both benchmark workloads (n_cell 31 and 7) keep one product chunk per block.
    assert sim.PRODUCT_PIXELS // 31 >= sim.BLOCK_SLOTS
    spec = disk.make_spec(255, 1)
    patterns = hadamard.reduce_matrix(hadamard.sylvester_hadamard(256))
    schedule = disk.build_schedule(spec)
    obj = random_scene(255, 7)
    slot_dt = Fraction(1, 255 * 255)
    # One pixel per slot on both axes: the scene is padded by 255 each way.
    velocity = (Fraction(255 * 255), Fraction(-255 * 255)) if moving else (0, 0)
    traj = scene.Trajectory(mode="linear" if moving else "static", velocity=velocity)

    def block_peak():
        tracemalloc.start()
        try:
            blocks = sim._bucket_blocks(obj, traj, schedule, patterns, slot_dt, sim.BLOCK_SLOTS,
                                        1.0, 5)
            assert sum(len(buckets) for _, buckets in blocks) == sim.BLOCK_SLOTS
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block_peak()  # first-call caches
    # Gathering a whole block of 4,096 posed 255-pixel cells at once holds
    # 3 MiB of uint8 cells, 6 MiB of their int16 copy and 2 MiB of pattern
    # rows (11.4 MiB traced in all); chunks of PRODUCT_PIXELS hold 1.8 MiB.
    assert block_peak() <= 3 * 2**20


@pytest.mark.parametrize("pixels", [1, 22, 7 * 4096])
def test_bucket_products_in_small_chunks_match_dense_oracle(monkeypatch, pixels):
    # n = 14: posed copies of one scene row (two cells; 1 and 22 pixels both
    # round up to a row) and of the whole scene, over two blocks of a
    # moving, noisy run.
    monkeypatch.setattr(sim, "PRODUCT_PIXELS", pixels)
    spec, patterns, schedule = make_setup(n=14, k=2)
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(1, 2), Fraction(-1, 3)))
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(3),
        total_duration=Fraction(22),
    )
    obj = random_scene(14, 31)
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=2.0, seed=13)
    assert len(result.trace.buckets) == 22 * 196 > sim.BLOCK_SLOTS
    assert len(result.frames) == 7
    assert_matches_dense_oracle(result, timing, schedule, patterns, obj, traj, 2.0, 13)


def gathered_buckets(obj, traj, schedule, patterns, slot_dt, slot_count):
    """Noiseless buckets by the per-slot definition, gathered slot by slot.

    Slot ``s``'s bucket is its pattern row dotted with its (row, cell) of
    the scene posed at its signed ``_pose_steps`` counts: the scene sits in
    a zero frame padded by ``n`` on every side, and ``win[y, x]`` reads the
    ``n_cell`` pixels from ``(y, x)`` rightward.  Products are int64.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    spec = schedule.spec
    n, n_cell, per_rev = spec.n, spec.n_cell, spec.slots_per_revolution
    velocity = traj.velocity if traj.mode == "linear" else (0, 0)
    dx, dy = (np.array(step_offsets(v, slot_dt, traj.hold_interval, n, slot_count)) for v in velocity)
    pad = np.pad(obj.pixels, ((n, n), (n, n), (0, 0)))
    win = sliding_window_view(pad.reshape(len(pad), -1), 3 * n_cell, axis=1)[:, ::3]
    out = np.empty((slot_count, 3), dtype=np.int64)
    for lo in range(0, slot_count, 1024):
        s = np.arange(lo, min(lo + 1024, slot_count))
        j = s % per_rev
        cells = win[schedule.rows[j] - dy[s] + n, schedule.cells[j] * n_cell - dx[s] + n]
        rows = patterns.patterns[schedule.pattern_index[j]].astype(np.int64)
        out[s] = np.einsum("si,sic->sc", rows, cells.reshape(-1, n_cell, 3).astype(np.int64))
    return out


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from([(7, 1), (14, 2), (31, 1), (62, 2), (255, 1)]),
    order_mode=st.sampled_from(disk.ORDER_MODES),
    motion=st.sampled_from(["static", "free", "held"]),
    # Per axis, a pose step every 2 * e slots from slot e, e one of: a fast
    # axis clipped at +-n, a posed-copy chunk edge, a block edge, a
    # revolution edge, or any slot.
    edges=st.tuples(*[st.one_of(st.sampled_from(["fast", "chunk", "block", "rev"]),
                                st.integers(1, 9000))] * 2),
    signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
    hold=st.integers(1, 64),
    lit=st.sampled_from(["reduced", "dense"]),
    chunk_rows=st.sampled_from([1, 3, None]),
    blocks=st.integers(0, 2),
    extra=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
def test_rectangle_products_match_gathered_per_slot_oracle(
    shape, order_mode, motion, edges, signs, hold, lit, chunk_rows, blocks, extra, seed
):
    from unittest import mock

    n, k = shape
    spec = disk.make_spec(n, k)
    n_cell, per_rev = spec.n_cell, spec.slots_per_revolution
    schedule = disk.build_schedule(spec, order_mode)
    gen = np.random.default_rng(seed)
    if lit == "reduced":
        patterns = hadamard.reduce_matrix(hadamard.sylvester_hadamard(n_cell + 1))
    else:
        # More than half the pixels lit: at n_cell 255 a bucket passes the
        # int16 range (255 * 128), which the reduced set stays inside.
        bits = (gen.random((n_cell, n_cell)) < 0.8).astype(np.int64)
        patterns = hadamard.ReducedPatternSet(pattern_length=n_cell, patterns=bits)
    pixels = gen.integers(0, 256, size=(n, n, 3), dtype=np.uint8)
    pixels[: n // 2, :, 0] = 255  # buckets at their largest in red
    obj = scene.SceneObject(pixels=pixels)
    slot_count = min(blocks, 1 if n_cell == 255 else 2) * sim.BLOCK_SLOTS + extra
    slot_dt = Fraction(1, per_rev)
    rows = chunk_rows or n
    chunk_slots = rows * k * (1 if order_mode == "pattern_major" else n_cell)
    named = {"fast": 1, "chunk": chunk_slots, "block": sim.BLOCK_SLOTS, "rev": per_rev}
    if motion == "static":
        traj = scene.Trajectory()
    else:
        # v = 1 / (2 e slot_dt): |offset| first reaches m at slot (2m - 1) e.
        velocity = tuple(sign / (2 * named.get(e, e) * slot_dt) for sign, e in zip(signs, edges))
        held = hold * slot_dt if motion == "held" else None
        traj = scene.Trajectory(mode="linear", velocity=velocity, hold_interval=held)
    with mock.patch.object(sim, "PRODUCT_PIXELS", rows * n):
        blocks_out = list(sim._bucket_blocks(obj, traj, schedule, patterns, slot_dt, slot_count,
                                             0.0, 0))
    assert [lo for lo, _ in blocks_out] == list(range(0, slot_count, sim.BLOCK_SLOTS))
    buckets = np.concatenate([b for _, b in blocks_out])
    want = gathered_buckets(obj, traj, schedule, patterns, slot_dt, slot_count)
    assert np.array_equal(buckets, want)


@pytest.mark.parametrize("order_mode", disk.ORDER_MODES)
def test_grid_runs_bound_pose_segments_and_rectangles(order_mode):
    # One pixel per slot on both axes at n = 255 (the memory gate's moving
    # case), and a y axis half as fast, over two revolutions.
    spec = disk.make_spec(255, 1)
    schedule = disk.build_schedule(spec, order_mode)
    n, per_rev = spec.n, spec.slots_per_revolution
    slot_dt = Fraction(1, per_rev)
    slot_count = 2 * per_rev + 1000
    width = n * spec.k if order_mode == "pattern_major" else spec.n_cell
    grid = np.arange(per_rev).reshape(-1, width)
    for vy in (Fraction(-per_rev), Fraction(per_rev, 2)):
        steps = [sim._pose_steps(v, slot_dt, slot_dt, n, slot_count).tolist()
                 for v in (Fraction(per_rev), vy)]
        cuts = sorted({*steps[0], *steps[1]})
        segments = 1
        covered = []
        for b_lo in range(0, slot_count, sim.BLOCK_SLOTS):
            b_hi = min(b_lo + sim.BLOCK_SLOTS, slot_count)
            for s_lo, s_hi, rects in sim._grid_runs(b_lo, b_hi, cuts, per_rev, width):
                covered.append((s_lo, s_hi))
                # One pose and one revolution per run.
                assert s_lo // per_rev == (s_hi - 1) // per_rev
                assert not any(s_lo < c < s_hi for c in cuts)
                segments += s_lo in cuts
                # At most 3 rectangles, tiling the run's schedule slots in order.
                assert 1 <= len(rects) <= 3
                tiles = [grid[a:b, c:d].ravel() for a, b, c, d in rects]
                assert np.concatenate(tiles).tolist() == list(
                    range(s_lo % per_rev, s_lo % per_rev + s_hi - s_lo)
                )
        assert [lo for lo, _ in covered] == [0] + [hi for _, hi in covered[:-1]]
        assert covered[-1][1] == slot_count
        assert segments == len(cuts) + 1 <= 2 * n + 1


@pytest.mark.parametrize("window_mode", sim.WINDOW_MODES)
@pytest.mark.parametrize("sigma, dtype", [(1.0, np.float64), (1e16, np.int64)],
                         ids=["float64", "int64"])
def test_window_walk_either_side_of_2_53_matches_dense_oracle(monkeypatch, window_mode, sigma,
                                                              dtype):
    # The walk runs in float64 while _check_frame_peak's bound stays below
    # 2**53 and in int64 past it.  At sigma 1e16 single buckets pass 2**53
    # and frames hold odd values above it, which float64 cannot hold.
    spec, patterns, schedule = make_setup(n=7, k=1)
    per_rev = spec.slots_per_revolution
    window = Fraction(3) if window_mode == "tumbling" else Fraction(1)
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=window, window_mode=window_mode,
        total_duration=Fraction(6 if window_mode == "tumbling" else 2),
    )
    peak = sim._check_frame_peak(patterns, per_rev, int(window * per_rev), sigma)
    assert (peak < 2**53) == (dtype is np.float64)
    walks, windows = [], sim._windows
    monkeypatch.setattr(sim, "_windows", lambda *args: walks.append(args[-1]) or windows(*args))
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(2), Fraction(-1)))
    obj = random_scene(7, 32)
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=sigma, seed=14)
    assert walks == [dtype]
    assert len(result.frames) == (2 if window_mode == "tumbling" else per_rev + 1)
    if dtype is np.int64:
        assert np.any((result.frames > 2**53) & (result.frames % 2 == 1))
    assert_matches_dense_oracle(result, timing, schedule, patterns, obj, traj, sigma, 14)


@pytest.mark.parametrize(
    "velocity, steps",
    [((Fraction(21), Fraction(-30)), [14, 14]), ((Fraction(-5), Fraction(3)), [10, 6])],
    ids=["reaches_clip", "stops_short"],
)
def test_scene_padded_by_its_motion_matches_dense_oracle(velocity, steps):
    # The scene is padded by each axis' step count on the side it moves
    # towards.  Over 2 revolutions, 21 and -30 columns/rows per revolution
    # reach the +-14 clip (later poses read only padding), while -5 and 3
    # stop at 10 and 6 steps.
    spec, patterns, schedule = make_setup(n=14, k=2)
    traj = scene.Trajectory(mode="linear", velocity=velocity)
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(1, 2),
        total_duration=Fraction(2),
    )
    slot_dt = timing.slot_duration(spec.slots_per_revolution)
    slot_count = 2 * spec.slots_per_revolution
    assert [len(sim._pose_steps(v, slot_dt, slot_dt, 14, slot_count)) for v in velocity] == steps
    obj = random_scene(14, 30)
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=1.5, seed=12)
    assert len(result.frames) == 4
    assert_matches_dense_oracle(result, timing, schedule, patterns, obj, traj, 1.5, 12)


def test_one_pose_per_slot_at_n155_runs_in_half_a_second():
    spec, patterns, schedule = make_setup(n=155, k=5)
    obj = scene.builtin_letter("T", 155, "white")
    # One pixel per slot on both axes, over two revolutions.
    traj = scene.Trajectory(mode="linear", velocity=(24_025, -24_025))
    assert traj.offset_at(Fraction(1, 24_025)) == (1, -1)
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(1),
        total_duration=Fraction(2),
    )
    start = time.perf_counter()
    result = sim.simulate(obj, traj, schedule, patterns, timing)
    # Translating the whole scene once per pose would take over 2 s.
    assert time.perf_counter() - start < 0.5
    assert len(result.frames) == 2


def test_one_revolution_at_n155_traces_little_beyond_its_result():
    import tracemalloc

    spec, patterns, schedule = make_setup(n=155, k=5)
    obj = scene.builtin_letter("T", 155, "white")
    tracemalloc.start()
    try:
        result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, one_rev_timing())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = result.frames.nbytes + result.trace.buckets.nbytes
    # Block temporaries only: one 24,025 x 31 int64 array, a per-slot
    # expansion of the schedule, alone takes about 6 MB.
    assert peak - own <= 14 * 2**20


def window_pass(schedule, matrix, timing, buckets, dtype=np.float64):
    """The frames of ``sim._windows`` fed a finished trace in blocks."""
    n = schedule.spec.n
    slot_dt = timing.slot_duration(n * n)
    out = np.empty((sim.window_grid(timing, slot_dt)[1], n, n, 3), dtype=np.int64)
    blocks = [
        (lo, buckets[lo : lo + sim.BLOCK_SLOTS]) for lo in range(0, len(buckets), sim.BLOCK_SLOTS)
    ]
    for _, _, frame_lo, images in sim._windows(schedule, matrix, timing, blocks, dtype):
        out[frame_lo : frame_lo + len(images)] = images
    return out


def windows_add_at_oracle(schedule, matrix, timing, blocks, dtype):
    """``sim._windows`` as it was before ``dB`` kept schedule order.

    ``dB`` is indexed by (row * k + cell, pattern) through a per-position
    table ``pos``, filled by one ``np.add.at`` scatter per range, and the
    projection gathers the touched cells by fancy indexing.
    """
    spec = schedule.spec
    per_rev, n_cell = spec.slots_per_revolution, spec.n_cell
    window = timing.persistence_window
    slot_dt = timing.slot_duration(per_rev)
    step, count = sim.window_grid(timing, slot_dt)
    acc = np.zeros((spec.n * spec.k, n_cell, 3), dtype=dtype)
    sums = np.zeros_like(acc)
    pos = (schedule.rows * spec.k + schedule.cells) * n_cell + schedule.pattern_index
    touched = np.zeros(len(acc), dtype=bool)
    chunk = max(1, sim.BLOCK_SLOTS // n_cell)
    matrix_t = np.ascontiguousarray(matrix.T, dtype=dtype)
    batch = np.empty(
        (max(1, sim.FRAME_BLOCK_VALUES // (3 * per_rev)), spec.n, spec.n, 3), np.int64
    )
    d = math.lcm((step / slot_dt).denominator, (window / slot_dt).denominator)
    a, w = int(step / slot_dt * d), int(window / slot_dt * d)
    keep = -(-w // d) if timing.window_mode == "sliding" and count else 0
    ring = -(-(keep + sim.BLOCK_SLOTS) // sim.BLOCK_SLOTS) * sim.BLOCK_SLOTS
    history = np.zeros((ring, 3), dtype=dtype)

    def add(lo, hi, sign):
        if lo < hi:
            part = history[lo % ring : lo % ring + hi - lo]
            if hi - lo > per_rev:
                whole = (hi - lo) // per_rev * per_rev
                folded = part[:whole].reshape(-1, per_rev, 3).sum(axis=0)
                folded[: hi - lo - whole] += part[whole:]
                part = folded
            at = pos[np.arange(lo, lo + len(part)) % per_rev]
            flat = (3 * at[:, None] + np.arange(3)).ravel()
            np.add.at(sums.reshape(-1), flat, sign * part.ravel())
            touched[at // n_cell] = True

    def project():
        cells = np.flatnonzero(touched)
        touched[cells] = False
        for p in range(0, len(cells), chunk):
            part = cells[p : p + chunk]
            acc[part] += matrix_t @ sums[part]
            sums[part] = 0

    i = cur_lo = cur_hi = 0
    for b_lo, buckets in blocks:
        b_hi = b_lo + len(buckets)
        history[b_lo % ring : b_lo % ring + len(buckets)] = buckets
        slot_lo, done = b_lo, 0
        while i < count:
            lo, hi = -(-i * a // d), -(-(i * a + w) // d)
            if lo >= cur_hi:
                acc[...] = 0
                cur_lo = cur_hi = lo
            add(cur_lo, lo, -1)
            add(cur_hi, min(hi, b_hi), 1)
            cur_lo, cur_hi = lo, max(cur_hi, min(hi, b_hi))
            if hi > b_hi:
                break
            project()
            batch[done] = acc.reshape(spec.n, spec.n, 3)
            i, done = i + 1, done + 1
            if done == len(batch):
                yield slot_lo, buckets[slot_lo - b_lo :], i - done, batch
                slot_lo, done = b_hi, 0
        if slot_lo < b_hi or done:
            yield slot_lo, buckets[slot_lo - b_lo :], i - done, batch[:done]


def walk_stream(walk, schedule, matrix, timing, buckets, dtype):
    """Every ``(slot_lo, buckets, frame_lo, images)`` call of a walk, copied."""
    blocks = [
        (lo, buckets[lo : lo + sim.BLOCK_SLOTS]) for lo in range(0, len(buckets), sim.BLOCK_SLOTS)
    ]
    return [(slot_lo, rows.tolist(), frame_lo, images.tolist())
            for slot_lo, rows, frame_lo, images in walk(schedule, matrix, timing, blocks, dtype)]


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([(3, 1), (6, 2), (7, 1), (14, 2)]),
    order_mode=st.sampled_from(disk.ORDER_MODES),
    window_mode=st.sampled_from(sim.WINDOW_MODES),
    # Window and run length in slots, over 1 to 3: sub-slot to multi-revolution windows.
    window_slots=st.integers(1, 450),
    total_slots=st.integers(1, 600),
    per=st.integers(1, 3),
    block=st.sampled_from([7, 16, 50, 4096]),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(14, 2), order_mode="pattern_major", window_mode="tumbling", window_slots=30,
         total_slots=200, per=1, block=16, wide=False, seed=1)
@example(shape=(7, 1), order_mode="part_major", window_mode="sliding", window_slots=60,
         total_slots=200, per=1, block=50, wide=True, seed=2)
def test_windows_match_add_at_oracle(shape, order_mode, window_mode, window_slots, total_slots,
                                     per, block, wide, seed):
    # Small blocks put block and ring edges inside windows; windows shorter
    # than a row of the (pattern, cell) grid touch a few cells, and in
    # pattern_major those ranges can wrap past the last cell; windows of a
    # revolution or more touch all.  Wide buckets make frames pass 2**53,
    # where only the int64 walk is exact.
    spec, patterns, schedule = make_setup(*shape, order_mode=order_mode)
    per_rev = spec.slots_per_revolution
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(window_slots, per_rev * per),
        window_mode=window_mode, total_duration=Fraction(total_slots, per_rev),
    )
    high = 2**62 // total_slots if wide else 255 * spec.n_cell
    buckets = np.random.default_rng(seed).integers(0, high, size=(total_slots, 3))
    dtype = np.int64 if wide else np.float64
    with mock.patch.object(sim, "BLOCK_SLOTS", block):
        got = walk_stream(sim._windows, schedule, patterns.patterns, timing, buckets, dtype)
        want = walk_stream(windows_add_at_oracle, schedule, patterns.patterns, timing, buckets,
                           np.int64)
    assert got == want


def test_window_pass_at_n155_traces_under_3_mib():
    import tracemalloc

    spec, patterns, schedule = make_setup(n=155, k=5)
    obj = scene.builtin_letter("T", 155, "white")
    timing = one_rev_timing()
    buckets = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing).trace.buckets
    tracemalloc.start()
    try:
        images = window_pass(schedule, patterns.patterns, timing, buckets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The frame itself is 0.55 MiB; a per-slot scatter of 4,096 x 31 x 3
    # int64 terms alone would take 3 MiB.
    assert images.nbytes == 155 * 155 * 3 * 8
    assert peak <= 3 * 2**20


def test_twenty_times_longer_static_run_grows_peak_by_at_most_the_ring():
    import tracemalloc

    spec, patterns, schedule = make_setup(n=14, k=2)
    obj = scene.builtin_letter("T", 14, "white")

    def streamed_peak(revolutions):
        timing = sim.TimingConfig(
            revolution_period=Fraction(1), persistence_window=Fraction(21),
            total_duration=Fraction(revolutions),
        )
        tracemalloc.start()
        try:
            result = sim.simulate(
                obj, scene.Trajectory(), schedule, patterns, timing, sink=lambda *part: None
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.frames.shape == (0, 14, 14, 3)
        assert result.trace.buckets.shape == (0, 3)
        return peak

    streamed_peak(1)  # first-call caches
    # Both runs pass from one full BLOCK_SLOTS block to the next: 8,232
    # slots and 164,640.
    short, long = streamed_peak(42), streamed_peak(840)
    # 156,408 more slots would hold 3.6 MiB at 24 B/slot; the bound allows
    # a ring of one window (4,116 buckets) and one block, 0.19 MiB.
    assert long - short <= (21 * 196 + sim.BLOCK_SLOTS) * 24


@pytest.mark.parametrize("hold", [False, True])
def test_one_pose_per_slot_runs_hold_no_more_for_more_slots(hold):
    import tracemalloc

    spec, patterns, schedule = make_setup(n=7, k=1)
    obj = random_scene(7, 0)
    slot_dt = Fraction(1, 49)
    # Both axes change at every slot, with a hold block per slot or without.
    traj = scene.Trajectory(
        mode="linear", velocity=(Fraction(49), Fraction(-98)),
        hold_interval=slot_dt if hold else None,
    )
    assert len({traj.offset_at(s * slot_dt) for s in range(100)}) == 100

    def walk_peak(slot_count):
        tracemalloc.start()
        try:
            blocks = sim._bucket_blocks(obj, traj, schedule, patterns, slot_dt, slot_count, 0.0, 0)
            count = sum(len(buckets) for _, buckets in blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == slot_count
        return peak

    walk_peak(10)  # first-call caches
    # Both walks hold one block's buckets while the next full block is made.
    short, long = walk_peak(2 * sim.BLOCK_SLOTS), walk_peak(20 * sim.BLOCK_SLOTS)
    # A pose or a run kept per slot would hold over 1 MiB for the 73,728 more slots.
    assert long - short <= 16 * 1024


def asymmetric_patterns(length, seed):
    """A 0/1 pattern set with ``R != R.T``, for transposition mistakes."""
    bits = np.random.default_rng(seed).integers(0, 2, size=(length, length))
    bits[0, 1], bits[1, 0] = 1, 0
    return hadamard.ReducedPatternSet(pattern_length=length, patterns=bits)


def assert_matches_dense_oracle(
    result, timing, schedule, patterns, obj, traj, sigma, seed, frame_ids=None
):
    """Every bucket and frame against rows of the dense measurement matrix.

    ``result.frames`` holds the frames ``frame_ids`` of a run of ``timing``
    (every frame by default), each over its ``frame_spans`` span."""
    from ghostdisk import rng

    per_rev = schedule.spec.slots_per_revolution
    buckets, slot_dt = result.trace.buckets, result.trace.slot_dt
    rows = metrics.build_measurement_matrix(schedule, patterns)[
        np.arange(len(buckets)) % per_rev
    ]
    poses = {}
    for s, row in enumerate(rows):
        offset = traj.offset_at(s * slot_dt)
        if offset not in poses:
            poses[offset] = scene.translate_image(obj.pixels, *offset).astype(np.int64)
        clean = (row @ poses[offset].reshape(-1, 3)).tolist()
        for ch in range(3):
            noise = math.floor(sigma * rng.gaussian(seed, 3 * s + ch) + 0.5) if sigma else 0
            assert buckets[s, ch] == max(0, clean[ch] + noise), (s, ch)
    spans = frame_spans(timing, slot_dt, frame_ids)
    for frame, (start, end) in zip(result.frames, spans, strict=True):
        lo, hi = math.ceil(start / slot_dt), math.ceil(end / slot_dt)
        expected = rows[lo:hi].T @ buckets[lo:hi]
        assert np.array_equal(frame.reshape(-1, 3), expected), start


@pytest.mark.parametrize("window_mode", sim.WINDOW_MODES)
@pytest.mark.parametrize("pattern_set", ["reduced", "asymmetric"])
@pytest.mark.parametrize("order_mode", disk.ORDER_MODES)
@pytest.mark.parametrize("side", ["below", "at"])
def test_pattern_domain_switch_matches_dense_oracle(side, order_mode, pattern_set, window_mode):
    # Tumbling windows of exactly b slots over pose runs of b slots; sliding
    # windows mix one such delta with one-slot steps.  "below" runs b = 1
    # and per_rev // 16 - 1, "at" runs b = 2 and per_rev // 16 + 1: deltas
    # that touch one, two or several cells, around 1/16 of a revolution.
    spec, patterns, schedule = make_setup(n=14, k=2, order_mode=order_mode)
    if pattern_set == "asymmetric":
        patterns = asymmetric_patterns(spec.n_cell, 3)
    per_rev = spec.slots_per_revolution
    sizes = (1, per_rev // 16 - 1) if side == "below" else (2, per_rev // 16 + 1)
    obj = random_scene(14, 21)
    period = Fraction(1)
    slot_dt = period / per_rev
    for b in sizes:
        slot_count = 12 * b
        traj = scene.Trajectory(
            mode="linear", velocity=(1 / (b * slot_dt), -1 / (2 * b * slot_dt)),
            hold_interval=b * slot_dt,
        )
        # The pose moves one column right every b slots.
        assert [traj.offset_at(s * slot_dt)[0] for s in range(slot_count)] == [
            s // b for s in range(slot_count)
        ]
        timing = sim.TimingConfig(
            revolution_period=period, persistence_window=b * slot_dt,
            window_mode=window_mode, total_duration=slot_count * slot_dt,
        )
        result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=3.0, seed=8)
        assert len(result.frames) == (12 if window_mode == "tumbling" else 11 * b + 1)
        assert_matches_dense_oracle(result, timing, schedule, patterns, obj, traj, 3.0, 8)


@pytest.mark.parametrize("pattern_set", ["reduced", "asymmetric"])
@pytest.mark.parametrize("order_mode", disk.ORDER_MODES)
@pytest.mark.parametrize("motion", ["static", "linear"])
def test_windows_across_revolutions_match_dense_oracle(motion, order_mode, pattern_set):
    # Tumbling windows of 7/3 revolutions: each delta covers parts of three
    # revolutions, at least one of them whole and one partial.
    spec, patterns, schedule = make_setup(n=14, k=2, order_mode=order_mode)
    if pattern_set == "asymmetric":
        patterns = asymmetric_patterns(spec.n_cell, 5)
    if motion == "static":
        traj = scene.Trajectory()
    else:
        traj = scene.Trajectory(mode="linear", velocity=(Fraction(1, 3), Fraction(-1, 5)))
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(7, 3),
        total_duration=Fraction(7),
    )
    obj = random_scene(14, 22)
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=2.0, seed=9)
    assert len(result.frames) == 3
    assert_matches_dense_oracle(result, timing, schedule, patterns, obj, traj, 2.0, 9)


@pytest.mark.parametrize("window_revs", [Fraction(1, 2), Fraction(21)])
def test_sliding_windows_across_blocks_match_dense_oracle(window_revs):
    # 4,312 slots in two BLOCK_SLOTS blocks, with windows of 98 slots and
    # of 4,116 (longer than a block): frames close on both sides of the
    # block edge, and their leaving slots come from the block before.
    spec, patterns, schedule = make_setup(n=14, k=2, order_mode="part_major")
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(1, 3), Fraction(-1, 4)))
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=window_revs,
        window_mode="sliding", total_duration=Fraction(22),
    )
    obj = random_scene(14, 23)
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=2.0, seed=10)
    assert len(result.trace.buckets) == 22 * 196 > sim.BLOCK_SLOTS
    assert len(result.frames) == 22 * 196 - window_revs * 196 + 1
    assert_matches_dense_oracle(result, timing, schedule, patterns, obj, traj, 2.0, 10)


@pytest.mark.parametrize("window_slots", [98, 600])
def test_sliding_windows_past_three_ring_wraps_match_dense_oracle(monkeypatch, window_slots):
    # Slot s sits at s % ring, ring being window + block rounded up to whole
    # blocks.  The arithmetic holds for any block size, and 512-slot blocks
    # make three rings a few thousand slots: windows shorter than a
    # revolution (98 slots) and longer than a block (600).  The sampled
    # frames include those whose leaving or entering slot sits on either
    # side of each wrap.
    block = 512
    monkeypatch.setattr(sim, "BLOCK_SLOTS", block)
    spec, patterns, schedule = make_setup(n=14, k=2, order_mode="part_major")
    per_rev = spec.slots_per_revolution
    ring = -(-(window_slots + block) // block) * block
    slot_count = 3 * ring + per_rev
    count = slot_count - window_slots + 1
    slot_dt = Fraction(1, per_rev)
    traj = scene.Trajectory(
        mode="linear", velocity=(Fraction(2, 3), Fraction(-1, 2)), hold_interval=Fraction(1, 3)
    )
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=window_slots * slot_dt,
        window_mode="sliding", total_duration=slot_count * slot_dt,
    )
    wraps = range(ring, slot_count, ring)
    # Frame i drops slot i - 1 and takes in slot i + window_slots - 1.
    edges = (*range(-1, 3), *range(-1 - window_slots, 3 - window_slots))
    sampled = {w + d for w in wraps for d in edges} & set(range(count))
    sampled |= {0, count - 1, *range(0, count, 97)}
    buckets = np.empty((slot_count, 3), dtype=np.int64)
    images = {}
    stream = [0, 0]  # the next slot and frame the sink expects

    def sink(slot_lo, rows, frame_lo, block_images):
        assert [slot_lo, frame_lo] == stream
        buckets[slot_lo : slot_lo + len(rows)] = rows
        for f in sampled.intersection(range(frame_lo, frame_lo + len(block_images))):
            images[f] = block_images[f - frame_lo].copy()
        stream[:] = slot_lo + len(rows), frame_lo + len(block_images)

    obj = random_scene(14, 24)
    sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=2.0, seed=11, sink=sink)
    assert stream == [slot_count, count] and len(wraps) == 3
    assert sorted(images) == sorted(sampled)
    frames = np.stack([images[f] for f in sorted(images)])
    trace = sim.BucketTrace(buckets=buckets, slot_dt=slot_dt)
    result = sim.SimulationResult(frames=frames, trace=trace)
    spans = frame_spans(timing, slot_dt, sorted(images))
    assert spans == [(f * slot_dt, (f + window_slots) * slot_dt) for f in sorted(images)]
    assert_matches_dense_oracle(
        result, timing, schedule, patterns, obj, traj, 2.0, 11, frame_ids=sorted(images)
    )


def test_sliding_window_ring_grows_peak_by_one_bucket_per_window_slot():
    import tracemalloc

    spec, patterns, schedule = make_setup(n=7, k=1)
    obj = scene.builtin_letter("T", 7, "white")

    def streamed_peak(window_revs):
        # 50 frames: the window slides one revolution of 49 slots.
        timing = sim.TimingConfig(
            revolution_period=Fraction(1), persistence_window=Fraction(window_revs),
            window_mode="sliding", total_duration=Fraction(window_revs + 1),
        )
        tracemalloc.start()
        try:
            sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing, sink=lambda *part: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    streamed_peak(1)  # first-call caches
    # Windows of 102,900 and 411,600 slots.  The ring holds each window
    # slot's bucket once (24 B); shifting it with an overlapping copy every
    # block would hold it twice.
    short, long = streamed_peak(2100), streamed_peak(8400)
    assert long - short <= 1.25 * 24 * (8400 - 2100) * 49


def scatter_frames(schedule, matrix, buckets, timing, slot_dt):
    """Each frame of a run of ``timing`` summed from zero slot by slot with
    ``np.add.at``: a referee for the pattern-domain window sums that shares
    none of their steps."""
    spec = schedule.spec
    per_rev = spec.slots_per_revolution
    spans = frame_spans(timing, slot_dt)
    out = np.zeros((len(spans), spec.n, spec.k, spec.n_cell, 3), dtype=np.int64)
    for acc, (start, end) in zip(out, spans):
        lo, hi = math.ceil(start / slot_dt), math.ceil(end / slot_dt)
        for b_lo in range(lo, hi, sim.BLOCK_SLOTS):
            b_hi = min(b_lo + sim.BLOCK_SLOTS, hi)
            j = np.arange(b_lo, b_hi) % per_rev
            terms = matrix[schedule.pattern_index[j]][:, :, None] * buckets[b_lo:b_hi, None, :]
            np.add.at(acc, (schedule.rows[j], schedule.cells[j]), terms)
    return out.reshape(len(spans), spec.n, spec.n, 3)


@pytest.mark.parametrize("order_mode", disk.ORDER_MODES)
def test_pattern_domain_switch_changes_no_bytes_at_n155(order_mode):
    # Windows of 7/3 revolutions of 24,025 slots scatter several
    # BLOCK_SLOTS blocks that repeat positions across revolutions, over
    # moving poses, and project every cell in several chunks.
    spec, patterns, schedule = make_setup(n=155, k=5, order_mode=order_mode)
    obj = scene.builtin_letter("J", 155, "white")
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(7), Fraction(-3)))
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(7, 3),
        total_duration=Fraction(5),
    )
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=2.0, seed=3)
    assert len(result.frames) == 2
    direct = scatter_frames(
        schedule, patterns.patterns, result.trace.buckets, timing, result.trace.slot_dt
    )
    assert np.array_equal(result.frames, direct)


def test_sliding_steps_at_n155_trace_under_3_mib():
    import tracemalloc

    spec, patterns, schedule = make_setup(n=155, k=5)
    obj = scene.builtin_letter("T", 155, "white")
    slot_dt = Fraction(1, 155 * 155)
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=240 * slot_dt,
        window_mode="sliding", total_duration=249 * slot_dt,
    )
    result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
    buckets = result.trace.buckets
    tracemalloc.start()
    try:
        images = window_pass(schedule, patterns.patterns, timing, buckets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(images) == 10
    # Beyond its 5.5 MiB of frames, the pass holds the accumulator, the
    # pending sums and one frame being handed out (0.55 MiB each), the last
    # 240 buckets and one chunk of projected cells.
    assert peak - images.nbytes <= 3 * 2**20
    direct = scatter_frames(schedule, patterns.patterns, buckets, timing, slot_dt)
    assert np.array_equal(images, direct)


def test_simulate_validation():
    spec, patterns, schedule = make_setup()
    obj = random_scene(6, 15)
    for sigma in (-1.0, float("nan"), float("inf"), 1e300, 2 * sim.NOISE_SIGMA_MAX):
        with pytest.raises(ValueError, match="noise_sigma"):
            sim.simulate(
                obj, scene.Trajectory(), schedule, patterns, one_rev_timing(), noise_sigma=sigma
            )
    with pytest.raises(ValueError, match="scene side"):
        sim.simulate(random_scene(8, 0), scene.Trajectory(), schedule, patterns, one_rev_timing())
    bad_patterns = hadamard.reduce_matrix(hadamard.sylvester_hadamard(8))
    with pytest.raises(ValueError, match="does not match"):
        sim.simulate(obj, scene.Trajectory(), schedule, bad_patterns, one_rev_timing())


def test_array_dataclasses_compare_by_identity():
    # Field-wise == on these would compare arrays and raise on an ambiguous
    # truth value; each compares equal only to itself.
    spec, patterns, schedule = make_setup()
    h8 = hadamard.sylvester_hadamard(8)
    result = sim.simulate(
        random_scene(6, 1), scene.Trajectory(), schedule, patterns, one_rev_timing()
    )
    pairs = [
        (hadamard.reduce_matrix(h8), hadamard.reduce_matrix(h8)),
        (scene.builtin_letter("U", 35), scene.builtin_letter("U", 35)),
        (result, dataclasses.replace(result)),
        (result.trace, dataclasses.replace(result.trace)),
        (schedule, disk.build_schedule(spec)),
        (disk.disk_layout(schedule, patterns), disk.disk_layout(schedule, patterns)),
    ]
    for a, b in pairs:
        assert a == a and a != b and not a == b


def test_timing_validation():
    with pytest.raises(ValueError, match="window_mode"):
        sim.TimingConfig(window_mode="spinning")
    with pytest.raises(ValueError, match="positive"):
        sim.TimingConfig(total_duration=Fraction(0))


def test_frame_ppm_scaling(tmp_path):
    from ghostdisk import pnm

    image = np.zeros((2, 2, 3), dtype=np.int64)
    image[0, 0] = (6, 3, 0)
    image[1, 1] = (1, 1, 1)
    path = tmp_path / "f.ppm"
    sim.write_frame_ppm(image[None], [path])
    out = pnm.read_ppm(path)
    # Peak 6 maps to 255; 3 -> 128 (127.5 rounds up); 1 -> 43 (42.5 rounds up).
    assert out[0, 0].tolist() == [255, 128, 0]
    assert out[1, 1].tolist() == [43, 43, 43]


def test_zero_frame_ppm_stays_zero(tmp_path):
    from ghostdisk import pnm

    path = tmp_path / "z.ppm"
    sim.write_frame_ppm(np.zeros((1, 3, 3, 3), dtype=np.int64), [path])
    assert not pnm.read_ppm(path).any()


def test_frame_txt_round_trip(tmp_path):
    gen = np.random.default_rng(16)
    image = gen.integers(0, 10_000, size=(5, 5, 3)).astype(np.int64)
    path = tmp_path / "f.txt"
    sim.write_frame_txt(image[None], [path])
    assert path.read_bytes() == frame_txt_oracle(image)
    text = path.read_text()
    assert text.startswith("# channel red\n")
    assert "# channel blue" in text


def ppm_oracle(image: np.ndarray) -> list[int]:
    """The PPM scaling on Python ints: floor((510 v + p) / (2 p)), 0 for p <= 0."""
    values = image.ravel().tolist()
    peak = max(values)
    return [0 if peak <= 0 else (510 * v + peak) // (2 * peak) for v in values]


def test_frame_ppm_exact_past_int64_product(tmp_path):
    from ghostdisk import pnm

    # A peak near 5.2e17: 510 * v wraps int64, which made 121 of these 147
    # values wrong when the scaling formed that product.
    spec, patterns, schedule = make_setup(n=7, k=1)
    obj = scene.builtin_letter("T", 7, "white")
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(1), total_duration=Fraction(1)
    )
    result = sim.simulate(
        obj, scene.Trajectory(), schedule, patterns, timing, noise_sigma=1e17, seed=0
    )
    (image,) = result.frames
    assert image.max() > 2**63 // 510
    path = tmp_path / "f.ppm"
    sim.write_frame_ppm(result.frames, [path])
    assert pnm.read_ppm(path).ravel().tolist() == ppm_oracle(image)


@settings(max_examples=150, deadline=None)
@given(
    count=st.integers(1, 3),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    peak=st.one_of(
        st.integers(0, 600),
        st.integers(2**53, 2**63 - 1),
        st.sampled_from([509, 510, 511, 2**63 // 510, 2**63 // 510 + 1, 2**63 - 1]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
# Across the exporter's runs of whole rows: n=155 cuts its one frame every 35
# rows; 4 frames at n=35 are one run; 5 frames at n=35 and 30 at n=14 cut
# a run inside a later frame (rows 16 and 12).
@example(count=1, shape=(155, 155), peak=2**63 - 1, seed=1)
@example(count=4, shape=(35, 35), peak=600, seed=2)
@example(count=5, shape=(35, 35), peak=2**63 // 510 + 1, seed=3)
@example(count=30, shape=(14, 14), peak=511, seed=4)
def test_frame_ppm_scaling_matches_python_ints(tmp_path_factory, count, shape, peak, seed):
    from ghostdisk import pnm

    gen = np.random.default_rng(seed)
    images = gen.integers(0, peak, size=(count, *shape, 3), dtype=np.int64, endpoint=True)
    images[:, 0, 0, 0] = peak
    images[0, -1, -1, -1] = 0
    tmp = tmp_path_factory.mktemp("ppm")
    paths = [tmp / f"{i}.ppm" for i in range(count)]
    sim.write_frame_ppm(images, paths)
    for image, path in zip(images, paths):
        assert pnm.read_ppm(path).ravel().tolist() == ppm_oracle(image)


def frame_txt_oracle(image: np.ndarray) -> bytes:
    """The frame text format, one Python str per value."""
    lines = []
    for channel, name in enumerate(("red", "green", "blue")):
        lines.append(f"# channel {name}")
        lines += (" ".join(map(str, row)) for row in image[:, :, channel].tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


# Values at and next to every power of ten (so every digit-group boundary),
# both signs, and the int64 extremes.
_BOUNDARY_VALUES = np.array(
    sorted(
        {sign * (10**e + delta) for e in range(19) for delta in (-2, -1, 0, 1, 2) for sign in (1, -1)}
        | {-(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2}
    ),
    dtype=np.int64,
)


@settings(max_examples=150, deadline=None)
@given(
    count=st.sampled_from([1, 2, 7]),
    n=st.integers(1, 9),
    # Frames are square; a wider block checks that rows and columns stay apart.
    extra_columns=st.sampled_from([0, 0, 0, 2]),
    kind=st.sampled_from(["zero", "small", "boundary", "any"]),
    seed=st.integers(0, 2**32 - 1),
)
# Across the formatter's runs of whole rows: n=155 cuts its frame after row
# 105 of red and 55 of green; 4 frames at n=35 are one run; 5 frames at
# n=35, 30 at n=14 and 30 of 14 x 16 cut a run inside a later frame's green
# or blue channel.
@example(count=1, n=155, extra_columns=0, kind="any", seed=1)
@example(count=4, n=35, extra_columns=0, kind="boundary", seed=2)
@example(count=5, n=35, extra_columns=0, kind="small", seed=3)
@example(count=30, n=14, extra_columns=0, kind="any", seed=4)
@example(count=30, n=14, extra_columns=2, kind="boundary", seed=5)
def test_frame_txt_block_matches_str_oracle(
    tmp_path_factory, count, n, extra_columns, kind, seed
):
    gen = np.random.default_rng(seed)
    shape = (count, n, n + extra_columns, 3)
    if kind == "zero":
        images = np.zeros(shape, dtype=np.int64)
    elif kind == "small":
        images = gen.integers(0, 10_000, size=shape)
    elif kind == "boundary":
        images = gen.choice(_BOUNDARY_VALUES, size=shape)
    else:
        images = gen.integers(-(2**63), 2**63 - 1, size=shape, dtype=np.int64, endpoint=True)
    tmp = tmp_path_factory.mktemp("txt")
    paths = [tmp / f"frame_{i:04d}.txt" for i in range(count)]
    sim.write_frame_txt(images, paths)
    for image, path in zip(images, paths):
        assert path.read_bytes() == frame_txt_oracle(image)
        # A frame formatted on its own, as report does, gives the same bytes.
        assert sim.frame_texts(image[None]) == [path.read_bytes()]


def test_frame_txt_formats_whole_rows_per_call(monkeypatch, tmp_path):
    formatted = []
    int_cells = sim._int_cells

    def counted(values, sep):
        formatted.append(len(values))
        return int_cells(values, sep)

    monkeypatch.setattr(sim, "_int_cells", counted)
    gen = np.random.default_rng(7)
    # A simulate batch at n=35 (4 frames) stays one call; one n=155 frame
    # takes runs of 105 rows of 155 values.
    paths = [tmp_path / f"{i}.txt" for i in range(4)]
    sim.write_frame_txt(gen.integers(0, 10**6, size=(4, 35, 35, 3)), paths)
    assert formatted == [4 * 3 * 35 * 35]
    formatted.clear()
    sim.write_frame_txt(gen.integers(0, 10**6, size=(1, 155, 155, 3)), [tmp_path / "big"])
    assert formatted == [105 * 155] * 4 + [45 * 155]


def test_frame_exports_trace_flat_in_frame_size(tmp_path):
    import tracemalloc

    from ghostdisk import pnm

    sim.write_frame_txt(np.ones((1, 2, 2, 3), dtype=np.int64), [tmp_path / "warm.txt"])
    for n in (155, 635):
        # 0.55 and 9.2 MiB of frame counts, up to 10**8 each.
        image = np.random.default_rng(n).integers(0, 10**8, size=(1, n, n, 3))
        for write, suffix in ((sim.write_frame_txt, "txt"), (sim.write_frame_ppm, "ppm")):
            path = tmp_path / f"frame_{n}.{suffix}"
            tracemalloc.start()
            try:
                write(image, [path])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Whole-frame formatting took 3.7 and 62 MiB for .txt, 1.7 and
            # 28 MiB for .ppm; runs of FRAME_BLOCK_VALUES values do not grow with n.
            assert peak < 1.5 * 2**20, (n, suffix, peak)
        assert path.stat().st_size == len(pnm.header("P6", n, n)) + 3 * n * n


def streamed(obj, traj, schedule, patterns, timing, **kwargs):
    """``simulate`` through a sink: its result, then the buckets and frames
    the sink was handed, each stacked into one array."""
    buckets, frames = [np.empty((0, 3), np.int64)], [np.empty((0, obj.side, obj.side, 3), np.int64)]

    def sink(slot_lo, rows, frame_lo, images):
        assert [slot_lo, frame_lo] == [sum(map(len, buckets)), sum(map(len, frames))]
        buckets.append(rows.copy())
        frames.append(images.copy())

    result = sim.simulate(obj, traj, schedule, patterns, timing, sink=sink, **kwargs)
    return result, np.concatenate(buckets), np.concatenate(frames)


@pytest.mark.parametrize("window_mode", sim.WINDOW_MODES)
@pytest.mark.parametrize("motion", ["static", "linear"])
def test_streamed_run_equals_collected_run(window_mode, motion):
    # 90 revolutions of 49 slots cross a BLOCK_SLOTS edge; sliding windows
    # hand the sink several frame batches.
    spec, patterns, schedule = make_setup(n=7, k=1)
    if motion == "static":
        traj = scene.Trajectory()
    else:
        traj = scene.Trajectory(mode="linear", velocity=(Fraction(1, 9), Fraction(-1, 15)))
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(1, 2),
        window_mode=window_mode, total_duration=Fraction(90),
    )
    obj = random_scene(7, 33)
    collected = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=2.0, seed=15)
    result, buckets, frames = streamed(
        obj, traj, schedule, patterns, timing, noise_sigma=2.0, seed=15
    )
    count = sim.window_grid(timing, collected.trace.slot_dt)[1]
    assert collected.frames.shape == (count, 7, 7, 3) and collected.frames.dtype == np.int64
    assert collected.trace.buckets.shape == (90 * 49, 3) and 90 * 49 > sim.BLOCK_SLOTS
    assert_traces_equal(collected.trace, sim.BucketTrace(buckets=buckets, slot_dt=Fraction(1, 49)))
    assert np.array_equal(collected.frames, frames)
    assert result.frames.shape == (0, 7, 7, 3) and result.frames.dtype == np.int64
    assert_traces_equal(result.trace, sim.BucketTrace(buckets=buckets[:0], slot_dt=Fraction(1, 49)))


@pytest.mark.parametrize("window_mode", sim.WINDOW_MODES)
@pytest.mark.parametrize("collect", [True, False], ids=["collected", "streamed"])
def test_run_without_complete_window_returns_zero_frames(window_mode, collect):
    spec, patterns, schedule = make_setup(n=3, k=1)
    timing = sim.TimingConfig(
        revolution_period=Fraction(9), persistence_window=Fraction(20),
        window_mode=window_mode, total_duration=Fraction(9),
    )
    calls = []
    result = sim.simulate(
        random_scene(3, 10), scene.Trajectory(), schedule, patterns, timing,
        sink=None if collect else lambda *part: calls.append(part),
    )
    assert result.frames.shape == (0, 3, 3, 3) and result.frames.dtype == np.int64
    assert result.trace.slot_dt == Fraction(1)
    assert result.trace.buckets.shape == ((9 if collect else 0), 3)
    assert [len(frames) for *_, frames in calls] == ([] if collect else [0])


# (window mode, window slots, noise sigma) of 200-slot n = 7 runs over
# 40-slot blocks.  Sliding frames of 30 slots complete 11 in the first block
# and 40 in each later one; tumbling ones of 15 slots fill batches in
# several entries, and of 90 slots span three blocks each.  At sigma 1e16
# the frame bound passes 2**53 and the walk runs in int64.
BATCH_WALKS = {
    "sliding": ("sliding", 30, 2.0),
    "sliding_int64": ("sliding", 30, 1e16),
    "tumbling": ("tumbling", 15, 2.0),
    "tumbling_across_blocks": ("tumbling", 90, 2.0),
}


@pytest.mark.parametrize("per_batch", [1, 2, 3])
@pytest.mark.parametrize("order_mode", disk.ORDER_MODES)
@pytest.mark.parametrize("walk", sorted(BATCH_WALKS))
def test_frames_built_in_the_batch_match_collected_run_and_dense_oracle(
    monkeypatch, walk, order_mode, per_batch
):
    # Each frame accumulates in its own batch entry, from zero or from the
    # last frame.  With 1 to 3 frames a batch, that frame sits in the same
    # entry, in the entry before, at the end of a batch a sink call was
    # handed, or at the end of a block's last, partial call.
    window_mode, window_slots, sigma = BATCH_WALKS[walk]
    spec, patterns, schedule = make_setup(n=7, k=1, order_mode=order_mode)
    monkeypatch.setattr(sim, "FRAME_BLOCK_VALUES", per_batch * 3 * 49)
    monkeypatch.setattr(sim, "BLOCK_SLOTS", 40)
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(window_slots, 49),
        window_mode=window_mode, total_duration=Fraction(200, 49),
    )
    peak = sim._check_frame_peak(patterns, 49, window_slots, sigma)
    assert (peak >= 2**53) == (walk == "sliding_int64")
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(3, 2), Fraction(-1)))
    obj = random_scene(7, 40)
    calls, frames = [], []

    def sink(slot_lo, rows, frame_lo, images):
        calls.append(len(images))
        frames.append(images.copy())

    collected = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=sigma, seed=16)
    sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=sigma, seed=16, sink=sink)
    assert max(calls) <= per_batch
    if walk.startswith("sliding") and per_batch > 1:
        # A block's last call carried a partial batch, and frames followed it.
        assert any(0 < size < per_batch for size in calls[:-1])
    assert np.array_equal(np.concatenate(frames), collected.frames)
    assert_matches_dense_oracle(collected, timing, schedule, patterns, obj, traj, sigma, 16)


@pytest.mark.parametrize("target", ["buckets", "images"])
def test_sink_gets_read_only_arrays(target):
    # The images are the walk's own frame batch: a sink writing into them
    # would change the frames that follow.
    spec, patterns, schedule = make_setup(n=7, k=1)
    timing = sim.TimingConfig(window_mode="sliding", total_duration=Fraction(2, 5))

    def sink(slot_lo, rows, frame_lo, images):
        assert not rows.flags.writeable and not images.flags.writeable
        (rows if target == "buckets" else images)[:] = 0

    with pytest.raises(ValueError, match="read-only"):
        sim.simulate(random_scene(7, 41), scene.Trajectory(), schedule, patterns, timing,
                     sink=sink)


def test_streamed_tumbling_run_at_n155_holds_the_batch_and_db_and_no_accumulator():
    import tracemalloc

    spec, patterns, schedule = make_setup(n=155, k=5)
    obj = scene.builtin_letter("T", 155, "white")
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(1), total_duration=Fraction(1),
    )

    def streamed_peak():
        tracemalloc.start()
        try:
            sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing, noise_sigma=1.0,
                         seed=3, sink=lambda *part: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed_peak()  # first-call caches
    frame = 155 * 155 * 3 * 8  # 0.55 MiB: the one-frame batch, and dB
    # Beside them: a block's buckets, ring and noise temporaries, the posed
    # scene and one product chunk, about 1.2 MiB, none growing with n.  A
    # float64 accumulator would add another frame.
    assert streamed_peak() <= 2 * frame + 1.5 * 2**20


def step_offsets(velocity, slot_dt, hold, n, slot_count):
    """Each slot's signed ``sim._pose_steps`` count on one axis."""
    steps = sim._pose_steps(velocity, hold or slot_dt, slot_dt, n, slot_count)
    assert steps.tolist() == sorted(steps.tolist()) and len(steps) <= n
    assert all(0 < s < slot_count for s in steps.tolist())
    sign = 1 if velocity > 0 else -1
    return (sign * np.searchsorted(steps, np.arange(slot_count), "right")).tolist()


def _velocities() -> st.SearchStrategy[Fraction]:
    return st.one_of(
        st.just(Fraction(0)),
        st.fractions(-40, 40, max_denominator=50),
        # Large numerators and denominators, slow and fast.
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**28)),
        st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(10**20, 10**24)),
    )


@settings(max_examples=120, deadline=None)
@given(
    velocity=st.tuples(_velocities(), _velocities()),
    slot_dt=st.one_of(
        st.fractions(Fraction(1, 10**6), 3, max_denominator=10**6),
        st.builds(Fraction, st.integers(1, 10**20), st.integers(1, 10**25)),
    ),
    slot_count=st.integers(1, 300),
    hold=st.one_of(
        st.none(),
        st.fractions(Fraction(1, 1000), 5, max_denominator=1000),
        st.builds(Fraction, st.integers(1, 10), st.just(10**7)),
    ),
    n=st.integers(1, 40),
)
def test_pose_steps_match_per_slot_offsets(velocity, slot_dt, slot_count, hold, n):
    traj = scene.Trajectory(mode="linear", velocity=velocity, hold_interval=hold)
    for axis, v in enumerate(velocity):
        want = [
            max(-n, min(n, traj.offset_at(s * slot_dt)[axis])) for s in range(slot_count)
        ]
        assert step_offsets(v, slot_dt, hold, n, slot_count) == want, axis


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_offset_runs_at_exact_ties(axis, sign):
    # v * s * slot_dt = s / 6: slots 3, 9, 15, ... land exactly on .5 and
    # round away from zero, so the pose changes at those slots.
    slot_dt = Fraction(1, 12)
    velocity = [Fraction(0), Fraction(0)]
    velocity[axis] = Fraction(2 * sign)
    traj = scene.Trajectory(mode="linear", velocity=tuple(velocity))
    assert sim._pose_steps(velocity[axis], slot_dt, slot_dt, 7, 20).tolist() == [3, 9, 15]
    assert sim._pose_steps(velocity[1 - axis], slot_dt, slot_dt, 7, 20).tolist() == []
    offsets = step_offsets(velocity[axis], slot_dt, None, 7, 20)
    assert [offsets[s] for s in (2, 3, 8, 9, 15)] == [0, sign, sign, 2 * sign, 3 * sign]
    assert offsets == [traj.offset_at(s * slot_dt)[axis] for s in range(20)]


def test_bucket_csv_format(tmp_path):
    trace = sim.BucketTrace(buckets=np.array([[1, 2, 3], [0, 0, 9]]), slot_dt=Fraction(1, 8))
    path = tmp_path / "b.csv"
    sim.write_bucket_csv(trace, path)
    assert path.read_text() == "t,slot,red,green,blue\n0.0,0,1,2,3\n0.125,1,0,0,9\n"


def bucket_csv_oracle(trace, first_slot=0):
    """``bucket.csv`` bytes from one f-string per row: the referee for the writer."""
    num, den = trace.slot_dt.numerator, trace.slot_dt.denominator
    header = "" if first_slot else "t,slot,red,green,blue\n"
    rows = "".join(
        f"{s * num / den!r},{s},{r},{g},{b}\n"
        for s, (r, g, b) in enumerate(trace.buckets.tolist(), first_slot)
    )
    return (header + rows).encode("ascii")


def _bucket_values():
    # Up to int64's top, past the largest noisy bucket (about 4.3e18 at
    # NOISE_SIGMA_MAX), with every digit-group edge; and, rarely, the
    # negative values that a library caller's trace may hold.
    edges = [10**e + d for e in range(0, 19) for d in (-1, 0)] + [2**62, 2**63 - 1]
    return st.one_of(
        st.integers(0, 300),
        st.sampled_from(edges),
        st.integers(0, 2**63 - 1),
        st.sampled_from([-1, -(10**4), -(2**63)]),
    )


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_bucket_values(), _bucket_values(), _bucket_values()), max_size=40),
    first_slot=st.one_of(
        st.just(0),
        st.integers(9_960, 10_000),  # slot numbers that gain a digit group
        st.integers(0, 10**6),
        st.integers(10**15, 10**18),
    ),
    slot_dt=st.one_of(
        st.fractions(Fraction(1, 10**6), 3, max_denominator=10**6),
        st.builds(Fraction, st.integers(1, 10**3), st.integers(10**28, 10**31)),  # e-28 times
        st.just(Fraction(1, 49 * 7**30)),
        st.builds(Fraction, st.integers(10**16, 10**20), st.integers(1, 7)),  # times >= 1e16
        # Denominators on either side of 2**53, where times leave the float path.
        st.builds(Fraction, st.integers(1, 10**3), st.integers(2**53 - 64, 2**53 + 64)),
        # Numerators with which s * num reaches 2**53 at slots 9,960 to 10,040.
        st.builds(Fraction, st.integers(2**53 // 10_040, 2**53 // 9_960), st.integers(9, 10**6)),
    ),
    split=st.integers(0, 40),
)
def test_bucket_csv_equals_per_row_oracle(tmp_path_factory, rows, first_slot, slot_dt, split):
    buckets = np.array(rows, dtype=np.int64).reshape(-1, 3)
    split = min(split, len(buckets))
    path = tmp_path_factory.mktemp("csv") / "bucket.csv"
    # Two calls, the second appending its rows after the first's.
    sim.write_bucket_csv(sim.BucketTrace(buckets[:split], slot_dt), path, first_slot)
    sim.write_bucket_csv(sim.BucketTrace(buckets[split:], slot_dt), path, first_slot + split)
    expected = bucket_csv_oracle(sim.BucketTrace(buckets, slot_dt), first_slot)
    assert path.read_bytes() == expected


def test_bucket_csv_over_several_blocks_equals_per_row_oracle(tmp_path):
    # Blocks of BLOCK_SLOTS rows each size their cells on their own values:
    # small and huge buckets in turn, slots crossing 9,999 -> 10,000.
    gen = np.random.default_rng(11)
    buckets = gen.integers(0, 5_000, size=(2 * sim.BLOCK_SLOTS + 17, 3))
    buckets[sim.BLOCK_SLOTS : 2 * sim.BLOCK_SLOTS] *= 10**14
    trace = sim.BucketTrace(buckets, Fraction(1, 3 * 7**5))
    path = tmp_path / "bucket.csv"
    sim.write_bucket_csv(trace, path, 5_000)
    assert path.read_bytes() == bucket_csv_oracle(trace, 5_000)
    sim.write_bucket_csv(trace, path)
    assert path.read_bytes() == bucket_csv_oracle(trace)


def time_cells_text(tmp_path, s_lo, s_hi, num, den):
    """The time cells, a comma after each, of ``write_bucket_csv``'s rows for slots ``s_lo .. s_hi-1``."""
    trace = sim.BucketTrace(np.zeros((s_hi - s_lo, 3), dtype=np.int64), Fraction(num, den))
    assert (trace.slot_dt.numerator, trace.slot_dt.denominator) == (num, den)
    path = tmp_path / "bucket.csv"
    sim.write_bucket_csv(trace, path, s_lo)
    rows = path.read_text("ascii").splitlines()[1 if s_lo == 0 else 0 :]
    return "".join(row.split(",")[0] + "," for row in rows)


def decimal_cells_text(times):
    cells = sim._decimal_cells(np.asarray(times, dtype=np.float64))
    return cells[cells != 0].tobytes().decode("ascii")


def repr_text(times):
    return "".join(repr(t) + "," for t in times)


@pytest.mark.parametrize("slot_dt,slot_count", [
    (Fraction(1, 5 * 155 * 155), 2 * 155 * 155),  # the noisy_155 benchmark run
    (Fraction(1, 5 * 35 * 35), 2 * 35 * 35),  # the sliding_motion benchmark run
])
def test_time_cells_equal_repr_of_every_benchmark_time(tmp_path, slot_dt, slot_count):
    num, den = slot_dt.numerator, slot_dt.denominator
    got = time_cells_text(tmp_path, 0, slot_count, num, den)
    assert got == repr_text(s * num / den for s in range(slot_count))


def test_time_cells_take_repr_only_outside_the_float_range(tmp_path, monkeypatch):
    # noisy_155: slot 0 (time 0.0) and slots 1-12 (below 1e-4, written in
    # scientific notation) take repr; the 48,037 others take the array path.
    calls, builtin = [], repr
    monkeypatch.setattr(sim, "repr", lambda x: calls.append(x) or builtin(x), raising=False)
    text = time_cells_text(tmp_path, 0, 2 * 155 * 155, 1, 5 * 155 * 155)
    assert len(calls) == 13 and calls == [s / 120125 for s in range(13)]
    assert text.startswith("0.0,8.324661810613944e-06,") and "9.989594172736733e-05,0.0001082206" in text


@pytest.mark.parametrize("s_lo,s_hi,num,den,fast", [
    (0, 3, 1, 10**4, [False, True, True]),  # 0.0, then 1e-4 itself
    (0, 3, 1, 10**4 + 1, [False, False, True]),  # 1 / 10001 < 1e-4
    (2**50 - 2, 2**50 + 1, 1, 1, [True, True, False]),  # 2**50 - 1, then 2**50
    # A block whose last s * num reaches 2**53 takes repr throughout.
    (2**53 // 3 - 2, 2**53 // 3 + 1, 3, 2**6, [True, True, True]),
    (2**53 // 3 - 1, 2**53 // 3 + 2, 3, 2**6, [False, False, False]),
    (10**13, 10**13 + 1, 1, 2**53 - 1, [True]),
    (10**13, 10**13 + 1, 1, 2**53, [False]),  # den reaches 2**53
])
def test_time_cells_edges_of_the_float_range(tmp_path, monkeypatch, s_lo, s_hi, num, den, fast):
    calls, builtin = [], repr
    monkeypatch.setattr(sim, "repr", lambda x: calls.append(x) or builtin(x), raising=False)
    times = [s * num / den for s in range(s_lo, s_hi)]
    assert time_cells_text(tmp_path, s_lo, s_hi, num, den) == repr_text(times)
    assert calls == [t for t, f in zip(times, fast) if not f]


def test_decimal_cells_equal_repr_on_random_floats():
    gen = np.random.default_rng(14)
    lo, hi = np.array([1e-4, 2.0**50]).view(np.int64)
    bits = gen.integers(lo, hi, 500_000, dtype=np.int64).view(np.float64)
    log_uniform = 10 ** gen.uniform(-4, math.log10(2**50), 520_000)
    log_uniform = log_uniform[(log_uniform >= 1e-4) & (log_uniform < 2**50)]
    for times in (bits, log_uniform):
        assert decimal_cells_text(times) == repr_text(times.tolist())


def test_decimal_cells_equal_repr_on_edge_floats():
    # Powers of two, whose lower half-interval is half as wide.
    powers = [2.0**e for e in range(-13, 50)]
    assert powers[0] > 1e-4 > powers[0] / 2
    # Neighbours of powers of ten, where floor(log10 t) may come out one off.
    tens = [10.0**j for j in range(-4, 16)]
    near = [math.nextafter(x, d) for x in tens for d in (0, math.inf)]
    near += [math.nextafter(x, d) for x in near for d in (0, math.inf)]
    near = [x for x in near if 1e-4 <= x]
    # The ends of the range, short decimals, and integers.
    edges = [1e-4, math.nextafter(2.0**50, 0), 2.0**50 - 1, 2.0**49, 0.1, 0.3, 0.5, 1.0, 100.0,
             123456789012345.0, 999999999999999.9, 0.00010000000000000002]
    times = powers + tens + near + edges
    assert decimal_cells_text(times) == repr_text(times)


def test_decimal_cells_round_exact_ties_to_even():
    # Floats whose exact decimal has 18 significant digits, the last a 5: two
    # 17-digit strings read back as each, equally near, and repr takes the even one.
    ties = [1 + j * 2**-17 for j in range(1, 2**12, 2)]
    ties += [1000 + j * 2**-14 for j in range(1, 2**12, 2)]
    ties += [2**40 + j * 2**-5 for j in range(1, 2**10, 2)]
    for t in ties:
        digits = format(Decimal(t), "f").replace(".", "").strip("0")
        assert len(digits) == 18 and digits[-1] == "5", t
        assert len(repr(t).replace(".", "").strip("0")) == 17, t
    assert decimal_cells_text(ties) == repr_text(ties)


@pytest.mark.parametrize("times", [
    # noisy_155's first block: slots 13 to 4,095 span ten binary exponents.
    np.arange(13, 4096) * 1.0 / 120125,
    # A block across 0.25 s, a power of two, with short decimals among its times.
    np.arange(4096 - 2048, 4096 + 2048) * 1.0 / 16384,
    np.arange(2**14 - 2048, 2**14 + 2048) * 3.0 / 196608,
    # Blocks next to 2**50: integers, and times a quarter apart.
    np.arange(2**50 - 4096, 2**50) * 1.0,
    (np.arange(2**52 - 4096, 2**52) * 1.0) / 4,
    # Runs across each power of ten in the range.
    *(np.arange(-700, 700) * 10.0**j / 1000 + 10.0**j for j in range(-3, 15)),
], ids=lambda times: f"{times[0]:.4g}..{times[-1]:.4g}")
def test_decimal_cells_equal_repr_on_sorted_runs(times):
    assert np.all(np.diff(times) > 0) and 1e-4 <= times[0] and times[-1] < 2**50
    assert decimal_cells_text(times) == repr_text(times.tolist())


def int_cells_text(values, sep, dtype=np.int64):
    cells = sim._int_cells(np.array(values, dtype=dtype), sep)
    return cells[cells != 0].tobytes().decode("ascii")


@pytest.mark.parametrize("sep", [ord(c) for c in " ,\nc."], ids=repr)
def test_int_cells_equal_str_over_the_int64_range(sep):
    # Every separator the exports use: frame .txt spaces, csv commas and
    # newlines, report.csv's "r0c0" and the point of bucket.csv times.
    gen = np.random.default_rng(27)
    edges = [-(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2, 0, -1, 1]
    edges += [sign * (10 ** (4 * j) + d) for j in range(5) for d in (-1, 0, 1) for sign in (1, -1)]
    edges += [10**18 - 1, 10**18, -(10**18) + 1]
    spread = (np.sign(gen.normal(size=3000)) * 10 ** gen.uniform(0, 18.9, 3000)).astype(np.int64)
    uniform = gen.integers(-(2**63), 2**63 - 1, 3000, dtype=np.int64, endpoint=True)
    for values in (edges, spread.tolist(), uniform.tolist(), [-(2**63)], [9_999], [0], []):
        assert int_cells_text(values, sep) == "".join(f"{v}{chr(sep)}" for v in values)
    # Nonnegative arrays, as frames and buckets are, and report.csv's uint64 columns.
    for values in ([0, 7, 10_000, 99_999_999], [2**64 - 1, 0, 10**19], [0]):
        dtype = np.uint64 if max(values) >= 2**63 else np.int64
        assert int_cells_text(values, sep, dtype) == "".join(f"{v}{chr(sep)}" for v in values)
    assert sim._int_cells(np.zeros(0, dtype=np.int64), sep).shape[0] == 0


@settings(max_examples=60, deadline=None)
@given(
    nk=st.sampled_from([(3, 1), (6, 2), (7, 1)]),
    order_mode=st.sampled_from(disk.ORDER_MODES),
    window_mode=st.sampled_from(sim.WINDOW_MODES),
    period=st.fractions(Fraction(1, 1000), Fraction(7), max_denominator=1000),
    # Window and duration in revolutions: windows range from shorter than
    # one slot to longer than the whole duration.
    window_revs=st.fractions(Fraction(1, 100), Fraction(5), max_denominator=100),
    duration_revs=st.fractions(Fraction(1, 50), Fraction(4), max_denominator=50),
    motion=st.sampled_from(["static", "linear", "held"]),
    shift_per_rev=st.tuples(
        st.fractions(-3, 3, max_denominator=7), st.fractions(-3, 3, max_denominator=7)
    ),
    hold_revs=st.fractions(Fraction(1, 50), Fraction(2), max_denominator=50),
    sigma=st.sampled_from([0.0, 3.5]),
    seed=st.integers(0, 2**16),
)
def test_windows_equal_direct_sums(
    nk, order_mode, window_mode, period, window_revs, duration_revs, motion,
    shift_per_rev, hold_revs, sigma, seed,
):
    from ghostdisk import rng

    spec, patterns, schedule = make_setup(*nk, order_mode=order_mode)
    n = spec.n
    obj = random_scene(n, seed)
    window, duration = window_revs * period, duration_revs * period
    if motion == "static":
        traj = scene.Trajectory()
    else:
        velocity = (shift_per_rev[0] / period, shift_per_rev[1] / period)
        hold = hold_revs * period if motion == "held" else None
        traj = scene.Trajectory(mode="linear", velocity=velocity, hold_interval=hold)
    timing = sim.TimingConfig(
        revolution_period=period,
        persistence_window=window,
        window_mode=window_mode,
        total_duration=duration,
    )
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=sigma, seed=seed)

    # Buckets: every slot starting before the end, posed at its start time.
    slot_dt = period / (n * n)
    times = []
    while len(times) * slot_dt < duration:
        times.append(len(times) * slot_dt)
    buckets = result.trace.buckets
    assert result.trace.slot_dt == slot_dt
    assert buckets.shape == (len(times), 3) and buckets.dtype == np.int64
    masks = [
        disk.place_pattern(spec, schedule.slots[s % (n * n)], patterns) for s in range(len(times))
    ]
    for s, t in enumerate(times):
        pose = scene.translate_image(obj.pixels, *traj.offset_at(t))
        clean = bucket_value(masks[s], pose).tolist()
        for ch in range(3):
            noise = math.floor(sigma * rng.gaussian(seed, 3 * s + ch) + 0.5) if sigma else 0
            assert buckets[s, ch] == max(0, clean[ch] + noise)

    # Windows: tumbling windows tile the duration, sliding ones start at each
    # slot; only windows that end inside the duration are emitted.
    if window_mode == "tumbling":
        starts = [w * window for w in range(int(duration / window))]
    else:
        starts = [t for t in times if t + window <= duration]
    spans = frame_spans(timing, slot_dt)
    assert spans == [(t, t + window) for t in starts]
    assert result.frames.shape == (len(starts), n, n, 3)
    assert result.frames.dtype == np.int64
    contributions = [slot_contribution(masks[s], buckets[s]) for s in range(len(times))]
    for frame, (start, end) in zip(result.frames, spans):
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, end)
        expected = sum(contributions[lo:hi], np.zeros((n, n, 3), dtype=np.int64))
        assert np.array_equal(frame, expected)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bucket.csv"
        sim.write_bucket_csv(result.trace, path)
        rows = path.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [repr(float(t)) for t in times]
