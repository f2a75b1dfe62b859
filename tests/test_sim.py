"""Clocked measurement: buckets, windows, noise, overflow bounds, exports."""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
        assert sim.bucket_value(mask, frame).tolist() == expected


def test_slot_contribution_shape_and_support():
    spec, patterns, schedule = make_setup()
    mask = disk.place_pattern(spec, schedule.slots[3], patterns)
    contrib = sim.slot_contribution(mask, np.array([2, 5, 7]))
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
    assert np.array_equal(result.frames[0].image, oracle)


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
        acc += sim.slot_contribution(mask, bucket)
    assert np.array_equal(result.frames[0].image, acc)


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
    for w, frame in enumerate(result.frames):
        assert frame.start == w * period
        assert frame.end == (w + 1) * period
        assert np.array_equal(frame.image, result.frames[0].image)


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
            bucket = sim.bucket_value(mask, obj.pixels)
            acc += sim.slot_contribution(mask, bucket)
        assert np.array_equal(frame.image, acc)


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
    assert result.frames == ()
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
            expected = sim.slot_contribution(mask, sim.bucket_value(mask, obj.pixels))
            assert np.array_equal(frame.image, expected)
        else:
            assert not frame.image.any()


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
    for i, frame in enumerate(result.frames):
        assert frame.start == Fraction(i)
        assert frame.end == Fraction(i + 4)
        acc = np.zeros((3, 3, 3), dtype=np.int64)
        for s in range(i, i + 4):
            mask = disk.place_pattern(spec, schedule.slots[s % 9], patterns)
            acc += sim.slot_contribution(mask, sim.bucket_value(mask, obj.pixels))
        assert np.array_equal(frame.image, acc)


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
    assert result.frames == ()


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
        assert np.array_equal(frame.image, oracle.reshape(7, 7, 3))


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
    (image,) = result.images
    expected = np.zeros((7, 7, 3), dtype=object)
    for s, bucket in enumerate(result.trace.buckets.tolist()):
        mask = disk.place_pattern(spec, schedule.slots[s % 49], patterns)
        expected += mask[:, :, None].astype(object) * np.array(bucket, dtype=object)
    assert image.min() >= 0 and image.tolist() == expected.tolist()
    with pytest.raises(ValueError, match="past int64"):
        sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing, noise_sigma=1.01 * sigma)


def test_projected_window_near_int64_bound_is_exact():
    # Windows of 7/2 revolutions at n = 35 take the pattern-domain update:
    # three whole revolutions summed per position and a partial one.  A
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
    for frame in result.frames:
        expected = [[[0] * 3 for _ in range(35)] for _ in range(35)]
        for s in range(math.ceil(frame.start / slot_dt), math.ceil(frame.end / slot_dt)):
            for r, c in lit[s % per_rev]:
                for ch in range(3):
                    expected[r][c][ch] += buckets[s][ch]
        assert frame.image.tolist() == expected, frame.start
    assert result.images.max() > 2**59
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
            acc += sim.slot_contribution(mask, sim.bucket_value(mask, pose))
        assert np.array_equal(frame.image, acc), w


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
    assert np.array_equal(a.frames[0].image, b.frames[0].image)
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
    assert np.array_equal(a.frames[0].image, b.frames[0].image)


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
        clean = sim.bucket_value(masks[s % 36], poses[offset]).tolist()
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
    own = result.images.nbytes + result.trace.buckets.nbytes
    # Block temporaries only: one 24,025 x 31 int64 array, a per-slot
    # expansion of the schedule, alone takes about 6 MB.
    assert peak - own <= 14 * 2**20


def window_pass(schedule, matrix, timing, buckets):
    """The frames of ``sim._windows`` fed a finished trace in blocks."""
    n = schedule.spec.n
    slot_dt = timing.slot_duration(n * n)
    out = np.empty((sim.window_grid(timing, slot_dt)[1], n, n, 3), dtype=np.int64)
    blocks = [
        (lo, buckets[lo : lo + sim.BLOCK_SLOTS]) for lo in range(0, len(buckets), sim.BLOCK_SLOTS)
    ]
    for _, _, frame_lo, images in sim._windows(schedule, matrix, timing, blocks):
        out[frame_lo : frame_lo + len(images)] = images
    return out


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
        assert len(result.frames) == len(result.trace.buckets) == 0
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


def assert_matches_dense_oracle(result, schedule, patterns, obj, traj, sigma, seed):
    """Every bucket and frame against rows of the dense measurement matrix."""
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
    for frame in result.frames:
        lo, hi = math.ceil(frame.start / slot_dt), math.ceil(frame.end / slot_dt)
        expected = rows[lo:hi].T @ buckets[lo:hi]
        assert np.array_equal(frame.image.reshape(-1, 3), expected), frame.start


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
        assert_matches_dense_oracle(result, schedule, patterns, obj, traj, 3.0, 8)


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
    assert_matches_dense_oracle(result, schedule, patterns, obj, traj, 2.0, 9)


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
    assert_matches_dense_oracle(result, schedule, patterns, obj, traj, 2.0, 10)


def scatter_frames(schedule, matrix, buckets, frames, slot_dt):
    """Each frame summed from zero slot by slot with ``np.add.at``: a referee
    for the pattern-domain window sums that shares none of their steps."""
    spec = schedule.spec
    per_rev = spec.slots_per_revolution
    out = np.zeros((len(frames), spec.n, spec.k, spec.n_cell, 3), dtype=np.int64)
    for acc, frame in zip(out, frames):
        lo, hi = math.ceil(frame.start / slot_dt), math.ceil(frame.end / slot_dt)
        for b_lo in range(lo, hi, sim.BLOCK_SLOTS):
            b_hi = min(b_lo + sim.BLOCK_SLOTS, hi)
            j = np.arange(b_lo, b_hi) % per_rev
            terms = matrix[schedule.pattern_index[j]][:, :, None] * buckets[b_lo:b_hi, None, :]
            np.add.at(acc, (schedule.rows[j], schedule.cells[j]), terms)
    return out.reshape(len(frames), spec.n, spec.n, 3)


@pytest.mark.parametrize("order_mode", disk.ORDER_MODES)
def test_pattern_domain_switch_changes_no_bytes_at_n155(order_mode):
    # Windows of 7/3 revolutions of 24,025 slots sum whole revolutions in
    # several BLOCK_SLOTS position blocks, over moving poses, and project
    # every cell in several chunks.
    spec, patterns, schedule = make_setup(n=155, k=5, order_mode=order_mode)
    obj = scene.builtin_letter("J", 155, "white")
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(7), Fraction(-3)))
    timing = sim.TimingConfig(
        revolution_period=Fraction(1), persistence_window=Fraction(7, 3),
        total_duration=Fraction(5),
    )
    result = sim.simulate(obj, traj, schedule, patterns, timing, noise_sigma=2.0, seed=3)
    assert len(result.images) == 2
    direct = scatter_frames(
        schedule, patterns.patterns, result.trace.buckets, result.frames, result.trace.slot_dt
    )
    assert np.array_equal(result.images, direct)


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
    direct = scatter_frames(schedule, patterns.patterns, buckets, result.frames, slot_dt)
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
        (result.frames[0], dataclasses.replace(result.frames[0])),
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
    frame = sim.ExposureFrame(start=Fraction(0), end=Fraction(1), image=image)
    path = tmp_path / "f.ppm"
    sim.write_frame_ppm(frame.image[None], [path])
    out = pnm.read_ppm(path)
    # Peak 6 maps to 255; 3 -> 128 (127.5 rounds up); 1 -> 43 (42.5 rounds up).
    assert out[0, 0].tolist() == [255, 128, 0]
    assert out[1, 1].tolist() == [43, 43, 43]


def test_zero_frame_ppm_stays_zero(tmp_path):
    from ghostdisk import pnm

    frame = sim.ExposureFrame(
        start=Fraction(0), end=Fraction(1), image=np.zeros((3, 3, 3), dtype=np.int64)
    )
    path = tmp_path / "z.ppm"
    sim.write_frame_ppm(frame.image[None], [path])
    assert not pnm.read_ppm(path).any()


def test_frame_txt_round_trip(tmp_path):
    gen = np.random.default_rng(16)
    image = gen.integers(0, 10_000, size=(5, 5, 3)).astype(np.int64)
    frame = sim.ExposureFrame(start=Fraction(0), end=Fraction(1), image=image)
    path = tmp_path / "f.txt"
    sim.write_frame_txt(frame.image[None], [path])
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
    (image,) = result.images
    assert image.max() > 2**63 // 510
    path = tmp_path / "f.ppm"
    sim.write_frame_ppm(result.images, [path])
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


def test_frame_images_are_views_of_one_array():
    spec, patterns, schedule = make_setup()
    timing = sim.TimingConfig(
        revolution_period=Fraction(1, 5),
        persistence_window=Fraction(1, 5),
        window_mode="sliding",
        total_duration=Fraction(2, 5),
    )
    result = sim.simulate(random_scene(6, 3), scene.Trajectory(), schedule, patterns, timing)
    assert result.images.shape == (len(result.frames), 6, 6, 3)
    for frame, image in zip(result.frames, result.images):
        assert np.shares_memory(frame.image, result.images)
        assert np.array_equal(frame.image, image)


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
        clean = sim.bucket_value(masks[s], pose).tolist()
        for ch in range(3):
            noise = math.floor(sigma * rng.gaussian(seed, 3 * s + ch) + 0.5) if sigma else 0
            assert buckets[s, ch] == max(0, clean[ch] + noise)

    # Windows: tumbling windows tile the duration, sliding ones start at each
    # slot; only windows that end inside the duration are emitted.
    if window_mode == "tumbling":
        starts = [w * window for w in range(int(duration / window))]
    else:
        starts = [t for t in times if t + window <= duration]
    assert [(f.start, f.end) for f in result.frames] == [(t, t + window) for t in starts]
    contributions = [sim.slot_contribution(masks[s], buckets[s]) for s in range(len(times))]
    for frame in result.frames:
        lo = bisect.bisect_left(times, frame.start)
        hi = bisect.bisect_left(times, frame.end)
        expected = sum(contributions[lo:hi], np.zeros((n, n, 3), dtype=np.int64))
        assert frame.image.dtype == np.int64
        assert np.array_equal(frame.image, expected)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bucket.csv"
        sim.write_bucket_csv(result.trace, path)
        rows = path.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [repr(float(t)) for t in times]
