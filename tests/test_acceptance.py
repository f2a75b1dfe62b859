"""Acceptance suite: one test per shipped guarantee, all equalities exact.

Each test prints through conftest.py as one PASS/FAIL line in the terminal
summary.  Where a runtime bound is part of the guarantee it is asserted
with a wall-clock measurement around the core work.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from ghostdisk import disk, hadamard, metrics, scene, sim
from ghostdisk.cli import main as cli_main

PERIOD = Fraction(1, 5)

# The reduced order-8 pattern set, worked out by hand from the doubling
# construction (map -1 -> 0, drop the first row and column).
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


def setup_for(n, k, order_mode="pattern_major"):
    spec = disk.make_spec(n, k)
    patterns = hadamard.reduce_matrix(hadamard.sylvester_hadamard(spec.n_cell + 1))
    schedule = disk.build_schedule(spec, order_mode)
    return spec, patterns, schedule


def one_revolution_timing():
    return sim.TimingConfig(
        revolution_period=PERIOD,
        persistence_window=PERIOD,
        window_mode="tumbling",
        total_duration=PERIOD,
    )


def run_one_revolution(obj, schedule, patterns, **kwargs):
    return sim.simulate(
        obj, scene.Trajectory(), schedule, patterns, one_revolution_timing(), **kwargs
    )


def test_c01_reduced_gram_structure():
    start = time.perf_counter()
    for order in (4, 8, 16, 32, 64):
        reduced = hadamard.reduce_matrix(hadamard.sylvester_hadamard(order))
        n = order - 1
        g = hadamard.gram(reduced)
        expected = np.full((n, n), order // 4 - 1, dtype=np.int64)
        np.fill_diagonal(expected, order // 2 - 1)
        assert np.array_equal(g, expected)
        coeffs = hadamard.gram_coefficients(n)
        assert (coeffs.c_max, coeffs.c_min) == (order // 2 - 1, order // 4 - 1)
    assert time.perf_counter() - start < 1.0


def test_c02_order8_reduction_bits():
    reduced = hadamard.reduce_matrix(hadamard.sylvester_hadamard(8))
    assert reduced.pattern_length == 7
    assert np.array_equal(reduced.patterns, REDUCED_8)


def test_c03_pinhole_contrast_is_half():
    start = time.perf_counter()
    spec, patterns, schedule = setup_for(35, 5)
    pixels = np.zeros((35, 35, 3), dtype=np.uint8)
    pixels[17, 17, :] = 255  # one lit pixel, lands in cell (17, 2)
    result = run_one_revolution(scene.SceneObject(pixels=pixels), schedule, patterns)
    frame = result.frames[0]
    row, cols = metrics.cell_slice(spec, 17, 2)
    for channel in range(3):
        assert metrics.measured_contrast(frame[row, cols, channel]) == Fraction(1, 2)
        assert metrics.cell_report_contrast(frame, spec, 17, 2, channel, 1) == Fraction(1, 2)
    assert time.perf_counter() - start < 1.0


def test_c04_in_cell_contrast_formula_exact():
    start = time.perf_counter()
    timing = one_revolution_timing()
    checks = 0
    for n in (7, 15, 31):
        spec, patterns, schedule = setup_for(n, 1)
        for n_obj in range(1, n + 1):
            expected = metrics.predicted_contrast_reduced(n, n_obj)
            for rep in range(50):
                gen = np.random.default_rng(10_000 * n + 100 * n_obj + rep)
                row = int(gen.integers(0, n))
                cols = gen.choice(n, size=n_obj, replace=False)
                pixels = np.zeros((n, n, 3), dtype=np.uint8)
                pixels[row, cols, :] = 255
                obj = scene.SceneObject(pixels=pixels)
                result = sim.simulate(obj, scene.Trajectory(), schedule, patterns, timing)
                got = metrics.cell_report_contrast(
                    result.frames[0], spec, row, 0, 0, n_obj
                )
                assert got == expected, (n, n_obj, rep)
                checks += 1
    assert checks == 50 * (7 + 15 + 31)
    assert time.perf_counter() - start < 10.0


def test_c05_full_cell_formula_identity():
    for n in (3, 7, 15, 31, 63, 127):
        assert metrics.predicted_contrast_cell(n) == metrics.predicted_contrast_reduced(n, n)
    assert metrics.predicted_contrast_cell(7) == Fraction(1, 8)


def test_c06_streaming_equals_matrix_oracle():
    start = time.perf_counter()
    for order_mode in ("pattern_major", "part_major"):
        spec, patterns, schedule = setup_for(35, 5, order_mode)
        matrix = metrics.build_measurement_matrix(schedule, patterns)
        for rep in range(20):
            gen = np.random.default_rng(500 + rep)
            pixels = gen.integers(0, 256, size=(35, 35, 3), dtype=np.uint8)
            obj = scene.SceneObject(pixels=pixels)
            result = run_one_revolution(obj, schedule, patterns)
            oracle = metrics.oracle_reconstruct(matrix, pixels.reshape(-1, 3).astype(np.int64))
            assert np.array_equal(result.frames[0], oracle.reshape(35, 35, 3))
    assert time.perf_counter() - start < 5.0


def test_c07_letters_recovered_exactly():
    start = time.perf_counter()
    spec, patterns, schedule = setup_for(35, 5)
    for letter, color in (("X", "red"), ("J", "green"), ("T", "blue"), ("U", "white")):
        obj = scene.builtin_letter(letter, 35, color)
        result = run_one_revolution(obj, schedule, patterns)
        recovered = metrics.affine_invert(result.frames[0], spec, patterns)
        assert np.array_equal(recovered, obj.pixels.astype(np.int64)), (letter, color)
    assert time.perf_counter() - start < 2.0


def test_c08_schedule_completeness():
    for n, k in ((35, 5), (3, 1), (21, 3)):
        spec, patterns, schedule = setup_for(n, k)
        assert len(schedule.slots) == n * n
        triples = {(s.row, s.cell, s.pattern_index) for s in schedule.slots}
        assert len(triples) == n * n
        assert triples == {
            (r, c, p) for r in range(n) for c in range(k) for p in range(spec.n_cell)
        }
        matrix = metrics.build_measurement_matrix(schedule, patterns)
        coeffs = hadamard.gram_coefficients(spec.n_cell)
        assert np.all(matrix.sum(axis=0) == coeffs.c_max)
    # A cell width whose pattern order does not exist is rejected outright.
    try:
        disk.make_spec(24, 3)
    except ValueError:
        pass
    else:
        raise AssertionError("(24, 3) must be rejected: cell width 8 has no pattern order")


def test_c09_point_scan_degeneracy():
    patterns = hadamard.reduce_matrix(hadamard.sylvester_hadamard(4))
    assert patterns.pattern_length == 3
    assert np.all(patterns.patterns.sum(axis=1) == 1)
    for n_obj in (1, 2, 3):
        assert metrics.predicted_contrast_reduced(3, n_obj) == 1


def test_c10_moving_object_windows():
    start = time.perf_counter()
    spec, patterns, schedule = setup_for(35, 5)
    obj = scene.builtin_letter("U", 35, "white")
    trajectory = scene.Trajectory(
        mode="linear",
        velocity=(Fraction(5), Fraction(5)),
        hold_interval=PERIOD,
    )
    timing = sim.TimingConfig(
        revolution_period=PERIOD,
        persistence_window=PERIOD,
        window_mode="tumbling",
        total_duration=10 * PERIOD,
    )
    result = sim.simulate(obj, trajectory, schedule, patterns, timing)
    assert len(result.frames) == 10
    step, _ = sim.window_grid(timing, result.trace.slot_dt)
    assert step == PERIOD  # frame w starts at w * PERIOD
    matrix = metrics.build_measurement_matrix(schedule, patterns)
    for w, frame in enumerate(result.frames):
        shifted = scene.translate_image(obj.pixels, w, w).astype(np.int64)
        oracle = metrics.oracle_reconstruct(matrix, shifted.reshape(-1, 3))
        assert np.array_equal(frame, oracle.reshape(35, 35, 3)), w
    assert time.perf_counter() - start < 5.0


def test_c11_byte_identical_outputs(tmp_path, monkeypatch):
    sim_args = [
        "simulate",
        "--n", "35", "--k", "5",
        "--letter", "J", "--color", "green",
        "--noise-sigma", "2.0", "--seed", "9",
        "--out", "run",
    ]
    trees = []
    for name in ("one", "two"):
        where = tmp_path / name
        where.mkdir()
        monkeypatch.chdir(where)
        assert cli_main(sim_args) == 0
        assert cli_main(["report", "--run-dir", "run"]) == 0
        run = where / "run"
        trees.append({p.name: p.read_bytes() for p in sorted(run.iterdir())})
    assert trees[0] == trees[1]

    # Parallel workers must not change any result byte.
    parallel_dir = tmp_path / "par"
    parallel_dir.mkdir()
    monkeypatch.chdir(parallel_dir)
    assert cli_main(sim_args[:-2] + ["--workers", "6", "--out", "run"]) == 0
    assert cli_main(["report", "--run-dir", "run"]) == 0
    parallel = {
        p.name: p.read_bytes() for p in sorted((parallel_dir / "run").iterdir())
    }
    for name, payload in trees[0].items():
        if name != "manifest.txt":  # the manifest records the worker count
            assert parallel[name] == payload, name

    # Drawing export is a pure function of the layout.
    spec, patterns, schedule = setup_for(35, 5)
    layout = disk.disk_layout(schedule, patterns)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    disk.export_layout_svg(layout, a)
    disk.export_layout_svg(layout, b)
    assert a.read_bytes() == b.read_bytes()
