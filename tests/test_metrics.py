"""Measurement matrix, contrast formulas, measured contrast, inversion."""

from __future__ import annotations

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ghostdisk import disk, hadamard, metrics, scene, sim


def make_setup(n=6, k=2, order_mode="pattern_major"):
    spec = disk.make_spec(n, k)
    patterns = hadamard.reduce_matrix(hadamard.sylvester_hadamard(spec.n_cell + 1))
    schedule = disk.build_schedule(spec, order_mode)
    return spec, patterns, schedule


def test_measurement_matrix_structure():
    spec, patterns, schedule = make_setup()
    matrix = metrics.build_measurement_matrix(schedule, patterns)
    assert matrix.shape == (36, 36)
    # Each row's weight is its pattern's weight; each column is lit c_max times.
    coeffs = hadamard.gram_coefficients(3)
    assert np.all(matrix.sum(axis=1) == np.array(
        [patterns.patterns[s.pattern_index].sum() for s in schedule.slots]
    ))
    assert np.all(matrix.sum(axis=0) == coeffs.c_max)


def test_measurement_matrix_is_block_diagonal_gram():
    spec, patterns, schedule = make_setup()
    matrix = metrics.build_measurement_matrix(schedule, patterns)
    gram_full = matrix.T @ matrix
    coeffs = hadamard.gram_coefficients(spec.n_cell)
    n_cell = spec.n_cell
    for p in range(36):
        for q in range(36):
            same_cell = (p // n_cell) == (q // n_cell)
            if not same_cell:
                assert gram_full[p, q] == 0
            elif p == q:
                assert gram_full[p, q] == coeffs.c_max
            else:
                assert gram_full[p, q] == coeffs.c_min


def test_measurement_matrix_covers_one_revolution_in_either_order():
    # A schedule holds only its partition and slot order, so none can be cut
    # to part of a revolution: each order stacks the same n^2 distinct masks.
    spec, patterns, schedule = make_setup()
    with pytest.raises(TypeError):
        disk.ScanSchedule(spec, "pattern_major", rows=schedule.rows[:-1])
    a = metrics.build_measurement_matrix(schedule, patterns)
    b = metrics.build_measurement_matrix(disk.build_schedule(spec, "part_major"), patterns)
    assert len(np.unique(a, axis=0)) == spec.slots_per_revolution
    assert np.array_equal(np.unique(a, axis=0), np.unique(b, axis=0))


def test_oracle_reconstruct_shapes():
    spec, patterns, schedule = make_setup()
    matrix = metrics.build_measurement_matrix(schedule, patterns)
    flat = np.arange(36, dtype=np.int64)
    single = metrics.oracle_reconstruct(matrix, flat)
    assert single.shape == (36,)
    rgb = metrics.oracle_reconstruct(matrix, np.stack([flat, flat, flat], axis=1))
    assert rgb.shape == (36, 3)
    assert np.array_equal(rgb[:, 0], single)


# Hand-computed values: (1+N)/(1+N+2*n_obj*(N-3)).
FORMULA_CASES = [
    (7, 1, Fraction(1, 2)),
    (7, 2, Fraction(1, 3)),
    (7, 7, Fraction(1, 8)),
    (15, 1, Fraction(2, 5)),
    (15, 15, Fraction(16, 376)),
    (31, 1, Fraction(32, 88)),
    (3, 1, Fraction(1)),
    (3, 2, Fraction(1)),
    (3, 3, Fraction(1)),
]


@pytest.mark.parametrize("n,n_obj,expected", FORMULA_CASES)
def test_predicted_contrast_reduced_cases(n, n_obj, expected):
    assert metrics.predicted_contrast_reduced(n, n_obj) == expected


def test_predicted_contrast_part_allows_any_length():
    assert metrics.predicted_contrast_part(35, 1) == Fraction(36, 100)
    assert metrics.predicted_contrast_part(35, 35) == Fraction(36, 36 + 2 * 35 * 32)
    assert metrics.predicted_contrast_part(5, 2) == Fraction(6, 14)
    with pytest.raises(ValueError):
        metrics.predicted_contrast_part(2, 1)
    with pytest.raises(ValueError):
        metrics.predicted_contrast_part(35, 0)
    with pytest.raises(ValueError):
        metrics.predicted_contrast_part(35, 36)


def test_predicted_contrast_reduced_validates():
    with pytest.raises(ValueError, match="not supported"):
        metrics.predicted_contrast_reduced(35, 1)
    with pytest.raises(ValueError, match="n_obj"):
        metrics.predicted_contrast_reduced(7, 0)
    with pytest.raises(ValueError, match="n_obj"):
        metrics.predicted_contrast_reduced(7, 8)


@pytest.mark.parametrize("n", [3, 7, 15, 31, 63])
def test_cell_formula_is_reduced_formula_at_full_cell(n):
    assert metrics.predicted_contrast_cell(n) == metrics.predicted_contrast_reduced(n, n)


def contrast_from_gram(pattern_length, n_obj):
    """Contrast built directly from the Gram extrema, for cross-checking."""
    coeffs = hadamard.gram_coefficients(pattern_length)
    bright = coeffs.c_max + (n_obj - 1) * coeffs.c_min
    dark = n_obj * coeffs.c_min
    if bright + dark == 0:
        return Fraction(0)
    return Fraction(bright - dark, bright + dark)


@pytest.mark.parametrize("n", [3, 7, 15, 31])
def test_gram_construction_agrees_with_formula(n):
    for n_obj in range(1, n + 1):
        assert contrast_from_gram(n, n_obj) == metrics.predicted_contrast_reduced(n, n_obj)


def test_measured_contrast_basics():
    assert metrics.measured_contrast([0, 0, 0]) == 0
    assert metrics.measured_contrast([5, 5]) == 0
    assert metrics.measured_contrast([9, 7]) == Fraction(2, 16)
    assert metrics.measured_contrast([0, 1]) == 1
    with pytest.raises(ValueError, match="empty"):
        metrics.measured_contrast([])
    with pytest.raises(ValueError, match="nonnegative"):
        metrics.measured_contrast([-1, 2])


def test_cell_slice():
    spec = disk.make_spec(6, 2)
    row, cols = metrics.cell_slice(spec, 4, 1)
    assert row == 4
    assert (cols.start, cols.stop) == (3, 6)
    with pytest.raises(ValueError, match="out of range"):
        metrics.cell_slice(spec, 6, 0)


def one_revolution_frame(spec, patterns, schedule, pixels):
    matrix = metrics.build_measurement_matrix(schedule, patterns)
    flat = pixels.reshape(-1, pixels.shape[-1]).astype(np.int64)
    return metrics.oracle_reconstruct(matrix, flat).reshape(pixels.shape)


def test_cell_report_contrast_partial_and_full():
    spec, patterns, schedule = make_setup(n=7, k=1)
    pixels = np.zeros((7, 7, 3), dtype=np.uint8)
    pixels[2, 0:3, 0] = 255                     # 3 of 7 pixels lit in red
    pixels[5, :, 1] = 255                       # full cell in green
    frame = one_revolution_frame(spec, patterns, schedule, pixels)
    partial = metrics.cell_report_contrast(frame, spec, 2, 0, 0, 3)
    assert partial == metrics.predicted_contrast_reduced(7, 3)
    full = metrics.cell_report_contrast(frame, spec, 5, 0, 1, 7)
    assert full == metrics.predicted_contrast_cell(7) == Fraction(1, 8)
    empty = metrics.cell_report_contrast(frame, spec, 0, 0, 2, 0)
    assert empty == 0


def gram_ratio_full_cell_oracle(n_cell, peak):
    # Estimate a fully lit cell's dark level from its measured peak.
    coeffs = hadamard.gram_coefficients(n_cell)
    bright = Fraction(peak)
    dark = bright * Fraction(
        n_cell * coeffs.c_min, coeffs.c_max + (n_cell - 1) * coeffs.c_min
    )
    if bright + dark == 0:
        return Fraction(0)
    return (bright - dark) / (bright + dark)


@pytest.mark.parametrize("n", [3, 7, 15, 31, 63])
def test_full_cell_report_is_gram_ratio_estimate(n):
    assert metrics.predicted_contrast_cell(n) == Fraction(1 + n, 1 + n * (2 * n - 5))
    spec = disk.make_spec(n, 1)
    frame = np.zeros((n, n, 3), dtype=np.int64)
    for peak in (0, 1, 5, -3, 10**18, -(10**18)):
        frame[0, :, 0] = peak - np.arange(n)
        got = metrics.cell_report_contrast(frame, spec, 0, 0, 0, n)
        assert got == gram_ratio_full_cell_oracle(n, peak)


def test_affine_invert_recovers_random_objects():
    spec, patterns, schedule = make_setup()
    gen = np.random.default_rng(2)
    for _ in range(5):
        pixels = gen.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        frame = one_revolution_frame(spec, patterns, schedule, pixels)
        recovered = metrics.affine_invert(frame, spec, patterns)
        assert np.array_equal(recovered, pixels.astype(np.int64))


def test_affine_invert_scales_with_revolution_count():
    spec, patterns, schedule = make_setup()
    gen = np.random.default_rng(3)
    pixels = gen.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
    frame = one_revolution_frame(spec, patterns, schedule, pixels)
    recovered = metrics.affine_invert(3 * frame, spec, patterns)
    assert np.array_equal(recovered, 3 * pixels.astype(np.int64))


def test_affine_invert_rejects_non_correlation_frames():
    spec, patterns, schedule = make_setup(n=7, k=1)
    pixels = np.zeros((7, 7, 3), dtype=np.uint8)
    pixels[0, 0, 0] = 255
    frame = one_revolution_frame(spec, patterns, schedule, pixels)
    frame[0, 0, 0] += 1
    with pytest.raises(ValueError, match="not"):
        metrics.affine_invert(frame, spec, patterns)
    with pytest.raises(ValueError, match=r"cell \(row=0, cell=0\) does not sum"):
        metrics.affine_invert(frame, spec, patterns)
    # The first failing cell in row-major order is named, whichever check fails.
    frame[0, 0, 0] -= 1
    frame[4, 2, 1] += 1                       # row 4: sum no longer a multiple
    frame[2, 1, 2] += 1                       # row 2: same sum, not affine
    frame[2, 5, 2] -= 1
    with pytest.raises(ValueError, match=r"cell \(row=2, cell=0\) values are not an exact"):
        metrics.affine_invert(frame, spec, patterns)
    frame[2, 1, 2] -= 1
    frame[2, 5, 2] += 1
    with pytest.raises(ValueError, match=r"cell \(row=4, cell=0\) does not sum"):
        metrics.affine_invert(frame, spec, patterns)
    # The same checks hold for a 2-D gray frame.
    with pytest.raises(ValueError, match=r"cell \(row=4, cell=0\) does not sum"):
        metrics.affine_invert(frame[:, :, 1], spec, patterns)


def test_affine_invert_on_2d_gray_frame():
    spec, patterns, schedule = make_setup()
    gen = np.random.default_rng(4)
    gray = gen.integers(0, 256, size=(6, 6), dtype=np.uint8)
    matrix = metrics.build_measurement_matrix(schedule, patterns)
    frame = metrics.oracle_reconstruct(matrix, gray.reshape(-1)).reshape(6, 6)
    assert np.array_equal(metrics.affine_invert(frame, spec, patterns), gray.astype(np.int64))


def report_rows(report):
    """A ``FrameReport``'s columns as ``report.csv`` rows of plain fields, ``None`` for no prediction."""
    rows, k = [], report.k
    for i in range(len(report)):
        region = "full" if i >= len(report) - 3 else f"r{i // (3 * k)}c{i // 3 % k}"
        n_obj, *predicted, m_num, m_den = report.values[i].tolist()
        predicted = predicted if report.predicts[i] else [None, None]
        rows.append((region, scene.CHANNEL_NAMES[i % 3], n_obj, *predicted, m_num, m_den))
    return rows


def report_csv_oracle(rows):
    """``report.csv`` bytes of plain rows, one f-string each."""
    lines = ["region,channel,n_obj,predicted_num,predicted_den,measured_num,measured_den\n"]
    for region, channel, count, p_num, p_den, m_num, m_den in rows:
        predicted = "," if p_num is None else f"{p_num},{p_den}"
        lines.append(f"{region},{channel},{count},{predicted},{m_num},{m_den}\n")
    return "".join(lines).encode("ascii")


def test_frame_report_rows_and_predictions():
    spec, patterns, schedule = make_setup(n=7, k=1)
    obj = scene.builtin_letter("T", 7, "blue")
    frame = one_revolution_frame(spec, patterns, schedule, obj.pixels)
    rows = report_rows(metrics.frame_report(frame, obj.pixels, spec))
    # 7 cells x 3 channels + 3 full-frame rows.
    assert len(rows) == 24
    assert rows[-1][0] == "full"
    assert all(type(v) in (str, int, type(None)) for row in rows for v in row)
    by_key = {row[:2]: row[2:] for row in rows}
    # (n_obj, predicted_num, predicted_den, measured_num, measured_den)
    assert by_key[("r0c0", "blue")] == (7, 1, 8, 1, 8)
    assert by_key[("r0c0", "red")] == (0, 0, 1, 0, 1)
    assert by_key[("r2c0", "blue")] == (1, 1, 2, 1, 2)


def test_frame_report_gray_cells_have_no_prediction():
    spec, patterns, schedule = make_setup(n=7, k=1)
    pixels = np.zeros((7, 7, 3), dtype=np.uint8)
    pixels[1, 0, 0] = 100
    pixels[1, 1, 0] = 200
    frame = one_revolution_frame(spec, patterns, schedule, pixels)
    rows = report_rows(metrics.frame_report(frame, pixels, spec))
    row = next(r for r in rows if r[:2] == ("r1c0", "red"))
    assert row[2:5] == (2, None, None)
    assert row[5:] == metrics.cell_report_contrast(frame, spec, 1, 0, 0, 2).as_integer_ratio()


def report_rows_oracle(image, pixels, spec):
    """``frame_report`` as a plain loop over ``cell_report_contrast``'s Fractions."""
    rows = []
    values = np.asarray(pixels, dtype=np.int64)

    def fields(fraction):
        return (None, None) if fraction is None else (fraction.numerator, fraction.denominator)

    for row in range(spec.n):
        for cell in range(spec.k):
            r, cols = metrics.cell_slice(spec, row, cell)
            for channel, name in enumerate(scene.CHANNEL_NAMES):
                lit = values[r, cols, channel][values[r, cols, channel] > 0]
                if lit.size == 0:
                    predicted = Fraction(0)
                elif np.all(lit == lit[0]):
                    predicted = metrics.predicted_contrast_reduced(spec.n_cell, lit.size)
                else:
                    predicted = None
                measured = metrics.cell_report_contrast(image, spec, row, cell, channel, lit.size)
                rows.append((f"r{row}c{cell}", name, lit.size, *fields(predicted),
                             *fields(measured)))
    for channel, name in enumerate(scene.CHANNEL_NAMES):
        measured = metrics.measured_contrast(image[:, :, channel])
        count = int(np.count_nonzero(values[:, :, channel]))
        rows.append(("full", name, count, None, None, *fields(measured)))
    return rows


@pytest.mark.parametrize("frame_kind", ["correlation", "random", "past_int64"])
def test_frame_report_matches_per_cell_loop(frame_kind, tmp_path):
    spec, patterns, schedule = make_setup(n=14, k=2)
    gen = np.random.default_rng(4)
    pixels = np.zeros((14, 14, 3), dtype=np.uint8)
    pixels[1, :7] = 90  # fully lit, one level
    pixels[2, 7:] = gen.integers(1, 256, size=(7, 3))  # fully lit, mixed levels
    pixels[3, [0, 2, 5]] = 40  # partly lit, one level
    pixels[4, 8:11] = [[10, 0, 30], [20, 0, 30], [10, 5, 30]]  # partly lit, mixed
    pixels[5:] = gen.integers(0, 3, size=(9, 14, 3)) * 70  # a mix of all of them
    if frame_kind == "correlation":
        frame = one_revolution_frame(spec, patterns, schedule, pixels)
    elif frame_kind == "random":
        frame = gen.integers(0, 1000, size=(14, 14, 3))
        frame[6, :7] = 0  # dark cells: partly lit and fully lit ones
        frame[1, :7, 1] = 0
        frame[3, :7] = 17  # flat cells
    else:
        # Any partly lit cell's max + min passes 2**63: exact only in Python ints.
        frame = gen.integers(2**62, 2**63 - 1, size=(14, 14, 3), dtype=np.int64, endpoint=True)
        frame[3, :7] = 2**63 - 1  # flat cells
    report = metrics.frame_report(frame, pixels, spec)
    rows = report_rows(report)
    assert rows == report_rows_oracle(frame, pixels, spec)
    path = tmp_path / "report.csv"
    metrics.write_report_csv(report, path)
    assert path.read_bytes() == report_csv_oracle(rows)
    # (empty, fully lit, no prediction) per cell row.
    kinds = {(r[2] == 0, r[2] == spec.n_cell, r[3] is None) for r in rows[:-3]}
    assert kinds == {(True, False, False), (False, True, False), (False, True, True),
                     (False, False, False), (False, False, True)}
    if frame_kind == "past_int64":
        assert max(r[6] for r in rows) > 2**63
    frame[4, 8, 0] = -1  # inside a partly lit cell
    for report in (metrics.frame_report, report_rows_oracle):
        with pytest.raises(ValueError, match="nonnegative"):
            report(frame, pixels, spec)
    frame[4, 7:, 0] = -gen.integers(1, 2**62, size=7)  # the whole partly lit cell
    for report in (metrics.frame_report, report_rows_oracle):
        with pytest.raises(ValueError, match="nonnegative"):
            report(frame, pixels, spec)


@st.composite
def report_scenes(draw):
    """n=14, k=2 scenes whose (row, cell, channel) cells are each empty,
    fully lit at one level, partly lit at one level, or random levels."""
    kind = draw(arrays(np.int8, (14, 2, 1, 3), elements=st.integers(0, 3)))
    level = draw(arrays(np.uint8, (14, 2, 1, 3), elements=st.integers(1, 255)))
    bits = draw(arrays(np.bool_, (14, 2, 7, 3)))
    mixed = draw(arrays(np.uint8, (14, 2, 7, 3)))
    cells = np.where(kind == 1, level, np.where(kind == 2, level * bits, mixed))
    return np.where(kind == 0, 0, cells).astype(np.uint8).reshape(14, 14, 3)


# Small values, flat cells and values in [2**62, 2**63), whose sums pass int64.
REPORT_VALUES = st.one_of(st.integers(0, 3), st.integers(0, 10**6), st.integers(2**62, 2**63 - 1))


@settings(max_examples=60, deadline=None)
@given(report_scenes(), arrays(np.int64, (14, 14, 3), elements=REPORT_VALUES))
def test_frame_report_equals_per_cell_loop_on_random_scenes(pixels, frame):
    spec = disk.make_spec(14, 2)
    report = metrics.frame_report(frame, pixels, spec)
    rows = report_rows(report)
    assert rows == report_rows_oracle(frame, pixels, spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.csv"
        metrics.write_report_csv(report, path)
        assert path.read_bytes() == report_csv_oracle(rows)


def test_report_csv_format(tmp_path):
    # n = 1, k = 2: two cells' channel rows, then the three full-frame rows.
    # (n_obj, predicted num, den, measured num, den) per row.
    values = [(2, 1, 3, 1, 3), (7, 1, 8, 2**63 + 1, 2**64 - 1), (0, 0, 1, 0, 1), (31, 9, 9, 1, 1),
              (1, 1, 2, 10**19, 10**19 + 7), (10, 3, 4, 0, 1), (5, 0, 0, 7, 9), (0, 0, 0, 0, 1),
              (12, 0, 0, 2**64 - 2, 2**64 - 1)]
    report = metrics.FrameReport(
        k=2, values=np.array(values, dtype=np.uint64),
        predicts=np.array([True, True, True, False, True, True, False, False, False]),
    )
    path = tmp_path / "report.csv"
    metrics.write_report_csv(report, path)
    assert path.read_text() == (
        "region,channel,n_obj,predicted_num,predicted_den,measured_num,measured_den\n"
        "r0c0,red,2,1,3,1,3\n"
        "r0c0,green,7,1,8,9223372036854775809,18446744073709551615\n"
        "r0c0,blue,0,0,1,0,1\n"
        "r0c1,red,31,,,1,1\n"
        "r0c1,green,1,1,2,10000000000000000000,10000000000000000007\n"
        "r0c1,blue,10,3,4,0,1\n"
        "full,red,5,,,7,9\n"
        "full,green,0,,,0,1\n"
        "full,blue,12,,,18446744073709551614,18446744073709551615\n"
    )
    assert path.read_bytes() == report_csv_oracle(report_rows(report))
