"""Contrast predictions, measured contrast, and exact image recovery.

For a pattern set with Gram coefficients (c_min, c_max), an object that
lights n_obj pixels of one cell at a common level produces, inside that
cell, exactly two correlation values:

    bright = c_max + (n_obj - 1) * c_min      (on lit pixels)
    dark   = n_obj * c_min                    (on unlit pixels)

so the in-cell contrast (bright - dark) / (bright + dark) reduces to

    (1 + N) / (1 + N + 2 * n_obj * (N - 3))      with N = pattern length.

The same expression with N equal to the part length predicts the contrast
of a one-level scan, and substituting n_obj = N gives the full-cell value

    (1 + N) / (1 + N * (2 * N - 5)).

Cells never share slots, so the correlation operator is block-diagonal
with one Gram block per cell.  That makes the correlation image exactly
invertible: for each cell and channel, the affine map
y = (c_max - c_min) * x + c_min * sum(x) is undone in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .disk import PartitionSpec, ScanSchedule, check_pattern_length, place_pattern
from .hadamard import ReducedPatternSet, gram_coefficients
from .sim import _int_columns, _join

__all__ = [
    "build_measurement_matrix",
    "oracle_reconstruct",
    "predicted_contrast_reduced",
    "predicted_contrast_part",
    "predicted_contrast_cell",
    "measured_contrast",
    "cell_slice",
    "cell_report_contrast",
    "affine_invert",
    "FrameReport",
    "frame_report",
    "write_report_csv",
]


def build_measurement_matrix(
    schedule: ScanSchedule, patterns: ReducedPatternSet
) -> np.ndarray:
    """Stack one revolution's masks as rows of an (n^2, n^2) 0/1 matrix.

    Row s is the flattened illumination mask of slot s.
    """
    count = schedule.spec.slots_per_revolution
    matrix = np.zeros((count, count), dtype=np.int64)
    for slot in schedule.slots:
        matrix[slot.slot_index, :] = place_pattern(schedule.spec, slot, patterns).reshape(-1)
    return matrix


def oracle_reconstruct(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Correlation image A^T (A x) in exact integer arithmetic.

    ``x`` is a flattened object, shape (n^2,) or (n^2, channels); the
    result has the same shape.
    """
    a = np.asarray(matrix, dtype=np.int64)
    flat = np.asarray(x, dtype=np.int64)
    return a.T @ (a @ flat)


def predicted_contrast_reduced(pattern_length: int, n_obj: int) -> Fraction:
    """Exact in-cell contrast for n_obj lit pixels under a reduced pattern set."""
    gram_coefficients(pattern_length)  # rejects unsupported lengths
    return predicted_contrast_part(pattern_length, n_obj)


def predicted_contrast_part(part_length: int, n_obj: int) -> Fraction:
    """Contrast of a one-level scan over a part of the given length.

    Uses the same expression as the in-cell formula with N equal to the
    part length; the part length is not required to be a supported
    pattern order.
    """
    if part_length < 3:
        raise ValueError(f"part_length must be >= 3, got {part_length}")
    if not 1 <= n_obj <= part_length:
        raise ValueError(f"n_obj must be in 1..{part_length}, got {n_obj}")
    n = part_length
    return Fraction(1 + n, 1 + n + 2 * n_obj * (n - 3))


def predicted_contrast_cell(pattern_length: int) -> Fraction:
    """Contrast when an entire cell of the given width is lit."""
    return predicted_contrast_reduced(pattern_length, pattern_length)


def measured_contrast(values) -> Fraction:
    """(max - min) / (max + min) over the given integer values, exactly.

    All-zero input yields 0 by convention.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("cannot measure contrast of an empty region")
    hi = int(arr.max())
    lo = int(arr.min())
    if hi == 0 and lo == 0:
        return Fraction(0)
    if hi < 0 or lo < 0:
        raise ValueError("contrast is defined for nonnegative values")
    return Fraction(hi - lo, hi + lo)


def cell_slice(spec: PartitionSpec, row: int, cell: int) -> tuple[int, slice]:
    """Index of a cell's pixels inside an (n, n, ...) frame."""
    if not (0 <= row < spec.n and 0 <= cell < spec.k):
        raise ValueError(f"cell (row={row}, cell={cell}) out of range for {spec}")
    return row, slice(cell * spec.n_cell, (cell + 1) * spec.n_cell)


def cell_report_contrast(
    image: np.ndarray, spec: PartitionSpec, row: int, cell: int, channel: int, n_obj: int
) -> Fraction:
    """Contrast of one cell of a correlation frame.

    For a partly lit cell the raw in-cell extrema are used.  A fully lit
    cell has no unlit pixel, so its floor is estimated from the Gram
    ratio, dark = bright * N * c_min / (c_max + (N - 1) * c_min); the
    measured peak ``bright`` then cancels and the cell reports the model
    value ``predicted_contrast_cell(N)``, or 0 when its peak is 0.  An
    empty cell reports 0.
    """
    r, cols = cell_slice(spec, row, cell)
    values = image[r, cols, channel]
    if n_obj == 0:
        return Fraction(0)
    if not 0 < n_obj <= spec.n_cell:
        raise ValueError(f"n_obj must be in 0..{spec.n_cell}, got {n_obj}")
    if n_obj < spec.n_cell:
        return measured_contrast(values)
    if np.max(values) == 0:
        return Fraction(0)
    return predicted_contrast_cell(spec.n_cell)


def affine_invert(
    image: np.ndarray, spec: PartitionSpec, patterns: ReducedPatternSet
) -> np.ndarray:
    """Undo the per-cell Gram map of a one-revolution correlation frame.

    Solves y = (c_max - c_min) * x + c_min * sum(x) per cell in integer
    arithmetic and raises if any division is inexact, which catches frames
    that are not clean correlation sums.  A frame accumulated over m full
    revolutions yields m times the object values.
    """
    check_pattern_length(spec, patterns)
    arr = np.asarray(image, dtype=np.int64)
    if arr.shape[:2] != (spec.n, spec.n):
        raise ValueError(f"frame shape {arr.shape} does not match spec n {spec.n}")
    coeffs = gram_coefficients(spec.n_cell)
    span = coeffs.c_max - coeffs.c_min
    total_weight = coeffs.c_max + (spec.n_cell - 1) * coeffs.c_min
    flat = arr.reshape(spec.n, spec.k, spec.n_cell, -1)
    sums = flat.sum(axis=2)
    uneven = np.any(sums % total_weight != 0, axis=-1)
    numer = flat - coeffs.c_min * (sums // total_weight)[:, :, None, :]
    bad = uneven | np.any(numer % span != 0, axis=(2, 3))
    if bad.any():
        row, cell = (int(i) for i in np.argwhere(bad)[0])
        if uneven[row, cell]:
            raise ValueError(
                f"cell (row={row}, cell={cell}) does not sum to a multiple "
                f"of {total_weight}; frame is not a whole-revolution sum"
            )
        raise ValueError(
            f"cell (row={row}, cell={cell}) values are not an exact "
            "affine image of integers"
        )
    return (numer // span).reshape(arr.shape)


# ---------------------------------------------------------------------------
# Per-cell contrast report: report.csv as columns, one entry per row.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrameReport:
    """The columns of ``report.csv`` (see ``frame_report``); ``len`` is its row count."""

    k: int
    values: np.ndarray  # (rows, 5) uint64: n_obj, predicted num, den, measured num, den
    predicts: np.ndarray  # (rows,) bool: False leaves both predicted fields empty

    def __len__(self) -> int:
        return len(self.values)


def frame_report(image: np.ndarray, scene_pixels: np.ndarray, spec: PartitionSpec) -> FrameReport:
    """``report.csv``'s rows: ``r{row}c{cell}`` per channel, then ``full`` per channel.

    ``scene_pixels`` is the object as seen during the frame; a cell whose
    lit pixels share one level gets the binary prediction, one with mixed
    nonzero levels and the full frame get none.  Every column is an array
    over (row, cell, channel), reduced from contiguous (row, cell, channel,
    pixel) copies.  Measured fractions are reduced by ``np.gcd`` in uint64,
    exact for any nonnegative int64 extrema: ``top + bottom < 2**64``.
    """
    n, k, n_cell = spec.n, spec.k, spec.n_cell

    def per_cell(a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.asarray(a).reshape(n, k, n_cell, 3).transpose(0, 1, 3, 2))

    cells, values = per_cell(scene_pixels), per_cell(image)
    lit = cells > 0
    # Per (row, cell, channel): lit pixel count, whether they share one
    # level (the cell's maximum stands in for unlit pixels, so an empty
    # cell counts as one level), and the frame's in-cell extrema.
    n_obj = lit.sum(axis=-1)
    level = cells.max(axis=-1)
    one_level = np.where(lit, cells, level[..., None]).min(axis=-1) == level
    hi, lo = values.max(axis=-1), values.min(axis=-1)
    partial = (n_obj > 0) & (n_obj < n_cell)
    if np.any(partial & (lo < 0)):
        raise ValueError("contrast is defined for nonnegative values")
    # As cell_report_contrast: 0 when empty or dark, raw extrema for a
    # partly lit cell, the model value for a fully lit one.
    partial &= hi != 0
    full = (n_obj == n_cell) & (hi != 0)
    top = np.where(partial, hi, 1).astype(np.uint64)
    bottom = np.where(partial, lo, 0).astype(np.uint64)
    num, den = top - bottom, top + bottom
    g = np.gcd(num, den)
    num //= g
    den //= g
    num[~partial], den[~partial] = 0, 1
    if full.any():
        num[full], den[full] = predicted_contrast_cell(n_cell).as_integer_ratio()
    # Predictions by lit count: 0 for an empty cell, none for mixed levels.
    pred_num, pred_den = np.zeros(n_cell + 1, np.uint64), np.ones(n_cell + 1, np.uint64)
    for m in set(n_obj[one_level & (n_obj > 0)].tolist()):
        pred_num[m], pred_den[m] = predicted_contrast_reduced(n_cell, m).as_integer_ratio()
    values = np.zeros((3 * n * k + 3, 5), dtype=np.uint64)
    values[:, 0] = np.append(n_obj, np.count_nonzero(cells, axis=(0, 1, 3)))
    values[:-3, 1:] = np.stack((pred_num[n_obj], pred_den[n_obj], num, den), axis=-1).reshape(-1, 4)
    extrema = np.stack((hi, lo))
    whole = [measured_contrast(extrema[..., c]).as_integer_ratio() for c in range(3)]
    values[-3:, 3:] = np.array(whole, dtype=np.uint64)
    return FrameReport(k=k, values=values, predicts=np.append(one_level, [False] * 3))


def write_report_csv(report: FrameReport, path) -> None:
    """Write a ``frame_report`` as ``report.csv``; no prediction leaves both its fields empty.

    The row and cell numbers share one ``sim._int_columns`` call and the
    five value columns another; ``sim._join`` moves each column into one
    buffer of fixed-width cells, and dropping its zero bytes leaves the rows.
    """
    i = np.arange(len(report))
    row, cell = _int_columns(np.stack([i // (3 * report.k), i // 3 % report.k], axis=1))
    columns = _int_columns(report.values)
    for predicted in columns[1:3]:
        predicted[-1][~report.predicts] = 0
    channel = np.resize(np.frombuffer(b"red,\0\0green,blue,\0", dtype=np.uint8), (len(i), 6))
    parts = [ord("r"), *row, ord("c"), *cell, ord(","), channel]
    for column, sep in zip(columns, b",,,,\n"):
        parts += [*column, sep]
    table = _join(len(i), parts)
    region = 3 + row[-1].shape[1] + cell[-1].shape[1]
    table[-3:, :region] = 0
    table[-3:, :5] = np.frombuffer(b"full,", dtype=np.uint8)
    head = b"region,channel,n_obj,predicted_num,predicted_den,measured_num,measured_den\n"
    Path(path).write_bytes(head + table.tobytes().translate(None, b"\0"))
