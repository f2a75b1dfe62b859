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
from .scene import CHANNEL_NAMES

__all__ = [
    "build_measurement_matrix",
    "oracle_reconstruct",
    "predicted_contrast_reduced",
    "predicted_contrast_part",
    "predicted_contrast_cell",
    "contrast_from_gram",
    "measured_contrast",
    "cell_slice",
    "cell_report_contrast",
    "affine_invert",
    "ReportRow",
    "frame_report",
    "write_report_csv",
]


def build_measurement_matrix(
    schedule: ScanSchedule, patterns: ReducedPatternSet
) -> np.ndarray:
    """Stack one revolution's masks as rows of an (n^2, n^2) 0/1 matrix.

    Row s is the flattened illumination mask of slot s.  Requires the
    schedule to cover every (row, cell, pattern) triple exactly once.
    """
    spec = schedule.spec
    n = spec.n
    triples = [(slot.row, slot.cell, slot.pattern_index) for slot in schedule.slots]
    if len(triples) != n * n or len(set(triples)) != n * n:
        raise ValueError("schedule does not cover one full revolution exactly once")
    matrix = np.zeros((n * n, n * n), dtype=np.int64)
    for slot in schedule.slots:
        matrix[slot.slot_index, :] = place_pattern(spec, slot, patterns).reshape(-1)
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


def contrast_from_gram(pattern_length: int, n_obj: int) -> Fraction:
    """Contrast built directly from the Gram extrema, for cross-checking."""
    coeffs = gram_coefficients(pattern_length)
    if not 1 <= n_obj <= pattern_length:
        raise ValueError(f"n_obj must be in 1..{pattern_length}, got {n_obj}")
    bright = coeffs.c_max + (n_obj - 1) * coeffs.c_min
    dark = n_obj * coeffs.c_min
    if bright + dark == 0:
        return Fraction(0)
    return Fraction(bright - dark, bright + dark)


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
# Per-cell contrast report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    region: str
    channel: str
    n_obj: int
    predicted: Fraction | None
    measured: Fraction


def frame_report(
    image: np.ndarray, scene_pixels: np.ndarray, spec: PartitionSpec
) -> list[ReportRow]:
    """Predicted and measured contrast per cell and channel, then full frame.

    ``scene_pixels`` is the object as seen during the frame; a cell whose
    lit pixels share one level gets the binary prediction, a cell with
    mixed nonzero levels gets none.
    """
    rows: list[ReportRow] = []
    scene = np.asarray(scene_pixels, dtype=np.int64)
    for row in range(spec.n):
        for cell in range(spec.k):
            r, cols = cell_slice(spec, row, cell)
            for channel, channel_name in enumerate(CHANNEL_NAMES):
                cell_scene = scene[r, cols, channel]
                lit = cell_scene[cell_scene > 0]
                n_obj = int(lit.size)
                if n_obj == 0:
                    predicted: Fraction | None = Fraction(0)
                elif np.all(lit == lit[0]):
                    predicted = predicted_contrast_reduced(spec.n_cell, n_obj)
                else:
                    predicted = None
                measured = cell_report_contrast(image, spec, row, cell, channel, n_obj)
                rows.append(
                    ReportRow(
                        region=f"r{row}c{cell}",
                        channel=channel_name,
                        n_obj=n_obj,
                        predicted=predicted,
                        measured=measured,
                    )
                )
    for channel, channel_name in enumerate(CHANNEL_NAMES):
        channel_scene = scene[:, :, channel]
        rows.append(
            ReportRow(
                region="full",
                channel=channel_name,
                n_obj=int(np.count_nonzero(channel_scene)),
                predicted=None,
                measured=measured_contrast(image[:, :, channel]),
            )
        )
    return rows


def write_report_csv(rows: list[ReportRow], path) -> None:
    lines = ["region,channel,n_obj,predicted_num,predicted_den,measured_num,measured_den"]
    for row in rows:
        if row.predicted is None:
            pred = ","
        else:
            pred = f"{row.predicted.numerator},{row.predicted.denominator}"
        lines.append(
            f"{row.region},{row.channel},{row.n_obj},{pred},"
            f"{row.measured.numerator},{row.measured.denominator}"
        )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))
