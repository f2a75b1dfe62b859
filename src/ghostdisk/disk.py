"""Two-level object partition and the rotating-disk scan schedule.

An ``n x n`` object is split into ``n`` row parts (one pixel tall) and each
row part into ``k`` cells of ``n_cell = n / k`` pixels.  Every cell is probed
by the full reduced pattern set of length ``n_cell``, so one revolution of
the disk enumerates all ``n * k * n_cell = n^2`` (row, cell, pattern) slots.

Two slot orders are supported:

* ``pattern_major`` -- one pattern sweeps every (row, cell) position before
  the next pattern is used ("pattern moving"); the default.
* ``part_major``    -- each (row, cell) position plays the whole pattern set
  before moving on.

Both orders cover the same slot multiset, so any full-revolution integral is
identical under either.

The physical analogue is a single disk with one hole group per slot, laid
out on concentric tracks (one track per row part) at uniform angular
spacing.  Disk radius and track pitch are presentation-only: they scale the
exported drawing and never affect simulation results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .hadamard import ReducedPatternSet, is_supported_order

__all__ = [
    "ORDER_MODES",
    "PartitionSpec",
    "SlotDescriptor",
    "ScanSchedule",
    "DiskLayout",
    "make_spec",
    "build_schedule",
    "check_pattern_length",
    "place_pattern",
    "disk_layout",
    "schedule_to_csv",
    "layout_to_csv",
    "export_layout_svg",
]

ORDER_MODES = ("part_major", "pattern_major")


@dataclass(frozen=True)
class PartitionSpec:
    """Partition of an n x n object into k cells of n_cell pixels per row."""

    n: int
    k: int
    n_cell: int

    @property
    def slots_per_revolution(self) -> int:
        return self.n * self.n


def make_spec(n: int, k: int) -> PartitionSpec:
    """Validate and build the partition for object side ``n`` and ``k`` cells."""
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be positive, got n={n}, k={k}")
    if n % k != 0:
        raise ValueError(f"k must divide n: {n} % {k} != 0")
    n_cell = n // k
    if n_cell < 3:
        raise ValueError(f"cell width n/k = {n_cell} is too small, need >= 3")
    if not is_supported_order(n_cell + 1):
        raise ValueError(
            f"cell width n/k = {n_cell} needs pattern order {n_cell + 1}, "
            "which is not a supported (power-of-two) order"
        )
    return PartitionSpec(n=n, k=k, n_cell=n_cell)


@dataclass(frozen=True)
class SlotDescriptor:
    """One illumination slot: which pattern lights which cell of which row."""

    slot_index: int
    row: int
    cell: int
    pattern_index: int


@dataclass(frozen=True, eq=False)
class ScanSchedule:
    """One disk revolution: all n^2 slots in a declared order.

    Slot ``s`` lights cell ``cells[s]`` of row ``rows[s]`` with pattern
    ``pattern_index[s]``; the three are int arrays of one length.
    """

    spec: PartitionSpec
    order_mode: str
    rows: np.ndarray
    cells: np.ndarray
    pattern_index: np.ndarray

    @cached_property
    def slots(self) -> tuple[SlotDescriptor, ...]:
        """The slots as descriptors, for per-slot oracles such as place_pattern."""
        return tuple(SlotDescriptor(s, *triple) for s, triple in enumerate(_triples(self)))


def _triples(schedule: ScanSchedule):
    """(row, cell, pattern_index) of each slot in order, as Python ints."""
    return zip(schedule.rows.tolist(), schedule.cells.tolist(), schedule.pattern_index.tolist())


def build_schedule(spec: PartitionSpec, order_mode: str = "pattern_major") -> ScanSchedule:
    """Enumerate one revolution of (row, cell, pattern) slots.

    ``pattern_major`` varies pattern_index slowest; ``part_major`` varies
    (row, cell) slowest.  Deterministic for a given spec and mode.  The
    arrays are read-only.
    """
    if order_mode not in ORDER_MODES:
        raise ValueError(f"order_mode must be one of {ORDER_MODES}, got {order_mode!r}")
    if order_mode == "pattern_major":
        pattern, row, cell = np.indices((spec.n_cell, spec.n, spec.k)).reshape(3, -1)
    else:
        row, cell, pattern = np.indices((spec.n, spec.k, spec.n_cell)).reshape(3, -1)
    for array in (row, cell, pattern):
        array.flags.writeable = False
    return ScanSchedule(spec, order_mode, rows=row, cells=cell, pattern_index=pattern)


def check_pattern_length(spec: PartitionSpec, patterns: ReducedPatternSet) -> None:
    """Raise ``ValueError`` unless the patterns are exactly one cell wide."""
    if patterns.pattern_length != spec.n_cell:
        raise ValueError(
            f"pattern length {patterns.pattern_length} does not match "
            f"cell width {spec.n_cell}"
        )


def place_pattern(
    spec: PartitionSpec, slot: SlotDescriptor, patterns: ReducedPatternSet
) -> np.ndarray:
    """Full-frame n x n binary mask with the slot's pattern in its cell."""
    check_pattern_length(spec, patterns)
    if not (0 <= slot.row < spec.n and 0 <= slot.cell < spec.k):
        raise ValueError(f"slot {slot} is out of range for spec {spec}")
    if not 0 <= slot.pattern_index < spec.n_cell:
        raise ValueError(f"pattern index {slot.pattern_index} out of range")
    mask = np.zeros((spec.n, spec.n), dtype=np.int64)
    start = slot.cell * spec.n_cell
    mask[slot.row, start : start + spec.n_cell] = patterns.patterns[slot.pattern_index]
    return mask


@dataclass(frozen=True, eq=False)
class DiskLayout:
    """Physical arrangement of one revolution's hole groups.

    Slot ``s`` of the schedule is one hole group on track ``rows[s]`` at
    ``360 * s / n^2`` degrees, with the bits of pattern ``pattern_index[s]``.
    Radius and pitch are in mm, radius > n * pitch, and only affect the drawing.
    """

    schedule: ScanSchedule
    patterns: ReducedPatternSet
    radius_mm: float
    track_pitch_mm: float

    def __post_init__(self):
        if not (0 < self.radius_mm < np.inf and 0 < self.track_pitch_mm < np.inf):
            raise ValueError(
                "geometry must be finite and positive: "
                f"radius={self.radius_mm}, pitch={self.track_pitch_mm}"
            )
        inner_bound = self.schedule.spec.n * self.track_pitch_mm
        if self.radius_mm <= inner_bound:
            raise ValueError(
                f"innermost track does not fit: radius must exceed n * track pitch "
                f"= {inner_bound:g} mm, got {self.radius_mm:g} mm"
            )
        check_pattern_length(self.schedule.spec, self.patterns)
        object.__setattr__(self, "radius_mm", float(self.radius_mm))
        object.__setattr__(self, "track_pitch_mm", float(self.track_pitch_mm))


def disk_layout(
    schedule: ScanSchedule,
    patterns: ReducedPatternSet,
    radius_mm: float = 60.0,
    track_pitch_mm: float = 1.5,
) -> DiskLayout:
    """Map a one-revolution schedule onto disk tracks and angles."""
    return DiskLayout(schedule, patterns, radius_mm, track_pitch_mm)


# ---------------------------------------------------------------------------
# Exports: schedule CSV, layout CSV, layout SVG.
# ---------------------------------------------------------------------------


def schedule_to_csv(schedule: ScanSchedule, path) -> None:
    """Write ``slot,row,cell,pattern`` lines in schedule order."""
    lines = ["slot,row,cell,pattern"]
    lines += [f"{s},{row},{cell},{p}" for s, (row, cell, p) in enumerate(_triples(schedule))]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def layout_to_csv(layout: DiskLayout, path) -> None:
    """Write hole groups as CSV; angles as exact fractions of a degree.

    Slot ``s`` of ``count`` sits at ``360 s / count`` degrees, written in
    lowest terms (``0/1`` for slot 0).
    """
    schedule = layout.schedule
    count = len(schedule.rows)
    num = 360 * np.arange(count)
    gcd = np.gcd(num, count)
    bits = ["".join(map(str, row)) for row in layout.patterns.patterns.tolist()]
    columns = (schedule.rows, schedule.cells, schedule.pattern_index, num // gcd, count // gcd)
    lines = ["slot,row,cell,pattern,track,angle_num,angle_den,bits"]
    lines += [
        f"{s},{row},{cell},{p},{row},{a},{b},{bits[p]}"
        for s, (row, cell, p, a, b) in enumerate(zip(*(c.tolist() for c in columns)))
    ]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def export_layout_svg(layout: DiskLayout, path) -> None:
    """Write the disk as SVG: one rectangle per lit pattern bit.

    Rectangles are grouped in one ``<g>`` element per track.  Each hole
    group is drawn at its angle via a rotation about the disk center, with
    the pattern bits stacked radially inside the track.  Output bytes are a
    pure function of the layout.
    """
    schedule = layout.schedule
    spec = schedule.spec
    radius = layout.radius_mm
    pitch = layout.track_pitch_mm
    size = 2.0 * (radius + 2.0 * pitch)
    center = size / 2.0
    bit_h = pitch / max(spec.n_cell, 1)
    # Keep every hole group narrower than its angular pitch at the innermost track.
    count = len(schedule.rows)
    inner_r = radius - (spec.n - 1) * pitch - pitch
    arc = 2.0 * 3.141592653589793 * max(inner_r, pitch) / max(count, 1)
    bit_w = min(pitch, 0.8 * arc)
    lit_bits = [np.flatnonzero(row).tolist() for row in layout.patterns.patterns]
    pattern_index = schedule.pattern_index.tolist()

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size)}mm" '
        f'height="{_fmt(size)}mm" viewBox="0 0 {_fmt(size)} {_fmt(size)}">',
        f'<circle cx="{_fmt(center)}" cy="{_fmt(center)}" r="{_fmt(radius)}" '
        'fill="none" stroke="black" stroke-width="0.2"/>',
    ]
    for track in np.unique(schedule.rows).tolist():
        parts.append(f'<g id="track_{track}">')
        track_r = radius - track * pitch - pitch
        for s in np.flatnonzero(schedule.rows == track).tolist():
            lit = lit_bits[pattern_index[s]]
            if lit:
                angle = 360 * s / count  # int division, correctly rounded
                parts.append(
                    f'<g transform="rotate({_fmt(angle)} {_fmt(center)} {_fmt(center)})">'
                )
                for j in lit:
                    x = center - bit_w / 2.0
                    y = center - track_r - pitch + j * bit_h
                    parts.append(
                        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" '
                        f'width="{_fmt(bit_w)}" height="{_fmt(bit_h)}"/>'
                    )
                parts.append("</g>")
        parts.append("</g>")
    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("ascii"))
