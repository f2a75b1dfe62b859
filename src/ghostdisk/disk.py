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

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"n and k must be positive, got n={self.n}, k={self.k}")
        if self.n % self.k != 0:
            raise ValueError(f"k must divide n: {self.n} % {self.k} != 0")
        if self.n_cell < 3:
            raise ValueError(f"cell width n/k = {self.n_cell} is too small, need >= 3")
        if not is_supported_order(self.n_cell + 1):
            raise ValueError(
                f"cell width n/k = {self.n_cell} needs pattern order {self.n_cell + 1}, "
                "which is not a supported (power-of-two) order"
            )

    @property
    def n_cell(self) -> int:
        return self.n // self.k

    @property
    def slots_per_revolution(self) -> int:
        return self.n * self.n


def make_spec(n: int, k: int) -> PartitionSpec:
    """Validate and build the partition for object side ``n`` and ``k`` cells."""
    return PartitionSpec(n, k)


@dataclass(frozen=True)
class SlotDescriptor:
    """One illumination slot: which pattern lights which cell of which row."""

    slot_index: int
    row: int
    cell: int
    pattern_index: int


@dataclass(frozen=True, eq=False)
class ScanSchedule:
    """One disk revolution: all n^2 slots of ``spec`` in ``order_mode``.

    Slot ``s`` lights cell ``cells[s]`` of row ``rows[s]`` with pattern
    ``pattern_index[s]``: read-only int arrays, built on first read.
    """

    spec: PartitionSpec
    order_mode: str

    def __post_init__(self):
        if self.order_mode not in ORDER_MODES:
            raise ValueError(f"order_mode must be one of {ORDER_MODES}, got {self.order_mode!r}")

    def locate(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cells, pattern_index) of the slot indices ``slots``."""
        spec = self.spec
        if self.order_mode == "pattern_major":
            pattern, row, cell = np.unravel_index(slots, (spec.n_cell, spec.n, spec.k))
        else:
            row, cell, pattern = np.unravel_index(slots, (spec.n, spec.k, spec.n_cell))
        return row, cell, pattern

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grid = self.locate(np.arange(self.spec.slots_per_revolution))
        for array in grid:
            array.flags.writeable = False
        return grid

    rows = property(lambda self: self._grid[0])
    cells = property(lambda self: self._grid[1])
    pattern_index = property(lambda self: self._grid[2])

    @cached_property
    def slots(self) -> tuple[SlotDescriptor, ...]:
        """The slots as descriptors, for per-slot oracles such as place_pattern."""
        triples = zip(*(array.tolist() for array in self._grid))
        return tuple(SlotDescriptor(s, *triple) for s, triple in enumerate(triples))


def build_schedule(spec: PartitionSpec, order_mode: str = "pattern_major") -> ScanSchedule:
    """One revolution of ``spec`` in ``order_mode``; see ``ScanSchedule``."""
    return ScanSchedule(spec, order_mode)


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
        radius, pitch = float(self.radius_mm), float(self.track_pitch_mm)
        if not (0 < radius < np.inf and 0 < pitch < np.inf and 2 * (radius + 2 * pitch) < np.inf):
            raise ValueError(
                "geometry and the drawing size 2 * (radius + 2 * pitch) must be finite "
                f"and positive: radius={radius}, pitch={pitch}"
            )
        inner_bound = self.schedule.spec.n * pitch
        if radius <= inner_bound:
            raise ValueError(
                f"innermost track does not fit: radius must exceed n * track pitch "
                f"= {inner_bound:g} mm, got {radius:g} mm"
            )
        check_pattern_length(self.schedule.spec, self.patterns)
        object.__setattr__(self, "radius_mm", radius)
        object.__setattr__(self, "track_pitch_mm", pitch)


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


def _write_csv(path, header: str, schedule: ScanSchedule, columns) -> None:
    """Write ``header``, then a line per slot of ``schedule``, in blocks of slots.

    ``columns(s)`` gives slots ``s``' ``(S, c)`` int fields, then any ``(S, w)``
    ASCII ones.  A block holds at most ``sim.BLOCK_SLOTS`` slots and 2**20 bits.
    """
    from .sim import BLOCK_SLOTS, _int_columns, _join  # sim imports this module

    count, n_cell = schedule.spec.slots_per_revolution, schedule.spec.n_cell
    block = max(1, min(BLOCK_SLOTS, (1 << 20) // n_cell))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for lo in range(0, count, block):
            s = np.arange(lo, min(lo + block, count))
            numbers, *text = columns(s)
            fields = [*_int_columns(numbers), *([t] for t in text)]
            parts = [part for field in fields for part in (*field, ord(","))]
            parts[-1] = ord("\n")
            fh.write(_join(len(s), parts).tobytes().translate(None, b"\0"))


def schedule_to_csv(schedule: ScanSchedule, path) -> None:
    """Write ``slot,row,cell,pattern`` lines in schedule order."""
    _write_csv(path, "slot,row,cell,pattern\n", schedule,
               lambda s: [np.stack([s, *schedule.locate(s)], axis=1)])


def layout_to_csv(layout: DiskLayout, path) -> None:
    """Write hole groups as CSV; angles as exact fractions of a degree.

    Slot ``s`` of ``count`` sits at ``360 s / count`` degrees, written in
    lowest terms (``0/1`` for slot 0).
    """
    schedule = layout.schedule
    count = schedule.spec.slots_per_revolution
    bits = (layout.patterns.patterns + ord("0")).astype(np.uint8)  # each pattern's digits

    def columns(s):
        rows, cells, pattern = schedule.locate(s)
        gcd = np.gcd(360 * s, count)
        numbers = [s, rows, cells, pattern, rows, 360 * s // gcd, count // gcd]
        return np.stack(numbers, axis=1), np.take(bits, pattern, axis=0)

    _write_csv(path, "slot,row,cell,pattern,track,angle_num,angle_den,bits\n", schedule, columns)


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
    bit_h = pitch / spec.n_cell
    # Keep every hole group narrower than its angular pitch at the innermost track.
    count = spec.slots_per_revolution
    inner_r = radius - (spec.n - 1) * pitch - pitch
    arc = 2.0 * 3.141592653589793 * max(inner_r, pitch) / count
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
    for track in range(spec.n):
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
