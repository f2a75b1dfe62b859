"""Test objects and their motion.

A scene object is an n x n RGB image with 8-bit channels.  Built-in letter
objects are scaled up from 7x7 glyph bitmaps by nearest-neighbor sampling,
so at n = 7 * m every glyph pixel becomes an m x m block and pixel values
stay exactly 0 or 255.

Motion is a rigid integer translation of the whole image with zero fill.
A linear trajectory moves at a constant velocity in pixels per second; the
offset at time t is the nearest integer to v * t (half away from zero).
Times and velocities are handled as exact rationals so that the offset at
any instant is reproducible across platforms.  An optional hold interval
quantizes time downward to its multiples before the offset is computed,
which freezes the object between updates (sample-and-hold motion).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from . import pnm

__all__ = [
    "CHANNEL_NAMES",
    "COLOR_CHANNELS",
    "SceneObject",
    "Trajectory",
    "builtin_letter",
    "available_letters",
    "sample_scene",
    "translate_image",
    "load_scene_ppm",
    "as_fraction",
]

CHANNEL_NAMES = ("red", "green", "blue")

# Which RGB channels a named stroke color lights.
COLOR_CHANNELS = {
    "red": (0,),
    "green": (1,),
    "blue": (2,),
    "white": (0, 1, 2),
}


def as_fraction(value, name: str | None = None) -> Fraction:
    """Exact rational from int, Fraction, str, or float.

    Floats are read through their shortest decimal representation, so the
    Fraction for 0.2 is exactly 1/5 rather than the binary expansion.  A
    non-finite float is refused with ``ValueError``, after ``name:`` when
    the setting's ``name`` is given.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        exact = Decimal(str(value))
        if not exact.is_finite():
            setting = f"{name}: " if name else ""
            raise ValueError(f"{setting}cannot interpret {value!r} as an exact rational")
        return Fraction(exact)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True, eq=False)
class SceneObject:
    """An n x n RGB image stored as a read-only (n, n, 3) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 3:
            raise ValueError(f"scene must be (n, n, 3), got shape {arr.shape}")
        if arr.dtype != np.uint8:
            raise ValueError(f"scene must be uint8, got {arr.dtype}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def side(self) -> int:
        return int(self.pixels.shape[0])


def _parse_glyphs(text: str) -> dict[str, np.ndarray]:
    glyphs: dict[str, np.ndarray] = {}
    name = None
    rows: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.isalpha():
            if name is not None:
                glyphs[name] = np.array(rows, dtype=np.uint8)
            name = line
            rows = []
        else:
            rows.append([int(ch) for ch in line])
    if name is not None:
        glyphs[name] = np.array(rows, dtype=np.uint8)
    for letter, grid in glyphs.items():
        if grid.shape != (7, 7):
            raise ValueError(f"glyph {letter!r} is {grid.shape}, expected (7, 7)")
    return glyphs


def _load_glyphs() -> dict[str, np.ndarray]:
    text = resources.files("ghostdisk").joinpath("data/glyphs_7x7.txt").read_text("ascii")
    return _parse_glyphs(text)


def available_letters() -> tuple[str, ...]:
    return tuple(sorted(_load_glyphs()))


def builtin_letter(letter: str, n: int, color: str = "white") -> SceneObject:
    """Letter glyph scaled to n x n with the stroke in the named color."""
    glyphs = _load_glyphs()
    if letter not in glyphs:
        raise ValueError(f"unknown letter {letter!r}, have {sorted(glyphs)}")
    if color not in COLOR_CHANNELS:
        raise ValueError(f"unknown color {color!r}, have {sorted(COLOR_CHANNELS)}")
    if n < 7:
        raise ValueError(f"target side {n} is smaller than the 7x7 glyph")
    glyph = glyphs[letter]
    index = (np.arange(n) * 7) // n
    scaled = glyph[np.ix_(index, index)]
    pixels = np.zeros((n, n, 3), dtype=np.uint8)
    for channel in COLOR_CHANNELS[color]:
        pixels[:, :, channel] = scaled * np.uint8(255)
    return SceneObject(pixels=pixels)


@dataclass(frozen=True)
class Trajectory:
    """Rigid translation of the scene as a function of time.

    ``velocity`` is (vx, vy) in pixels per second: vx moves the object
    toward higher column indices, vy toward higher row indices.  With
    ``hold_interval`` set, the offset only updates at multiples of that
    interval.
    """

    mode: str = "static"
    velocity: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
    hold_interval: Fraction | None = None

    def __post_init__(self):
        if self.mode not in ("static", "linear"):
            raise ValueError(f"mode must be 'static' or 'linear', got {self.mode!r}")
        vx, vy = self.velocity
        object.__setattr__(self, "velocity", (as_fraction(vx, "velocity"), as_fraction(vy, "velocity")))
        if self.hold_interval is not None:
            hold = as_fraction(self.hold_interval, "hold_interval")
            if hold <= 0:
                raise ValueError(f"hold_interval must be positive, got {hold}")
            object.__setattr__(self, "hold_interval", hold)

    def offset_at(self, t: Fraction) -> tuple[int, int]:
        """Integer (dx, dy) pixel offset at time t."""
        if self.mode == "static":
            return (0, 0)
        t_q = as_fraction(t)
        if self.hold_interval is not None:
            t_q = (t_q // self.hold_interval) * self.hold_interval
        vx, vy = self.velocity
        return (_round_half_up(vx * t_q), _round_half_up(vy * t_q))


def _round_half_up(value: Fraction) -> int:
    """Nearest integer, ties away from zero."""
    if value >= 0:
        return int((2 * value + 1) // 2)
    return -int((2 * (-value) + 1) // 2)


def translate_image(pixels: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Shift by (dx, dy) = (columns right, rows down), zero-filling."""
    out = np.zeros_like(pixels)
    n_rows, n_cols = pixels.shape[:2]
    src_r = slice(max(0, -dy), min(n_rows, n_rows - dy))
    src_c = slice(max(0, -dx), min(n_cols, n_cols - dx))
    dst_r = slice(max(0, dy), min(n_rows, n_rows + dy))
    dst_c = slice(max(0, dx), min(n_cols, n_cols + dx))
    if src_r.start < src_r.stop and src_c.start < src_c.stop:
        out[dst_r, dst_c] = pixels[src_r, src_c]
    return out


def sample_scene(scene: SceneObject, trajectory: Trajectory, t) -> SceneObject:
    """Scene as seen at time t: the base object under the trajectory offset."""
    dx, dy = trajectory.offset_at(as_fraction(t))
    if dx == 0 and dy == 0:
        return scene
    return SceneObject(pixels=translate_image(scene.pixels, dx, dy))


def load_scene_ppm(path) -> SceneObject:
    """Load a scene from a PPM file; a PGM is broadcast across channels."""
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        gray = pnm.read_pgm(path)
        pixels = np.repeat(gray[:, :, None], 3, axis=2)
    else:
        pixels = pnm.read_ppm(path)
    if pixels.shape[0] != pixels.shape[1]:
        raise ValueError(f"{path}: scene must be square, got {pixels.shape[:2]}")
    return SceneObject(pixels=pixels)
