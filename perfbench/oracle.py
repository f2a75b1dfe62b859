"""Independent oracles for every output the benchmark checks.

None of this calls the simulator, the scene layer or the report code that
the benchmark times.  Expected values follow the README's definitions:
letters are read from the glyph data file and scaled here, motion is
``round_half_away(v * t)`` in exact rationals, frames are the plain sum of
``bits x bucket`` over a window's slots, and contrast uses the closed-form
``(1 + N) / (1 + N + 2 n_obj (N - 3))``.  Sampled bucket rows are rebuilt
from ``place_pattern`` masks and the scalar ``rng.gaussian``, which the
ROADMAP keeps as the referees for the disk and noise layers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

CHANNELS = ("red", "green", "blue")
COLORS = {"red": (0,), "green": (1,), "blue": (2,), "white": (0, 1, 2)}
BUCKET_SAMPLES = 48
FRAME_SAMPLES = 12


def glyphs(root: Path) -> dict[str, np.ndarray]:
    """The 7x7 letter bitmaps of the glyph data file."""
    text = (root / "src" / "ghostdisk" / "data" / "glyphs_7x7.txt").read_text("ascii")
    out: dict[str, list[list[int]]] = {}
    name = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.isalpha():
            name = line
            out[name] = []
        else:
            out[name].append([int(ch) for ch in line])
    return {key: np.array(rows, dtype=np.int64) for key, rows in out.items()}


def letter(root: Path, name: str, n: int, color: str) -> np.ndarray:
    """Nearest-neighbour scaled letter, 255 on the lit channels, (n, n, 3) int64."""
    index = np.arange(n) * 7 // n
    scaled = glyphs(root)[name][np.ix_(index, index)] * 255
    image = np.zeros((n, n, 3), dtype=np.int64)
    for channel in COLORS[color]:
        image[:, :, channel] = scaled
    return image


def contrast_reduced(length: int, n_obj: int) -> Fraction:
    return Fraction(1 + length, 1 + length + 2 * n_obj * (length - 3))


def gram_constants(length: int) -> tuple[int, int]:
    """(c_min, c_max) of the reduced Sylvester set of this length."""
    return (length + 1) // 4 - 1, (length + 1) // 2 - 1


def round_half_away(value: Fraction) -> int:
    magnitude = math.floor(abs(value) + Fraction(1, 2))
    return magnitude if value >= 0 else -magnitude


def posed(base: np.ndarray, velocity: tuple[Fraction, Fraction], t: Fraction) -> np.ndarray:
    """``base`` moved (dx right, dy down) by the offset at time ``t``, zero fill."""
    dx = round_half_away(velocity[0] * t)
    dy = round_half_away(velocity[1] * t)
    n = base.shape[0]
    rows = np.arange(n)[:, None] - dy
    cols = np.arange(n)[None, :] - dx
    inside = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    moved = base[rows.clip(0, n - 1), cols.clip(0, n - 1)]
    return np.where(inside[:, :, None], moved, 0)


def contrast(values: np.ndarray) -> Fraction:
    hi, lo = int(values.max()), int(values.min())
    if hi == 0 and lo == 0:
        return Fraction(0)
    return Fraction(hi - lo, hi + lo)


def frame_txt(image: np.ndarray) -> bytes:
    lines = []
    for channel, name in enumerate(CHANNELS):
        lines.append(f"# channel {name}")
        lines.extend(" ".join(str(int(v)) for v in row) for row in image[:, :, channel])
    return ("\n".join(lines) + "\n").encode("ascii")


def frame_ppm(image: np.ndarray) -> bytes:
    peak = int(image.max())
    if peak <= 0:
        scaled = np.zeros(image.shape, dtype=np.uint8)
    else:
        scaled = ((image * 510 + peak) // (2 * peak)).astype(np.uint8)
    n_rows, n_cols = image.shape[:2]
    return f"P6\n{n_cols} {n_rows}\n255\n".encode("ascii") + scaled.tobytes()


def report_csv(image: np.ndarray, scene: np.ndarray, k: int) -> bytes:
    """Per-cell predicted and measured contrast of a frame, then full frame."""
    n = image.shape[0]
    length = n // k
    c_min, c_max = gram_constants(length)

    def pair(value):
        return "," if value is None else f"{value.numerator},{value.denominator}"

    lines = ["region,channel,n_obj,predicted_num,predicted_den,measured_num,measured_den"]
    for row in range(n):
        for cell in range(k):
            cols = slice(cell * length, (cell + 1) * length)
            for channel, name in enumerate(CHANNELS):
                lit = scene[row, cols, channel]
                lit = lit[lit > 0]
                values = image[row, cols, channel]
                if lit.size == 0:
                    predicted = measured = Fraction(0)
                else:
                    uniform = bool(np.all(lit == lit[0]))
                    predicted = contrast_reduced(length, lit.size) if uniform else None
                    if lit.size < length:
                        measured = contrast(values)
                    else:
                        bright = Fraction(int(values.max()))
                        dark = bright * Fraction(length * c_min, c_max + (length - 1) * c_min)
                        measured = (
                            Fraction(0) if bright + dark == 0
                            else (bright - dark) / (bright + dark)
                        )
                lines.append(
                    f"r{row}c{cell},{name},{lit.size},{pair(predicted)},{pair(measured)}"
                )
    for channel, name in enumerate(CHANNELS):
        n_obj = int(np.count_nonzero(scene[:, :, channel]))
        lines.append(f"full,{name},{n_obj},,,{pair(contrast(image[:, :, channel]))}")
    return ("\n".join(lines) + "\n").encode("ascii")


def check_run(gd, root: Path, run_dir: Path, w) -> list[str]:
    """Compare a simulate + report run directory against the oracles.

    ``w`` is the CLI workload that produced it.  Returns one message per
    mismatch; an empty list means the run is correct.
    """
    errors: list[str] = []
    n, k = w.n, w.k
    length = n // k
    per_rev = n * n
    slot_dt = w.period / per_rev
    slot_count = w.revolutions * per_rev
    base = letter(root, w.letter, n, w.color)
    spec = gd.disk.make_spec(n, k)
    schedule = gd.disk.build_schedule(spec)
    patterns = gd.hadamard.reduce_matrix(gd.hadamard.sylvester_hadamard(length + 1))
    bits = np.asarray(patterns.patterns, dtype=np.int64)
    slots = schedule.slots
    gen = random.Random(w.seed)

    def scene_at(t: Fraction) -> np.ndarray:
        return posed(base, w.velocity, t) if w.velocity != (0, 0) else base

    lines = (run_dir / "bucket.csv").read_text("ascii").splitlines()
    if lines[0] != "t,slot,red,green,blue" or len(lines) != slot_count + 1:
        return [f"bucket.csv: header {lines[0]!r}, {len(lines) - 1} rows, want {slot_count}"]
    buckets = np.array([line.split(",")[1:] for line in lines[1:]], dtype=np.int64)
    if not np.array_equal(buckets[:, 0], np.arange(slot_count)):
        errors.append("bucket.csv: slot column is not 0..S-1")
    buckets = buckets[:, 1:]
    for s in sorted({0, slot_count - 1, *gen.sample(range(slot_count), BUCKET_SAMPLES)}):
        mask = gd.disk.place_pattern(spec, slots[s % per_rev], patterns)
        clean = (mask[:, :, None] * scene_at(s * slot_dt)).sum(axis=(0, 1))
        values = []
        for channel in range(3):
            noise = 0
            if w.noise_sigma:
                z = gd.rng.gaussian(w.seed, 3 * s + channel)
                noise = math.floor(w.noise_sigma * z + 0.5)
            values.append(max(0, int(clean[channel]) + noise))
        want = f"{float(s * slot_dt)!r},{s},{values[0]},{values[1]},{values[2]}"
        if lines[s + 1] != want:
            errors.append(f"bucket.csv row {s}: {lines[s + 1]!r}, want {want!r}")

    # Every window is one revolution long.
    window_slots = per_rev
    frame_count = slot_count - window_slots + 1 if w.sliding else w.revolutions
    names = {p.name for p in run_dir.iterdir()}
    want_names = {"manifest.txt", "bucket.csv", "report.csv"}
    want_names |= {f"frame_{i:04d}.{ext}" for i in range(frame_count) for ext in ("txt", "ppm")}
    if names != want_names:
        errors.append(f"run files: {sorted(names ^ want_names)[:4]} differ from the expected set")
        return errors

    def window_image(lo: int) -> np.ndarray:
        image = np.zeros((n, n, 3), dtype=np.int64)
        for s in range(lo, lo + window_slots):
            slot = slots[s % per_rev]
            start = slot.cell * length
            image[slot.row, start : start + length] += np.outer(
                bits[slot.pattern_index], buckets[s]
            )
        return image

    indices = {0, frame_count - 1}
    indices |= set(gen.sample(range(frame_count), min(frame_count, FRAME_SAMPLES)))
    step = 1 if w.sliding else window_slots
    sampled = {i: window_image(i * step) for i in sorted(indices)}
    for i, image in sampled.items():
        if (run_dir / f"frame_{i:04d}.txt").read_bytes() != frame_txt(image):
            errors.append(f"frame_{i:04d}.txt differs from the oracle frame")
        if (run_dir / f"frame_{i:04d}.ppm").read_bytes() != frame_ppm(image):
            errors.append(f"frame_{i:04d}.ppm differs from the oracle frame")
    if (run_dir / "report.csv").read_bytes() != report_csv(sampled[0], scene_at(Fraction(0)), k):
        errors.append("report.csv differs from the oracle report")
    return errors
