"""Time-domain simulation of the spinning-disk measurement.

One disk revolution plays the full scan schedule; each schedule slot
illuminates its cell with its pattern for a fixed fraction of the
revolution period.  The bucket detector reports, per color channel, the sum
of scene values under the lit pixels.  Each slot then adds
``bucket * mask`` into the exposure accumulator, which is the standard
second-order correlation estimate restricted to that slot's cell.

Exposure windows model a finite persistence time T:

* ``tumbling`` -- back-to-back windows [w*T, (w+1)*T); only windows that
  fit completely inside the simulated duration are emitted.
* ``sliding``  -- one window per slot start time t, covering [t, t+T),
  emitted while the window end stays inside the duration.

A slot belongs to a window when its start time lies inside the window.
All timing is exact rational arithmetic, so window membership never
depends on floating-point rounding.

Detector noise, when enabled, perturbs each bucket value with a Gaussian
read from the counter-based generator at index ``3 * slot + channel``, so
any slot's noise can be reproduced without replaying the slots before it.
Buckets are computed in one thread, in fixed blocks of ``BLOCK_SLOTS``
slots that bound the temporaries; window assembly is a separate pass.
The ``workers`` argument is validated but changes neither output nor speed.
"""

from __future__ import annotations

import bisect
import math
from pathlib import Path
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import pnm, rng
from .disk import ScanSchedule
from .hadamard import ReducedPatternSet
from .scene import SceneObject, Trajectory, as_fraction, translate_image

__all__ = [
    "WINDOW_MODES",
    "NOISE_SIGMA_MAX",
    "TimingConfig",
    "ExposureFrame",
    "BucketTrace",
    "SimulationResult",
    "bucket_value",
    "slot_contribution",
    "simulate",
    "window_grid",
    "write_frame_ppm",
    "write_frame_txt",
    "read_frame_txt",
    "write_bucket_csv",
]

WINDOW_MODES = ("tumbling", "sliding")

# rng.gaussian draws |z| <= sqrt(-2 ln 2**-53) = sqrt(106 ln 2) < 8.58, so a
# sigma up to this bound keeps the rounded noise below 2**62 in magnitude,
# and noise plus any bucket (at most 255 * n_cell) fits in int64.
NOISE_SIGMA_MAX = 5e17

# Slots per block of bucket products, noise and accumulator updates; bounds
# the per-block temporaries.
BLOCK_SLOTS = 4096


@dataclass(frozen=True)
class TimingConfig:
    """Clock for the simulation; every field is an exact rational in seconds."""

    revolution_period: Fraction = Fraction(1)
    persistence_window: Fraction = Fraction(1, 5)
    window_mode: str = "tumbling"
    total_duration: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("revolution_period", "persistence_window", "total_duration"):
            value = as_fraction(getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        if self.window_mode not in WINDOW_MODES:
            raise ValueError(
                f"window_mode must be one of {WINDOW_MODES}, got {self.window_mode!r}"
            )

    def slot_duration(self, slots_per_revolution: int) -> Fraction:
        return self.revolution_period / slots_per_revolution


@dataclass(frozen=True)
class ExposureFrame:
    """Accumulated image over one window, as exact integer counts."""

    start: Fraction
    end: Fraction
    image: np.ndarray


@dataclass(frozen=True, eq=False)
class BucketTrace:
    """Detector readings over the simulated duration.

    Row ``s`` of the ``(S, 3)`` int64 ``buckets`` holds slot ``s``'s
    (red, green, blue) counts; slot ``s`` starts at ``s * slot_dt`` seconds.
    """

    buckets: np.ndarray
    slot_dt: Fraction


@dataclass(frozen=True)
class SimulationResult:
    frames: tuple[ExposureFrame, ...]
    trace: BucketTrace


def bucket_value(mask: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Per-channel sum of frame values under the mask, shape (3,) int64."""
    lit = mask.astype(np.int64)
    return np.tensordot(lit, frame.astype(np.int64), axes=([0, 1], [0, 1]))


def slot_contribution(mask: np.ndarray, bucket: np.ndarray) -> np.ndarray:
    """The slot's term of the correlation sum: bucket broadcast over the mask."""
    return mask.astype(np.int64)[:, :, None] * np.asarray(bucket, dtype=np.int64)[None, None, :]


def _offset_blocks(
    trajectory: Trajectory, slot_dt: Fraction, slot_count: int
) -> list[tuple[int, int, tuple[int, int]]]:
    """Partition slots into runs of constant object pose.

    Returns (start_slot, end_slot, offset) triples.  Static trajectories
    give one run; a hold interval gives one run per hold block that holds
    a slot start; free linear motion falls back to per-slot evaluation.
    """
    if trajectory.mode == "static":
        return [(0, slot_count, (0, 0))]
    if trajectory.hold_interval is not None:
        hold = trajectory.hold_interval
        blocks = []
        lo = 0
        while lo < slot_count:
            # Jump to the block of slot lo, skipping blocks no slot starts in.
            block = (lo * slot_dt) // hold
            hi = min(math.ceil((block + 1) * hold / slot_dt), slot_count)
            blocks.append((lo, hi, trajectory.offset_at(lo * slot_dt)))
            lo = hi
        return blocks
    blocks = []
    for s in range(slot_count):
        offset = trajectory.offset_at(s * slot_dt)
        if blocks and blocks[-1][2] == offset:
            blocks[-1] = (blocks[-1][0], s + 1, offset)
        else:
            blocks.append((s, s + 1, offset))
    return blocks


def simulate(
    scene: SceneObject,
    trajectory: Trajectory,
    schedule: ScanSchedule,
    patterns: ReducedPatternSet,
    timing: TimingConfig,
    noise_sigma: float = 0.0,
    seed: int = 0,
    workers: int = 1,
) -> SimulationResult:
    """Run the clocked measurement and assemble exposure frames.

    Returns the emitted frames (ordered by window start) and the full
    bucket trace over the simulated duration.  ``workers`` must be at
    least 1 and is otherwise unused: every value gives the same bytes.
    """
    spec = schedule.spec
    if patterns.pattern_length != spec.n_cell:
        raise ValueError(
            f"pattern length {patterns.pattern_length} does not match "
            f"cell width {spec.n_cell}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not 0 <= noise_sigma <= NOISE_SIGMA_MAX:
        raise ValueError(f"noise_sigma must be in [0, {NOISE_SIGMA_MAX:g}], got {noise_sigma}")
    if scene.side != spec.n:
        raise ValueError(f"scene side {scene.side} does not match spec n {spec.n}")

    per_rev = spec.slots_per_revolution
    slot_dt = timing.slot_duration(per_rev)
    slot_count = math.ceil(timing.total_duration / slot_dt)
    # Per schedule slot: the lit columns of its cell and its pattern bits.
    cols = (schedule.cells * spec.n_cell)[:, None] + np.arange(spec.n_cell)
    bits = patterns.patterns.astype(np.int64)[schedule.pattern_index]

    base = scene.pixels.astype(np.int64)
    poses: dict[tuple[int, int], np.ndarray] = {(0, 0): base}
    runs = _offset_blocks(trajectory, slot_dt, slot_count)
    for _, _, offset in runs:
        if offset not in poses:
            poses[offset] = translate_image(base, offset[0], offset[1])

    buckets = np.zeros((slot_count, 3), dtype=np.int64)
    run_starts = [r_lo for r_lo, _, _ in runs]
    sigma = float(noise_sigma)

    def fill(lo: int, hi: int) -> None:
        i = bisect.bisect_right(run_starts, lo) - 1
        while i < len(runs) and runs[i][0] < hi:
            r_lo, r_hi, offset = runs[i]
            i += 1
            lo2, hi2 = max(lo, r_lo), min(hi, r_hi)
            j = np.arange(lo2, hi2) % per_rev
            seg = poses[offset][schedule.rows[j, None], cols[j], :]
            buckets[lo2:hi2] = np.einsum("sj,sjc->sc", bits[j], seg)
        if sigma > 0:
            z = rng.gaussians(seed, 3 * lo, 3 * hi).reshape(-1, 3)
            noise = np.floor(sigma * z + 0.5).astype(np.int64)
            buckets[lo:hi] = np.maximum(buckets[lo:hi] + noise, 0)

    for lo in range(0, slot_count, BLOCK_SLOTS):
        fill(lo, min(lo + BLOCK_SLOTS, slot_count))

    frames = _frames(schedule, bits, buckets, timing, slot_dt)
    return SimulationResult(frames=frames, trace=BucketTrace(buckets=buckets, slot_dt=slot_dt))


def window_grid(timing: TimingConfig, slot_dt: Fraction) -> tuple[Fraction, int]:
    """``(step, count)``: window ``i < count`` starts at ``i * step`` seconds.

    Tumbling windows step by the window length and must fit completely;
    sliding windows start at every slot start while the window still fits.
    """
    window, duration = timing.persistence_window, timing.total_duration
    if timing.window_mode == "tumbling":
        return window, duration // window
    return slot_dt, max(0, (duration - window) // slot_dt + 1)


def _frames(
    schedule: ScanSchedule,
    bits: np.ndarray,
    buckets: np.ndarray,
    timing: TimingConfig,
    slot_dt: Fraction,
) -> tuple[ExposureFrame, ...]:
    """Exposure frames of either window mode, from one running accumulator.

    Each window becomes the slot range [lo, hi) of the slots starting
    inside it.  Window ends never pass the duration, so hi <= slot count,
    and both bounds only grow from one window to the next: the accumulator
    adds the slots that enter and subtracts those that leave, and starts
    over from zero when a window shares no slot with the one before.
    """
    spec = schedule.spec
    window = timing.persistence_window
    step, count = window_grid(timing, slot_dt)

    acc = np.zeros((spec.n, spec.k, spec.n_cell, 3), dtype=np.int64)

    def add(lo: int, hi: int, sign: int) -> None:
        for b_lo in range(lo, hi, BLOCK_SLOTS):
            b_hi = min(b_lo + BLOCK_SLOTS, hi)
            j = np.arange(b_lo, b_hi) % spec.slots_per_revolution
            terms = bits[j][:, :, None] * (sign * buckets[b_lo:b_hi, None, :])
            np.add.at(acc, (schedule.rows[j], schedule.cells[j]), terms)

    frames = []
    cur_lo = cur_hi = 0
    for start in (i * step for i in range(count)):
        lo, hi = math.ceil(start / slot_dt), math.ceil((start + window) / slot_dt)
        if lo >= cur_hi:
            acc[...] = 0
            cur_lo = cur_hi = lo
        add(cur_lo, lo, -1)
        add(cur_hi, hi, 1)
        cur_lo, cur_hi = lo, hi
        image = acc.reshape(spec.n, spec.n, 3).copy()
        frames.append(ExposureFrame(start=start, end=start + window, image=image))
    return tuple(frames)


# ---------------------------------------------------------------------------
# Frame and trace exports.
# ---------------------------------------------------------------------------


def write_frame_ppm(frame: ExposureFrame, path) -> None:
    """Scale the integer frame onto 0..255 and write a binary PPM.

    The frame maximum maps to 255; an all-zero frame stays zero.  Scaling
    rounds half up in exact integer arithmetic.
    """
    image = frame.image.astype(np.int64)
    peak = int(image.max()) if image.size else 0
    if peak <= 0:
        scaled = np.zeros(image.shape, dtype=np.uint8)
    else:
        scaled = ((image * 510 + peak) // (2 * peak)).astype(np.uint8)
    pnm.write_ppm(path, scaled)


def write_frame_txt(frame: ExposureFrame, path) -> None:
    """Write the raw integer counts, one channel block per color."""
    lines = []
    for channel, name in enumerate(("red", "green", "blue")):
        lines.append(f"# channel {name}")
        lines += (" ".join(map(str, row)) for row in frame.image[:, :, channel].tolist())
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def read_frame_txt(path) -> np.ndarray:
    """Read an (n, n, 3) int64 array written by write_frame_txt."""
    text = Path(path).read_bytes().decode("ascii")
    channels: list[list[list[int]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# channel"):
            channels.append([])
            continue
        if not channels:
            raise ValueError(f"{path}: data before first channel header")
        channels[-1].append([int(tok) for tok in line.split()])
    if len(channels) != 3:
        raise ValueError(f"{path}: expected 3 channel blocks, found {len(channels)}")
    arrays = [np.array(block, dtype=np.int64) for block in channels]
    if not (arrays[0].shape == arrays[1].shape == arrays[2].shape):
        raise ValueError(f"{path}: channel blocks disagree in shape")
    return np.stack(arrays, axis=2)


def write_bucket_csv(trace: BucketTrace, path) -> None:
    """Write ``t,slot,red,green,blue`` rows, times as decimal seconds.

    ``s * num / den`` divides Python ints with correct rounding, so each
    time equals ``float(s * slot_dt)``.
    """
    num, den = trace.slot_dt.numerator, trace.slot_dt.denominator
    lines = ["t,slot,red,green,blue"]
    lines += (
        f"{s * num / den!r},{s},{r},{g},{b}" for s, (r, g, b) in enumerate(trace.buckets.tolist())
    )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))
