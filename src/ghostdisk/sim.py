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
In one thread, a first pass gathers each bucket's pattern row and posed
cell by index, per run of constant pose in blocks of at most ``BLOCK_SLOTS``
slots; a second adds the noise over fixed blocks of ``BLOCK_SLOTS`` slots,
and a third assembles the windows from one running accumulator.  Each
window's leaving and entering slots sum their buckets per (row, cell,
pattern) into ``dB``, and only the cells they touched go through the
``n_cell x n_cell`` pattern matrix, as ``acc += R^T @ dB``: a one-slot
sliding step projects one or two cells, a whole window every cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import pnm, rng
from .disk import ScanSchedule, check_pattern_length
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
    "frame_texts",
    "write_frame_txt",
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Frames, their images as one ``(F, n, n, 3)`` int64 array, and the trace.

    Each ``frames[i].image`` is a view of ``images[i]``.
    """

    frames: tuple[ExposureFrame, ...]
    images: np.ndarray
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

    Returns (start_slot, end_slot, offset) triples, with one ``offset_at``
    call per run.  Static trajectories give one run; a hold interval gives
    one run per hold block that holds a slot start; free linear motion
    gives one run per pose, cut where either axis' offset changes.
    """
    if trajectory.mode == "static":
        return [(0, slot_count, (0, 0))]
    if trajectory.hold_interval is not None:
        hold = trajectory.hold_interval
        cuts = [0]
        while cuts[-1] < slot_count:
            # Jump to the block of the last cut, skipping blocks no slot starts in.
            block = (cuts[-1] * slot_dt) // hold
            cuts.append(min(math.ceil((block + 1) * hold / slot_dt), slot_count))
    else:
        changes = set()
        for v in trajectory.velocity:
            changes.update(_offset_changes(v * slot_dt, slot_count))
        cuts = [0, *sorted(changes), slot_count]
    return [
        (lo, hi, trajectory.offset_at(lo * slot_dt)) for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def _offset_changes(step: Fraction, slot_count: int) -> range | list[int]:
    """Slots ``0 < s < slot_count`` where ``round_half_away(step * s)`` changes.

    With ``step = ±a/b``, ``|round(step * s)| >= m`` exactly when
    ``2as + b >= 2bm``, so the value first reaches ``m`` at slot
    ``ceil((2m - 1) b / 2a)``.  A step of at least one pixel changes the
    offset at every slot, which also bounds the work by the slot count.
    """
    a, b = abs(step.numerator), step.denominator
    if a >= b:
        return range(1, slot_count)
    last = (2 * a * (slot_count - 1) + b) // (2 * b)
    return [-((1 - 2 * m) * b // (2 * a)) for m in range(1, last + 1)]


def simulate(
    scene: SceneObject,
    trajectory: Trajectory,
    schedule: ScanSchedule,
    patterns: ReducedPatternSet,
    timing: TimingConfig,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> SimulationResult:
    """Run the clocked measurement and assemble exposure frames.

    Returns the emitted frames (ordered by window start) and the full
    bucket trace over the simulated duration.  Raises ``ValueError`` up
    front when a frame could overflow int64 (see ``_check_frame_peak``) or
    the ``(F, n, n, 3)`` int64 frame array has more bytes than numpy can index.
    """
    spec = schedule.spec
    check_pattern_length(spec, patterns)
    if not 0 <= noise_sigma <= NOISE_SIGMA_MAX:
        raise ValueError(f"noise_sigma must be in [0, {NOISE_SIGMA_MAX:g}], got {noise_sigma}")
    if scene.side != spec.n:
        raise ValueError(f"scene side {scene.side} does not match spec n {spec.n}")

    per_rev = spec.slots_per_revolution
    slot_dt = timing.slot_duration(per_rev)
    slot_count = math.ceil(timing.total_duration / slot_dt)
    window_slots = min(math.ceil(timing.persistence_window / slot_dt), slot_count)
    frame_count = window_grid(timing, slot_dt)[1]
    if frame_count * per_rev * 3 * 8 > np.iinfo(np.intp).max:
        shown = frame_count if frame_count < 10**18 else "over 10**18"
        raise ValueError(
            f"{shown} frames of {spec.n}x{spec.n} pixels cannot be indexed: "
            "lengthen persistence_time"
        )
    _check_frame_peak(patterns, per_rev, window_slots, noise_sigma)

    base = scene.pixels.astype(np.int64)
    poses: dict[tuple[int, int], np.ndarray] = {(0, 0): base}
    buckets = np.zeros((slot_count, 3), dtype=np.int64)
    for lo, hi, offset in _offset_blocks(trajectory, slot_dt, slot_count):
        if offset not in poses:
            poses[offset] = translate_image(base, offset[0], offset[1])
        cells = poses[offset].reshape(spec.n, spec.k, spec.n_cell, 3)
        for b_lo in range(lo, hi, BLOCK_SLOTS):
            b_hi = min(b_lo + BLOCK_SLOTS, hi)
            j = np.arange(b_lo, b_hi) % per_rev
            lit = cells[schedule.rows[j], schedule.cells[j]]
            bits = patterns.patterns[schedule.pattern_index[j]]
            buckets[b_lo:b_hi] = np.einsum("sj,sjc->sc", bits, lit)

    sigma = float(noise_sigma)
    if sigma > 0:
        for lo in range(0, slot_count, BLOCK_SLOTS):
            hi = min(lo + BLOCK_SLOTS, slot_count)
            z = rng.gaussians(seed, 3 * lo, 3 * hi).reshape(-1, 3)
            noise = np.floor(sigma * z + 0.5).astype(np.int64)
            buckets[lo:hi] = np.maximum(buckets[lo:hi] + noise, 0)

    images, frames = _frames(schedule, patterns.patterns, buckets, timing, slot_dt)
    return SimulationResult(
        frames=frames, images=images, trace=BucketTrace(buckets=buckets, slot_dt=slot_dt)
    )


def _check_frame_peak(
    patterns: ReducedPatternSet, per_rev: int, window_slots: int, noise_sigma: float
) -> None:
    """Refuse a run whose frames could pass int64, before any work.

    A bucket is at most ``255 * per_slot`` plus the largest rounded noise,
    ``floor(sigma * sqrt(106 ln 2)) + 1`` (``rng.gaussian`` is largest at its
    smallest uniform, ``2**-53``), where ``per_slot`` is the most lit bits
    of a pattern.  A window of ``window_slots`` slots visits each
    schedule slot at most ``ceil(window_slots / per_rev)`` times, and a
    pixel is lit by at most ``per_pixel`` slots of a revolution (the most
    lit bits of a pattern column; both are ``c_max`` for the symmetric
    reduced matrix).  Buckets are nonnegative, so the running accumulator
    never exceeds the product; like ``NOISE_SIGMA_MAX`` it is a worst case.

    The same bound covers the window update ``acc += R^T @ dB``.  A
    frame's ``dB`` subtracts the slots leaving the previous window and adds
    those entering the new one, so it mixes signs.  But every partial sum
    of a pixel's projection is a partial sum over the entering slots minus
    one over the leaving slots; as buckets are >= 0, each lies in
    ``[0, peak]`` (the slots all sit in one window), so their difference
    stays within +-peak.  Each ``dB`` entry is likewise a difference of two
    sums of at most ``visits`` buckets, within +-peak unless every pattern
    is dark, when every product with it is 0.
    """
    per_slot = int(patterns.patterns.sum(axis=1).max())
    per_pixel = int(patterns.patterns.sum(axis=0).max())
    visits = -(-window_slots // per_rev)
    noise = math.floor(noise_sigma * math.sqrt(-2.0 * math.log(2.0**-53))) + 1
    peak = per_pixel * visits * (255 * per_slot + noise)
    if peak >= 2**63:
        raise ValueError(
            f"frames could reach {peak:.3e} counts, past int64: shorten "
            "persistence_time or lower noise_sigma"
        )


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
    matrix: np.ndarray,  # (n_cell, n_cell) 0/1 patterns
    buckets: np.ndarray,
    timing: TimingConfig,
    slot_dt: Fraction,
) -> tuple[np.ndarray, tuple[ExposureFrame, ...]]:
    """Exposure frames of either window mode, from one running accumulator.

    Each window becomes the slot range [lo, hi) of the slots starting
    inside it.  Window ends never pass the duration, so hi <= slot count,
    and both bounds only grow from one window to the next: the accumulator
    adds the slots that enter and subtracts those that leave, and starts
    over from zero when a window shares no slot with the one before.
    Returns the ``(count, n, n, 3)`` image array and the frames viewing it.
    """
    spec = schedule.spec
    window = timing.persistence_window
    step, count = window_grid(timing, slot_dt)

    per_rev = spec.slots_per_revolution
    acc = np.zeros((spec.n, spec.k, spec.n_cell, 3), dtype=np.int64)
    sums = np.zeros_like(acc)  # dB: the pending buckets per (row, cell, pattern)
    touched = np.zeros((spec.n, spec.k), dtype=bool)  # cells with a pending dB
    chunk = max(1, BLOCK_SLOTS // spec.n_cell)
    matrix_t = np.ascontiguousarray(matrix.T)
    images = np.empty((count, spec.n, spec.n, 3), dtype=np.int64)

    def add(lo: int, hi: int, sign: int) -> None:
        # Slot s plays schedule position s % per_rev, and no position repeats
        # within a revolution: sum whole revolutions per position, then add
        # each part by plain fancy +=, BLOCK_SLOTS positions at a time.
        head = min(-(-lo // per_rev) * per_rev, hi)
        tail = max(hi // per_rev * per_rev, head)
        for s_lo, s_hi in ((lo, head), (head, tail), (tail, hi)):
            if s_lo == s_hi:
                continue
            revs = max(1, (s_hi - s_lo) // per_rev)
            span = (s_hi - s_lo) // revs
            part = buckets[s_lo:s_hi].reshape(revs, span, 3)
            j = slice(s_lo % per_rev, s_lo % per_rev + span)
            rows, cols, pats = schedule.rows[j], schedule.cells[j], schedule.pattern_index[j]
            for p in range(0, span, BLOCK_SLOTS):
                q = slice(p, p + BLOCK_SLOTS)
                sums[rows[q], cols[q], pats[q]] += sign * part[:, q].sum(axis=0)
                touched[rows[q], cols[q]] = True

    def project() -> None:
        # acc += R^T @ dB over the touched cells only, chunk cells at a time.
        rows, cols = np.nonzero(touched)
        for p in range(0, len(rows), chunk):
            cells = rows[p : p + chunk], cols[p : p + chunk]
            acc[cells] += matrix_t @ sums[cells]
            sums[cells] = 0
        touched[...] = False

    # Window i holds slots [ceil(i * a / d), ceil((i * a + w) / d)): step and
    # window in slots, over a common denominator d.
    d = math.lcm((step / slot_dt).denominator, (window / slot_dt).denominator)
    a, w = int(step / slot_dt * d), int(window / slot_dt * d)
    frames = []
    cur_lo = cur_hi = 0
    for i in range(count):
        lo, hi = -(-i * a // d), -(-(i * a + w) // d)
        if lo >= cur_hi:
            acc[...] = 0
            cur_lo = cur_hi = lo
        add(cur_lo, lo, -1)
        add(cur_hi, hi, 1)
        project()
        cur_lo, cur_hi = lo, hi
        images[i] = acc.reshape(spec.n, spec.n, 3)
        start = i * step
        frames.append(ExposureFrame(start=start, end=start + window, image=images[i]))
    return images, tuple(frames)


# ---------------------------------------------------------------------------
# Frame and trace exports.
# ---------------------------------------------------------------------------


def _scale_ppm(images: np.ndarray) -> np.ndarray:
    """Each frame of a ``(B, h, w, 3)`` block scaled onto 0..255 as uint8.

    Value ``v`` of a frame with peak ``p > 0`` maps to
    ``floor((510 v + p) / (2 p))`` (the peak to 255, halves rounding up),
    which is ``(c + 1) // 2`` with ``c = floor(510 v / p)``.  The product
    ``510 v`` is never formed: with ``p = 510 d + b`` and ``v = q d + l``,
    ``510 v = q p + (510 l - q b)``, where ``510 l < max(p, 510)`` and
    ``|q b| < 520200`` for ``0 <= v <= p``, so every step is exact in int64
    for any frame of nonnegative counts.  A frame with peak ``<= 0`` stays zero.
    """
    v = np.asarray(images, dtype=np.int64)
    peak = v.max(axis=(1, 2, 3), keepdims=True)
    p = np.maximum(peak, 1)
    d = np.maximum(p // 510, 1)
    b = p - 510 * d
    # In place, to keep a whole n = 155 frame's temporaries small.
    q, t = np.divmod(v, d)
    t *= 510
    t -= q * b
    t //= p
    q += t  # c = floor(510 v / p)
    q += 1
    q >>= 1
    q *= peak > 0
    return q.astype(np.uint8)


def write_frame_ppm(images: np.ndarray, paths) -> None:
    """Write each frame of a ``(B, h, w, 3)`` block as a binary PPM.

    Each frame is scaled on its own: its maximum maps to 255 and an
    all-zero frame stays zero, rounding half up in exact integer arithmetic.
    """
    for scaled, path in zip(_scale_ppm(images), paths, strict=True):
        pnm.write_ppm(path, scaled)


_CHANNEL_HEADERS = tuple(f"# channel {name}\n".encode("ascii") for name in ("red", "green", "blue"))
_GROUP = np.uint64(10_000)
# Offsets of the three spellings in _group_spellings().
_LEADING, _INNER, _UNITS = 0, 10_000, 20_000


@functools.cache
def _group_spellings() -> np.ndarray:
    """``(3 * 10**4,)`` uint32: the four ASCII bytes of each base-10**4 group.

    Entry ``offset + g`` spells ``g`` as a leading group (``_LEADING``: its
    leading zeros become zero bytes, so 0 is four zero bytes), as an inner
    group (``_INNER``: zero-padded to four digits) or as a value's only
    group (``_UNITS``: like leading, but 0 spells "0").
    """
    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    inner = (digits + ord("0")).astype(np.uint8)
    leading = np.where(np.cumsum(digits, axis=1) == 0, 0, inner).astype(np.uint8)
    units = leading.copy()
    units[0, 3] = ord("0")
    table = np.concatenate([leading, inner, units]).view(np.uint32).reshape(-1)
    table.setflags(write=False)  # cached: every caller shares it
    return table


def _value_cells(images: np.ndarray) -> np.ndarray:
    """The values of a ``(B, h, w, 3)`` int block as fixed-width ASCII cells.

    Values come in file order (frame, channel, row, column).  Each cell is
    a sign byte, one four-byte spelling per base-10**4 digit group (as many
    groups as the block's largest magnitude needs) and a separator: a space,
    or a newline at a row's end.  Padding bytes are zero.
    """
    width = images.shape[2]
    values = images.transpose(0, 3, 1, 2).astype(np.int64, order="C").reshape(-1)
    negative = values < 0
    quot = np.abs(values, out=values).view(np.uint64)  # exact for -2**63 too
    groups, top = 1, int(quot.max())
    while top >= 10_000**groups:
        groups += 1
    idx = np.empty((quot.size, groups), dtype=np.intp)
    for col in range(groups - 1, -1, -1):
        nxt = quot // _GROUP
        quot -= nxt * _GROUP
        idx[:, col] = quot
        idx[:, col] += np.where(nxt > 0, _INNER, _UNITS if col == groups - 1 else _LEADING)
        quot = nxt
    cells = np.empty((quot.size, 4 * groups + 2), dtype=np.uint8)
    cells[:, 0] = np.where(negative, ord("-"), 0)
    cells[:, 1:-1] = _group_spellings()[idx].view(np.uint8)
    cells[:, -1] = ord(" ")
    cells.reshape(-1, width, cells.shape[1])[:, -1, -1] = ord("\n")
    return cells


def frame_texts(images: np.ndarray) -> list[bytes]:
    """``frame_NNNN.txt`` bytes of each frame of a ``(B, h, w, 3)`` int block.

    Dropping the zero padding of the value cells leaves exactly the
    ``" ".join(map(str, row))`` lines; every ``h``-th newline ends a channel.
    """
    count, height = images.shape[:2]
    cells = _value_cells(images)
    text = cells[cells != 0]
    ends = (np.flatnonzero(text == ord("\n"))[height - 1 :: height] + 1).tolist()
    data = text.tobytes()
    starts = [0, *ends[:-1]]
    return [
        b"".join(_CHANNEL_HEADERS[c] + data[starts[3 * f + c] : ends[3 * f + c]] for c in range(3))
        for f in range(count)
    ]


def write_frame_txt(images: np.ndarray, paths) -> None:
    """Write the raw integer counts of each frame of a ``(B, h, w, 3)`` block.

    One ``# channel <name>`` block per color, one line per row, values
    separated by single spaces.
    """
    for data, path in zip(frame_texts(images), paths, strict=True):
        with open(path, "wb") as fh:
            fh.write(data)


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
