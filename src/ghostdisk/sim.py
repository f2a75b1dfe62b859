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

Motion is sampled per slot: each axis' offset is the count of the slots,
found once per run in exact integers, where its magnitude first reaches
1, 2, ..., n.  Offsets, so clipped to +-n, index one zero-padded copy of
the scene, and static, held and free motion take one path at one cost.

A run is one walk, in one thread, over blocks of ``BLOCK_SLOTS`` slots.
Each block gathers its buckets' pattern rows and posed cells by index,
adds its noise, and folds its buckets into one running accumulator; the
frames whose window ends inside the block then close.  Each window's
leaving and entering slots sum their buckets per (row, cell, pattern)
into ``dB``, and only the cells they touched go through the ``n_cell x
n_cell`` pattern matrix, as ``acc += R^T @ dB``: a one-slot sliding step
projects one or two cells, a whole window every cell.  Sliding windows
take their leaving slots from the last ``window_slots`` buckets, which
one buffer carries from block to block; tumbling windows never need a
slot of an earlier block.
``simulate`` hands each block's bucket rows and closed frames to a sink as
it goes, or collects them into one ``SimulationResult``; streamed, a run
holds O(``BLOCK_SLOTS`` + window + n^2) values, whatever its length.

Both text exports, frame ``.txt`` files and ``bucket.csv``, spell their
integers as whole arrays through one base-10**4 digit-group formatter;
``bucket.csv``'s times are Python's ``repr`` of each slot's start.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pnm, rng
from .disk import ScanSchedule, check_pattern_length
from .hadamard import ReducedPatternSet
from .scene import SceneObject, Trajectory, as_fraction

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

# Frame values handed to a sink per call (4 frames at n = 35, one frame at
# n = 155): bounds the frames held at once and the exporters' temporaries,
# which stay small enough to be reused from call to call rather than
# mapped afresh.
FRAME_BLOCK_VALUES = 1 << 14

# sink(slot_lo, buckets, frame_lo, images): see simulate().
Sink = Callable[[int, np.ndarray, int, np.ndarray], None]


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


def _pose_steps(velocity: Fraction, hold: Fraction, slot_dt: Fraction, n: int,
                slot_count: int) -> np.ndarray:
    """Slots ``s < slot_count`` where ``|offset|`` first reaches ``1, 2, ..., n``, in order.

    Slot ``s`` is posed at hold block ``k = floor(s * slot_dt / hold)``
    (``hold = slot_dt`` for free motion, so ``k = s``), with offset
    ``round_half_away(velocity * hold * k)``.  With ``velocity * hold =
    +-a/b``, that offset reaches ``m`` in magnitude exactly when ``2ak + b >=
    2bm``, so first at ``k = ceil((2m - 1) b / 2a)``, whose first slot is
    ``ceil(k * hold / slot_dt)``.  The count of steps at or before a slot is
    then its offset's magnitude, clipped to ``n``.
    """
    step, ratio = abs(velocity * hold), hold / slot_dt
    a, b = step.numerator, step.denominator
    steps = []
    for m in range(1, n + 1 if a else 1):
        k = -((1 - 2 * m) * b // (2 * a))
        s = -(-k * ratio.numerator // ratio.denominator)
        if s >= slot_count:
            break
        steps.append(s)
    return np.array(steps, dtype=np.int64)


def simulate(
    scene: SceneObject,
    trajectory: Trajectory,
    schedule: ScanSchedule,
    patterns: ReducedPatternSet,
    timing: TimingConfig,
    noise_sigma: float = 0.0,
    seed: int = 0,
    sink: Sink | None = None,
) -> SimulationResult:
    """Run the clocked measurement and assemble exposure frames.

    Without ``sink``, returns the emitted frames (ordered by window start)
    and the full bucket trace over the simulated duration.  With one, the
    run goes to ``sink(slot_lo, buckets, frame_lo, images)`` as it is
    computed: ``buckets`` holds the rows of slots ``slot_lo, slot_lo + 1,
    ...`` and ``images`` the ``(B, n, n, 3)`` int64 frames ``frame_lo,
    frame_lo + 1, ...``.  Successive calls continue both where the last one
    stopped; the first call of each ``BLOCK_SLOTS`` block carries its rows,
    and each call at most ``FRAME_BLOCK_VALUES`` frame values (at least one
    frame).  Both arrays are reused once the call returns, so a sink copies
    what it keeps.  The result then holds no frames and an empty trace.

    Raises ``ValueError`` up front, before any slot is simulated, when the
    seed lies outside [0, 2**64), a frame could overflow int64 (see
    ``_check_frame_peak``) or the ``(F, n, n, 3)`` int64 array of every
    frame has more bytes than numpy can index.
    """
    spec = schedule.spec
    check_pattern_length(spec, patterns)
    if not 0 <= noise_sigma <= NOISE_SIGMA_MAX:
        raise ValueError(f"noise_sigma must be in [0, {NOISE_SIGMA_MAX:g}], got {noise_sigma}")
    if scene.side != spec.n:
        raise ValueError(f"scene side {scene.side} does not match spec n {spec.n}")
    rng.check_seed(seed)

    per_rev = spec.slots_per_revolution
    slot_dt = timing.slot_duration(per_rev)
    slot_count = math.ceil(timing.total_duration / slot_dt)
    window_slots = min(math.ceil(timing.persistence_window / slot_dt), slot_count)
    step, frame_count = window_grid(timing, slot_dt)
    if frame_count * per_rev * 3 * 8 > np.iinfo(np.intp).max:
        shown = frame_count if frame_count < 10**18 else "over 10**18"
        raise ValueError(
            f"{shown} frames of {spec.n}x{spec.n} pixels cannot be indexed: "
            "lengthen persistence_time"
        )
    _check_frame_peak(patterns, per_rev, window_slots, noise_sigma)

    blocks = _bucket_blocks(scene, trajectory, schedule, patterns, slot_dt, slot_count,
                            float(noise_sigma), seed)
    parts = _windows(schedule, patterns.patterns, timing, blocks)
    if sink is not None:
        for part in parts:
            sink(*part)
        return SimulationResult(
            frames=(),
            images=np.empty((0, spec.n, spec.n, 3), dtype=np.int64),
            trace=BucketTrace(buckets=np.empty((0, 3), dtype=np.int64), slot_dt=slot_dt),
        )

    buckets = np.empty((slot_count, 3), dtype=np.int64)
    images = np.empty((frame_count, spec.n, spec.n, 3), dtype=np.int64)
    for slot_lo, rows, frame_lo, block in parts:
        buckets[slot_lo : slot_lo + len(rows)] = rows
        images[frame_lo : frame_lo + len(block)] = block
    window = timing.persistence_window
    frames = tuple(
        ExposureFrame(start=i * step, end=i * step + window, image=image)
        for i, image in enumerate(images)
    )
    return SimulationResult(
        frames=frames, images=images, trace=BucketTrace(buckets=buckets, slot_dt=slot_dt)
    )


def _bucket_blocks(
    scene: SceneObject,
    trajectory: Trajectory,
    schedule: ScanSchedule,
    patterns: ReducedPatternSet,
    slot_dt: Fraction,
    slot_count: int,
    sigma: float,
    seed: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """``(b_lo, buckets)`` for each block of ``BLOCK_SLOTS`` slots, in order.

    Static, held and free motion share one path.  The scene sits, as
    ``uint8``, in the middle of a zero frame three times its side, and
    ``win[y, x]`` reads the ``n_cell`` pixels from ``(y, x)`` rightward.
    Each slot's offset ``(dx, dy)``, clipped to +-n (beyond which the
    posed scene is all zero), is its count of ``_pose_steps`` per axis;
    its posed cell is then ``win[row - dy + n, cell * n_cell - dx + n]``.
    The block gathers every slot's pattern row and posed cell by index,
    takes their products, and draws its noise at once, Gaussian index
    ``3 * slot + channel``.
    """
    spec = schedule.spec
    n, n_cell = spec.n, spec.n_cell
    per_rev = spec.slots_per_revolution
    pad = np.zeros((3 * n, 3 * n, 3), dtype=np.uint8)
    pad[n : 2 * n, n : 2 * n] = scene.pixels
    win = sliding_window_view(pad.reshape(3 * n, 9 * n), 3 * n_cell, axis=1)[:, ::3]
    hold = trajectory.hold_interval or slot_dt
    velocity = trajectory.velocity if trajectory.mode == "linear" else (0, 0)
    axes = [(1 if v > 0 else -1, _pose_steps(v, hold, slot_dt, n, slot_count)) for v in velocity]
    # Every temporary dies before the yield: a suspended walk holds none.
    for b_lo in range(0, slot_count, BLOCK_SLOTS):
        b_hi = min(b_lo + BLOCK_SLOTS, slot_count)
        slots = np.arange(b_lo, b_hi)
        dx, dy = (sign * np.searchsorted(steps, slots, "right") for sign, steps in axes)
        j = slots % per_rev
        cells = win[schedule.rows[j] - dy + n, schedule.cells[j] * n_cell - dx + n]
        buckets = np.einsum(
            "sj,sjc->sc",
            patterns.patterns[schedule.pattern_index[j]],
            cells.reshape(-1, n_cell, 3).astype(np.int64),  # mixed dtypes run slower
        )
        del slots, dx, dy, j, cells
        if sigma > 0:
            z = rng.gaussians(seed, 3 * b_lo, 3 * b_hi).reshape(-1, 3)
            buckets += np.floor(sigma * z + 0.5).astype(np.int64)
            np.maximum(buckets, 0, out=buckets)
            del z
        yield b_lo, buckets


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
        # As a power of two: a float cannot hold every peak a window allows.
        raise ValueError(
            f"frames could reach 2**{peak.bit_length() - 1} counts or more, past int64: "
            "shorten persistence_time or lower noise_sigma"
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


def _windows(
    schedule: ScanSchedule,
    matrix: np.ndarray,  # (n_cell, n_cell) 0/1 patterns
    timing: TimingConfig,
    blocks: Iterable[tuple[int, np.ndarray]],
) -> Iterator[tuple[int, np.ndarray, int, np.ndarray]]:
    """Exposure frames of either window mode, from one running accumulator.

    ``blocks`` yields ``(b_lo, buckets)`` for consecutive blocks of
    ``BLOCK_SLOTS`` slots (the last one may be shorter), and each block is
    passed on as the ``(slot_lo, buckets, frame_lo, images)`` calls that
    ``simulate`` documents, with the frames whose window ends inside it.

    Each window becomes the slot range [lo, hi) of the slots starting
    inside it.  Window ends never pass the duration, so hi <= slot count,
    and both bounds only grow from one window to the next: the accumulator
    adds the slots that enter, as their blocks arrive, and subtracts those
    that leave, and starts over from zero when a window shares no slot with
    the one before.  A leaving slot is at most ``window_slots`` before the
    block that drops it, so sliding windows keep that many buckets from
    earlier blocks; tumbling windows never share a slot and keep none.
    """
    spec = schedule.spec
    per_rev = spec.slots_per_revolution
    window = timing.persistence_window
    slot_dt = timing.slot_duration(per_rev)
    step, count = window_grid(timing, slot_dt)
    acc = np.zeros((spec.n, spec.k, spec.n_cell, 3), dtype=np.int64)
    sums = np.zeros_like(acc)  # dB: the pending buckets per (row, cell, pattern)
    touched = np.zeros((spec.n, spec.k), dtype=bool)  # cells with a pending dB
    chunk = max(1, BLOCK_SLOTS // spec.n_cell)
    matrix_t = np.ascontiguousarray(matrix.T)
    batch = np.empty((max(1, FRAME_BLOCK_VALUES // (3 * per_rev)), spec.n, spec.n, 3), np.int64)
    keep = 0
    if timing.window_mode == "sliding" and count:
        slot_count = math.ceil(timing.total_duration / slot_dt)
        keep = min(math.ceil(window / slot_dt), slot_count)
    # Slot s sits in history[s - first], for the current block and the `keep`
    # slots before it; each block shifts the last `keep` rows to the front.
    history = np.zeros((keep + BLOCK_SLOTS, 3), dtype=np.int64)
    first = 0

    def add(lo: int, hi: int, sign: int) -> None:
        # Slot s plays schedule position s % per_rev, and no position repeats
        # within a revolution: sum whole revolutions per position, then add
        # each part by plain fancy +=, BLOCK_SLOTS positions at a time.
        head = min(-(-lo // per_rev) * per_rev, hi)
        tail = max(hi // per_rev * per_rev, head)
        for s_lo, s_hi in ((lo, head), (head, tail), (tail, hi)):
            if s_lo >= s_hi:
                continue
            revs = max(1, (s_hi - s_lo) // per_rev)
            span = (s_hi - s_lo) // revs
            part = history[s_lo - first : s_hi - first].reshape(revs, span, 3)
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
    i = cur_lo = cur_hi = 0
    for b_lo, buckets in blocks:
        b_hi = b_lo + len(buckets)
        history[:keep] = history[BLOCK_SLOTS:]
        history[keep : keep + len(buckets)] = buckets
        first = b_lo - keep
        slot_lo, done = b_lo, 0
        while i < count:
            lo, hi = -(-i * a // d), -(-(i * a + w) // d)
            if lo >= cur_hi:
                acc[...] = 0
                cur_lo = cur_hi = lo
            add(cur_lo, lo, -1)
            add(cur_hi, min(hi, b_hi), 1)
            cur_lo, cur_hi = lo, max(cur_hi, min(hi, b_hi))
            if hi > b_hi:
                break
            project()
            batch[done] = acc.reshape(spec.n, spec.n, 3)
            i, done = i + 1, done + 1
            if done == len(batch):
                yield slot_lo, buckets[slot_lo - b_lo :], i - done, batch
                slot_lo, done = b_hi, 0
        if slot_lo < b_hi or done:
            yield slot_lo, buckets[slot_lo - b_lo :], i - done, batch[:done]


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
    group (``_UNITS``: like leading, but 0 spells "0").  ``_int_cells``
    reads it for both text exports: frame ``.txt`` files and ``bucket.csv``.
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


def _int_cells(values: np.ndarray, sep: int) -> np.ndarray:
    """A 1-D int64 array as fixed-width ASCII cells, one row per value.

    Each cell is a sign byte, one four-byte ``_group_spellings()`` entry per
    base-10**4 digit group (as many groups as the largest magnitude needs)
    and the separator byte ``sep``; padding bytes are zero, so
    ``cells[cells != 0]`` leaves each ``str(value)`` and its separator.
    Both text exports spell their integers here: frame ``.txt`` values and
    ``bucket.csv``'s slot and color columns.
    """
    quot = np.abs(values).view(np.uint64)  # exact for -2**63 too
    groups, top = 1, int(quot.max(initial=0))
    while top >= 10_000**groups:
        groups += 1
    idx = np.empty((len(values), groups), dtype=np.intp)
    for col in range(groups - 1, -1, -1):
        nxt = quot // _GROUP
        quot -= nxt * _GROUP
        idx[:, col] = quot
        idx[:, col] += np.where(nxt > 0, _INNER, _UNITS if col == groups - 1 else _LEADING)
        quot = nxt
    cells = np.empty((len(values), 4 * groups + 2), dtype=np.uint8)
    cells[:, 0] = np.where(values < 0, ord("-"), 0)
    cells[:, 1:-1] = _group_spellings()[idx].view(np.uint8)
    cells[:, -1] = sep
    return cells


def frame_texts(images: np.ndarray) -> list[bytes]:
    """``frame_NNNN.txt`` bytes of each frame of a ``(B, h, w, 3)`` int block.

    The values go through ``_int_cells`` in file order (frame, channel,
    row, column), a space after each and a newline at each row's end.
    Dropping the zero padding leaves exactly the ``" ".join(map(str, row))``
    lines; every ``h``-th newline ends a channel.
    """
    count, height, width = images.shape[:3]
    values = images.transpose(0, 3, 1, 2).astype(np.int64, order="C").reshape(-1)
    cells = _int_cells(values, ord(" "))
    cells.reshape(-1, width, cells.shape[1])[:, -1, -1] = ord("\n")
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


def write_bucket_csv(trace: BucketTrace, path, first_slot: int = 0) -> None:
    """Write ``t,slot,red,green,blue`` rows, times as decimal seconds.

    Row ``i`` of ``trace.buckets`` is slot ``first_slot + i``.  From slot 0
    the file is created with its header; a later first slot appends to it,
    so a run written block by block gives the same bytes as a whole trace.
    ``s * num / den`` divides Python ints with correct rounding, so each
    time is ``repr(float(s * slot_dt))``; the other columns are base-10
    integers from ``_int_cells``.  Each ``BLOCK_SLOTS`` rows become one
    array of fixed-width cells, compacted and written.
    """
    num, den = trace.slot_dt.numerator, trace.slot_dt.denominator
    buckets = np.asarray(trace.buckets, dtype=np.int64)
    with open(path, "ab" if first_slot else "wb") as fh:
        if not first_slot:
            fh.write(b"t,slot,red,green,blue\n")
        for lo in range(0, len(buckets), BLOCK_SLOTS):
            block = buckets[lo : lo + BLOCK_SLOTS]
            s_lo, s_hi = first_slot + lo, first_slot + lo + len(block)
            times = map(operator.truediv, range(s_lo * num, s_hi * num, num), itertools.repeat(den))
            text = np.frombuffer((",".join(map(repr, times)) + ",").encode("ascii"), np.uint8)
            # Each time and its comma, left-aligned in one zero-padded cell.
            size = np.diff(np.flatnonzero(text == ord(",")), prepend=-1)
            stamp = np.zeros((len(block), size.max()), dtype=np.uint8)
            stamp[np.arange(stamp.shape[1]) < size[:, None]] = text
            slots = _int_cells(np.arange(s_lo, s_hi, dtype=np.int64), ord(","))
            rgb = _int_cells(block.reshape(-1), ord(",")).reshape(len(block), -1)
            rgb[:, -1] = ord("\n")
            cells = np.concatenate([stamp, slots, rgb], axis=1)
            fh.write(cells[cells != 0].tobytes())
