"""Time-domain simulation of the spinning-disk measurement.

README's "Determinism and noise" is the long form of this design and its
costs.  The invariants the code keeps, and where each is argued:

* A slot's bucket is, per channel, the scene posed at the slot's start
  summed under its pattern, and it adds ``bucket * mask`` to every window
  whose time span holds that start (``window_grid``, exact ``Fraction`` times).
* Each axis' offset is the slot's count of ``_pose_steps``, clipped to
  +-n, so static, held and free motion take one path.
* Buckets are at most 3 dense products per pose segment, block and
  revolution (``_grid_runs``), exact in float32 (``_bucket_blocks``).
* Slot ``s``, channel ``c`` takes Gaussian ``3 * s + c``
  (``rng.rounded_noise``), so no value depends on evaluation order.
* Every walk value lies within +-peak (``_check_frame_peak``): float64
  below ``2**53``, int64 past it, exact either way.  Its ``dB`` keeps
  schedule order, so a slot range adds to at most two slices of it.
* A streamed run holds arrays that do not grow with its length
  (``simulate``, ``_windows``), and exports take runs of whole rows of at
  most ``FRAME_BLOCK_VALUES`` values.
* Exports spell numbers in base-10**4 groups from one table
  (``_int_words``), each column cut to the digits its largest value needs
  and moved into one buffer per run as one item per row (``_join``).
* ``bucket.csv`` times are each slot start's ``repr``: a per-exponent
  scale leaves at most one multiple of 10 in its rounding interval, so
  the digits need no search (``_decimal_cells``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import pnm, rng
from .disk import ScanSchedule, check_pattern_length
from .hadamard import ReducedPatternSet
from .scene import SceneObject, Trajectory, as_fraction

__all__ = [
    "WINDOW_MODES",
    "NOISE_SIGMA_MAX",
    "TimingConfig",
    "BucketTrace",
    "SimulationResult",
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

# Slots per block of bucket products, noise and accumulator updates.
BLOCK_SLOTS = 4096

# Posed-cell pixels per chunk of a block's bucket products (whole slots),
# so their temporaries do not grow with n_cell; one chunk up to n_cell 32.
PRODUCT_PIXELS = 1 << 17

# Frame values handed to a sink per call, at least one frame (4 frames at
# n = 35, one at n = 155).  Frame exports format and scale at most this
# many values at a time, in runs of whole rows, so their temporaries stay
# the same size at any n.
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
            value = as_fraction(getattr(self, name), name)
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
class BucketTrace:
    """Detector readings over the simulated duration.

    Row ``s`` of the ``(S, 3)`` int64 ``buckets`` holds slot ``s``'s
    (red, green, blue) counts; slot ``s`` starts at ``s * slot_dt`` seconds.
    """

    buckets: np.ndarray
    slot_dt: Fraction


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Frames as one ``(F, n, n, 3)`` int64 array of exact counts, and the trace.

    Frame ``i`` covers ``[i * step, i * step + persistence_window)`` seconds,
    with ``step`` from ``window_grid``.
    """

    frames: np.ndarray
    trace: BucketTrace


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

    Without ``sink``, returns every frame (ordered by window start) and the
    full bucket trace over the simulated duration.  With one, the run
    streams to ``sink(slot_lo, buckets, frame_lo, images)`` calls as
    README's Library section describes, holding the same arrays whatever
    its length, and the result holds zero frames and an empty trace, in
    the shapes of a collected run.

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
    _, frame_count = window_grid(timing, slot_dt)
    if frame_count * per_rev * 3 * 8 > np.iinfo(np.intp).max:
        shown = frame_count if frame_count < 10**18 else "over 10**18"
        raise ValueError(
            f"{shown} frames of {spec.n}x{spec.n} pixels cannot be indexed: "
            "lengthen persistence_time"
        )
    peak = _check_frame_peak(patterns, per_rev, window_slots, noise_sigma)
    # Every walk value lies within +-peak: exact in float64 below 2**53.
    dtype = np.float64 if peak < 2**53 else np.int64

    blocks = _bucket_blocks(scene, trajectory, schedule, patterns, slot_dt, slot_count,
                            float(noise_sigma), seed)
    collect = sink is None
    buckets = np.empty((slot_count * collect, 3), dtype=np.int64)
    frames = np.empty((frame_count * collect, spec.n, spec.n, 3), dtype=np.int64)
    if collect:
        def sink(slot_lo: int, rows: np.ndarray, frame_lo: int, images: np.ndarray) -> None:
            buckets[slot_lo : slot_lo + len(rows)] = rows
            frames[frame_lo : frame_lo + len(images)] = images

    for part in _windows(schedule, patterns.patterns, timing, blocks, dtype):
        sink(*part)
    return SimulationResult(frames=frames, trace=BucketTrace(buckets=buckets, slot_dt=slot_dt))


def _grid_runs(
    lo: int, hi: int, cuts: list[int], per_rev: int, width: int
) -> Iterator[tuple[int, int, list[tuple[int, int, int, int]]]]:
    """``(s_lo, s_hi, rects)`` for each run of slots in ``[lo, hi)`` at one pose.

    Runs split at each slot of ``cuts`` (where a pose starts) and at each
    revolution's first slot.  A run's schedule slots ``s % per_rev`` fill a
    grid of ``width`` columns row by row, and ``rects`` lists, in slot
    order, the ``(major_lo, major_hi, minor_lo, minor_hi)`` rectangles that
    tile them: a partial head row, the whole rows and a partial tail row.
    """
    inner = cuts[bisect.bisect_right(cuts, lo) : bisect.bisect_left(cuts, hi)]
    edges = sorted({lo, hi, *inner, *range(lo - lo % per_rev + per_rev, hi, per_rev)})
    for s_lo, s_hi in itertools.pairwise(edges):
        j = s_lo % per_rev
        (r0, c0), (r1, c1) = divmod(j, width), divmod(j + s_hi - s_lo, width)
        if r0 == r1:
            yield s_lo, s_hi, [(r0, r0 + 1, c0, c1)]
            continue
        whole = r0 + (c0 > 0)
        rects = [(r0, whole, c0, width), (whole, r1, 0, width), (r1, r1 + 1, 0, c1)]
        yield s_lo, s_hi, [r for r in rects if r[0] < r[1] and r[2] < r[3]]


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

    README's "Determinism and noise" describes the pass: the scene padded
    by its motion, one stacked product ``cells @ R^T[:, p_lo:p_hi]`` per
    ``_grid_runs`` rectangle, written through a view of the block's
    buckets, and noise drawn per block.  Products are float32 while ``255 *
    per_slot < 2**24``: every partial sum is a nonnegative integer no
    larger, so exact.
    """
    spec = schedule.spec
    n, k, n_cell = spec.n, spec.k, spec.n_cell
    per_rev = spec.slots_per_revolution
    hold = trajectory.hold_interval or slot_dt
    velocity = trajectory.velocity if trajectory.mode == "linear" else (0, 0)
    axes = [(1 if v > 0 else -1, _pose_steps(v, hold, slot_dt, n, slot_count).tolist())
            for v in velocity]
    (left, right), (top, bottom) = (
        (len(steps), 0) if sign > 0 else (0, len(steps)) for sign, steps in axes
    )
    # Channel planes, so a posed copy is contiguous rows: (3, n + top + bottom, n + left + right).
    pad = np.pad(scene.pixels.transpose(2, 0, 1), ((0, 0), (top, bottom), (left, right)))
    cuts = sorted({*axes[0][1], *axes[1][1]})
    per_slot = int(patterns.patterns.sum(axis=1).max())
    dtype = np.float32 if 255 * per_slot < 2**24 else np.float64
    matrix_t = np.ascontiguousarray(patterns.patterns.T, dtype=dtype)
    pattern_major = schedule.order_mode == "pattern_major"
    width = n * k if pattern_major else n_cell
    rows = max(1, PRODUCT_PIXELS // n)  # scene rows per posed copy
    held = None, 0, 0, None  # the last posed copy: pose, its rows [lo, hi) and cells
    for b_lo in range(0, slot_count, BLOCK_SLOTS):
        b_hi = min(b_lo + BLOCK_SLOTS, slot_count)
        buckets = np.empty((b_hi - b_lo, 3), dtype=np.int64)
        for s_lo, s_hi, rects in _grid_runs(b_lo, b_hi, cuts, per_rev, width):
            # Not tuple(genexpr), whose freed results grow the 2-tuple free list.
            dx, dy = (sign * bisect.bisect_right(steps, s_lo) for sign, steps in axes)
            pose = dx, dy
            out, parts = buckets[s_lo - b_lo : s_hi - b_lo], []
            for m_lo, m_hi, c_lo, c_hi in rects:
                size = (m_hi - m_lo) * (c_hi - c_lo)
                dest, out = out[:size].reshape(m_hi - m_lo, c_hi - c_lo, 3), out[size:]
                # (p_lo, p_hi, rc_lo, rc_hi, dest[channel, rc, p]), slot order underneath.
                parts.append((m_lo, m_hi, c_lo, c_hi, dest.transpose(2, 1, 0)) if pattern_major
                             else (c_lo, c_hi, m_lo, m_hi, dest.transpose(2, 0, 1)))
            lo, hi = min(part[2] for part in parts) // k, -(-max(part[3] for part in parts) // k)
            for r_lo in range(lo, hi, rows):
                r_hi = min(r_lo + rows, hi)
                if held[0] != pose or not held[1] <= r_lo < r_hi <= held[2]:
                    cells = pad[:, top - dy + r_lo : top - dy + r_hi, left - dx : left - dx + n]
                    held = pose, r_lo, r_hi, cells.astype(dtype).reshape(3, -1, n_cell)
                base, cells = held[1] * k, held[3]
                for p_lo, p_hi, rc_lo, rc_hi, dest in parts:
                    a, b = max(rc_lo, r_lo * k), min(rc_hi, r_hi * k)
                    if a < b:
                        posed = cells[:, a - base : b - base]
                        dest[:, a - rc_lo : b - rc_lo] = posed @ matrix_t[:, p_lo:p_hi]
        if sigma > 0:
            buckets += rng.rounded_noise(seed, 3 * b_lo, 3 * b_hi, sigma).reshape(-1, 3)
            np.maximum(buckets, 0, out=buckets)
        yield b_lo, buckets


def _check_frame_peak(
    patterns: ReducedPatternSet, per_rev: int, window_slots: int, noise_sigma: float
) -> int:
    """Bound every frame value and walk sum; refuse a run that could pass int64.

    A bucket is at most ``255 * per_slot`` plus the largest rounded noise,
    ``floor(sigma * sqrt(106 ln 2)) + 1`` (``rng.rounded_noise`` rounds each
    ``rng.gaussian`` draw exactly, the largest at the smallest uniform,
    ``2**-53``), where ``per_slot`` is the most lit bits of a pattern.  A
    window of ``window_slots`` slots visits each schedule slot at most
    ``ceil(window_slots / per_rev)`` times, and a pixel is lit by at most
    ``per_pixel`` slots of a revolution (the most lit bits of a pattern
    column; both are ``c_max`` for the symmetric reduced matrix).  Buckets
    are nonnegative, so the running accumulator never exceeds the product;
    like ``NOISE_SIGMA_MAX`` it is a worst case.

    The same bound covers the window update ``acc += R^T @ dB``.  A
    frame's ``dB`` subtracts the slots leaving the previous window and adds
    those entering the new one, so it mixes signs.  But every partial sum
    of a pixel's projection is a partial sum over the entering slots minus
    one over the leaving slots; as buckets are >= 0, each lies in
    ``[0, peak]`` (the slots all sit in one window), so their difference
    stays within +-peak.  Each ``dB`` entry is likewise a difference of two
    sums of at most ``visits`` buckets, within +-peak unless every pattern
    is dark, when every product with it is 0.

    Returns ``peak``.  Each partial sum of a range's per-position fold (one
    sign), of the slice adds into ``dB``, or of the GEMM in any order, is
    one of the sums or differences above, so every value the walk forms is
    an integer within +-peak: exact in float64 below ``2**53``, where the
    walk runs in float64 (int64 otherwise).
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
    return peak


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
    dtype: type[np.generic],
) -> Iterator[tuple[int, np.ndarray, int, np.ndarray]]:
    """Exposure frames of either window mode, from one running accumulator.

    Each ``(b_lo, buckets)`` block of ``blocks`` goes on as the sink calls
    ``simulate`` documents, with the frames whose window ends inside it.
    README's "Determinism and noise" describes the walk: the slot ring,
    ``dB`` in schedule order and its projection.  The ring, ``dB``, the
    accumulator and the matrix share ``dtype``; frames leave as int64.
    """
    spec = schedule.spec
    per_rev, n_cell, cells = spec.slots_per_revolution, spec.n_cell, spec.n * spec.k
    pattern_major = schedule.order_mode == "pattern_major"
    window = timing.persistence_window
    slot_dt = timing.slot_duration(per_rev)
    step, count = window_grid(timing, slot_dt)
    acc = np.zeros((cells, n_cell, 3), dtype=dtype)
    sums = np.zeros((per_rev, 3), dtype=dtype)  # dB: the pending buckets per schedule slot
    # dB per (row * k + cell, pattern): a view of the schedule's grid in either order.
    grid = (sums.reshape(-1, cells, 3).swapaxes(0, 1) if pattern_major
            else sums.reshape(cells, -1, 3))
    flags = np.zeros(cells + 2, dtype=bool)  # cells with a pending dB, one False each side
    touched = flags[1:-1]
    chunk = max(1, BLOCK_SLOTS // n_cell)
    matrix_t = np.ascontiguousarray(matrix.T, dtype=dtype)
    batch = np.empty((max(1, FRAME_BLOCK_VALUES // (3 * per_rev)), spec.n, spec.n, 3), np.int64)
    # Window i holds slots [ceil(i * a / d), ceil((i * a + w) / d)): step and
    # window in slots, over a common denominator d.
    d = math.lcm((step / slot_dt).denominator, (window / slot_dt).denominator)
    a, w = int(step / slot_dt * d), int(window / slot_dt * d)
    keep = -(-w // d) if timing.window_mode == "sliding" and count else 0
    ring = -(-(keep + BLOCK_SLOTS) // BLOCK_SLOTS) * BLOCK_SLOTS
    history = np.zeros((ring, 3), dtype=dtype)

    def add(lo: int, hi: int, sign: int) -> None:
        # Entering slots lie in the current block (cur_hi == b_lo as it
        # starts), and leaving ranges hold at most one slot (sliding windows
        # step by one slot, tumbling ones never overlap), so none wraps.
        # A range longer than a revolution is first summed per position.
        if lo < hi:
            part = history[lo % ring : lo % ring + hi - lo]
            if hi - lo > per_rev:
                whole = (hi - lo) // per_rev * per_rev
                folded = part[:whole].reshape(-1, per_rev, 3).sum(axis=0)
                folded[: hi - lo - whole] += part[whole:]
                part = folded
            j = lo % per_rev
            for j0, rows in ((j, part[: per_rev - j]), (0, part[per_rev - j :])):
                j1 = j0 + len(rows)
                if j0 < j1:
                    (np.add if sign > 0 else np.subtract)(sums[j0:j1], rows, out=sums[j0:j1])
                    if pattern_major:  # columns j0 % cells on, wrapping
                        c0, c1 = j0 % cells, j0 % cells + min(j1 - j0, cells)
                        touched[c0:c1] = touched[: max(0, c1 - cells)] = True
                    else:
                        touched[j0 // n_cell : (j1 - 1) // n_cell + 1] = True

    def project() -> None:
        # acc += R^T @ dB over each run of touched cells, chunk cells at a time.
        edges = np.flatnonzero(flags[1:] != flags[:-1]).tolist()
        touched[:] = False
        for c0, c1 in zip(edges[::2], edges[1::2]):
            for lo in range(c0, c1, chunk):
                hi = min(lo + chunk, c1)
                acc[lo:hi] += matrix_t @ grid[lo:hi]
                grid[lo:hi] = 0

    i = cur_lo = cur_hi = 0
    for b_lo, buckets in blocks:
        b_hi = b_lo + len(buckets)
        history[b_lo % ring : b_lo % ring + len(buckets)] = buckets
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


def _row_runs(rows: int, row_values: int, part: int) -> Iterator[tuple[int, int, list[int]]]:
    """``(lo, hi, cuts)`` over ``rows`` rows of ``row_values`` values each.

    Each run ``[lo, hi)`` holds at most ``FRAME_BLOCK_VALUES`` values (at
    least one row), and ``cuts`` splits it where a part of ``part`` rows
    starts: ``lo``, each such start inside the run, then ``hi``.
    """
    per = max(1, FRAME_BLOCK_VALUES // row_values)
    for lo in range(0, rows, per):
        hi = min(lo + per, rows)
        yield lo, hi, [lo, *range(lo - lo % part + part, hi, part), hi]


def _write_pieces(pieces: Iterable[tuple[int, bytes]], paths) -> None:
    """Write each frame's ``(frame, bytes)`` pieces, in order, to its own path."""
    frames = itertools.groupby(pieces, key=operator.itemgetter(0))
    for (_, parts), path in zip(frames, paths, strict=True):
        with open(path, "wb") as fh:
            for _, piece in parts:
                fh.write(piece)


def _scale_ppm(v: np.ndarray, peak: np.int64) -> np.ndarray:
    """int64 values ``v`` of a frame with peak ``peak`` scaled onto 0..255 as uint8.

    Value ``v`` of a frame with peak ``p > 0`` maps to
    ``floor((510 v + p) / (2 p))`` (the peak to 255, halves rounding up),
    which is ``(c + 1) // 2`` with ``c = floor(510 v / p)``.  The product
    ``510 v`` is never formed: with ``p = 510 d + b`` and ``v = q d + l``,
    ``510 v = q p + (510 l - q b)``, where ``510 l < max(p, 510)`` and
    ``|q b| < 520200`` for ``0 <= v <= p``, so every step is exact in int64
    for any frame of nonnegative counts.  A frame with peak ``<= 0`` stays zero.
    """
    p = np.maximum(peak, 1)
    d = np.maximum(p // 510, 1)
    b = p - 510 * d
    q = v // d  # floor_divide has a fast path for a scalar divisor; divmod has none
    t = q * d
    np.subtract(v, t, out=t)
    t *= 510
    t -= q * b
    t //= p
    q += t  # c = floor(510 v / p)
    q += 1
    q >>= 1
    q *= peak > 0
    return q.astype(np.uint8)


def _ppm_pieces(images: np.ndarray) -> Iterator[tuple[int, bytes]]:
    """``(frame, bytes)`` pieces of each frame's PPM file, in file order."""
    count, height, width = images.shape[:3]
    peaks = images.max(axis=(1, 2, 3)).astype(np.int64)
    head = pnm.header("P6", width, height)
    for lo, hi, cuts in _row_runs(count * height, 3 * width, height):
        r = np.arange(lo, hi)
        values = images[r // height, r % height].astype(np.int64, copy=False)
        for a, b in itertools.pairwise(cuts):
            # One frame's rows at a time: a scalar peak divides about twice as
            # fast as a per-row one.
            data = _scale_ppm(values[a - lo : b - lo], peaks[a // height]).tobytes()
            yield a // height, head + data if a % height == 0 else data


def write_frame_ppm(images: np.ndarray, paths) -> None:
    """Write each frame of a ``(B, h, w, 3)`` block as a binary PPM.

    Each frame is scaled on its own: its maximum maps to 255 and an
    all-zero frame stays zero, rounding half up in exact integer arithmetic.
    The (frame, row) rows are scaled and written in runs of at most
    ``FRAME_BLOCK_VALUES`` values.
    """
    _write_pieces(_ppm_pieces(np.asarray(images)), paths)


_CHANNEL_HEADERS = tuple(f"# channel {name}\n".encode("ascii") for name in ("red", "green", "blue"))
_GROUP = np.uint64(10_000)


@functools.cache
def _group_spellings() -> np.ndarray:
    """``(2 * 10**4,)`` uint32: the four ASCII bytes of each base-10**4 group.

    Entry ``g`` spells ``g`` as an inner group, zero-padded to four digits;
    entry ``10**4 + g`` spells it as a leading group, its leading zeros as
    zero bytes (so 0 is four zero bytes).  ``_int_words`` reaches the
    second half through the index ``g - 10**4``, which numpy wraps.
    """
    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    inner = (digits + ord("0")).astype(np.uint8)
    leading = np.where(np.cumsum(digits, axis=1) == 0, 0, inner).astype(np.uint8)
    table = np.concatenate([inner, leading]).view(np.uint32).reshape(-1)
    table.setflags(write=False)  # cached: every caller shares it
    return table


def _int_words(mag: np.ndarray, groups: int, leading: bool = True) -> np.ndarray:
    """``mag.shape + (groups,)`` uint32: uint64 magnitudes below ``10**(4 groups)`` as spelled groups.

    Groups run most significant first.  With ``leading``, a group with no
    digit above it is spelled as a leading group and the last byte always
    shows its digit, so dropping the zero bytes leaves ``str(value)``;
    without, every group is zero-padded.  Every division has a scalar
    divisor, for which numpy's ``floor_divide`` has a fast path, and the
    top group, having no digit above it, needs none.
    """
    idx = np.empty(mag.shape + (groups,), dtype=np.intp)
    quot = mag
    for col in range(groups - 1, 0, -1):
        nxt = quot // _GROUP
        cut = nxt * _GROUP
        if leading:  # a quotient of 0 cuts 10**4 more: a leading group
            np.maximum(cut, _GROUP, out=cut)
        np.subtract(quot.view(np.int64), cut.view(np.int64), out=idx[..., col])
        quot = nxt
    np.subtract(quot.view(np.int64), int(_GROUP) * leading, out=idx[..., 0])
    words = _group_spellings()[idx]
    words[..., -1] |= np.frombuffer(b"\0\0\x000", dtype=np.uint32)[0]  # 0 spells "0"
    return words


def _int_columns(values: np.ndarray) -> list[list]:
    """``_join`` parts of each column of a 2-D int64 or uint64 array.

    Each column is its digits (``_int_words``), cut to as many bytes as the
    array's largest magnitude has digits, after a sign byte column if any
    value of the array is negative.
    """
    mag = np.abs(values).view(np.uint64)  # exact for -2**63 too
    digits = len(str(int(mag.max(initial=0))))
    text = _int_words(mag, -(-digits // 4)).view(np.uint8)[..., -digits:]
    if values.min(initial=0) >= 0:
        return [[text[:, c]] for c in range(values.shape[1])]
    signs = (values < 0).view(np.uint8) * np.uint8(ord("-"))
    return [[signs[:, c], text[:, c]] for c in range(values.shape[1])]


def _join(rows: int, parts: list) -> np.ndarray:
    """``(rows, width)`` uint8 cells holding each part's bytes in turn on every row.

    A part is a byte value, the same on every row; a 1-D uint8 array, one
    byte per row; or a 2-D array whose last axis is contiguous, whose bytes
    on each row move as one void item.  Dropping the zero bytes of the
    cells leaves the text.
    """
    widths = [1 if np.ndim(part) < 2 else part.shape[1] * part.itemsize for part in parts]
    cells = np.empty((rows, sum(widths)), dtype=np.uint8)
    col = 0
    for part, width in zip(parts, widths):
        if np.ndim(part) < 2:
            cells[:, col] = part
        else:
            item = f"V{width}"
            cells[:, col : col + width].view(item)[:, 0] = part.view(item)[:, 0]
        col += width
    return cells


def _int_cells(values: np.ndarray, sep: int) -> np.ndarray:
    """A 1-D int64 or uint64 array as fixed-width ASCII cells, one row per value.

    Each cell is a sign byte if any value is negative, the value's digits
    (``_int_columns``) and the separator byte ``sep``; dropping the zero
    bytes leaves each ``str(value)`` and its separator.  Frame ``.txt``
    values are spelled here.
    """
    (parts,) = _int_columns(values[:, None])
    return _join(len(values), [*parts, sep])


def _text_pieces(images: np.ndarray) -> Iterator[tuple[int, bytes]]:
    """``(frame, bytes)`` pieces of each frame's ``.txt``, in file order.

    The (frame, channel, row) rows go through ``_int_cells`` in runs of at
    most ``FRAME_BLOCK_VALUES`` values, a space after each value and a
    newline at each row's end.  Dropping the zero padding leaves exactly
    the ``" ".join(map(str, row))`` lines, and each channel's first row
    follows its ``# channel <name>`` header.
    """
    images = np.asarray(images)
    count, height, width = images.shape[:3]
    for lo, hi, cuts in _row_runs(3 * count * height, width, height):
        r = np.arange(lo, hi)
        values = images[r // (3 * height), r % height, :, r // height % 3]
        cells = _int_cells(values.astype(np.int64, copy=False).reshape(-1), ord(" "))
        cells = cells.reshape(hi - lo, -1)
        cells[:, -1] = ord("\n")
        for a, b in itertools.pairwise(cuts):
            if a % height == 0:
                yield a // (3 * height), _CHANNEL_HEADERS[a // height % 3]
            yield a // (3 * height), cells[a - lo : b - lo].tobytes().translate(None, b"\0")


def frame_texts(images: np.ndarray) -> list[bytes]:
    """``frame_NNNN.txt`` bytes of each frame of a ``(B, h, w, 3)`` int block."""
    frames = itertools.groupby(_text_pieces(images), key=operator.itemgetter(0))
    return [b"".join(piece for _, piece in parts) for _, parts in frames]


def write_frame_txt(images: np.ndarray, paths) -> None:
    """Write the raw integer counts of each frame of a ``(B, h, w, 3)`` block.

    One ``# channel <name>`` block per color, one line per row, values
    separated by single spaces; each piece is written as soon as it is made.
    """
    _write_pieces(_text_pieces(images), paths)


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, ...]:
    """Constants of ``_decimal_cells``.

    Rows by the biased exponent ``e`` of ``x``, as uint64: ``sh``,
    ``5**b``, ``10**b`` modulo ``2**64``, ``2**(sh - 1) - 1``, ``20 b`` and
    the bits of ``10.0**b``.  Masks by ``20 b + d``: six words keeping, of
    a fraction of ``b`` digits right-aligned in 24 bytes, all but its ``d``
    trailing digits, and at least the first.  Each group's trailing zeros
    (four for 0), and the powers of ten from 10.
    """
    per_key = np.zeros((1073, 6), dtype=np.uint64)
    for e in range(1009, 1073):  # [1e-4, 2**50)
        b = next(b for b in range(23) if 10**b > 2 ** (1075 - e))  # the least with 10**b > 2**(52 - E)
        sh = 1077 - e - b
        per_key[e, :5] = sh, 5**b, 10**b % 2**64, 2 ** (sh - 1) - 1, 20 * b
        per_key[e, 5:].view(np.float64)[0] = 10.0**b
    b, d, at = np.ogrid[:21, :20, 23:-1:-1]  # at: each byte's digit position
    keep = np.where((at < b) & (at >= np.minimum(d, b - 1)), 0xFF, 0).astype(np.uint8)
    g = np.arange(10_000)
    trailing = sum((g % 10**i == 0).astype(np.uint8) for i in range(1, 5))
    powers = np.uint64(10) ** np.arange(1, 16, dtype=np.uint64)
    return per_key, keep.view(np.uint32).reshape(420, 6), trailing, powers


def _decimal_cells(t: np.ndarray, *after) -> np.ndarray:
    """Cells of ``repr(x) + ","`` for each float ``x`` of ``t`` in ``[1e-4, 2**50)``.

    ``repr`` gives there the shortest digits nearest ``x = m 2**(E-52)``
    (``2**52 <= m < 2**53``; ties to even) strictly inside ``(x - u/2, x +
    u/2)``, ``u = 2**(E-52)``.  Each row takes the least ``b`` that makes
    ``u`` longer than ``10**-b``: then it is at most 10 such units long, and
    ``X = 10**b x = 4m 5**b / 2**sh`` (``sh = 54 - E - b``, 4 to 48) is
    below ``2**57``.  The float ``10**b x`` is within ``2**5`` of ``X``, so
    ``4m 5**b - est 2**sh``, below ``2**53``, is exact in wrapping uint64;
    it gives ``X = v + r / 2**sh`` and the bounds' floors ``v + ((r -+ 2
    5**b) >> sh)`` (no bound is an integer).  The interval holds at most
    one multiple of 10: if it holds one, that is the digits ``Q``, with
    all its trailing zeros; otherwise ``Q`` is ``X`` rounded half to even,
    which lies inside.  A power of two, whose interval is half as wide
    below, is an exact decimal in this range with ``X`` a multiple of 10,
    so it is taken as itself.  Every divisor is a scalar, and ``b``, ``sh``
    and ``5**b`` come per row from one ``take``.

    No integer lies between ``x`` and ``Q / 10**b`` unless that is ``x``,
    so the whole part is ``x`` truncated.  The fraction ``Q - whole 10**b``
    (exact modulo ``2**64``) is spelled zero-padded, and a mask per row
    keeps its ``b`` digits but the trailing zeros, at least one.  The
    ``_join`` parts ``after`` follow on each row.
    """
    per_key, keep, trailing, powers = _decimal_tables()
    bits = t.view(np.int64)
    sh, five, tens, halves, b20, scale = np.take(per_key, bits >> 52, axis=0).T
    est = (t * scale.view(np.float64)).astype(np.int64)
    r = bits & (2**52 - 1)
    r |= 2**52
    r = r.view(np.uint64) << np.uint64(2)
    r *= five  # wraps modulo 2**64 on purpose
    r -= est.view(np.uint64) << sh
    r, sh, five = r.view(np.int64), sh.view(np.int64), 2 * five.view(np.int64)
    v = r >> sh
    r -= v << sh
    v += est  # X = v + r / 2**sh, 0 <= r < 2**sh
    low = r - five
    low >>= sh
    low += v
    ten = r + five
    ten >>= sh
    ten += v
    ten //= 10  # the floors of the bounds, over 10
    taken = ten > low // 10
    digits = v & 1
    digits += r
    digits += halves.view(np.int64)
    digits >>= sh
    digits += v
    ten *= 10
    np.copyto(digits, ten, where=taken)
    # Mask rows: 20 b + the trailing zeros, which only a taken multiple of 10 has.
    quot = digits.view(np.uint64)
    nxt = quot // _GROUP
    group = quot - nxt * _GROUP
    mask = b20.astype(np.intp)
    b_hi = int(mask.max(initial=20)) // 20
    mask += trailing[group]
    more = np.flatnonzero(group == 0)  # four trailing zeros or more
    mask[more] += np.count_nonzero(nxt[more, None] % powers == 0, axis=1)
    whole = t.astype(np.int64).view(np.uint64)
    quot -= whole * tens  # the fraction, below 10**b
    groups = -(-b_hi // 4)
    frac = np.take(keep[:, 6 - groups :].copy().view(f"V{4 * groups}")[:, 0], mask)
    frac = frac.view(np.uint32).reshape(len(t), groups)
    frac &= _int_words(quot, groups, leading=False)
    width = len(str(int(whole.max(initial=0))))
    head = _int_words(whole, -(-width // 4)).view(np.uint8)[:, -width:]
    return _join(len(t), [head, ord("."), frac.view(np.uint8)[:, 4 * groups - b_hi :], ord(","), *after])


def write_bucket_csv(trace: BucketTrace, path, first_slot: int = 0) -> None:
    """Write ``t,slot,red,green,blue`` rows, times as decimal seconds.

    Row ``i`` of ``trace.buckets`` is slot ``first_slot + i``.  From slot 0
    the file is created with its header; a later first slot appends to it,
    so a run written block by block gives the same bytes as a whole trace.
    Each time is ``repr(s * num / den)`` (README, Outputs): in each block
    the rows in ``[1e-4, 2**50)`` while ``s * num`` and ``den`` stay below
    ``2**53`` become one buffer of fixed-width cells, each column moved in
    as one item per row (``_decimal_cells``, ``_int_columns``, ``_join``);
    the rest call ``repr``, one f-string each.
    """
    num, den = trace.slot_dt.numerator, trace.slot_dt.denominator
    buckets = np.asarray(trace.buckets, dtype=np.int64)

    def repr_rows(rows: np.ndarray, s_lo: int) -> bytes:
        return "".join(
            f"{repr(s * num / den)},{s},{r},{g},{b}\n" for s, (r, g, b) in enumerate(rows.tolist(), s_lo)
        ).encode("ascii")

    with open(path, "ab" if first_slot else "wb") as fh:
        if not first_slot:
            fh.write(b"t,slot,red,green,blue\n")
        for lo in range(0, len(buckets), BLOCK_SLOTS):
            block = buckets[lo : lo + BLOCK_SLOTS]
            s_lo, s_hi = first_slot + lo, first_slot + lo + len(block)
            exact = (s_hi - 1) * num < 2**53 and den < 2**53
            t = np.arange(s_lo, s_hi) * float(num) / den if exact else np.zeros(0)
            i, j = np.searchsorted(t, [1e-4, 2.0**50]).tolist()  # rows i .. j-1 skip repr
            fh.write(repr_rows(block[:i], s_lo))
            if i < j:
                slots = np.arange(s_lo + i, s_lo + j, dtype=np.int64)[:, None]
                (slot,), (red, green, blue) = _int_columns(slots), _int_columns(block[i:j])
                cells = _decimal_cells(t[i:j], *slot, ord(","), *red, ord(","), *green, ord(","),
                                       *blue, ord("\n"))
                fh.write(cells.tobytes().translate(None, b"\0"))
            fh.write(repr_rows(block[j:], s_lo + j))
