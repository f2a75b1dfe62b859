"""Layer spans for the traced run.

The traced run never edits ``src/``.  It replaces public functions by name
in the namespace of their caller (``ghostdisk.cli.simulate``,
``ghostdisk.sim.translate_image``, ``Trajectory.offset_at`` ...) with a
wrapper that times the call.  Spans nest on one stack, so every span also
gets a self time: its duration minus the part covered by its child spans.
Spans are aggregated per name as they close, so a traced run keeps no
per-call records in memory; everything runs on one thread (``workers = 1``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Span names, in report order.  Each yields ``<name>_s`` and ``<name>_self_s``.
SPAN_NAMES = (
    "config.resolve",
    "hadamard.build",
    "disk.build_schedule",
    "sim.simulate",
    "rng.gaussian",
    "scene.offset_at",
    "scene.translate",
    "sim.write_bucket_csv",
    "sim.write_frame_txt",
    "sim.write_frame_ppm",
    "pnm.write_ppm",
    "cli.simulate",
    "cli.report",
    "metrics.cell_report_contrast",
    "metrics.frame_report",
)

# Spans whose call count is reported as ``<name>_calls``.
CALL_COUNTS = ("sim.simulate", "rng.gaussian", "scene.offset_at", "scene.translate")

# Work counts recorded at span boundaries or read from the run directory.
COUNT_NAMES = (
    "sim.slots",
    "sim.frames",
    "sim.result_mb",
    "cli.files_written",
    "cli.bytes_written",
    "cli.report_slots",
    "metrics.report_rows",
)

MIB = float(1 << 20)


def trace_slots(trace) -> int:
    """Slot count of a bucket trace: per-slot samples, or a ``(S, 3)`` array.

    The array form is the trace ROADMAP item 1 plans; accepting both keeps
    the benchmark unchanged across that refactor.
    """
    samples = getattr(trace, "samples", None)
    if samples is not None:
        return len(samples)
    return len(trace.buckets)


def _count_result(tracer: "Tracer", result) -> None:
    slots = trace_slots(result.trace)
    frame_bytes = sum(frame.image.nbytes for frame in result.frames)
    tracer.counts["sim.slots"] += slots
    tracer.counts["sim.frames"] += len(result.frames)
    # Computed size: frame arrays plus the bucket trace as S x 3 int64.
    size_mb = (frame_bytes + 24 * slots) / MIB
    tracer.counts["sim.result_mb"] = max(tracer.counts["sim.result_mb"], size_mb)


def _count_rows(tracer: "Tracer", rows) -> None:
    tracer.counts["metrics.report_rows"] += len(rows)


class Tracer:
    """Per-name call counts, total and self times, plus work counts."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.active = False
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for name in self.counts:
            self.counts[name] = 0

    def snapshot(self) -> dict[str, float]:
        """Metrics of the work traced since the last reset."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, total, self_time = self.stats[name]
            if name in CALL_COUNTS:
                out[f"{name}_calls"] = calls
            out[f"{name}_s"] = total
            out[f"{name}_self_s"] = self_time
        out.update(self.counts)
        return out

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, stat: list, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    def _timed(self, name: str, fn):
        stat = self.stats[name]
        enter, leave = self._enter, self._leave

        def call(*args, **kwargs):
            start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(stat, start)

        return call

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code; a no-op when inactive."""
        if not self.active:
            yield
            return
        start = self._enter()
        try:
            yield
        finally:
            self._leave(self.stats[name], start)

    def _wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        timed = self._timed(name, fn)
        if on_result is None:
            wrapper = timed
        else:

            def wrapper(*args, **kwargs):
                result = timed(*args, **kwargs)
                on_result(self, result)
                return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries of the imported package, then restore them."""
        from ghostdisk import cli, config, metrics, pnm, rng, scene, sim

        targets = (
            (cli, "resolve_components", "config.resolve", None),
            (config, "sylvester_hadamard", "hadamard.build", None),
            (config, "reduce_matrix", "hadamard.build", None),
            (config, "build_schedule", "disk.build_schedule", None),
            (cli, "simulate", "sim.simulate", _count_result),
            (rng, "gaussian", "rng.gaussian", None),
            (scene.Trajectory, "offset_at", "scene.offset_at", None),
            (sim, "translate_image", "scene.translate", None),
            (scene, "translate_image", "scene.translate", None),
            (cli, "write_bucket_csv", "sim.write_bucket_csv", None),
            (cli, "write_frame_txt", "sim.write_frame_txt", None),
            (cli, "write_frame_ppm", "sim.write_frame_ppm", None),
            (pnm, "write_ppm", "pnm.write_ppm", None),
            (cli, "frame_report", "metrics.frame_report", _count_rows),
            (metrics, "cell_report_contrast", "metrics.cell_report_contrast", None),
        )
        self.missing.clear()
        for owner, attr, name, on_result in targets:
            self._wrap(owner, attr, name, on_result)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            while self._saved:
                owner, attr, fn = self._saved.pop()
                setattr(owner, attr, fn)
