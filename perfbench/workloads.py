"""The benchmark workloads and how one operation of each runs.

Every workload is a closed loop from one process with ``workers = 1``: the
next operation starts when the previous one has returned.  One operation is
``ghostdisk simulate`` followed by ``ghostdisk report`` on its run
directory, both through ``ghostdisk.cli.main``, and it repeats exactly.

``run.py`` takes only a workload name and a seed; every input is made
here from the seed, and the program sees only those inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ".perfbench_out"
PERIOD = Fraction(1, 5)
NAMES = ("noisy_155", "sliding_motion")


def import_ghostdisk():
    """Import ``ghostdisk`` from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "ghostdisk"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ghostdisk sources at {package}")
    sys.path.insert(0, str(package.parent))
    import ghostdisk
    import ghostdisk.cli

    if Path(ghostdisk.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported ghostdisk from {ghostdisk.__file__}")
    return ghostdisk


def run_benchmark(root: Path, name: str, seed: int, seconds: float, trace: int,
                  tiny: bool = False):
    """Run ``run.py`` once with ``root`` as working directory and wait for it."""
    # Imported here: the set-up probe imports this module and must not pay for it.
    import subprocess

    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False,
                          cwd=root)


def make(name: str, seed: int, tiny: bool = False):
    """The workload ``name`` with inputs from ``seed``; ``tiny`` for the self-test."""
    letter = random.Random(seed).choice(sorted(oracle.glyphs(ROOT)))
    if name == "noisy_155":
        n = 35 if tiny else 155
        return CliWorkload(name, n, 5, revolutions=2, seed=seed, noise_sigma=1.0)
    if name == "sliding_motion":
        n, k = (14, 2) if tiny else (35, 5)
        return CliWorkload(
            name, n, k, revolutions=2, seed=seed, letter=letter, sliding=True,
            velocity=(Fraction(3), Fraction(-2)),
        )
    raise SystemExit(f"perfbench: unknown workload {name!r}, have {', '.join(NAMES)}")


class _ReachedSimulate(Exception):
    """Raised in place of the first simulate call by the set-up probe."""


@dataclass
class CliWorkload:
    """``ghostdisk simulate`` then ``report`` through ``ghostdisk.cli.main``."""

    name: str
    n: int
    k: int
    revolutions: int
    seed: int
    letter: str = "U"
    noise_sigma: float = 0.0
    sliding: bool = False
    velocity: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
    period: ClassVar[Fraction] = PERIOD
    color: ClassVar[str] = "white"
    ok_ops: int = 0
    first_digest: bytes | None = None

    @property
    def run_dir(self) -> Path:
        # Relative, so the manifest that records it is the same in every checkout.
        return Path(OUT, self.name, "run")

    @property
    def first_dir(self) -> Path:
        return Path(OUT, self.name, "first")

    def simulate_argv(self) -> list[str]:
        argv = [
            "simulate", "--n", str(self.n), "--k", str(self.k),
            "--letter", self.letter, "--color", self.color,
            "--revolution-period", str(self.period),
            "--persistence-time", str(self.period),
            "--total-duration", str(self.period * self.revolutions),
            "--window-mode", "sliding" if self.sliding else "tumbling",
            "--workers", "1", "--out", str(self.run_dir),
        ]
        if self.noise_sigma:
            argv += ["--noise-sigma", repr(self.noise_sigma), "--seed", str(self.seed)]
        if self.velocity != (0, 0):
            argv += [
                "--trajectory", "linear",
                "--velocity-x", str(self.velocity[0]), "--velocity-y", str(self.velocity[1]),
            ]
        return argv

    def probe(self, gd) -> None:
        """Run the CLI up to, not into, its first simulate call."""

        def stop(*args, **kwargs):
            raise _ReachedSimulate

        gd.cli.simulate = stop
        with contextlib.suppress(_ReachedSimulate), contextlib.redirect_stdout(io.StringIO()):
            gd.cli.main(self.simulate_argv())

    @property
    def slots(self) -> int:
        """Slots one simulate call is asked for."""
        return self.revolutions * self.n * self.n

    def op(self, gd, tracer: spans.Tracer) -> tuple[float, bool]:
        """One simulate + report: (host seconds, whether the output is correct)."""
        run = self.run_dir
        shutil.rmtree(run, ignore_errors=True)
        run.parent.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                with tracer.span("cli.simulate"):
                    codes = [gd.cli.main(self.simulate_argv())]
                before = tracer.counts["sim.slots"]
                with tracer.span("cli.report"):
                    codes.append(gd.cli.main(["report", "--run-dir", str(run)]))
                tracer.counts["cli.report_slots"] += tracer.counts["sim.slots"] - before
        except Exception:
            traceback.print_exc()
            return time.perf_counter() - start, False
        seconds = time.perf_counter() - start

        files = sorted(p for p in run.rglob("*") if p.is_file())
        if tracer.active:
            tracer.counts["cli.files_written"] += len(files)
            tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in files)
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.relative_to(run).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
        digest = digest.digest()
        if self.first_digest is None:
            self.first_digest = digest
            shutil.rmtree(self.first_dir, ignore_errors=True)
            run.rename(self.first_dir)
        ok = codes == [0, 0] and digest == self.first_digest
        self.ok_ops += ok
        return seconds, ok

    def finish(self, gd) -> tuple[list[str], int]:
        """Oracle check of the first run; every op identical to it shares its verdict."""
        if self.first_digest is None or not self.first_dir.is_dir():
            return ["no run directory to check"], 0
        errors = oracle.check_run(gd, ROOT, self.first_dir, self)
        return errors, (self.ok_ops if errors else 0)
