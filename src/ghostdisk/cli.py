"""Command-line front end.

Subcommands:

* ``patterns``  -- write a reduced (or random) pattern set.
* ``schedule``  -- write one revolution's slot order as CSV.
* ``layout``    -- write the disk drawing (SVG) and hole table (CSV).
* ``simulate``  -- run the clocked measurement; writes frames, the bucket
                   trace, and a manifest that reproduces the run.
* ``report``    -- recompute one frame of a finished run, check that the
                   stored frame file has exactly its bytes and write
                   per-cell contrast.

Exit codes: 0 success, 2 bad configuration or arguments, 3 file system
errors, 4 internal invariant violations, including any ``ArithmeticError``
(overflow, division by zero) or ``MemoryError``; each error prints one
line on stderr, its message cut after 200 characters, and no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    config_text,
    load_config_file,
    merge_config,
    resolve_components,
)
from .disk import build_schedule, disk_layout, export_layout_svg, layout_to_csv, make_spec, schedule_to_csv
from .hadamard import (
    random_pattern_set,
    reduce_matrix,
    sylvester_hadamard,
    write_pattern_matrix,
    write_pattern_pgms,
)
from .metrics import frame_report, write_report_csv
from .scene import sample_scene
from .sim import (
    BucketTrace,
    frame_texts,
    simulate,
    window_grid,
    write_bucket_csv,
    write_frame_ppm,
    write_frame_txt,
)

__all__ = ["main"]


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file of key = value lines")
    for setting in dataclasses.fields(RunConfig):
        flag = setting.metadata["flag"] or "--" + setting.name.replace("_", "-")
        parser.add_argument(flag, dest=setting.name, metavar="VALUE", help=setting.metadata["help"])


def _gather_config(args: argparse.Namespace) -> RunConfig:
    file_layer = load_config_file(args.config) if args.config else {}
    values = vars(args)
    cli_layer = {s.name: values[s.name] for s in dataclasses.fields(RunConfig) if values[s.name] is not None}
    return merge_config(file_layer, cli_layer)


def _cmd_patterns(args: argparse.Namespace) -> int:
    length = args.length
    if args.random is not None:
        array = random_pattern_set(length, args.random, args.seed)
    else:
        array = reduce_matrix(sylvester_hadamard(length + 1)).patterns
    if args.pgm_dir:
        out = Path(args.pgm_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_pattern_pgms(out, array)
        print(f"wrote {array.shape[0]} pattern files to {out}")
    else:
        write_pattern_matrix(args.out, array)
        print(f"wrote {array.shape[0]} patterns to {args.out}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    spec = make_spec(args.n, args.k)
    schedule = build_schedule(spec, args.order_mode)
    schedule_to_csv(schedule, args.out)
    print(f"wrote {len(schedule.rows)} slots to {args.out}")
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    if not args.svg and not args.csv:
        raise ConfigError("layout: need --svg and/or --csv output path")
    spec = make_spec(args.n, args.k)
    schedule = build_schedule(spec, args.order_mode)
    patterns = reduce_matrix(sylvester_hadamard(spec.n_cell + 1))
    layout = disk_layout(
        schedule, patterns, radius_mm=args.radius_mm, track_pitch_mm=args.track_pitch_mm
    )
    if args.svg:
        export_layout_svg(layout, args.svg)
        print(f"wrote drawing to {args.svg}")
    if args.csv:
        layout_to_csv(layout, args.csv)
        print(f"wrote {len(schedule.rows)} hole groups to {args.csv}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _gather_config(args)
    spec, patterns, schedule, scene, trajectory, timing = resolve_components(cfg)
    out = Path(cfg.out_dir)
    stem = str(out / "frame_")
    slot_dt = timing.slot_duration(spec.slots_per_revolution)
    manifest = config_text(cfg).encode("ascii")
    written = {"slots": 0, "frames": 0}

    def write(slot_lo, buckets, frame_lo, images) -> None:
        # simulate() makes its first call only once every up-front check has
        # passed, so a refused run leaves no run directory behind.
        if slot_lo == 0:
            out.mkdir(parents=True, exist_ok=True)
            (out / "manifest.txt").write_bytes(manifest)
        if len(buckets):
            write_bucket_csv(BucketTrace(buckets, slot_dt), out / "bucket.csv", slot_lo)
        if len(images):
            indices = range(frame_lo, frame_lo + len(images))
            write_frame_ppm(images, [f"{stem}{i:04d}.ppm" for i in indices])
            write_frame_txt(images, [f"{stem}{i:04d}.txt" for i in indices])
        written["slots"] += len(buckets)
        written["frames"] += len(images)

    simulate(
        scene,
        trajectory,
        schedule,
        patterns,
        timing,
        noise_sigma=cfg.noise_sigma,
        seed=cfg.seed,
        sink=write,
    )
    print(f"simulated {written['slots']} slots, wrote {written['frames']} frames to {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    manifest = run_dir / "manifest.txt"
    cfg = merge_config(load_config_file(manifest))
    spec, patterns, schedule, scene, trajectory, timing = resolve_components(cfg)
    step, count = window_grid(timing, timing.slot_duration(spec.slots_per_revolution))
    if not count:
        raise ConfigError(
            "run has no completed exposure window; nothing to report on"
        )
    if not 0 <= args.frame < count:
        raise ConfigError(
            f"frame {args.frame} out of range; run has {count} frames"
        )
    stored_path = run_dir / f"frame_{args.frame:04d}.txt"
    stored = stored_path.read_bytes()
    kept = []

    def keep(slot_lo, buckets, frame_lo, images) -> None:
        if frame_lo <= args.frame < frame_lo + len(images):
            kept.append(images[args.frame - frame_lo].copy())

    # Noise is indexed by slot and motion is sampled per slot, so a run cut
    # at this frame's end reproduces it exactly, as its last frame.
    start = args.frame * step
    simulate(
        scene,
        trajectory,
        schedule,
        patterns,
        dataclasses.replace(timing, total_duration=start + timing.persistence_window),
        noise_sigma=cfg.noise_sigma,
        seed=cfg.seed,
        sink=keep,
    )
    (image,) = kept
    if frame_texts(image[None]) != [stored]:
        raise RuntimeError(f"{stored_path} does not match the re-simulated frame {args.frame}")
    seen = sample_scene(scene, trajectory, start)
    report = frame_report(image, seen.pixels, spec)
    out = Path(args.out) if args.out else run_dir / "report.csv"
    write_report_csv(report, out)
    print(f"wrote {len(report)} contrast rows to {out}")
    return 0


COMMANDS = ("patterns", "schedule", "layout", "simulate", "report")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``ghostdisk`` parser; given a subcommand, only that one's parser is built.

    The subcommand list still names all five, so usage lines and argparse
    errors read the same either way.
    """
    only = command in COMMANDS
    parser = argparse.ArgumentParser(
        prog="ghostdisk",
        description="Rotating-disk single-pixel imaging simulator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if only else None)

    def add(name: str, text: str, handler, disk: bool = False) -> argparse.ArgumentParser | None:
        if only and name != command:
            return None
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        if disk:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--order-mode", default="pattern_major")
        return p

    if p := add("patterns", "write a pattern set", _cmd_patterns):
        p.add_argument("--length", type=int, required=True, help="pattern length")
        p.add_argument("--random", type=int, default=None, metavar="COUNT",
                       help="random patterns instead of the structured set")
        p.add_argument("--seed", type=int, default=0, help="seed for --random")
        p.add_argument("--out", default="patterns.txt", help="output text file")
        p.add_argument("--pgm-dir", default=None, help="write one PGM per pattern here")
    if p := add("schedule", "write one revolution's slot order", _cmd_schedule, disk=True):
        p.add_argument("--out", default="schedule.csv")
    if p := add("layout", "write the disk drawing", _cmd_layout, disk=True):
        p.add_argument("--radius-mm", type=float, default=60.0)
        p.add_argument("--track-pitch-mm", type=float, default=1.5)
        p.add_argument("--svg", default=None, help="SVG output path")
        p.add_argument("--csv", default=None, help="hole table output path")
    if p := add("simulate", "run the clocked measurement", _cmd_simulate):
        _add_override_args(p)
    if p := add("report", "per-cell contrast of a finished run", _cmd_report):
        p.add_argument("--run-dir", required=True, help="directory with manifest.txt")
        p.add_argument("--frame", type=int, default=0, help="frame index to analyze")
        p.add_argument("--out", default=None, help="report path, default run dir")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A subcommand named first is the one argparse picks; anything else,
    # an option or an invalid choice, gets the parser of every subcommand.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # ConfigError included
        code, kind, message = 2, "error", str(exc)
    except OSError as exc:
        code, kind, message = 3, "file error", str(exc)
    except (AssertionError, RuntimeError) as exc:
        code, kind, message = 4, "internal error", str(exc)
    except ArithmeticError as exc:
        # Its message may be empty ("ZeroDivisionError()"), so name the type.
        code, kind, message = 4, "internal error", f"{type(exc).__name__}: {exc}"
    except MemoryError:
        # Preformatted: formatting the error could need memory it lacks.
        sys.stderr.write("internal error: MemoryError\n")
        return 4
    if len(message) > 200:  # a long rejected value or path is not echoed whole
        message = f"{message[:200]}... [{len(message) - 200} more characters]"
    print(f"{kind}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
