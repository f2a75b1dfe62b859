"""Run configuration: flat ``key = value`` text files plus defaults.

A config file holds one ``key = value`` pair per line; blank lines and
``#`` comments are ignored.  Unknown keys are rejected so typos fail
loudly.  The same format is written back as ``manifest.txt`` next to
simulation outputs, which makes any run reproducible from its output
directory alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from . import rng
from .disk import ORDER_MODES, build_schedule, make_spec
from .hadamard import reduce_matrix, sylvester_hadamard
from .scene import (
    COLOR_CHANNELS,
    Trajectory,
    as_fraction,
    available_letters,
    builtin_letter,
    load_scene_ppm,
)
from .sim import NOISE_SIGMA_MAX, WINDOW_MODES, TimingConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "DEFAULTS",
    "parse_value",
    "load_config_file",
    "merge_config",
    "config_text",
    "resolve_components",
]


class ConfigError(ValueError):
    """A configuration key is unknown or its value does not parse."""


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _count(key: str, text: str) -> int:
    value = _parse_int(key, text)
    if value < 1:
        raise ConfigError(f"{key}: must be >= 1, got {value}")
    return value


def _seed(key: str, text: str) -> int:
    value = _parse_int(key, text)
    try:
        rng.check_seed(value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return value


def _rational(key: str, text: str) -> Fraction:
    try:
        value = as_fraction(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ConfigError(f"{key}: expected a rational number, got {text!r}") from None
    try:
        str(value)  # manifest.txt must be able to write it back
    except ValueError:
        raise ConfigError(f"{key}: too many digits to write to manifest.txt, got {text!r}") from None
    return value


def _positive(key: str, text: str) -> Fraction:
    value = _rational(key, text)
    if value <= 0:
        raise ConfigError(f"{key}: must be positive, got {text!r}")
    return value


def _choice(choices):
    """A parser of one of ``choices``."""

    def parse(key: str, text: str) -> str:
        if text not in choices:
            raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {text!r}")
        return text

    return parse


def _noise_level(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not 0 <= value <= NOISE_SIGMA_MAX:
        raise ConfigError(f"{key}: must be in [0, {NOISE_SIGMA_MAX:g}], got {text!r}")
    return value


def _path(key: str, text: str) -> str:
    if not text:
        raise ConfigError(f"{key}: must not be empty")
    return text


def _setting(default, parse, help_text: str, flag: str | None = None):
    return field(default=default, metadata={"parse": parse, "help": help_text, "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one simulation run.

    Each field carries the parser of its text form and the help of its
    ``simulate`` flag, which is ``--`` and its name with dashes unless it
    names another.  A setting whose default is None reads an empty value
    as None.
    """

    n: int = _setting(35, _count, "object side length")
    k: int = _setting(5, _count, "cells per row part")
    order_mode: str = _setting("pattern_major", _choice(ORDER_MODES), "slot order: pattern_major or part_major")
    letter: str = _setting("U", _choice(available_letters()), "built-in letter object")
    color: str = _setting("white", _choice(COLOR_CHANNELS), "letter color: red, green, blue, or white")
    object_path: str | None = _setting(None, _path, "PPM object image instead of a letter", "--object")
    trajectory: str = _setting("static", _choice(("static", "linear")), "object motion: static or linear")
    velocity_x: Fraction = _setting(Fraction(0), _rational, "columns per second, exact rational")
    velocity_y: Fraction = _setting(Fraction(0), _rational, "rows per second, exact rational")
    hold_interval: Fraction | None = _setting(None, _positive, "motion update interval in seconds")
    revolution_period: Fraction = _setting(Fraction(1, 5), _positive, "disk period in seconds")
    persistence_time: Fraction = _setting(Fraction(1, 5), _positive, "exposure window in seconds")
    window_mode: str = _setting("tumbling", _choice(WINDOW_MODES), "tumbling or sliding windows")
    total_duration: Fraction = _setting(Fraction(1, 5), _positive, "simulated time in seconds")
    noise_sigma: float = _setting(0.0, _noise_level, "detector noise level, 0 disables")
    seed: int = _setting(0, _seed, "noise generator seed")
    workers: int = _setting(1, _count, "kept for old configs; >= 1, changes nothing")
    out_dir: str = _setting("out", _path, "output directory", "--out")


DEFAULTS = RunConfig()

_SETTINGS = {setting.name: setting for setting in fields(RunConfig)}


def parse_value(key: str, text: str):
    """Parse one config value from its text form; raises ConfigError."""
    if key not in _SETTINGS:
        raise ConfigError(f"unknown config key {key!r}")
    text, setting = text.strip(), _SETTINGS[key]
    if not text and setting.default is None:
        return None
    return setting.metadata["parse"](key, text)


def load_config_file(path) -> dict[str, str]:
    """Read raw key/value text pairs from a config file."""
    try:
        text = Path(path).read_text("utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def merge_config(*layers: dict[str, str]) -> RunConfig:
    """Apply raw key/value layers over the defaults, later layers winning."""
    merged: dict[str, str] = {}
    for layer in layers:
        merged.update(layer)
    return replace(DEFAULTS, **{key: parse_value(key, text) for key, text in merged.items()})


def _value_text(value) -> str:
    return "" if value is None else str(value)


def config_text(cfg: RunConfig) -> str:
    """Render a config in the file format, one line per key."""
    lines = [f"{key} = {_value_text(getattr(cfg, key))}" for key in _SETTINGS]
    return "\n".join(lines) + "\n"


def resolve_components(cfg: RunConfig):
    """Build the simulation inputs a config describes.

    Returns (spec, patterns, schedule, scene, trajectory, timing).  All
    validation happens here, before any output is written.
    """
    spec = make_spec(cfg.n, cfg.k)
    patterns = reduce_matrix(sylvester_hadamard(spec.n_cell + 1))
    schedule = build_schedule(spec, cfg.order_mode)
    if cfg.object_path is not None:
        scene = load_scene_ppm(cfg.object_path)
        if scene.side != spec.n:
            raise ConfigError(
                f"object {cfg.object_path!r} is {scene.side}x{scene.side}, "
                f"config needs {spec.n}x{spec.n}"
            )
    else:
        scene = builtin_letter(cfg.letter, spec.n, cfg.color)
    trajectory = Trajectory(
        mode=cfg.trajectory,
        velocity=(cfg.velocity_x, cfg.velocity_y),
        hold_interval=cfg.hold_interval,
    )
    timing = TimingConfig(
        revolution_period=cfg.revolution_period,
        persistence_window=cfg.persistence_time,
        window_mode=cfg.window_mode,
        total_duration=cfg.total_duration,
    )
    return spec, patterns, schedule, scene, trajectory, timing
