"""Run configuration: flat ``key = value`` text files plus defaults.

A config file holds one ``key = value`` pair per line; blank lines and
``#`` comments are ignored.  Unknown keys are rejected so typos fail
loudly.  The same format is written back as ``manifest.txt`` next to
simulation outputs, which makes any run reproducible from its output
directory alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one simulation run."""

    n: int = 35
    k: int = 5
    order_mode: str = "pattern_major"
    letter: str = "U"
    color: str = "white"
    object_path: str | None = None
    trajectory: str = "static"
    velocity_x: Fraction = Fraction(0)
    velocity_y: Fraction = Fraction(0)
    hold_interval: Fraction | None = None
    revolution_period: Fraction = Fraction(1, 5)
    persistence_time: Fraction = Fraction(1, 5)
    window_mode: str = "tumbling"
    total_duration: Fraction = Fraction(1, 5)
    noise_sigma: float = 0.0
    seed: int = 0
    workers: int = 1
    out_dir: str = "out"


DEFAULTS = RunConfig()

_KEYS = tuple(f.name for f in fields(RunConfig))


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_fraction(key: str, text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ConfigError(f"{key}: expected a rational number, got {text!r}") from None


def _parse_choice(key: str, text: str, choices) -> str:
    if text not in choices:
        raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {text!r}")
    return text


def parse_value(key: str, text: str):
    """Parse one config value from its text form; raises ConfigError."""
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    text = text.strip()
    if key in ("n", "k", "seed", "workers"):
        value = _parse_int(key, text)
        if key in ("n", "k", "workers") and value < 1:
            raise ConfigError(f"{key}: must be >= 1, got {value}")
        if key == "seed":
            try:
                rng.check_seed(value)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        return value
    if key == "order_mode":
        return _parse_choice(key, text, ORDER_MODES)
    if key == "window_mode":
        return _parse_choice(key, text, WINDOW_MODES)
    if key == "trajectory":
        return _parse_choice(key, text, ("static", "linear"))
    if key == "color":
        return _parse_choice(key, text, tuple(COLOR_CHANNELS))
    if key == "letter":
        return _parse_choice(key, text, available_letters())
    if key == "object_path":
        return text or None
    if key == "hold_interval":
        if not text:
            return None
        value = _parse_fraction(key, text)
        if value <= 0:
            raise ConfigError(f"hold_interval: must be positive, got {text!r}")
        return value
    if key in ("velocity_x", "velocity_y"):
        return _parse_fraction(key, text)
    if key in ("revolution_period", "persistence_time", "total_duration"):
        value = _parse_fraction(key, text)
        if value <= 0:
            raise ConfigError(f"{key}: must be positive, got {text!r}")
        return value
    if key == "noise_sigma":
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"noise_sigma: expected a number, got {text!r}") from None
        if not 0 <= value <= NOISE_SIGMA_MAX:
            raise ConfigError(f"noise_sigma: must be in [0, {NOISE_SIGMA_MAX:g}], got {text!r}")
        return value
    if key == "out_dir":
        if not text:
            raise ConfigError("out_dir: must not be empty")
        return text
    raise AssertionError(f"unhandled config key {key!r}")


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
    lines = [f"{key} = {_value_text(getattr(cfg, key))}" for key in _KEYS]
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
