"""Config parsing, merging, manifest round-trip, component resolution."""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from ghostdisk import config, pnm, scene, sim
from ghostdisk.config import ConfigError


def test_defaults_mirror_reference_setup():
    cfg = config.RunConfig()
    assert cfg.n == 35 and cfg.k == 5
    assert cfg.order_mode == "pattern_major"
    assert cfg.letter == "U" and cfg.color == "white"
    assert cfg.persistence_time == Fraction(1, 5)
    assert cfg.revolution_period == Fraction(1, 5)
    assert cfg.window_mode == "tumbling"
    assert cfg.noise_sigma == 0.0 and cfg.seed == 0 and cfg.workers == 1


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "n = 21\n"
        "k=3\n"
        "persistence_time = 0.1\n"
        "letter = X\n"
    )
    pairs = config.load_config_file(path)
    assert pairs == {"n": "21", "k": "3", "persistence_time": "0.1", "letter": "X"}
    cfg = config.merge_config(pairs)
    assert cfg.n == 21 and cfg.k == 3
    assert cfg.persistence_time == Fraction(1, 10)
    assert cfg.letter == "X"


def test_load_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n 21\n")
    with pytest.raises(ConfigError, match="key = value"):
        config.load_config_file(path)
    path.write_text("n = 1\nn = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        config.load_config_file(path)
    with pytest.raises(ConfigError, match="not found"):
        config.load_config_file(tmp_path / "missing.cfg")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        config.merge_config({"pattern_mode": "x"})


@pytest.mark.parametrize(
    "key,value",
    [
        ("n", "seven"),
        ("k", "2.5"),
        ("seed", "-1"),
        ("seed", str(2**64)),
        ("workers", "0"),
        ("order_mode", "spiral"),
        ("window_mode", "open"),
        ("trajectory", "jump"),
        ("color", "cyan"),
        ("letter", "Z"),
        ("velocity_x", "fast"),
        ("hold_interval", "0"),
        ("revolution_period", "-1/5"),
        ("persistence_time", "0"),
        ("total_duration", ""),
        ("noise_sigma", "-2"),
        ("out_dir", ""),
    ],
)
def test_bad_values_rejected(key, value):
    with pytest.raises(ConfigError, match=key.split("_")[0]):
        config.parse_value(key, value)


def test_largest_seed_is_the_generators_last_word():
    # rng.word reduces the seed mod 2**64; 2**64 itself is refused above.
    assert config.parse_value("seed", str(2**64 - 1)) == 2**64 - 1


def test_merge_precedence_later_layers_win():
    cfg = config.merge_config({"n": "21", "k": "3"}, {"n": "35", "k": "5"})
    assert cfg.n == 35 and cfg.k == 5


def test_optional_fields_parse_empty_as_none():
    assert config.parse_value("object_path", "") is None
    assert config.parse_value("hold_interval", "") is None
    assert config.parse_value("hold_interval", "1/5") == Fraction(1, 5)


def test_config_text_round_trip():
    cfg = config.merge_config(
        {
            "n": "21",
            "k": "3",
            "trajectory": "linear",
            "velocity_x": "5",
            "velocity_y": "-5",
            "hold_interval": "1/5",
            "noise_sigma": "2.5",
            "seed": "42",
            "out_dir": "results",
        }
    )
    text = config.config_text(cfg)
    reparsed = config.merge_config(
        {
            key.strip(): value.strip()
            for key, _, value in (line.partition("=") for line in text.splitlines() if line)
        }
    )
    assert reparsed == cfg


def test_config_text_is_manifest_format(tmp_path):
    cfg = config.RunConfig()
    path = tmp_path / "manifest.txt"
    path.write_text(config.config_text(cfg))
    assert config.merge_config(config.load_config_file(path)) == cfg


# manifest.txt bytes of the defaults and of a config with every setting off
# its default.
RECORDED_CONFIG_TEXT = {
    "defaults": (
        {},
        "n = 35\nk = 5\norder_mode = pattern_major\nletter = U\ncolor = white\n"
        "object_path = \ntrajectory = static\nvelocity_x = 0\nvelocity_y = 0\n"
        "hold_interval = \nrevolution_period = 1/5\npersistence_time = 1/5\n"
        "window_mode = tumbling\ntotal_duration = 1/5\nnoise_sigma = 0.0\nseed = 0\n"
        "workers = 1\nout_dir = out\n",
    ),
    "every_setting_changed": (
        {
            "n": "21", "k": "3", "order_mode": "part_major", "letter": "X", "color": "red",
            "object_path": "obj.ppm", "trajectory": "linear", "velocity_x": "-5/3",
            "velocity_y": "0.25", "hold_interval": "1/7", "revolution_period": "2",
            "persistence_time": "0.3", "window_mode": "sliding", "total_duration": "6",
            "noise_sigma": "2.5", "seed": "42", "workers": "2", "out_dir": "results",
        },
        "n = 21\nk = 3\norder_mode = part_major\nletter = X\ncolor = red\n"
        "object_path = obj.ppm\ntrajectory = linear\nvelocity_x = -5/3\nvelocity_y = 1/4\n"
        "hold_interval = 1/7\nrevolution_period = 2\npersistence_time = 3/10\n"
        "window_mode = sliding\ntotal_duration = 6\nnoise_sigma = 2.5\nseed = 42\n"
        "workers = 2\nout_dir = results\n",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_CONFIG_TEXT))
def test_config_text_matches_recorded_bytes(name):
    layer, text = RECORDED_CONFIG_TEXT[name]
    cfg = config.merge_config(layer)
    changed = {f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(config.DEFAULTS, f.name)}
    assert changed == set(layer)
    assert config.config_text(cfg) == text


def test_resolve_components_builds_consistent_objects():
    cfg = config.merge_config({"n": "7", "k": "1", "letter": "T", "color": "blue"})
    spec, patterns, schedule, obj, trajectory, timing = config.resolve_components(cfg)
    assert spec.n == 7 and spec.n_cell == 7
    assert patterns.pattern_length == 7
    # Neither resolving nor simulating builds the schedule's slot arrays.
    sim.simulate(obj, trajectory, schedule, patterns, timing)
    assert "_grid" not in vars(schedule)
    assert len(schedule.slots) == 49
    assert obj.side == 7
    assert trajectory.mode == "static"
    assert timing.window_mode == "tumbling"


def test_resolve_components_rejects_bad_partition():
    cfg = config.merge_config({"n": "24", "k": "3"})
    with pytest.raises(ValueError, match="power-of-two"):
        config.resolve_components(cfg)


def test_resolve_components_loads_object_file(tmp_path):
    obj = scene.builtin_letter("J", 7, "green")
    path = tmp_path / "obj.ppm"
    pnm.write_ppm(path, obj.pixels)
    cfg = config.merge_config({"n": "7", "k": "1", "object_path": str(path)})
    _, _, _, loaded, _, _ = config.resolve_components(cfg)
    assert loaded.side == 7
    assert np.array_equal(loaded.pixels, obj.pixels)


def test_resolve_components_checks_object_size(tmp_path):
    obj = scene.builtin_letter("J", 7, "green")
    path = tmp_path / "obj.ppm"
    pnm.write_ppm(path, obj.pixels)
    cfg = config.merge_config({"n": "35", "k": "5", "object_path": str(path)})
    with pytest.raises(ConfigError, match="7x7"):
        config.resolve_components(cfg)


def test_resolve_components_missing_object_file():
    cfg = config.merge_config({"object_path": "/nonexistent/o.ppm"})
    with pytest.raises(OSError):
        config.resolve_components(cfg)
