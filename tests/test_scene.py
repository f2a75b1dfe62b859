"""Letter objects, exact scaling, translation, and motion sampling."""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostdisk import pnm, scene

# Lit-pixel counts of the 7x7 glyphs, counted by hand from the bitmaps.
GLYPH_WEIGHTS = {"X": 13, "J": 15, "T": 13, "U": 15}


def lit(obj, channel):
    """Number of nonzero pixels in one channel."""
    return int(np.count_nonzero(obj.pixels[:, :, channel]))


def test_available_letters():
    assert scene.available_letters() == ("J", "T", "U", "X")


@pytest.mark.parametrize("letter,weight", sorted(GLYPH_WEIGHTS.items()))
def test_glyph_weights_at_native_size(letter, weight):
    obj = scene.builtin_letter(letter, 7, "white")
    assert obj.pixels.shape == (7, 7, 3)
    for channel in range(3):
        assert lit(obj, channel) == weight


@pytest.mark.parametrize("letter,weight", sorted(GLYPH_WEIGHTS.items()))
def test_glyph_scaling_is_exact_blocks(letter, weight):
    # 35 = 7 * 5: every glyph pixel becomes a 5x5 block, so counts scale by 25.
    obj = scene.builtin_letter(letter, 35, "white")
    assert lit(obj, 0) == weight * 25
    base = scene.builtin_letter(letter, 7, "white").pixels
    blown = np.kron(base[:, :, 0], np.ones((5, 5), dtype=np.uint8))
    assert np.array_equal(obj.pixels[:, :, 0], blown)


def test_letter_colors_land_in_named_channels():
    red = scene.builtin_letter("X", 7, "red")
    assert lit(red, 0) == GLYPH_WEIGHTS["X"]
    assert lit(red, 1) == 0
    assert lit(red, 2) == 0
    green = scene.builtin_letter("J", 7, "green")
    assert [lit(green, c) for c in range(3)] == [0, GLYPH_WEIGHTS["J"], 0]
    blue = scene.builtin_letter("T", 7, "blue")
    assert [lit(blue, c) for c in range(3)] == [0, 0, GLYPH_WEIGHTS["T"]]
    white = scene.builtin_letter("U", 7, "white")
    assert [lit(white, c) for c in range(3)] == [GLYPH_WEIGHTS["U"]] * 3
    assert set(np.unique(white.pixels)) == {0, 255}


def test_builtin_letter_validation():
    with pytest.raises(ValueError, match="unknown letter"):
        scene.builtin_letter("Q", 35)
    with pytest.raises(ValueError, match="unknown color"):
        scene.builtin_letter("X", 35, "magenta")
    with pytest.raises(ValueError, match="smaller than"):
        scene.builtin_letter("X", 5)


def test_scene_object_validation():
    with pytest.raises(ValueError, match=r"\(n, n, 3\)"):
        scene.SceneObject(pixels=np.zeros((4, 5, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="uint8"):
        scene.SceneObject(pixels=np.zeros((4, 4, 3), dtype=np.int64))


def _naive_translate(pixels, dx, dy):
    n_rows, n_cols = pixels.shape[:2]
    out = np.zeros_like(pixels)
    for r in range(n_rows):
        for c in range(n_cols):
            r2, c2 = r + dy, c + dx
            if 0 <= r2 < n_rows and 0 <= c2 < n_cols:
                out[r2, c2] = pixels[r, c]
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-7, max_value=7),
    st.integers(min_value=-7, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_translate_matches_naive_loop(dx, dy, seed):
    gen = np.random.default_rng(seed)
    pixels = gen.integers(0, 256, size=(5, 5, 3), dtype=np.uint8)
    assert np.array_equal(scene.translate_image(pixels, dx, dy), _naive_translate(pixels, dx, dy))


def test_translate_clips_at_borders():
    pixels = np.full((3, 3, 3), 9, dtype=np.uint8)
    gone = scene.translate_image(pixels, 3, 0)
    assert gone.sum() == 0
    part = scene.translate_image(pixels, 1, -2)
    assert part.sum() == 9 * 2 * 3 * 1  # 2 cols x 1 row survive per channel


def test_as_fraction_reads_floats_decimally():
    assert scene.as_fraction(0.2) == Fraction(1, 5)
    assert scene.as_fraction(0.1) == Fraction(1, 10)
    assert scene.as_fraction("3/7") == Fraction(3, 7)
    assert scene.as_fraction(2) == Fraction(2)
    with pytest.raises(TypeError):
        scene.as_fraction(object())


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_floats_are_refused_with_value_error(value):
    # Fraction(Decimal("inf")) raises OverflowError, an ArithmeticError a
    # caller would not expect for a bad value.
    from ghostdisk import sim

    refusal = f"cannot interpret {re.escape(repr(value))} as an exact rational$"
    with pytest.raises(ValueError, match="^" + refusal):
        scene.as_fraction(value)
    # A setting's refusal names the setting.
    for name, make in (
        ("persistence_window", lambda: sim.TimingConfig(persistence_window=value)),
        ("revolution_period", lambda: sim.TimingConfig(revolution_period=value)),
        ("total_duration", lambda: sim.TimingConfig(total_duration=value)),
        ("velocity", lambda: scene.Trajectory(mode="linear", velocity=(value, 0))),
        ("velocity", lambda: scene.Trajectory(mode="linear", velocity=(0, value))),
        ("hold_interval", lambda: scene.Trajectory(mode="linear", hold_interval=value)),
    ):
        with pytest.raises(ValueError, match=f"^{name}: {refusal}"):
            make()


def test_static_trajectory_never_moves():
    traj = scene.Trajectory()
    assert traj.offset_at(Fraction(123, 7)) == (0, 0)


def test_linear_offsets_round_half_up():
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(1), Fraction(-1)))
    # v*t = 1/2 rounds away from zero in both signs.
    assert traj.offset_at(Fraction(1, 2)) == (1, -1)
    assert traj.offset_at(Fraction(1, 3)) == (0, 0)
    assert traj.offset_at(Fraction(2, 3)) == (1, -1)
    assert traj.offset_at(Fraction(5)) == (5, -5)


def test_linear_offsets_are_exact_at_rational_times():
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(5), Fraction(0)))
    assert traj.offset_at(Fraction(1, 5)) == (1, 0)
    assert traj.offset_at(Fraction(3, 5)) == (3, 0)


def test_hold_interval_freezes_offset_between_updates():
    traj = scene.Trajectory(
        mode="linear", velocity=(Fraction(5), Fraction(5)), hold_interval=Fraction(1, 5)
    )
    assert traj.offset_at(Fraction(0)) == (0, 0)
    assert traj.offset_at(Fraction(1, 5) - Fraction(1, 1000)) == (0, 0)
    assert traj.offset_at(Fraction(1, 5)) == (1, 1)
    assert traj.offset_at(Fraction(2, 5) - Fraction(1, 1000)) == (1, 1)
    assert traj.offset_at(Fraction(2, 5)) == (2, 2)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="mode"):
        scene.Trajectory(mode="orbit")
    with pytest.raises(ValueError, match="hold_interval"):
        scene.Trajectory(mode="linear", hold_interval=Fraction(0))


def test_sample_scene_translates_and_preserves_base():
    obj = scene.builtin_letter("T", 7, "blue")
    traj = scene.Trajectory(mode="linear", velocity=(Fraction(1), Fraction(0)))
    moved = scene.sample_scene(obj, traj, Fraction(2))
    assert np.array_equal(moved.pixels, scene.translate_image(obj.pixels, 2, 0))
    # t = 0 returns the object unchanged.
    assert scene.sample_scene(obj, traj, Fraction(0)) is obj


def test_scene_ppm_round_trip(tmp_path):
    obj = scene.builtin_letter("X", 14, "red")
    path = tmp_path / "x.ppm"
    pnm.write_ppm(path, obj.pixels)
    back = scene.load_scene_ppm(path)
    assert np.array_equal(back.pixels, obj.pixels)


def test_load_scene_pgm_broadcasts_channels(tmp_path):
    gray = np.arange(16, dtype=np.uint8).reshape(4, 4)
    path = tmp_path / "g.pgm"
    pnm.write_pgm(path, gray)
    obj = scene.load_scene_ppm(path)
    for channel in range(3):
        assert np.array_equal(obj.pixels[:, :, channel], gray)


def test_load_scene_rejects_non_square(tmp_path):
    path = tmp_path / "r.ppm"
    pnm.write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="square"):
        scene.load_scene_ppm(path)
