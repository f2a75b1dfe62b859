"""Partition validation, slot orders, mask placement, disk layout exports."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ghostdisk import disk, hadamard


def patterns_for(n_cell):
    return hadamard.reduce_matrix(hadamard.sylvester_hadamard(n_cell + 1))


@pytest.mark.parametrize("n,k,n_cell", [(35, 5, 7), (3, 1, 3), (21, 3, 7), (15, 1, 15), (93, 31, 3)])
def test_make_spec_accepts_valid_partitions(n, k, n_cell):
    spec = disk.make_spec(n, k)
    assert (spec.n, spec.k, spec.n_cell) == (n, k, n_cell)
    assert spec.slots_per_revolution == n * n


@pytest.mark.parametrize(
    "n,k,message",
    [
        (35, 4, "divide"),
        (24, 3, "power-of-two"),
        (10, 5, "too small"),
        (4, 1, "power-of-two"),
        (0, 1, "positive"),
        (6, -2, "positive"),
    ],
)
def test_make_spec_rejects_invalid_partitions(n, k, message):
    with pytest.raises(ValueError, match=message):
        disk.make_spec(n, k)


def test_pattern_major_order():
    spec = disk.make_spec(6, 2)
    schedule = disk.build_schedule(spec, "pattern_major")
    assert len(schedule.slots) == 36
    head = [(s.row, s.cell, s.pattern_index) for s in schedule.slots[:4]]
    assert head == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    # Pattern index changes slowest: first n*k slots all use pattern 0.
    assert all(s.pattern_index == 0 for s in schedule.slots[:12])
    assert all(s.pattern_index == 1 for s in schedule.slots[12:24])


def test_part_major_order():
    spec = disk.make_spec(6, 2)
    schedule = disk.build_schedule(spec, "part_major")
    head = [(s.row, s.cell, s.pattern_index) for s in schedule.slots[:4]]
    assert head == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0)]
    assert all(s.row == 0 and s.cell == 0 for s in schedule.slots[:3])


def test_orders_cover_same_slot_multiset():
    spec = disk.make_spec(21, 3)
    a = disk.build_schedule(spec, "pattern_major")
    b = disk.build_schedule(spec, "part_major")
    triples_a = {(s.row, s.cell, s.pattern_index) for s in a.slots}
    triples_b = {(s.row, s.cell, s.pattern_index) for s in b.slots}
    assert triples_a == triples_b
    assert len(triples_a) == 21 * 21


def test_slot_indices_are_sequential():
    spec = disk.make_spec(3, 1)
    for mode in disk.ORDER_MODES:
        schedule = disk.build_schedule(spec, mode)
        assert [s.slot_index for s in schedule.slots] == list(range(9))


def test_build_schedule_rejects_unknown_mode():
    spec = disk.make_spec(3, 1)
    with pytest.raises(ValueError, match="order_mode"):
        disk.build_schedule(spec, "zigzag")


def test_place_pattern_masks_single_cell():
    spec = disk.make_spec(6, 2)
    pats = patterns_for(3)
    slot = disk.SlotDescriptor(slot_index=0, row=4, cell=1, pattern_index=2)
    mask = disk.place_pattern(spec, slot, pats)
    assert mask.shape == (6, 6)
    assert mask.sum() == pats.patterns[2].sum()
    assert np.array_equal(mask[4, 3:6], pats.patterns[2])
    mask[4, 3:6] = 0
    assert mask.sum() == 0


def test_place_pattern_validates():
    spec = disk.make_spec(6, 2)
    pats = patterns_for(3)
    with pytest.raises(ValueError, match="out of range"):
        disk.place_pattern(spec, disk.SlotDescriptor(0, 6, 0, 0), pats)
    with pytest.raises(ValueError, match="pattern index"):
        disk.place_pattern(spec, disk.SlotDescriptor(0, 0, 0, 3), pats)
    with pytest.raises(ValueError, match="does not match"):
        disk.place_pattern(spec, disk.SlotDescriptor(0, 0, 0, 0), patterns_for(7))


def test_layout_angles_and_tracks():
    spec = disk.make_spec(3, 1)
    schedule = disk.build_schedule(spec)
    layout = disk.disk_layout(schedule, patterns_for(3))
    assert len(layout.holes) == 9
    assert [h.angle_deg for h in layout.holes] == [Fraction(360 * i, 9) for i in range(9)]
    assert [h.track for h in layout.holes] == [h.row for h in layout.holes]
    # Point-scan patterns: one lit bit per hole group.
    assert all(sum(h.bits) == 1 for h in layout.holes)


def test_layout_rejects_bad_geometry():
    spec = disk.make_spec(3, 1)
    schedule = disk.build_schedule(spec)
    with pytest.raises(ValueError, match="positive"):
        disk.disk_layout(schedule, patterns_for(3), radius_mm=0.0)
    with pytest.raises(ValueError, match="positive"):
        disk.disk_layout(schedule, patterns_for(3), track_pitch_mm=-1.0)


def test_schedule_csv_round_trip(tmp_path):
    spec = disk.make_spec(21, 3)
    schedule = disk.build_schedule(spec, "part_major")
    path = tmp_path / "schedule.csv"
    disk.schedule_to_csv(schedule, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "slot,row,cell,pattern"
    assert lines[1] == "0,0,0,0"
    back = disk.schedule_from_csv(path, spec, "part_major")
    assert (back.spec, back.order_mode) == (schedule.spec, schedule.order_mode)
    for field in ("rows", "cells", "pattern_index"):
        assert np.array_equal(getattr(back, field), getattr(schedule, field))
    assert back.slots == schedule.slots


def test_schedule_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_text("0,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        disk.schedule_from_csv(path, disk.make_spec(3, 1))


def test_schedule_csv_rejects_misnumbered_slots(tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_text("slot,row,cell,pattern\n0,0,0,0\n2,0,0,1\n")
    with pytest.raises(ValueError, match="slot 2 where slot 1 belongs"):
        disk.schedule_from_csv(path, disk.make_spec(3, 1))


def test_build_schedule_arrays_are_read_only():
    schedule = disk.build_schedule(disk.make_spec(6, 2))
    for array in (schedule.rows, schedule.cells, schedule.pattern_index):
        assert array.shape == (36,)
        with pytest.raises(ValueError):
            array[0] = 1


def test_layout_csv_round_trip(tmp_path):
    spec = disk.make_spec(6, 2)
    schedule = disk.build_schedule(spec)
    layout = disk.disk_layout(schedule, patterns_for(3))
    path = tmp_path / "layout.csv"
    disk.layout_to_csv(layout, path)
    back = disk.layout_from_csv(path, layout)
    assert back == layout


def test_svg_export_is_deterministic_and_structured(tmp_path):
    spec = disk.make_spec(6, 2)
    schedule = disk.build_schedule(spec)
    pats = patterns_for(3)
    layout = disk.disk_layout(schedule, pats)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    disk.export_layout_svg(layout, a)
    disk.export_layout_svg(layout, b)
    text = a.read_text()
    assert a.read_bytes() == b.read_bytes()
    assert text.count('<g id="track_') == 6
    # One rectangle per lit bit over the whole revolution.
    total_bits = sum(sum(h.bits) for h in layout.holes)
    assert text.count("<rect ") == total_bits
    assert "<svg xmlns=" in text


def test_svg_rect_count_matches_point_scan(tmp_path):
    spec = disk.make_spec(3, 1)
    layout = disk.disk_layout(disk.build_schedule(spec), patterns_for(3))
    path = tmp_path / "disk.svg"
    disk.export_layout_svg(layout, path)
    text = path.read_text()
    # 9 slots, each with exactly one lit bit, on 3 tracks.
    assert text.count("<rect ") == 9
    assert text.count('<g id="track_') == 3
