"""Partition validation, slot orders, mask placement, disk layout exports."""

from __future__ import annotations

import dataclasses
import hashlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ghostdisk import disk, hadamard, sim


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
    for build in (disk.make_spec, disk.PartitionSpec):
        with pytest.raises(ValueError, match=message):
            build(n, k)


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
    message = "order_mode must be one of ('part_major', 'pattern_major'), got 'zigzag'"
    for build in (disk.build_schedule, disk.ScanSchedule):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(spec, "zigzag")


def test_spec_and_schedule_hold_only_their_defining_values():
    spec = disk.PartitionSpec(35, 5)
    assert [f.name for f in dataclasses.fields(spec)] == ["n", "k"]
    assert spec == disk.make_spec(35, 5) and spec.n_cell == 7
    schedule = disk.ScanSchedule(spec, "part_major")
    assert [f.name for f in dataclasses.fields(schedule)] == ["spec", "order_mode"]
    assert "_grid" not in vars(schedule)
    assert schedule.rows is schedule.rows and "_grid" in vars(schedule)


@pytest.mark.parametrize("n,k", [(3, 1), (6, 2), (35, 5)])
@pytest.mark.parametrize("mode", disk.ORDER_MODES)
def test_slot_arrays_equal_np_indices(n, k, mode):
    # The arrays build_schedule stored when it still built them up front.
    if mode == "pattern_major":
        pattern, row, cell = np.indices((n // k, n, k)).reshape(3, -1)
    else:
        row, cell, pattern = np.indices((n, k, n // k)).reshape(3, -1)
    schedule = disk.build_schedule(disk.make_spec(n, k), mode)
    for got, want in zip((schedule.rows, schedule.cells, schedule.pattern_index), (row, cell, pattern)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("mode", disk.ORDER_MODES)
def test_schedule_of_large_partition_allocates_nothing(mode):
    # n = 4095 has 16.8M slots: three int64 arrays of them would be 384 MiB.
    tracemalloc.start()
    try:
        schedule = disk.build_schedule(disk.make_spec(4095, 1), mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert schedule.spec.slots_per_revolution == 4095**2
    assert peak < 64 * 1024


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


def layout_csv_oracle(schedule, patterns) -> bytes:
    """The layout CSV built per slot, with a Fraction angle."""
    lines = ["slot,row,cell,pattern,track,angle_num,angle_den,bits"]
    count = len(schedule.slots)
    for slot in schedule.slots:
        angle = Fraction(360 * slot.slot_index, count)
        bits = "".join(str(b) for b in patterns.patterns[slot.pattern_index].tolist())
        lines.append(
            f"{slot.slot_index},{slot.row},{slot.cell},{slot.pattern_index},{slot.row},"
            f"{angle.numerator},{angle.denominator},{bits}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def test_layout_angles_and_tracks(tmp_path):
    spec = disk.make_spec(3, 1)
    schedule = disk.build_schedule(spec)
    layout = disk.disk_layout(schedule, patterns_for(3))
    assert layout.schedule is schedule and (layout.radius_mm, layout.track_pitch_mm) == (60.0, 1.5)
    path = tmp_path / "layout.csv"
    disk.layout_to_csv(layout, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 9
    angles = [Fraction(int(num), int(den)) for *_, num, den, _ in rows]
    assert angles == [Fraction(360 * i, 9) for i in range(9)]
    assert [r[4] for r in rows] == [r[1] for r in rows]
    # Point-scan patterns: one lit bit per hole group.
    assert all(r[7].count("1") == 1 for r in rows)


def test_layout_rejects_bad_geometry():
    spec = disk.make_spec(3, 1)
    schedule = disk.build_schedule(spec)
    with pytest.raises(ValueError, match="positive"):
        disk.disk_layout(schedule, patterns_for(3), radius_mm=0.0)
    with pytest.raises(ValueError, match="positive"):
        disk.disk_layout(schedule, patterns_for(3), track_pitch_mm=-1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            disk.disk_layout(schedule, patterns_for(3), radius_mm=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            disk.disk_layout(schedule, patterns_for(3), track_pitch_mm=bad)
    # Both finite, but the drawing size 2 * (radius + 2 * pitch) overflows.
    with pytest.raises(ValueError, match=r"drawing size 2 \* \(radius \+ 2 \* pitch\)"):
        disk.disk_layout(schedule, patterns_for(3), radius_mm=1e308)
    with pytest.raises(ValueError, match="does not match"):
        disk.disk_layout(schedule, patterns_for(7))


def test_layout_refuses_inner_track_at_or_through_centre():
    schedule = disk.build_schedule(disk.make_spec(6, 2))
    # The innermost of 6 tracks at 1.5 mm pitch sits at radius - 9 mm.
    with pytest.raises(ValueError, match=r"exceed n \* track pitch = 9 mm"):
        disk.disk_layout(schedule, patterns_for(3), radius_mm=9.0, track_pitch_mm=1.5)
    layout = disk.disk_layout(schedule, patterns_for(3), radius_mm=9.001, track_pitch_mm=1.5)
    assert layout.radius_mm == 9.001
    # Default geometry: n = 39 fits (58.5 mm < 60 mm), n = 42 does not.
    disk.disk_layout(disk.build_schedule(disk.make_spec(39, 13)), patterns_for(3))
    with pytest.raises(ValueError, match="innermost track does not fit"):
        disk.disk_layout(disk.build_schedule(disk.make_spec(42, 6)), patterns_for(7))


def test_schedule_csv_round_trip(tmp_path):
    spec = disk.make_spec(21, 3)
    schedule = disk.build_schedule(spec, "part_major")
    path = tmp_path / "schedule.csv"
    disk.schedule_to_csv(schedule, path)
    lines = ["slot,row,cell,pattern"]
    lines += [f"{s.slot_index},{s.row},{s.cell},{s.pattern_index}" for s in schedule.slots]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9154f25a6338cedede723c5df2aa340aa5cb3078ced48d53efb00f4a909bf320"
    )


def schedule_csv_oracle(schedule) -> bytes:
    """The schedule CSV from the slot arrays, one f-string per line."""
    lines = ["slot,row,cell,pattern"]
    triples = zip(schedule.rows.tolist(), schedule.cells.tolist(), schedule.pattern_index.tolist())
    lines += [f"{s},{row},{cell},{p}" for s, (row, cell, p) in enumerate(triples)]
    return ("\n".join(lines) + "\n").encode("ascii")


def layout_csv_lines_oracle(layout) -> bytes:
    """The layout CSV from the slot arrays, one f-string per line, angles by ``np.gcd``."""
    schedule = layout.schedule
    count = schedule.spec.slots_per_revolution
    num = 360 * np.arange(count)
    gcd = np.gcd(num, count)
    bits = ["".join(map(str, row)) for row in layout.patterns.patterns.tolist()]
    columns = (schedule.rows, schedule.cells, schedule.pattern_index, num // gcd, count // gcd)
    lines = ["slot,row,cell,pattern,track,angle_num,angle_den,bits"]
    lines += [
        f"{s},{row},{cell},{p},{row},{a},{b},{bits[p]}"
        for s, (row, cell, p, a, b) in enumerate(zip(*(c.tolist() for c in columns)))
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("block", [1, 7, 4096])
@pytest.mark.parametrize("mode", disk.ORDER_MODES)
def test_csv_blocks_equal_per_line_writers(tmp_path, monkeypatch, mode, block):
    # Blocks of one slot, of 7 (never a row of either grid) and the default,
    # which holds a whole revolution here.
    monkeypatch.setattr(sim, "BLOCK_SLOTS", block)
    for n, k in ((3, 1), (6, 2), (21, 3), (35, 5)):
        schedule = disk.build_schedule(disk.make_spec(n, k), mode)
        layout = disk.disk_layout(schedule, patterns_for(n // k))
        disk.schedule_to_csv(schedule, tmp_path / "schedule.csv")
        disk.layout_to_csv(layout, tmp_path / "layout.csv")
        assert (tmp_path / "schedule.csv").read_bytes() == schedule_csv_oracle(schedule)
        assert (tmp_path / "layout.csv").read_bytes() == layout_csv_lines_oracle(layout)


# sha256 of the schedule and layout CSVs at n = 511, k = 1 (radius 800 mm),
# as the per-line writers wrote them.
RECORDED_LARGE_EXPORTS = {
    "pattern_major": (
        "c24e6aac0976c82bf709fed908ddfbd08dc765571b3a50653b05fff4d7abf305",
        "788e06db4f38e16c8b10a3917f7e3b9a21a7bd2bb4620b26f281dd9ed0fed2e4",
    ),
    "part_major": (
        "91a46ef0d06068b61ee12af9c7a332545d5e04f68f0e1594b9adff8e5979a1c7",
        "11db05e65778e2c662d553d92eaa4bdb81bd9d1c2a4337ba77c80a703d376c10",
    ),
}


@pytest.mark.parametrize("mode", sorted(RECORDED_LARGE_EXPORTS))
def test_csv_exports_at_n511_trace_flat_in_the_slot_count(tmp_path, mode):
    # 261,121 slots: the per-line writers held every line as a str, 214 MB
    # and 481 MB of peak RSS for 17 and 136 MiB files.  Blocks of 4,096 slots
    # (2,052 for the layout, capped at 2**20 pattern bits) hold a few MiB.
    schedule = disk.build_schedule(disk.make_spec(511, 1), mode)
    layout = disk.disk_layout(schedule, patterns_for(511), radius_mm=800.0)
    digests, peaks = [], []
    for write, arg, name in ((disk.schedule_to_csv, schedule, "schedule.csv"),
                             (disk.layout_to_csv, layout, "layout.csv")):
        tracemalloc.start()
        try:
            write(arg, tmp_path / name)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
    assert tuple(digests) == RECORDED_LARGE_EXPORTS[mode]
    assert peaks[0] < 1.5 * 2**20 and peaks[1] < 5 * 2**20, peaks
    assert "_grid" not in vars(schedule)  # no slot array was built


# sha256 of the schedule CSV, layout CSV and layout SVG (default geometry),
# as written when the layout still held one object per hole group.
RECORDED_EXPORTS = {
    (3, 1, "pattern_major"): (
        "cf397ad435515bdbe7dd3809eeb6358e0cea21530eb17f3c616cbc39e5720514",
        "77c3675cb24a8d34251ee4a935e9b4e301dfc3a06658dd77dd38067385bd1237",
        "f76c41e8f85976760606858ced05732ea094550a3c87cf98ccecaf5a7252d1cc",
    ),
    (3, 1, "part_major"): (
        "68c47ad3fec1b277bb8d12acf7ca13952c20dd6d1f9ff69273c6d99dc8d7ebd8",
        "0c3a3c0d51bfc76e808ec08c1b2b144b456e6cd6d84813719f6315fde6ef90e6",
        "fee8d41913af9fa3c624b9a0817bb8ca32cf4338330b237ff3e13c533093d06c",
    ),
    (6, 2, "pattern_major"): (
        "f6cb74c114eaf054dbb7e4afe8dfedce4c6ce6ca49baac316a1f31a7f64f444c",
        "02ee5acdf4e2b699734223a3d97164ceec4fe0e5a5b124fc6f2c2f83ec04a04b",
        "a100f02522b8f4b807eea45d1dc3ac68d5172b7cfb92da2cb50523374189a057",
    ),
    (6, 2, "part_major"): (
        "f80eacfb60d875cb8ad4e2b1052d78e8932bcfbc404c2917302057f43b33500e",
        "08e736d109aec1aced48d25fbcc4d9bf4a6bffdefa682c11127f31bae6bf09ea",
        "e8cccfb7ba40119136b3d4867a7f0fb95e035299a6f1d751e1bbf284fe2540df",
    ),
    (35, 5, "pattern_major"): (
        "1b8cf6e795e131376730b17285e1bc0827eac7a3373a0631daf3fe632202dd98",
        "7af2934e2f907463e33e1a6376517459df52d1c3408d0c0a1daac7eaae315bd9",
        "cb38ac5ddbd43253d5c45c31cb76882cb022f1781d3fea6c4d34911c5769e6a1",
    ),
    (35, 5, "part_major"): (
        "ffbc63d13d7529c6f78353cf42d7dfd5262952cc44d765ac3f1f5332118f3aeb",
        "fbaed60ad9753f2b5a4ad6dfc57e3f7d5c095d36c848f2cb2be8de013b2f5003",
        "b220845f3952f9087e99586ef282337bd207454ecca80855c5356de3e3ac170f",
    ),
}


@pytest.mark.parametrize("n,k,mode", sorted(RECORDED_EXPORTS))
def test_exports_match_recorded_bytes(tmp_path, n, k, mode):
    spec = disk.make_spec(n, k)
    schedule = disk.build_schedule(spec, mode)
    layout = disk.disk_layout(schedule, patterns_for(spec.n_cell))
    disk.schedule_to_csv(schedule, tmp_path / "schedule.csv")
    disk.layout_to_csv(layout, tmp_path / "layout.csv")
    disk.export_layout_svg(layout, tmp_path / "layout.svg")
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("schedule.csv", "layout.csv", "layout.svg")
    )
    assert digests == RECORDED_EXPORTS[n, k, mode]


def test_build_schedule_arrays_are_read_only():
    schedule = disk.build_schedule(disk.make_spec(6, 2))
    for array in (schedule.rows, schedule.cells, schedule.pattern_index):
        assert array.shape == (36,)
        with pytest.raises(ValueError):
            array[0] = 1


def test_layout_csv_round_trip(tmp_path):
    for n, k in ((6, 2), (21, 3), (35, 5)):
        for mode in disk.ORDER_MODES:
            schedule = disk.build_schedule(disk.make_spec(n, k), mode)
            patterns = patterns_for(n // k)
            path = tmp_path / f"layout_{n}_{mode}.csv"
            disk.layout_to_csv(disk.disk_layout(schedule, patterns), path)
            assert path.read_bytes() == layout_csv_oracle(schedule, patterns)


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
    total_bits = pats.patterns[schedule.pattern_index].sum()
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
