"""Command-line behavior: outputs, determinism, config layering, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ghostdisk import cli, config, disk, metrics, pnm, scene, sim
from ghostdisk.cli import main
from test_sim import assert_matches_dense_oracle

FAST = ["--n", "7", "--k", "1"]


def read_tree(root, skip=()):
    return {
        p.name: p.read_bytes()
        for p in sorted(root.iterdir())
        if p.is_file() and p.name not in skip
    }


def test_patterns_text_output(tmp_path, capsys):
    out = tmp_path / "pats.txt"
    assert main(["patterns", "--length", "7", "--out", str(out)]) == 0
    assert "wrote 7 patterns" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    assert lines[0] == "0 1 0 1 0 1 0"


def test_patterns_pgm_output(tmp_path):
    pgm_dir = tmp_path / "pgms"
    assert main(["patterns", "--length", "3", "--pgm-dir", str(pgm_dir)]) == 0
    names = sorted(p.name for p in pgm_dir.iterdir())
    assert names == ["pattern_0.pgm", "pattern_1.pgm", "pattern_2.pgm"]


def test_patterns_random_is_seeded(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    assert main(["patterns", "--length", "9", "--random", "4", "--seed", "1", "--out", str(a)]) == 0
    assert main(["patterns", "--length", "9", "--random", "4", "--seed", "1", "--out", str(b)]) == 0
    assert main(["patterns", "--length", "9", "--random", "4", "--seed", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("seed", [2**64, -1])
def test_patterns_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    # 2**64 would reduce to seed 0 in rng.words and write seed 0's patterns.
    out = tmp_path / "random.txt"
    argv = ["patterns", "--length", "7", "--random", "3", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: seed: must be in [0, 2**64), got {seed}\n"
    assert not out.exists()


def test_patterns_invalid_length_exits_2(tmp_path, capsys):
    assert main(["patterns", "--length", "6", "--out", str(tmp_path / "x.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_schedule_output(tmp_path):
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--n", "6", "--k", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,row,cell,pattern"
    assert len(lines) == 37


def test_layout_outputs(tmp_path):
    svg = tmp_path / "disk.svg"
    csv = tmp_path / "disk.csv"
    args = ["layout", "--n", "3", "--k", "1", "--svg", str(svg), "--csv", str(csv)]
    assert main(args) == 0
    assert svg.read_text().count("<rect ") == 9
    assert len(csv.read_text().splitlines()) == 10
    # Re-export is byte-identical.
    first = svg.read_bytes()
    assert main(args) == 0
    assert svg.read_bytes() == first


def test_layout_without_outputs_exits_2(capsys):
    assert main(["layout", "--n", "3", "--k", "1"]) == 2
    assert "need --svg" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--radius-mm", "--track-pitch-mm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
def test_layout_non_finite_geometry_exits_2(tmp_path, capsys, flag, value):
    svg = tmp_path / "disk.svg"
    csv = tmp_path / "disk.csv"
    args = ["layout", "--n", "35", "--k", "5", f"{flag}={value}"]
    assert main(args + ["--svg", str(svg), "--csv", str(csv)]) == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not svg.exists() and not csv.exists()


def test_layout_inner_track_through_centre_exits_2(tmp_path, capsys):
    # 42 is the smallest buildable n >= 40 (n / k must be 2**m - 1); at the
    # default 60 mm radius and 1.5 mm pitch its innermost track would sit
    # at 60 - 42 * 1.5 = -3 mm, through the centre.
    svg = tmp_path / "disk.svg"
    csv = tmp_path / "disk.csv"
    assert main(["layout", "--n", "42", "--k", "6", "--svg", str(svg), "--csv", str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: innermost track does not fit: radius must exceed n * track pitch "
        "= 63 mm, got 60 mm"
    ]
    assert not svg.exists() and not csv.exists()


# sha256 of each `patterns` output file (for --pgm-dir, of the sorted file
# names and bytes), recorded while every Hadamard matrix was self-checked
# and random bits were read one at a time from the scalar `rng.word`.
RECORDED_PATTERNS = {
    ("--length", "7"): "cc2cb308e8b1c87f8768954d7ddbc66688d58fe0f64cf684a943bb7c66d962c1",
    ("--length", "31"): "83e4344d3ddeaa991cc21cb850c48d4bfef8ed0e5f70d882f29c6d5350bf732e",
    ("--length", "1023"): "f4e4c6d2556dff75eb7ab02b4c9bec78e78d374ebe07070218e449f250b5bcfb",
    ("--length", "15", "--pgm-dir"): (
        "c908e01781e63d59643938ad114c2f0b678d6e4fc9173d57127547a7f779771a"
    ),
    ("--length", "7", "--random", "12", "--seed", "3"): (
        "1e854368f27a66c9a1921b17e44472030b8d08a7bc8bd76944cc5920cd9bbcf2"
    ),
    ("--length", "1023", "--random", "1023", "--seed", "7"): (
        "287b39482d3497cb22066ccf5a7e16ee782d165e9376232f26f83fc8717a90cf"
    ),
}


@pytest.mark.parametrize("args", sorted(RECORDED_PATTERNS))
def test_patterns_match_recorded_bytes(tmp_path, args):
    out = tmp_path / "out"
    if args[-1] == "--pgm-dir":
        assert main(["patterns", *args, str(out)]) == 0
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    else:
        assert main(["patterns", *args, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes())
    assert digest.hexdigest() == RECORDED_PATTERNS[args]


def test_simulate_writes_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", *FAST, "--letter", "T", "--out", str(out)]) == 0
    assert "wrote 1 frames" in capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert names == ["bucket.csv", "frame_0000.ppm", "frame_0000.txt", "manifest.txt"]
    manifest = (out / "manifest.txt").read_text()
    assert "n = 7" in manifest and "letter = T" in manifest


def test_simulate_reruns_are_byte_identical(tmp_path, monkeypatch):
    first = tmp_path / "one"
    second = tmp_path / "two"
    for where in (first, second):
        where.mkdir()
        monkeypatch.chdir(where)
        assert main(["simulate", *FAST, "--out", "run"]) == 0
    assert read_tree(first / "run") == read_tree(second / "run")


def test_simulate_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 7\nk = 1\nletter = X\ncolor = red\nout_dir = ignored\n")
    out = tmp_path / "cli_out"
    assert main(["simulate", "--config", str(cfg), "--letter", "J", "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    # CLI value beats the file; untouched file values survive.
    assert "letter = J" in manifest
    assert "color = red" in manifest
    assert not (tmp_path / "ignored").exists()


def test_simulate_bad_partition_exits_2(tmp_path, capsys):
    assert main(["simulate", "--n", "24", "--k", "3", "--out", str(tmp_path / "x")]) == 2
    assert "power-of-two" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "1e300"])
def test_simulate_unusable_noise_sigma_exits_2(tmp_path, capsys, sigma):
    out = tmp_path / "x"
    assert main(["simulate", *FAST, f"--noise-sigma={sigma}", "--out", str(out)]) == 2
    assert "noise_sigma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--velocity-x", "--hold-interval", "--total-duration"])
@pytest.mark.parametrize("value", ["1e5000", "1e-5000"])
def test_simulate_value_past_the_int_digit_limit_exits_2(tmp_path, capsys, flag, value):
    # Each parses exactly, but a part of it has more digits than Python
    # turns into text, so manifest.txt could not hold it.
    out = tmp_path / "x"
    assert main(["simulate", *FAST, flag, value, "--out", str(out)]) == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == (
        f"error: {key}: too many digits to write to manifest.txt, got {value!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,start",
    [
        ("--velocity-x", "1/" + "3" * 10_003, "error: velocity_x: expected a rational number, got '1/333"),
        ("--seed", "9" * 4_000, "error: seed: must be in [0, 2**64), got 999"),
        ("--n", "-" + "9" * 4_000, "error: n: must be >= 1, got -999"),
    ],
    ids=["velocity_x", "seed", "n"],
)
def test_simulate_long_rejected_value_is_not_echoed_whole(tmp_path, capsys, flag, value, start):
    out = tmp_path / "x"
    assert main(["simulate", *FAST, flag, value, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(start) and line.endswith(" more characters]")
    assert len(line) < 250
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,code,start",
    [
        (["patterns", "--length", "7", "--random", "3", "--seed", "9" * 4_000], 2,
         "error: seed: must be in [0, 2**64), got 999"),
        (["schedule", "--n", "9" * 4_000, "--k", "5"], 2, "error: k must divide n: 999"),
        (["report", "--run-dir", "a" * 3_000], 3, "file error: "),
    ],
    ids=["patterns_seed", "schedule_n", "report_run_dir"],
)
def test_any_long_error_line_is_cut(tmp_path, capsys, monkeypatch, argv, code, start):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(start) and line.endswith(" more characters]")
    assert len(line) < 250


def test_long_internal_error_line_is_cut(tmp_path, capsys, monkeypatch):
    from ghostdisk import cli

    def fail(*args, **kwargs):
        raise RuntimeError("x" * 3_000)

    monkeypatch.setattr(cli, "simulate", fail)
    assert main(["simulate", *FAST, "--out", str(tmp_path / "x")]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"internal error: {'x' * 200}... [2800 more characters]"


def test_simulate_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "none.cfg")]) == 2


def test_simulate_unwritable_out_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["simulate", *FAST, "--out", str(blocker / "run")]) == 3


class UnprintableMemoryError(MemoryError):
    """Formatting it fails again, as it can when memory is short."""

    def __str__(self):
        raise MemoryError


@pytest.mark.parametrize(
    "error",
    [
        OverflowError("int too large"),
        ZeroDivisionError("division by zero"),
        MemoryError(),
        UnprintableMemoryError(),
    ],
)
def test_simulate_arithmetic_and_memory_errors_exit_4(tmp_path, capsys, monkeypatch, error):
    from ghostdisk import cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "simulate", fail)
    assert main(["simulate", *FAST, "--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    if isinstance(error, MemoryError):
        assert err.splitlines() == ["internal error: MemoryError"]
    else:
        assert err.splitlines() == [f"internal error: {type(error).__name__}: {error}"]
    assert "Traceback" not in err


def test_report_on_finished_run(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", *FAST, "--letter", "U", "--color", "white", "--out", str(out)]) == 0
    assert main(["report", "--run-dir", str(out)]) == 0
    assert "contrast rows" in capsys.readouterr().out
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "region,channel,n_obj,predicted_num,predicted_den,measured_num,measured_den"
    assert len(report) == 1 + 7 * 3 + 3
    # Measured equals predicted on every binary cell of a clean run.
    for line in report[1:]:
        region, _, n_obj, p_num, p_den, m_num, m_den = line.split(",")
        if region != "full" and p_num:
            assert (p_num, p_den) == (m_num, m_den)


def test_report_frame_out_of_range_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", *FAST, "--out", str(out)]) == 0
    assert main(["report", "--run-dir", str(out), "--frame", "5"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_report_without_complete_window_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main([
        "simulate", *FAST,
        "--persistence-time", "10",
        "--out", str(out),
    ]) == 0
    assert main(["report", "--run-dir", str(out)]) == 2
    assert "no completed exposure window" in capsys.readouterr().err


@pytest.mark.parametrize("mode,motion", [
    ("tumbling", []),
    ("sliding", ["--trajectory", "linear", "--velocity-x", "3", "--velocity-y", "-2"]),
])
def test_report_frames_match_full_simulation(tmp_path, mode, motion):
    out = tmp_path / "run"
    sim_args = ["simulate", *FAST, "--total-duration", "3/5", "--persistence-time", "1/10",
                "--window-mode", mode, *motion, "--noise-sigma", "5", "--seed", "8",
                "--out", str(out)]
    assert main(sim_args) == 0
    cfg = config.merge_config(config.load_config_file(out / "manifest.txt"))
    spec, patterns, schedule, obj, traj, timing = config.resolve_components(cfg)
    full = sim.simulate(
        obj, traj, schedule, patterns, timing, noise_sigma=cfg.noise_sigma, seed=cfg.seed
    )
    last = len(full.frames) - 1
    assert last == (5 if mode == "tumbling" else 122)
    step, _ = sim.window_grid(timing, full.trace.slot_dt)
    for f in sorted({0, 1, last // 2, last}):
        got = tmp_path / f"report_{f}.csv"
        assert main(["report", "--run-dir", str(out), "--frame", str(f), "--out", str(got)]) == 0
        seen = scene.sample_scene(obj, traj, f * step)
        want = tmp_path / f"oracle_{f}.csv"
        metrics.write_report_csv(metrics.frame_report(full.frames[f], seen.pixels, spec), want)
        assert got.read_bytes() == want.read_bytes(), f


# sha256 of report.csv for frame 0 of each benchmark workload's run at seed 1
# (sliding_motion's seeded letter is T), recorded from `ghostdisk report`.
RECORDED_REPORTS = {
    "noisy_155": (
        {"n": "155", "k": "5", "total_duration": "2/5", "noise_sigma": "1.0", "seed": "1"},
        "7cb5b1a0172b1a410ff994fbaee876028204789626b3db9957998552c896ab54",
    ),
    "sliding_motion": (
        {"n": "35", "k": "5", "letter": "T", "total_duration": "2/5", "window_mode": "sliding",
         "trajectory": "linear", "velocity_x": "3", "velocity_y": "-2"},
        "6cd7ba6f4787f75837c97a3727e6ee870cb0f914088aa7712f2c5913220a8852",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_REPORTS))
def test_report_csv_matches_recorded_bytes(tmp_path, name):
    layer, digest = RECORDED_REPORTS[name]
    cfg = config.merge_config(layer)
    spec, patterns, schedule, obj, traj, timing = config.resolve_components(cfg)
    # As report does: the run cut at frame 0's end ends with that frame.
    cut = dataclasses.replace(timing, total_duration=timing.persistence_window)
    (frame,) = sim.simulate(
        obj, traj, schedule, patterns, cut, noise_sigma=cfg.noise_sigma, seed=cfg.seed
    ).frames
    path = tmp_path / "report.csv"
    seen = scene.sample_scene(obj, traj, 0)
    metrics.write_report_csv(metrics.frame_report(frame, seen.pixels, spec), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of bucket.csv and of the frame .txt and .ppm files (each file's name,
# a zero byte and its bytes, in name order) of each benchmark workload's run at
# seed 1, recorded from `ghostdisk simulate`.
RECORDED_RUNS = {
    "noisy_155": (
        "48966591b3aa760e82d07dee8cc31a461d6a8483e2e48b48f01fec70940c0947",
        "17896f0a279734d04d66b3688cf7826edfcc82094a4a2357a00c69524f6fbf69",
        "6d2430fd0e5c7344df3d9c6a486f9b50d7c3e8b9273f6f64a9e3eb82ab1e2f3f",
    ),
    "sliding_motion": (
        "5e1142438d7b6c02631d683a233136d78a33bd0a897d3aeb18fbfd07f6c60bf9",
        "cc0d84ccdaaed47f6aeefe40f6ac151f0c5904e6a6884d6646009bbcda4d8469",
        "1b25f8a4e3e0877bfad138a4748176b53db61a4634e9a0310bb4f6353d9886e4",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_RUNS))
def test_run_files_match_recorded_bytes(tmp_path, name):
    layer, _ = RECORDED_REPORTS[name]
    out = tmp_path / "run"
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in layer.items()]
    assert main(["simulate", *flags, "--out", str(out)]) == 0
    digests = [hashlib.sha256((out / "bucket.csv").read_bytes()).hexdigest()]
    for suffix in ("txt", "ppm"):
        digest = hashlib.sha256()
        for path in sorted(out.glob(f"frame_*.{suffix}")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digests.append(digest.hexdigest())
    assert tuple(digests) == RECORDED_RUNS[name]


def test_report_checks_stored_frame(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", *FAST, "--noise-sigma", "2", "--out", str(out)]) == 0
    stored = out / "frame_0000.txt"
    lines = stored.read_text().splitlines()
    values = lines[1].split()
    values[3] = str(int(values[3]) + 1)
    lines[1] = " ".join(values)
    stored.write_text("\n".join(lines) + "\n")
    assert main(["report", "--run-dir", str(out)]) == 4
    assert "does not match" in capsys.readouterr().err
    assert not (out / "report.csv").exists()
    stored.unlink()
    assert main(["report", "--run-dir", str(out)]) == 3


@pytest.mark.parametrize("edit", ["crlf", "trailing_space", "no_final_newline"])
def test_report_rejects_any_byte_change(tmp_path, capsys, edit):
    # The values still parse the same; only the bytes differ.
    out = tmp_path / "run"
    assert main(["simulate", *FAST, "--out", str(out)]) == 0
    stored = out / "frame_0000.txt"
    data = stored.read_bytes()
    if edit == "crlf":
        data = data.replace(b"\n", b"\r\n")
    elif edit == "trailing_space":
        data = data.replace(b"\n", b" \n", 2)
    else:
        data = data[:-1]
    stored.write_bytes(data)
    assert main(["report", "--run-dir", str(out)]) == 4
    assert "does not match" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_simulate_frame_overflow_exits_2(tmp_path, capsys):
    # Ten revolutions per window at the largest sigma: a frame pixel could
    # reach about 1.3e20, so the run is refused before anything is written.
    out = tmp_path / "run"
    argv = ["simulate", *FAST, "--revolution-period", "1", "--persistence-time", "10",
            "--total-duration", "10", "--noise-sigma", "5e17", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: frames could reach") and "int64" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_simulate_frame_peak_past_float_range_exits_2(tmp_path, capsys):
    # A revolution of 1/7**400 s puts about 49 * 7**400 slots in one window:
    # a peak no float can hold, so the refusal spells it as a power of two.
    out = tmp_path / "run"
    argv = ["simulate", *FAST, "--revolution-period", f"1/{7**400}", "--total-duration", "1",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: frames could reach 2**1131 counts or more, past int64")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_simulate_seed_past_64_bits_exits_2(tmp_path, capsys):
    # 2**64 would reduce to seed 0 in rng.word and write seed 0's noise.
    out = tmp_path / "run"
    argv = ["simulate", *FAST, "--noise-sigma", "2", "--seed", str(2**64), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: seed: must be in [0, 2**64)")
    assert not out.exists()


def test_simulate_unindexable_frame_count_exits_2(tmp_path, capsys):
    # Tumbling windows far shorter than a slot ask for 10**300 frames, whose
    # array numpy cannot index: refused before any slot is simulated.
    out = tmp_path / "run"
    argv = ["simulate", "--n", "14", "--k", "2", "--persistence-time", "1e-300", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: over 10**18 frames of 14x14 pixels cannot be indexed: lengthen persistence_time"
    ]
    assert not out.exists()


STREAM_CASES = {
    # 4,116-slot windows: longer than one BLOCK_SLOTS block.
    "sliding_window_past_block": [
        "--n", "14", "--k", "2", "--revolution-period", "1", "--window-mode", "sliding",
        "--persistence-time", "21", "--total-duration", "22", "--trajectory", "linear",
        "--velocity-x", "1/2", "--velocity-y=-1/3", "--noise-sigma", "2", "--seed", "5",
    ],
    "pose_runs_across_blocks": [
        "--n", "14", "--k", "2", "--revolution-period", "1", "--persistence-time", "5",
        "--total-duration", "60", "--trajectory", "linear", "--velocity-x", "1/9",
        "--velocity-y", "1/13",
    ],
    "hold_interval": [
        "--n", "14", "--k", "2", "--revolution-period", "1", "--window-mode", "sliding",
        "--persistence-time", "1/4", "--total-duration", "3", "--trajectory", "linear",
        "--velocity-x", "5", "--velocity-y", "-3", "--hold-interval", "1/7",
        "--noise-sigma", "3", "--seed", "2",
    ],
    # Windows of about half a slot: most hold no slot start.
    "tumbling_empty_windows": [
        "--n", "7", "--k", "1", "--revolution-period", "1", "--persistence-time", "1/100",
        "--total-duration", "3", "--noise-sigma", "1",
    ],
    "sliding_window_under_one_slot": [
        "--n", "7", "--k", "1", "--revolution-period", "1", "--window-mode", "sliding",
        "--persistence-time", "1/100", "--total-duration", "2", "--noise-sigma", "1",
    ],
    "part_major": [
        "--n", "14", "--k", "2", "--order-mode", "part_major", "--revolution-period", "1",
        "--window-mode", "sliding", "--persistence-time", "7/3", "--total-duration", "3",
        "--trajectory", "linear", "--velocity-x", "2", "--velocity-y", "1/3",
    ],
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_run_equals_collected_result(tmp_path, case):
    streamed = tmp_path / "streamed"
    assert main(["simulate", *STREAM_CASES[case], "--out", str(streamed)]) == 0
    cfg = config.merge_config(config.load_config_file(streamed / "manifest.txt"))
    spec, patterns, schedule, obj, traj, timing = config.resolve_components(cfg)
    result = sim.simulate(
        obj, traj, schedule, patterns, timing, noise_sigma=cfg.noise_sigma, seed=cfg.seed
    )
    if case == "pose_runs_across_blocks":
        # Both block edges fall inside a pose held from the block before.
        for edge in (sim.BLOCK_SLOTS, 2 * sim.BLOCK_SLOTS):
            before, at = (traj.offset_at(s * result.trace.slot_dt) for s in (edge - 1, edge))
            assert before == at != (0, 0)
    collected = tmp_path / "collected"
    collected.mkdir()
    sim.write_bucket_csv(result.trace, collected / "bucket.csv")
    stems = [str(collected / f"frame_{i:04d}") for i in range(len(result.frames))]
    sim.write_frame_ppm(result.frames, [f"{stem}.ppm" for stem in stems])
    sim.write_frame_txt(result.frames, [f"{stem}.txt" for stem in stems])
    assert len(result.frames) > 1
    assert read_tree(streamed, skip={"manifest.txt"}) == read_tree(collected)


def sliding_run(out, revolutions):
    return main([
        "simulate", "--n", "14", "--k", "2", "--revolution-period", "1",
        "--window-mode", "sliding", "--persistence-time", "1/2",
        "--total-duration", str(revolutions), "--trajectory", "linear",
        "--velocity-x", "3", "--velocity-y", "-2", "--noise-sigma", "1", "--out", str(out),
    ])


def traced_peak(run) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        assert run() == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_sliding_run(tmp_path_factory):
    """A 10-revolution sliding run at n = 14: 1,863 frames of 4,704 bytes."""
    out = tmp_path_factory.mktemp("long") / "run"
    peak = traced_peak(lambda: sliding_run(out, 10))
    return out, peak


def test_streamed_sliding_peak_does_not_grow_with_frames(tmp_path, long_sliding_run):
    out, long_peak = long_sliding_run
    assert len(list(out.glob("frame_*.txt"))) == 1863
    assert sliding_run(tmp_path / "warm", 1) == 0  # first-call caches
    short_peak = traced_peak(lambda: sliding_run(tmp_path / "short", 1))
    # Collected, the 1,764 more frames alone would take 8.3 MiB; what may
    # grow is the block temporaries, from 196 slots to 1,960.
    assert long_peak - short_peak <= 2**20


def test_report_of_last_frame_traces_like_frame_0(tmp_path, long_sliding_run):
    out, _ = long_sliding_run
    report = ["report", "--run-dir", str(out), "--out", str(tmp_path / "report.csv")]
    assert main([*report, "--frame", "0"]) == 0  # first-call caches
    first = traced_peak(lambda: main([*report, "--frame", "0"]))
    last = traced_peak(lambda: main([*report, "--frame", "1862"]))
    # Frames 0 to 1862 together take 8.4 MiB; what may grow is the block
    # temporaries, from the 98 slots of frame 0 to 1,960.
    assert last - first <= 2**20


def test_report_missing_run_dir_exits_2(tmp_path):
    assert main(["report", "--run-dir", str(tmp_path / "nope")]) == 2


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


# `--help` of every subcommand, at an 80-column terminal.
RECORDED_HELP = {
    "simulate": """\
usage: ghostdisk simulate [-h] [--config CONFIG] [--n VALUE] [--k VALUE]
                          [--order-mode VALUE] [--letter VALUE]
                          [--color VALUE] [--object VALUE]
                          [--trajectory VALUE] [--velocity-x VALUE]
                          [--velocity-y VALUE] [--hold-interval VALUE]
                          [--revolution-period VALUE]
                          [--persistence-time VALUE] [--window-mode VALUE]
                          [--total-duration VALUE] [--noise-sigma VALUE]
                          [--seed VALUE] [--workers VALUE] [--out VALUE]

options:
  -h, --help            show this help message and exit
  --config CONFIG       config file of key = value lines
  --n VALUE             object side length
  --k VALUE             cells per row part
  --order-mode VALUE    slot order: pattern_major or part_major
  --letter VALUE        built-in letter object
  --color VALUE         letter color: red, green, blue, or white
  --object VALUE        PPM object image instead of a letter
  --trajectory VALUE    object motion: static or linear
  --velocity-x VALUE    columns per second, exact rational
  --velocity-y VALUE    rows per second, exact rational
  --hold-interval VALUE
                        motion update interval in seconds
  --revolution-period VALUE
                        disk period in seconds
  --persistence-time VALUE
                        exposure window in seconds
  --window-mode VALUE   tumbling or sliding windows
  --total-duration VALUE
                        simulated time in seconds
  --noise-sigma VALUE   detector noise level, 0 disables
  --seed VALUE          noise generator seed
  --workers VALUE       kept for old configs; >= 1, changes nothing
  --out VALUE           output directory
""",
    "schedule": """\
usage: ghostdisk schedule [-h] --n N --k K [--order-mode ORDER_MODE]
                          [--out OUT]

options:
  -h, --help            show this help message and exit
  --n N
  --k K
  --order-mode ORDER_MODE
  --out OUT
""",
    "patterns": """\
usage: ghostdisk patterns [-h] --length LENGTH [--random COUNT] [--seed SEED]
                          [--out OUT] [--pgm-dir PGM_DIR]

options:
  -h, --help         show this help message and exit
  --length LENGTH    pattern length
  --random COUNT     random patterns instead of the structured set
  --seed SEED        seed for --random
  --out OUT          output text file
  --pgm-dir PGM_DIR  write one PGM per pattern here
""",
    "report": """\
usage: ghostdisk report [-h] --run-dir RUN_DIR [--frame FRAME] [--out OUT]

options:
  -h, --help         show this help message and exit
  --run-dir RUN_DIR  directory with manifest.txt
  --frame FRAME      frame index to analyze
  --out OUT          report path, default run dir
""",
    "layout": """\
usage: ghostdisk layout [-h] --n N --k K [--order-mode ORDER_MODE]
                        [--radius-mm RADIUS_MM]
                        [--track-pitch-mm TRACK_PITCH_MM] [--svg SVG]
                        [--csv CSV]

options:
  -h, --help            show this help message and exit
  --n N
  --k K
  --order-mode ORDER_MODE
  --radius-mm RADIUS_MM
  --track-pitch-mm TRACK_PITCH_MM
  --svg SVG             SVG output path
  --csv CSV             hole table output path
""",
}


@pytest.mark.parametrize("command", sorted(RECORDED_HELP))
def test_help_matches_recorded_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == RECORDED_HELP[command]


# Top-level help, version and argparse error lines at an 80-column
# terminal: (exit code, stdout, stderr).  Only the named subcommand's
# options are built, so each case checks that nothing else shows.
TOP_USAGE = """\
usage: ghostdisk [-h] [--version]
                 {patterns,schedule,layout,simulate,report} ...
"""
RECORDED_CLI_LINES = {
    (): (2, '', TOP_USAGE + 'ghostdisk: error: the following arguments are required: command\n'),
    ('--help',): (0, TOP_USAGE + """\

Rotating-disk single-pixel imaging simulator.

positional arguments:
  {patterns,schedule,layout,simulate,report}
    patterns            write a pattern set
    schedule            write one revolution's slot order
    layout              write the disk drawing
    simulate            run the clocked measurement
    report              per-cell contrast of a finished run

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""", ''),
    ('--version',): (0, 'ghostdisk 0.1.0\n', ''),
    ('--versio',): (0, 'ghostdisk 0.1.0\n', ''),
    ('bogus',): (2, '', TOP_USAGE + "ghostdisk: error: argument command: invalid choice: 'bogus' (choose from 'patterns', 'schedule', 'layout', 'simulate', 'report')\n"),
    ('-1', 'simulate'): (2, '', TOP_USAGE + "ghostdisk: error: argument command: invalid choice: '-1' (choose from 'patterns', 'schedule', 'layout', 'simulate', 'report')\n"),
    ('--', 'simulate', '--bogus'): (2, '', TOP_USAGE + "ghostdisk: error: argument command: invalid choice: '--' (choose from 'patterns', 'schedule', 'layout', 'simulate', 'report')\n"),
    ('patterns',): (2, '', 'usage: ghostdisk patterns [-h] --length LENGTH [--random COUNT] [--seed SEED]\n                          [--out OUT] [--pgm-dir PGM_DIR]\nghostdisk patterns: error: the following arguments are required: --length\n'),
    ('report',): (2, '', 'usage: ghostdisk report [-h] --run-dir RUN_DIR [--frame FRAME] [--out OUT]\nghostdisk report: error: the following arguments are required: --run-dir\n'),
    ('report', '--frame', 'x'): (2, '', "usage: ghostdisk report [-h] --run-dir RUN_DIR [--frame FRAME] [--out OUT]\nghostdisk report: error: argument --frame: invalid int value: 'x'\n"),
    ('simulate', '--bogus', '1'): (2, '', TOP_USAGE + 'ghostdisk: error: unrecognized arguments: --bogus 1\n'),
    ('simulate', 'extra'): (2, '', TOP_USAGE + 'ghostdisk: error: unrecognized arguments: extra\n'),
    ('simulate', '--n'): (2, '', 'usage: ghostdisk simulate [-h] [--config CONFIG] [--n VALUE] [--k VALUE]\n                          [--order-mode VALUE] [--letter VALUE]\n                          [--color VALUE] [--object VALUE]\n                          [--trajectory VALUE] [--velocity-x VALUE]\n                          [--velocity-y VALUE] [--hold-interval VALUE]\n                          [--revolution-period VALUE]\n                          [--persistence-time VALUE] [--window-mode VALUE]\n                          [--total-duration VALUE] [--noise-sigma VALUE]\n                          [--seed VALUE] [--workers VALUE] [--out VALUE]\nghostdisk simulate: error: argument --n: expected one argument\n'),
    ('schedule', '--n', 'x', '--k', '1'): (2, '', "usage: ghostdisk schedule [-h] --n N --k K [--order-mode ORDER_MODE]\n                          [--out OUT]\nghostdisk schedule: error: argument --n: invalid int value: 'x'\n"),
    ('layout', '--k', '1'): (2, '', 'usage: ghostdisk layout [-h] --n N --k K [--order-mode ORDER_MODE]\n                        [--radius-mm RADIUS_MM]\n                        [--track-pitch-mm TRACK_PITCH_MM] [--svg SVG]\n                        [--csv CSV]\nghostdisk layout: error: the following arguments are required: --n\n'),
}



@pytest.mark.parametrize("argv", sorted(RECORDED_CLI_LINES), ids=lambda argv: " ".join(argv) or "none")
def test_top_level_and_error_lines_match_recorded_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == RECORDED_CLI_LINES[argv]


def test_parser_for_a_subcommand_builds_only_that_subcommand():
    def built(parser):
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return list(sub.choices)

    assert built(cli.build_parser()) == list(cli.COMMANDS)
    for command in cli.COMMANDS:
        assert built(cli.build_parser(command)) == [command]


# Near-misses every setting is drawn from: bounds, non-finite and
# non-numeric spellings, a value past 64 bits and one past the int digit
# limit.  A path setting takes only the empty text from it: any other text
# names a file or directory.
NEAR_MISSES = (
    "0", "-1", "-7/3", "nan", "inf", "-inf", "1/0", str(2**64), "", "unknown",
    "1/" + "3" * 10_000,
)
# (n, k) pairs make_spec accepts; a letter needs n >= 7, so (6, 2) runs
# only with an object file.
PARTITIONS = ((7, 1), (14, 2), (15, 1), (21, 3), (35, 5), (6, 2))
# Object files of these sides (one too small for a letter, two that fit)
# for the object_path setting.
OBJECT_SIDES = (6, 7, 14)


def _valid_text(setting) -> st.SearchStrategy[str]:
    """Text its parser accepts, kept small enough to run."""
    parse = setting.metadata["parse"]
    if parse is config._count:
        return st.integers(1, 2**64).map(str)
    if parse is config._seed:
        return st.integers(0, 2**64 - 1).map(str)
    if parse is config._noise_level:
        return st.one_of(st.floats(0, 10), st.floats(0, sim.NOISE_SIGMA_MAX)).map(repr)
    if parse is config._rational:
        return st.fractions(-30, 30, max_denominator=12).map(str)
    if parse is config._positive:
        positive = st.fractions(Fraction(1, 20), 2, max_denominator=20).map(str)
        return st.one_of(positive, st.just("")) if setting.default is None else positive
    if parse is config._path:
        if setting.name == "out_dir":
            return st.just("run")
        return st.sampled_from([f"object_{side}.ppm" for side in OBJECT_SIDES] + [""])
    # A choice parser: one of the names it closes over.
    choices = inspect.getclosurevars(parse).nonlocals["choices"]
    return st.sampled_from(sorted(choices))


def _planned_work(cfg):
    """``(slots per revolution, slots, frames, n)`` of a parsed config whose
    partition is valid; None when the partition is refused."""
    try:
        spec = disk.make_spec(cfg.n, cfg.k)
    except ValueError:
        return None
    timing = sim.TimingConfig(
        revolution_period=cfg.revolution_period, persistence_window=cfg.persistence_time,
        window_mode=cfg.window_mode, total_duration=cfg.total_duration,
    )
    slot_dt = timing.slot_duration(spec.slots_per_revolution)
    slots = math.ceil(timing.total_duration / slot_dt)
    return spec.slots_per_revolution, slots, sim.window_grid(timing, slot_dt)[1], spec.n


def _run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_refused(code, err, path):
    assert code == 2, err
    (line,) = err.splitlines()
    assert err == line + "\n" and len(err.encode()) < 250
    assert not path.exists()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_simulate_contract_over_every_setting(data):
    # Each setting of RunConfig is left out, given valid text or given a
    # near-miss.  Refused runs exit 2 with one short line and no run
    # directory; accepted ones reload from manifest.txt, report any frame
    # and, for n <= 14, equal the dense oracle.
    settings_ = dataclasses.fields(config.RunConfig)
    missed = data.draw(st.sets(st.sampled_from([s.name for s in settings_]), max_size=1))
    # n and k are drawn as a pair, mostly one make_spec accepts.
    counts = st.integers(1, 40)
    pair = data.draw(st.one_of(st.sampled_from(PARTITIONS), st.tuples(counts, counts)))
    partition = dict(zip("nk", pair))
    layer = {}
    for setting in settings_:
        if setting.name in missed:
            pool = [""] if setting.metadata["parse"] is config._path else NEAR_MISSES
            layer[setting.name] = data.draw(st.sampled_from(pool))
        elif setting.name in partition:
            layer[setting.name] = str(partition[setting.name])
        elif setting.name == "out_dir" or data.draw(st.booleans()):
            layer[setting.name] = data.draw(_valid_text(setting))
    try:
        cfg = config.merge_config(layer)
        plan = _planned_work(cfg)
    except ValueError:
        cfg = plan = None
        event("refused at parse")
    if plan is not None:
        per_rev, slots, frames, n = plan
        assume(per_rev <= 1225 and slots <= 5000 and frames * per_rev <= 60_000)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for side in OBJECT_SIDES:
            pixels = np.random.default_rng(side).integers(0, 256, (side, side, 3), dtype=np.uint8)
            pnm.write_ppm(root / f"object_{side}.ppm", pixels)
        for name in ("object_path", "out_dir"):
            if layer.get(name):
                layer[name] = str(root / layer[name])
        argv = ["simulate"]
        for setting in settings_:
            if setting.name in layer:
                flag = setting.metadata["flag"] or "--" + setting.name.replace("_", "-")
                argv.append(f"{flag}={layer[setting.name]}")
        out = root / "run"
        code, err = _run_main(argv)
        if plan is None:
            event("refused before the run")
            _assert_refused(code, err, out)
            return
        assert code in (0, 2), err
        if code == 2:
            event("refused by the run")
            _assert_refused(code, err, out)
            return
        assert err == ""
        event(f"ran, n {'<=' if n <= 14 else '>'} 14, {'some' if frames else 'no'} frames")
        cfg = config.merge_config(layer)
        assert config.merge_config(config.load_config_file(out / "manifest.txt")) == cfg

        frame = data.draw(st.integers(-1, frames))
        report = ["report", f"--run-dir={out}", f"--frame={frame}", f"--out={root / 'r.csv'}"]
        code, err = _run_main(report)
        if 0 <= frame < frames:
            assert (code, err) == (0, "")
            assert (root / "r.csv").exists()
        else:
            _assert_refused(code, err, root / "r.csv")

        if n <= 14:
            spec, patterns, schedule, obj, traj, timing = config.resolve_components(cfg)
            result = sim.simulate(
                obj, traj, schedule, patterns, timing, noise_sigma=cfg.noise_sigma, seed=cfg.seed
            )
            assert result.frames.shape == (frames, n, n, 3)
            assert_matches_dense_oracle(
                result, timing, schedule, patterns, obj, traj, cfg.noise_sigma, cfg.seed
            )
            stored = [(out / f"frame_{i:04d}.txt").read_bytes() for i in range(frames)]
            assert sim.frame_texts(result.frames) == stored
