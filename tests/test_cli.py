"""Command-line behavior: outputs, determinism, config layering, exit codes."""

from __future__ import annotations

import hashlib

import pytest

from ghostdisk import config, metrics, scene, sim
from ghostdisk.cli import main

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
    for f in sorted({0, 1, last // 2, last}):
        frame = full.frames[f]
        got = tmp_path / f"report_{f}.csv"
        assert main(["report", "--run-dir", str(out), "--frame", str(f), "--out", str(got)]) == 0
        seen = scene.sample_scene(obj, traj, frame.start)
        want = tmp_path / f"oracle_{f}.csv"
        metrics.write_report_csv(metrics.frame_report(frame.image, seen.pixels, spec), want)
        assert got.read_bytes() == want.read_bytes(), f


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
    stems = [str(collected / f"frame_{i:04d}") for i in range(len(result.images))]
    sim.write_frame_ppm(result.images, [f"{stem}.ppm" for stem in stems])
    sim.write_frame_txt(result.images, [f"{stem}.txt" for stem in stems])
    assert len(result.images) > 1
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
