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


def test_report_missing_run_dir_exits_2(tmp_path):
    assert main(["report", "--run-dir", str(tmp_path / "nope")]) == 2


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
