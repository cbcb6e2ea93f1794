"""CLI behavior through cli.main(argv): exit codes, determinism, reports."""

import errno
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import endotrack as et
from endotrack import cli
from endotrack.cli import MAX_FRAME_PIXELS, MAX_POSES, build_parser, main
from endotrack.errors import EndotrackError, TrajectoryParseError

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_files(tmp_path, capsys, seed=5, n=20, sigma_t=0.0, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    gt = tmp_path / "gt.txt"
    rels = tmp_path / "rels.txt"
    code, _, err = run(
        capsys, "synth", "--n", str(n), "--seed", str(seed), "--sigma-t", str(sigma_t),
        "--out-gt", str(gt), "--out-rels", str(rels), *extra,
    )
    assert code == 0, err
    return gt, rels


class TestSynth:
    def test_byte_deterministic(self, tmp_path, capsys):
        a_gt, a_rels = synth_files(tmp_path / "a", capsys)
        b_gt, b_rels = synth_files(tmp_path / "b", capsys)
        assert a_gt.read_bytes() == b_gt.read_bytes()
        assert a_rels.read_bytes() == b_rels.read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        a_gt, _ = synth_files(tmp_path / "a", capsys, seed=1)
        b_gt, _ = synth_files(tmp_path / "b", capsys, seed=2)
        assert a_gt.read_bytes() != b_gt.read_bytes()

    @pytest.mark.parametrize("bias", ["abc", "1,2,x", "nan,0,0", "1_0,0,0", "\u0661,0,0"])
    def test_bad_bias_t(self, tmp_path, capsys, bias):
        code, _, err = run(capsys, "synth", "--bias-t", bias, "--out-gt", str(tmp_path / "gt.txt"),
                           "--out-rels", str(tmp_path / "rels.txt"))
        assert code == 1
        assert err.count("\n") == 1 and "bias" in err
        assert not list(tmp_path.iterdir())

    def test_unwritable_rels_leaves_no_gt(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--n", "5", "--out-gt", str(tmp_path / "gt.txt"),
                           "--out-rels", str(tmp_path / "missing" / "r.txt"))
        assert code == 1
        assert err.count("\n") == 1 and "missing" in err
        assert not list(tmp_path.iterdir())

    def test_directory_rels_leaves_gt_unchanged(self, tmp_path, capsys):
        gt, adir = tmp_path / "g3.txt", tmp_path / "adir"
        gt.write_text("old\n")
        adir.mkdir()
        code, _, err = run(capsys, "synth", "--n", "5", "--out-gt", str(gt), "--out-rels", str(adir))
        assert code == 1
        assert err.count("\n") == 1 and "adir" in err and ".tmp" not in err
        assert gt.read_text() == "old\n"
        assert sorted(tmp_path.iterdir()) == [adir, gt]

    def test_same_file_twice_exit_1(self, tmp_path, capsys):
        # Both names reach one file: it used to end up holding the relatives
        # alone, with exit 0, and the ground truth was lost.
        gt, rels = tmp_path / "a.txt", f"{tmp_path}/./a.txt"
        gt.write_text("old\n")
        code, out, err = run(capsys, "synth", "--n", "5", "--out-gt", str(gt), "--out-rels", rels)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and rels in err
        assert gt.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [gt]

    @pytest.mark.parametrize("argv", [
        ("synth", "--seed", "-1"),
        ("synth", "--k", "0"),
        ("synth", "--sigma-t", "nan"),
        ("synth", "--sigma-t", "-0.5"),
        ("synth", "--sigma-r", "inf"),
        ("synth", "--smoothness", "nan"),
        ("synth", "--smoothness", "-1"),
        ("synth", "--smoothness", "0"),
        ("gradcheck", "--seed", "-1"),
    ])
    def test_bad_seed_or_noise_exit_1(self, tmp_path, capsys, argv):
        outs = ("--out-gt", str(tmp_path / "gt.txt"), "--out-rels", str(tmp_path / "rels.txt"))
        code, _, err = run(capsys, *argv, *(outs if argv[0] == "synth" else ()))
        assert code == 1
        assert err.count("\n") == 1 and argv[1].lstrip("-").replace("-", "_") in err
        assert not list(tmp_path.iterdir())

    # Each value makes a pose beyond the bound the reader enforces.
    @pytest.mark.parametrize("argv", [("--smoothness", "1e200"), ("--sigma-t", "1e300")])
    def test_unreadable_output_exit_3(self, tmp_path, capsys, monkeypatch, argv):
        # The pose beyond the bound is refused before any file is opened.
        monkeypatch.setattr(cli, "atomic_write_texts", lambda items: pytest.fail("a file was opened"))
        code, out, err = run(capsys, "synth", "--n", "5", *argv, "--out-gt", str(tmp_path / "gt.txt"),
                             "--out-rels", str(tmp_path / "rels.txt"))
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "frame 4" in err
        assert not list(tmp_path.iterdir())

    # Each overflows to inf or NaN on the way to a pose the writer refuses;
    # numpy's warnings (here raised) must not add lines or escape main.
    @pytest.mark.parametrize("argv", [("--smoothness", "1e308"), ("--sigma-t", "1e308"),
                                      ("--sigma-r", "1e308")])
    def test_overflow_exit_3_in_one_line(self, tmp_path, capsys, argv):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code, out, err = run(capsys, "synth", "--n", "50", *argv, "--out-gt", str(tmp_path / "gt.txt"),
                                 "--out-rels", str(tmp_path / "rels.txt"))
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and re.match(r"error: invalid pose: frame \d+: ", err)
        assert not list(tmp_path.iterdir())

    def test_minimal_n(self, tmp_path, capsys):
        gt, rels = synth_files(tmp_path, capsys, n=2)
        assert len(et.read_trajectory(gt)) == 2
        assert len(et.read_trajectory(rels)) == 1


class TestTrack:
    def test_chained_round_trip(self, tmp_path, capsys):
        gt, rels = synth_files(tmp_path, capsys)
        est = tmp_path / "est.txt"
        code, _, _ = run(capsys, "track", str(rels), "--base", str(gt), "--out", str(est))
        assert code == 0
        out = et.read_trajectory(est)
        ref = et.read_trajectory(gt)
        for a, b in zip(out, ref):
            assert np.max(np.abs(a.t - b.t)) < 1e-9

    def test_identity_relatives_constant_trajectory(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_text("unit=mm k=4\n0 1.0 2.0 3.0 0 0 0 1\n")
        rels = tmp_path / "rels.txt"
        rels.write_text("unit=mm k=4\n" + "".join(
            f"{4 * (i + 1)} 0 0 0 0 0 0 1\n" for i in range(5)
        ))
        est = tmp_path / "est.txt"
        code, _, _ = run(capsys, "track", str(rels), "--base", str(base), "--out", str(est))
        assert code == 0
        for p in et.read_trajectory(est):
            assert np.array_equal(p.t, [1.0, 2.0, 3.0])

    def test_rebased_mode(self, tmp_path, capsys):
        gt, rels = synth_files(tmp_path, capsys, sigma_t=0.05)
        est = tmp_path / "est.txt"
        code, _, _ = run(
            capsys, "track", str(rels), "--base", str(gt), "--mode", "rebased", "--out", str(est)
        )
        assert code == 0
        assert len(et.read_trajectory(est)) == len(et.read_trajectory(gt))

    def test_rebased_length_mismatch_fails(self, tmp_path, capsys):
        gt, rels = synth_files(tmp_path, capsys)
        short = tmp_path / "short.txt"
        lines = gt.read_text().splitlines()
        short.write_text("\n".join(lines[:-2]) + "\n")
        code, _, err = run(
            capsys, "track", str(rels), "--base", str(short), "--mode", "rebased",
            "--out", str(tmp_path / "est.txt"),
        )
        assert code == 4

    @pytest.mark.parametrize("mode", ["chained", "rebased"])
    def test_misaligned_relatives_exit_4(self, tmp_path, capsys, mode):
        gt, rels = synth_files(tmp_path, capsys)
        shifted = tmp_path / "shifted.txt"
        header, *rows = rels.read_text().splitlines()
        shifted.write_text("\n".join([header] + [
            f"{int(index) + 1000} {rest}" for index, rest in (row.split(" ", 1) for row in rows)
        ]) + "\n")
        est = tmp_path / "est.txt"
        code, _, err = run(capsys, "track", str(shifted), "--base", str(gt), "--mode", mode,
                           "--out", str(est))
        assert code == 4
        assert err.count("\n") == 1 and "1004" in err and "frame 4" in err
        assert not est.exists()

    def test_parse_error_names_line_17(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        rows = ["unit=mm k=4"]
        rows += [f"{4 * i} 0 0 0 0 0 0 1" for i in range(15)]
        rows.append("60 0 0 broken 0 0 0 1")
        bad.write_text("\n".join(rows) + "\n")
        base = tmp_path / "base.txt"
        base.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n")
        code, _, err = run(capsys, "track", str(bad), "--base", str(base), "--out", str(tmp_path / "o.txt"))
        assert code == 2
        assert "line 17" in err

    def test_invalid_pose_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("unit=mm k=4\n0 0 0 0 0 0 0 0\n")
        base = tmp_path / "base.txt"
        base.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n")
        code, _, err = run(capsys, "track", str(bad), "--base", str(base), "--out", str(tmp_path / "o.txt"))
        assert code == 3

    def test_chain_beyond_bound_exit_3(self, tmp_path, capsys):
        # Each row reads back, but the chained sum passes 1e150 at the second step.
        rels = tmp_path / "rels.txt"
        rows = "".join(f"{4 * (i + 1)} 1e150 0 0 0 0 0 1\n" for i in range(2000))
        rels.write_text("unit=mm k=4\n" + rows)
        base = tmp_path / "base.txt"
        base.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n")
        code, out, err = run(capsys, "track", str(rels), "--base", str(base), "--out", str(tmp_path / "o.txt"))
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "frame 8" in err
        assert sorted(tmp_path.iterdir()) == [base, rels]

    def test_unit_mismatch_exit_4(self, tmp_path, capsys):
        rels = tmp_path / "rels.txt"
        rels.write_text("unit=cm k=4\n4 0 0 0 0 0 0 1\n")
        base = tmp_path / "base.txt"
        base.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n")
        code, _, _ = run(capsys, "track", str(rels), "--base", str(base), "--out", str(tmp_path / "o.txt"))
        assert code == 4


class TestEval:
    def test_identical_files_zero_summary(self, tmp_path, capsys):
        gt, _ = synth_files(tmp_path, capsys)
        code, out, _ = run(capsys, "eval", str(gt), str(gt))
        assert code == 0
        # Translation metrics are exactly zero; the acos-based angle metrics
        # sit at their ~1e-7 deg conditioning floor.
        assert re.search(r"ate\s+0±0 mm", out)
        assert re.search(r"rte\s+0±0 mm", out)
        assert re.search(r"ce\s+0±0", out)
        for name in ("de", "rot"):
            mean = float(re.search(rf"{name}\s+([0-9.e+-]+)±", out).group(1))
            assert mean < 1e-5

    def test_matches_library_evaluate(self, tmp_path, capsys):
        gt, rels = synth_files(tmp_path, capsys, sigma_t=0.05)
        est = tmp_path / "est.txt"
        run(capsys, "track", str(rels), "--base", str(gt), "--out", str(est))
        code, out, _ = run(capsys, "eval", str(gt), str(est))
        assert code == 0
        ref = et.evaluate(et.read_trajectory(gt), et.read_trajectory(est))
        assert out.strip() == ref.to_text().strip()

    def test_unit_mismatch_exit_4(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n")
        b = tmp_path / "b.txt"
        b.write_text("unit=cm k=4\n0 0 0 0 0 0 0 1\n")
        code, _, _ = run(capsys, "eval", str(a), str(b))
        assert code == 4

    def test_stride_mismatch_exit_4(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n")
        b = tmp_path / "b.txt"
        b.write_text("unit=mm k=2\n0 0 0 0 0 0 0 1\n")
        code, _, _ = run(capsys, "eval", str(a), str(b))
        assert code == 4

    @pytest.mark.parametrize("row", ["4 0 0 0 0 1e308 0 1", "4 -1e308 0 0 0 0 0 1"])
    def test_overflowing_value_exit_3(self, tmp_path, capsys, row):
        a = tmp_path / "a.txt"
        a.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n4 0 0 0 0 0 0 1\n")
        b = tmp_path / "b.txt"
        b.write_text(f"unit=mm k=4\n0 0 0 0 0 0 0 1\n{row}\n")
        code, out, err = run(capsys, "eval", str(a), str(b))
        assert code == 3
        assert out == "" and err.count("\n") == 1 and "line 3" in err

    @pytest.mark.parametrize("text, line", [
        ("unit=mm k=4\n0 1_0 \u0661 0 0 0 0 1\n", 2),
        ("unit=mm k=\u0664\n0 10 1 0 0 0 0 1\n", 1),
    ])
    def test_non_ascii_number_exit_2(self, tmp_path, capsys, text, line):
        # int()/float() read "1_0" as 10 and U+0661 (ARABIC-INDIC DIGIT ONE) as 1,
        # so unchecked, this file would evaluate as equal to the reference.
        a = tmp_path / "a.txt"
        a.write_text("unit=mm k=4\n0 10 1 0 0 0 0 1\n")
        b = tmp_path / "b.txt"
        b.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "eval", str(a), str(b))
        assert code == 2
        assert out == "" and err.count("\n") == 1 and f"line {line}" in err

    def test_non_utf8_byte_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n4 0 0 0 0 0 0 1\n")
        b = tmp_path / "b.txt"
        b.write_bytes(b"unit=mm k=4\n0 0 0 0 0 0 0 1\n4 0 0 0 0 0 0 \xff\n")
        code, out, err = run(capsys, "eval", str(a), str(b))
        assert code == 2
        assert out == "" and err.count("\n") == 1 and "line 3" in err

    @pytest.mark.parametrize("text, line", [
        (b"unit=mm k=4\r0 0 0 0 0 0 0 1\r4 0 0 0 0 0 0 \xff\r", 3),
        (b"unit=mm k=4\n0 0 0 0 0 0 0 1\n\x0c4 0 0 0 0 0 0 \xff\n", 4),
    ], ids=["carriage-returns", "form-feed"])
    def test_non_utf8_byte_line_counts_every_line_break(self, tmp_path, capsys, text, line):
        # The reader's splitlines() breaks lines at these too; a count of "\n" bytes does not.
        a = tmp_path / "a.txt"
        a.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n4 0 0 0 0 0 0 1\n")
        b = tmp_path / "b.txt"
        b.write_bytes(text)
        code, out, err = run(capsys, "eval", str(a), str(b))
        assert code == 2
        assert out == "" and err.count("\n") == 1 and f"line {line}:" in err

    def test_report_file(self, tmp_path, capsys):
        gt, _ = synth_files(tmp_path, capsys)
        out_path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "eval", str(gt), str(gt), "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().strip() == out.strip()

    def test_report_formatted_once(self, tmp_path, capsys, monkeypatch):
        gt, _ = synth_files(tmp_path, capsys)
        calls, chunks = [], et.MetricReport.chunks

        def counted(report):
            calls.append(report)
            return chunks(report)

        monkeypatch.setattr(et.MetricReport, "chunks", counted)
        out_path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "eval", str(gt), str(gt), "--out", str(out_path))
        assert code == 0 and len(calls) == 1
        assert out_path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("env", [
        {"PYTHONIOENCODING": "ascii"},
        {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    ], ids=["ascii-stdout", "c-locale"])
    def test_report_utf8_whatever_the_locale(self, tmp_path, env):
        # The summary's "±" is not ASCII; stdout and --out both hold the golden UTF-8 bytes.
        golden = Path(__file__).with_name("golden")
        out_path = tmp_path / "report.txt"
        keep = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LANG", "LC_CTYPE", "LC_ALL")}
        paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.run(
            [sys.executable, "-m", "endotrack", "eval", str(golden / "gt.txt"),
             str(golden / "est-chained.txt"), "--out", str(out_path)],
            capture_output=True, env={**keep, **env, "PYTHONPATH": os.pathsep.join(paths)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out_path.read_bytes() == (golden / "report-chained.txt").read_bytes()

    def test_broken_stdout_is_not_blamed_on_the_report(self, tmp_path, capsys, monkeypatch):
        ok = tmp_path / "ok.txt"
        ok.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n4 0 0 1 0 0 0 1\n")

        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code = main(["eval", str(ok), str(ok), "--out", str(tmp_path / "report.txt")])
        assert code == 1 and capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        # Neither the report nor a temp file is left.
        assert list(tmp_path.iterdir()) == [ok]


class TestWroteLine:
    @pytest.mark.parametrize("encoding, name", [("ascii", "\u00e9.txt"), ("utf-8", os.fsdecode(b"\xff.txt"))],
                             ids=["ascii-stdout", "undecodable-path"])
    def test_synth_and_track_print_the_path_as_given(self, tmp_path, encoding, name):
        # Stdout writes UTF-8 whatever its encoding, and a path's bytes go out as they came in.
        keep = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**keep, "PYTHONIOENCODING": encoding, "PYTHONPATH": os.pathsep.join(paths)}
        gt, rels, est = tmp_path / name, tmp_path / "rels.txt", tmp_path / ("est-" + name)
        for argv, out in [(["synth", "--n", "5", "--out-gt", gt, "--out-rels", rels], gt),
                          (["track", rels, "--base", gt, "--out", est], est)]:
            proc = subprocess.run([sys.executable, "-m", "endotrack", *map(str, argv)],
                                  capture_output=True, env=env, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout.count(b"\n") == 1 and proc.stdout.endswith(b"\n")
            assert os.fsencode(out) in proc.stdout


class TestGradcheck:
    def test_default_seed_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        assert "all checks passed" in out
        assert "max_rel_err" in out

    def test_injected_nan_fails_loudly(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--inject-nan")
        assert code == 1
        assert "FAIL" in out
        # One NaN in an attention kernel fails every attention entry and nothing else.
        rows = out.splitlines()[1:-1]
        assert len(rows) == 9 and out.splitlines()[-1] == "CHECKS FAILED"
        failed = [row.split("max_rel_err")[0].strip() for row in rows if row.endswith("  FAIL")]
        assert failed == ["attention alpha", "attention beta", "attention conv branch 0",
                          "attention conv branch 1", "attention conv branch 2"]
        assert all(row.endswith("  ok") for row in rows[5:])


class TestBench:
    def test_runs_and_labels_standin(self, capsys):
        code, out, _ = run(capsys, "bench", "--size", "32x32", "--repeat", "3", "--warmup", "1")
        assert code == 0
        assert "STAND-IN" in out
        assert "fps" in out
        assert "decoder" in out

    def test_f32_mode(self, capsys):
        code, out, _ = run(capsys, "bench", "--size", "32x32", "--repeat", "3", "--warmup", "1", "--f32")
        assert code == 0
        assert "float32" in out

    def test_bad_size_arg(self, capsys):
        code, _, err = run(capsys, "bench", "--size", "64")
        assert code == 1

    @pytest.mark.parametrize("size", ["1_6x1_6", "\u0661\u0666x16"])
    def test_size_needs_plain_ascii_digits(self, capsys, size):
        # int() reads both as 16; trajectory files refuse such numbers too.
        code, out, err = run(capsys, "bench", "--size", size, "--repeat", "1", "--warmup", "0")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--size" in err

    def test_smallest_frame_size(self, capsys):
        code, _, err = run(capsys, "bench", "--size", "4x4", "--repeat", "1")
        assert code == 1
        assert err.count("\n") == 1 and "height" in err
        code, _, _ = run(capsys, "bench", "--size", "5x5", "--repeat", "1")
        assert code == 0

    @pytest.mark.parametrize("flag,value", [("--repeat", "0"), ("--repeat", "-2"), ("--warmup", "-1")])
    def test_bad_count_arg(self, capsys, flag, value):
        code, _, err = run(capsys, "bench", "--size", "16x16", flag, value)
        assert code == 1
        assert err.count("\n") == 1 and flag in err

    def test_fps_non_increasing_in_area(self, capsys):
        # Interleaved rounds, best fps per size: a spell of outside load then
        # slows one round of every size instead of all repeats of one size.
        sizes = ("32x32", "64x64", "128x128")
        fps = [0.0] * len(sizes)
        for _ in range(3):
            for i, size in enumerate(sizes):
                code, out, _ = run(capsys, "bench", "--size", size, "--repeat", "5", "--warmup", "2", "--f32")
                assert code == 0
                fps[i] = max(fps[i], float(re.search(r"-> ([0-9.]+) fps", out).group(1)))
        # Allow 10% timing jitter; the areas differ by 4x each step.
        assert fps[1] <= fps[0] * 1.10
        assert fps[2] <= fps[1] * 1.10


class TestSizeLimits:
    """Sizes above the fixed limits exit 1 with one line, before any allocation."""

    @pytest.mark.parametrize("n", [MAX_POSES + 1, 10**11])
    def test_synth_n_above_limit(self, tmp_path, capsys, n):
        code, out, err = run(capsys, "synth", "--n", str(n), "--out-gt", str(tmp_path / "gt.txt"),
                             "--out-rels", str(tmp_path / "rels.txt"))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--n" in err and str(MAX_POSES) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", ["3841x2160", "2160x3841", "5x5000000", "4096x4096"])
    def test_bench_size_above_limit(self, tmp_path, capsys, monkeypatch, size):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "bench", "--size", size, "--repeat", "1", "--warmup", "0")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--size" in err and str(MAX_FRAME_PIXELS) in err
        assert list(tmp_path.iterdir()) == []

    def test_bench_size_at_limit_runs(self, capsys, monkeypatch):
        # A real 4K frame takes seconds and gigabytes, so the boundary is
        # checked against a small stand-in limit; the cases above pin 4K.
        assert MAX_FRAME_PIXELS == 3840 * 2160
        monkeypatch.setattr("endotrack.cli.MAX_FRAME_PIXELS", 5 * 16)
        code, out, _ = run(capsys, "bench", "--size", "5x16", "--repeat", "1", "--warmup", "0", "--f32")
        assert code == 0 and "size 5x16" in out
        code, out, err = run(capsys, "bench", "--size", "16x6", "--repeat", "1", "--warmup", "0", "--f32")
        assert code == 1 and out == "" and "80 pixels" in err


class TestFileErrors:
    """A file that cannot be read or written exits 1 with one line naming it."""

    @pytest.mark.parametrize("argv, named", [
        (("eval", "{missing}", "{ok}"), "{missing}"),
        (("track", "{ok}", "--base", "{missing}", "--out", "{d}/est.txt"), "{missing}"),
        (("track", "{rels}", "--base", "{ok}", "--out", "{d}/missing/est.txt"), "{d}/missing/est.txt"),
        (("eval", "{ok}", "{ok}", "--out", "{d}/missing/r.txt"), "{d}/missing/r.txt"),
    ], ids=["eval-input", "track-base", "out-dir", "eval-out-dir"])
    def test_exit_1(self, tmp_path, capsys, argv, named):
        ok = tmp_path / "ok.txt"
        ok.write_text("unit=mm k=4\n0 0 0 0 0 0 0 1\n")
        rels = tmp_path / "rels.txt"
        rels.write_text("unit=mm k=4\n4 0 0 0 0 0 0 1\n")
        names = {"ok": ok, "rels": rels, "missing": tmp_path / "missing.txt", "d": tmp_path}
        code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"'{named.format(**names)}'" in err
        # No temp file is left behind, and nothing else is written.
        assert sorted(tmp_path.iterdir()) == [ok, rels]


def _error_classes(cls=EndotrackError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


class TestExitTable:
    """Every error class declares its exit status and label, and main reports by them."""

    @pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_main_exits_with_class_code(self, capsys, monkeypatch, cls):
        assert cls.exit_code in {1, 2, 3, 4}
        error = cls(7, "boom") if issubclass(cls, TrajectoryParseError) else cls("boom")

        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_gradcheck", fail)
        code, out, err = run(capsys, "gradcheck")
        assert code == cls.exit_code and out == ""
        assert err == f"error: {cls.label}{error}\n"

    def test_docs_name_every_code(self):
        # 0 is success and 2 also a usage error, which argparse reports.
        codes = {0, 2} | {cls.exit_code for cls in _error_classes()}
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        paragraph = re.search(r"\nExit codes:(.*?)\n\n", readme, re.S).group(1)
        doc = cli.__doc__.split("Exit codes:")[1]
        for code in codes:
            assert f"`{code}`" in paragraph
            assert re.search(rf"\b{code}\b", doc)


class TestUsageErrors:
    @pytest.mark.parametrize("argv, name", [
        (("bench", "--size"), "--size"),
        (("frobnicate",), "frobnicate"),
        (("track", "r.txt", "--base", "b.txt", "--out", "o.txt", "--mode", "sideways"), "sideways"),
        (("synth", "--config", "x", "--out-gt", "g.txt", "--out-rels", "r.txt"), "--config"),
        (("gradcheck", "--config", "x"), "--config"),
        (("bench", "--config", "x"), "--config"),
    ], ids=["missing-value", "unknown-command", "bad-choice", "synth-config", "gradcheck-config",
            "bench-config"])
    def test_one_line_exit_2(self, capsys, argv, name):
        with pytest.raises(SystemExit) as exited:
            main(list(argv))
        captured = capsys.readouterr()
        assert exited.value.code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert name in captured.err

    # argparse's own int() and float() also read "_" separators and Unicode
    # digits (U+0663 is ARABIC-INDIC DIGIT THREE); the nine number options refuse both.
    @pytest.mark.parametrize("value", ["1_0", "\u0663"])
    @pytest.mark.parametrize("command, option, kind", [
        ("synth", "--n", "int"), ("synth", "--seed", "int"), ("synth", "--k", "int"),
        ("synth", "--smoothness", "float"), ("synth", "--sigma-t", "float"),
        ("synth", "--sigma-r", "float"), ("gradcheck", "--seed", "int"),
        ("bench", "--repeat", "int"), ("bench", "--warmup", "int"),
    ])
    def test_number_options_need_plain_ascii(self, tmp_path, capsys, command, option, kind, value):
        outs = ["--out-gt", str(tmp_path / "gt.txt"), "--out-rels", str(tmp_path / "rels.txt")]
        with pytest.raises(SystemExit) as exited:
            main([command, option, value, *(outs if command == "synth" else [])])
        captured = capsys.readouterr()
        assert exited.value.code == 2 and captured.out == ""
        assert captured.err == f"error: argument {option}: invalid {kind} value: {value!r}\n"
        assert not list(tmp_path.iterdir())


def test_readme_examples_parse():
    """Every `endotrack ...` line of the README's CLI block parses, and each command has one."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("endotrack ")]
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    commands = {shlex.split(line)[1] for line in lines}
    assert commands == {"synth", "track", "eval", "gradcheck", "bench"}
