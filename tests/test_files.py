import errno
import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import endotrack as et
from endotrack import files
from endotrack.errors import (
    ArchiveMismatch,
    EndotrackError,
    NotARotation,
    TrajectoryParseError,
    ZeroQuaternion,
)
from endotrack.files import (
    BLOCK_ROWS,
    atomic_write_texts,
    format_trajectory,
    load_params,
    parse_trajectory,
    save_params,
)

from trajectory_oracle import parse_lines


class TestTrajectoryRoundTrip:
    def test_values_survive(self, tmp_path):
        traj = et.synth_trajectory(25, seed=14, unit="cm", k=2)
        path = tmp_path / "t.txt"
        et.write_trajectory(path, traj)
        back = et.read_trajectory(path)
        assert back.unit == "cm" and back.k == 2 and back.frames == traj.frames
        for a, b in zip(traj, back):
            assert np.array_equal(a.t, b.t)
            assert np.max(np.abs(a.R - b.R)) <= 1e-12

    def test_start_frame_kept(self):
        traj = parse_trajectory("unit=cm k=3\n12 0 0 0 0 0 0 1\n15 1 0 0 0 0 0 1\n")
        assert traj.start == 12 and tuple(traj.frames) == (12, 15) and traj.k == 3
        assert format_trajectory(traj).splitlines()[1:] == ["12 0.0 0.0 0.0 0.0 0.0 0.0 1.0",
                                                           "15 1.0 0.0 0.0 0.0 0.0 0.0 1.0"]

    def test_second_round_trip_stable(self):
        # Parsing re-normalizes quaternions, so bytes may differ in the last
        # ulp after one round trip; the values must stay pinned within 1e-14.
        traj = et.synth_trajectory(10, seed=3)
        once = parse_trajectory(format_trajectory(traj))
        twice = parse_trajectory(format_trajectory(once))
        for a, b in zip(once, twice):
            assert np.array_equal(a.t, b.t)
            assert np.max(np.abs(a.R - b.R)) <= 1e-14

    def test_comments_and_blanks(self):
        text = "# a comment\n\nunit=mm k=4\n# another\n0 0 0 0 0 0 0 1\n\n4 1 2 3 0 0 0 1\n"
        traj = parse_trajectory(text)
        assert len(traj) == 2
        assert np.array_equal(traj[1].t, [1.0, 2.0, 3.0])

    def test_scalar_last_on_disk(self):
        # qx qy qz qw columns; a half-turn about x is (1, 0, 0, 0).
        text = "unit=mm k=1\n0 0 0 0 1 0 0 0\n"
        pose = parse_trajectory(text)[0]
        assert np.allclose(pose.R, np.diag([1.0, -1.0, -1.0]), atol=1e-12)


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(TrajectoryParseError):
            parse_trajectory("0 0 0 0 0 0 0 1\n")

    def test_bad_unit(self):
        with pytest.raises(TrajectoryParseError, match="line 1"):
            parse_trajectory("unit=m k=4\n0 0 0 0 0 0 0 1\n")

    def test_bad_field_count_names_line(self):
        text = "unit=mm k=4\n0 0 0 0 0 0 0 1\n4 1 2 3\n"
        with pytest.raises(TrajectoryParseError, match="line 3"):
            parse_trajectory(text)

    def test_non_numeric_field(self):
        with pytest.raises(TrajectoryParseError, match="line 2"):
            parse_trajectory("unit=mm k=4\n0 0 0 zero 0 0 0 1\n")

    def test_stride_violation(self):
        text = "unit=mm k=4\n0 0 0 0 0 0 0 1\n5 0 0 0 0 0 0 1\n"
        with pytest.raises(TrajectoryParseError, match="line 3"):
            parse_trajectory(text)

    def test_empty_file(self):
        with pytest.raises(TrajectoryParseError):
            parse_trajectory("unit=mm k=4\n")

    def test_zero_quaternion_is_invalid_pose(self):
        with pytest.raises(ZeroQuaternion, match="line 2"):
            parse_trajectory("unit=mm k=4\n0 0 0 0 0 0 0 0\n")

    def test_nan_is_invalid_pose(self):
        with pytest.raises(NotARotation, match="line 2"):
            parse_trajectory("unit=mm k=4\n0 nan 0 0 0 0 0 1\n")

    def test_zero_quaternion_in_later_row_names_its_line(self):
        text = "unit=mm k=4\n0 0 0 0 0 0 0 1\n# gap\n4 0 0 0 0 0 0 0\n8 0 0 0 0 0 0 0\n"
        with pytest.raises(ZeroQuaternion, match="line 4"):
            parse_trajectory(text)

    @pytest.mark.parametrize("value", ["1e151", "-1e308", "1e308", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("column", [1, 3, 6])
    def test_values_beyond_bound_are_invalid(self, value, column):
        # A quaternion entry of 1e308 used to overflow its norm to inf and
        # read as the identity; a translation of -1e308 gave ate = inf.
        fields = ["4", "0", "0", "0", "0", "0", "0", "1"]
        fields[column] = value
        text = "unit=mm k=4\n0 0 0 0 0 0 0 1\n" + " ".join(fields) + "\n"
        with pytest.raises(NotARotation, match="line 3"):
            parse_trajectory(text)

    # int() and float() read Unicode digits and "_" separators: U+0661 is
    # ARABIC-INDIC DIGIT ONE, so "0 1_0 \u0661 ..." would read as t = (10, 1, 0).
    @pytest.mark.parametrize("row", ["0 1_0 \u0661 0 0 0 0 1", "0 1_0 1 0 0 0 0 1", "0 10 \u0661 0 0 0 0 1",
                                     "\u0660 0 0 0 0 0 0 1", "0 0 0 0 0 0 0 \uff11"])
    def test_number_must_be_plain_ascii(self, row):
        with pytest.raises(TrajectoryParseError, match="line 2"):
            parse_trajectory(f"unit=mm k=4\n{row}\n")

    @pytest.mark.parametrize("k", ["\u0664", "1_0"])
    def test_header_stride_must_be_plain_ascii(self, k):
        with pytest.raises(TrajectoryParseError, match="line 1"):
            parse_trajectory(f"unit=mm k={k}\n0 0 0 0 0 0 0 1\n")

    # A repeated key is refused rather than resolved to one of its values.
    @pytest.mark.parametrize("header, key", [("unit=mm unit=cm k=4", "unit"), ("k=4 unit=mm k=8", "k")])
    def test_header_key_given_twice(self, header, key):
        with pytest.raises(TrajectoryParseError, match=f"line 2: header key '{key}' given twice"):
            parse_trajectory(f"# repeated key\n{header}\n0 0 0 0 0 0 0 1\n")

    def test_values_at_bound_accepted(self):
        traj = parse_trajectory("unit=mm k=4\n0 1e150 -1e150 0 0 0 1e150 1\n")
        assert traj.t[0, 0] == 1e150
        assert np.allclose(traj.R[0], et.rotmat_from_axis_angle([0, 0, 1], np.pi), atol=1e-12)


class TestWriteBound:
    """The writer rejects what the reader would, so every written file reads back."""

    @pytest.mark.parametrize("value", [1.0000001e150, -1e151, 1e300, np.inf, np.nan])
    def test_beyond_bound_names_frame(self, value):
        traj = et.synth_trajectory(5, seed=2, k=3)
        t = traj.t.copy()
        t[3, 1] = value
        with pytest.raises(NotARotation, match="frame 9: pose values must be finite"):
            format_trajectory(replace(traj, t=t))

    @pytest.mark.parametrize("rows, unit", [(5, "furlong"), (5, "MM"), (0, "mm")])
    def test_unknown_unit_or_no_rows_writes_nothing(self, tmp_path, rows, unit):
        traj = et.synth_trajectory(5, seed=2)
        bad = et.Trajectory(traj.R[:rows], traj.t[:rows], traj.k, unit)
        with pytest.raises(EndotrackError, match=re.escape(f"got {rows} rows in {unit!r}")):
            files.write_trajectory(tmp_path / "t.txt", bad)
        assert not list(tmp_path.iterdir())

    def test_non_rotation_refused_when_its_block_is_reached(self, tmp_path):
        traj = et.synth_trajectory(2 * BLOCK_ROWS, seed=2)
        R = traj.R.copy()
        R[BLOCK_ROWS + 3] *= 2.0
        bad = replace(traj, R=R)
        with pytest.raises(NotARotation) as expected:
            et.rotmat_to_quat(R)
        frame = traj.start + (BLOCK_ROWS + 3) * traj.k
        message = f"^frame {frame}: {re.escape(str(expected.value))}$"
        path = tmp_path / "t.txt"
        path.write_text("old\n")
        with pytest.raises(NotARotation, match=message):
            files.write_trajectory(path, bad)
        # The first block was written to a temp file, which is gone.
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "old\n"
        with pytest.raises(NotARotation, match=message):
            format_trajectory(bad)

    def test_at_bound_round_trips(self):
        traj = et.synth_trajectory(4, seed=2)
        t = traj.t.copy()
        t[1] = [1e150, -1e150, 0.0]
        back = parse_trajectory(format_trajectory(replace(traj, t=t)))
        assert np.array_equal(back.t, t)


def per_row_text(traj) -> str:
    """The file text formatted one row at a time: the reference for the block formatter."""
    v = et.pose_to_vec(traj)
    rows = np.concatenate([v.t, v.q[:, 1:], v.q[:, :1]], axis=1).tolist()
    lines = [f"{frame} " + " ".join(map(repr, row)) for frame, row in zip(traj.frames, rows)]
    return "\n".join([f"unit={traj.unit} k={traj.k}", *lines]) + "\n"


def assert_same_trajectory(a, b):
    assert np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t)
    assert (a.k, a.unit, a.start) == (b.k, b.unit, b.start)


class TestBlocks:
    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_round_trip_at_block_edges(self, tmp_path, n):
        traj = replace(et.synth_trajectory(n, seed=n, unit="cm", k=3), start=-6)
        text = per_row_text(traj)
        assert format_trajectory(traj) == text
        path = tmp_path / "t.txt"
        et.write_trajectory(path, traj)
        assert path.read_bytes() == text.encode()
        back = parse_trajectory(text)
        assert_same_trajectory(back, parse_lines(text))
        assert_same_trajectory(et.read_trajectory(path), back)
        assert back.frames == traj.frames and np.array_equal(back.t, traj.t)

    @pytest.mark.parametrize("field, token, error", [
        (2, "abc", TrajectoryParseError),
        (2, "1e151", NotARotation),
        (0, "4", TrajectoryParseError),
        (8, "0", TrajectoryParseError),
        (None, None, ZeroQuaternion),
    ], ids=["not-a-number", "beyond-bound", "stride", "extra-field", "zero-quaternion"])
    def test_bad_row_in_second_block_names_its_line(self, field, token, error):
        lines = format_trajectory(et.synth_trajectory(BLOCK_ROWS + 10, seed=4)).splitlines()
        row = BLOCK_ROWS + 5
        fields = lines[row].split()
        if field is None:
            fields[4:] = ["0"] * 4
        elif field < len(fields):
            fields[field] = token
        else:
            fields.append(token)
        lines[row] = " ".join(fields)
        with pytest.raises(error, match=f"line {row + 1}:"):
            parse_trajectory("\n".join(lines) + "\n")

    # Each file holds BLOCK_ROWS + 10 rows; a fault is (row, what), and the
    # reader must name the line of the first row listed.
    @pytest.mark.parametrize("faults, error", [
        ([(BLOCK_ROWS + 5, "zero")], ZeroQuaternion),
        ([(BLOCK_ROWS + 5, "byte")], TrajectoryParseError),
        ([(BLOCK_ROWS + 5, "field"), (3, "zero")], TrajectoryParseError),
        ([(BLOCK_ROWS + 5, "byte"), (3, "field")], TrajectoryParseError),
    ], ids=["zero-quaternion", "not-utf8", "field-before-zero-quaternion", "not-utf8-before-field"])
    def test_file_fault_in_second_block_names_its_line(self, tmp_path, faults, error):
        lines = format_trajectory(et.synth_trajectory(BLOCK_ROWS + 10, seed=4)).encode().splitlines()
        for row, what in faults:
            fields = lines[row].split()
            if what == "zero":
                fields[4:] = [b"0"] * 4
            elif what == "byte":
                fields[2] = b"\xff"
            else:
                fields.append(b"0")
            lines[row] = b" ".join(fields)
        path = tmp_path / "t.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(error, match=f"line {faults[0][0] + 1}:"):
            et.read_trajectory(path)

    @pytest.mark.parametrize("brk", ["\r", "\x0c", "\u2028"])
    def test_lines_without_newline_read(self, tmp_path, brk):
        # The arrays are sized by the count of "\n"; here there is none to count.
        text = format_trajectory(et.synth_trajectory(BLOCK_ROWS + 5, seed=3)).replace("\n", brk)
        want = parse_lines(text)
        assert_same_trajectory(parse_trajectory(text), want)
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        assert_same_trajectory(et.read_trajectory(path), want)

    def test_pipe_read(self, tmp_path):
        # A pipe cannot be read twice to size the arrays first.
        text = format_trajectory(et.synth_trajectory(2 * BLOCK_ROWS + 5, seed=5))
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            got = et.read_trajectory(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert_same_trajectory(got, parse_lines(text))

    def test_per_line_checks_run_only_on_a_block_at_fault(self, monkeypatch):
        traj = et.synth_trajectory(2 * BLOCK_ROWS + 3, seed=2)
        text = "# leading comment\n\n" + format_trajectory(traj)
        checked, per_line = [], files._checked_rows

        def count(block, line_no, k, last):
            checked.append(line_no)
            return per_line(block, line_no, k, last)

        monkeypatch.setattr(files, "_checked_rows", count)
        want = parse_trajectory(text)
        assert checked == []
        assert_same_trajectory(want, parse_lines(text))
        # The header is line 3, so block 2 starts at line 4 + BLOCK_ROWS.
        lines = text.splitlines(keepends=True)
        lines.insert(3 + BLOCK_ROWS + 7, "# comment in block 2\n")
        assert_same_trajectory(parse_trajectory("".join(lines)), want)
        assert checked == [4 + BLOCK_ROWS]

    def test_short_row_then_long_row_refused(self):
        # Together the two rows hold 16 fields, and the 9th reads as the next frame.
        text = "unit=mm k=4\n0 0 0 0 0 0 1\n0.5 4 0 0 0 0 0 0 1\n"
        with pytest.raises(TrajectoryParseError, match="line 2: expected 8 fields, got 7"):
            parse_trajectory(text)

    def test_frame_stride_that_wraps_int64_refused(self):
        # The two frames differ by 4 - 2**64, which int64 subtraction wraps to k = 4.
        text = "unit=mm k=4\n9223372036854775807 0 0 0 0 0 0 1\n-9223372036854775805 0 0 0 0 0 0 1\n"
        with pytest.raises(TrajectoryParseError, match="line 3: frame index"):
            parse_trajectory(text)

    def test_frames_beyond_int64_read(self):
        text = "unit=mm k=4\n9223372036854775807 0 0 0 0 0 0 1\n9223372036854775811 0 0 0 0 0 0 1\n"
        traj = parse_trajectory(text)
        assert tuple(traj.frames) == (2**63 - 1, 2**63 + 3)
        assert format_trajectory(traj) == text.replace(" 0 0 0 0 0 0 1", " 0.0 0.0 0.0 0.0 0.0 0.0 1.0")


class TestWriteMemory:
    def test_write_peak_below_file_size(self, tmp_path):
        # Measured 0.24x the file's size.  The whole-text writer peaked at
        # about 6x, and one staging every row's values in an array at 0.62x.
        traj = et.synth_trajectory(20_000, seed=1)
        path = tmp_path / "t.txt"
        tracemalloc.start()
        try:
            et.write_trajectory(path, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * path.stat().st_size


class TestReadMemory:
    def test_read_peak_against_file_size(self, tmp_path):
        # Measured 1.28x the file's size; bound 1.6x.  A whole-text reader,
        # holding the bytes, the text and its line list at once, took 4.28x.
        path = tmp_path / "t.txt"
        et.write_trajectory(path, et.synth_trajectory(20_000, seed=1))
        tracemalloc.start()
        try:
            et.read_trajectory(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * path.stat().st_size


class TestParamArchives:
    def test_attention_round_trip(self, tmp_path):
        p = et.attention_init(12)
        path = tmp_path / "att.npz"
        save_params(path, p)
        back = load_params(path, et.attention_init(0))
        assert back.alpha == p.alpha and back.beta == p.beta
        x = np.random.default_rng(0).standard_normal((4, 4, 3))
        assert np.array_equal(et.attention_forward(x, p), et.attention_forward(x, back))

    def test_decoder_round_trip(self, tmp_path):
        p = et.decoder_init(12, 12, seed=8)
        path = tmp_path / "dec.npz"
        save_params(path, p)
        back = load_params(path, et.decoder_init(12, 12))
        assert back.blocks[0].gamma == p.blocks[0].gamma
        x = np.random.default_rng(1).standard_normal((12, 8, 8))
        a, b = et.decoder_forward(x, p), et.decoder_forward(x, back)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.q, b.q)

    def test_pipeline_f32_round_trip(self, tmp_path):
        cfg = et.PipelineConfig(height=16, width=16)
        p = et.init_pipeline(cfg).astype(np.float32)
        path = tmp_path / "pipe.npz"
        save_params(path, p)
        # The frame size is stored with the weights and comes back from the file.
        back = load_params(path, et.init_pipeline(et.PipelineConfig(height=32, width=32)))
        assert back.config == cfg
        assert back.scene1_w.dtype == np.float32 and back.att2.conv_b[1].dtype == np.float32
        assert type(back.att1.alpha) is float
        r = np.random.default_rng(2)
        prev, cur = (r.standard_normal((3, 16, 16)).astype(np.float32) for _ in range(2))
        flow = r.standard_normal((2, 16, 16)).astype(np.float32)
        a = et.pipeline_forward(prev, cur, flow, p)
        b = et.pipeline_forward(prev, cur, flow, back)
        assert a.dtype == np.float32 and np.array_equal(a, b)

    def test_mismatch_names_key(self, tmp_path):
        p = et.decoder_init(12, 12, seed=8)
        with np.load(self._saved(tmp_path, p)) as z:
            arrays = dict(z)
        cases = {
            "missing": ({k: v for k, v in arrays.items() if k != "blocks.1.pw1_b"}, "blocks.1.pw1_b"),
            "extra": ({**arrays, "kind": np.array("decoder")}, "kind"),
            "shape": ({**arrays, "head_w": np.zeros((7, 9))}, "head_w"),
            "kind": ({**arrays, "blocks.0.gamma": np.array(1)}, "blocks.0.gamma"),
        }
        for name, (contents, key) in cases.items():
            path = tmp_path / f"{name}.npz"
            np.savez(path, **contents)
            with pytest.raises(ArchiveMismatch, match=key.replace(".", r"\.")):
                load_params(path, et.decoder_init(12, 12))

    def test_wrong_like_class(self, tmp_path):
        path = self._saved(tmp_path, et.attention_init(1))
        with pytest.raises(ArchiveMismatch, match="key"):
            load_params(path, et.decoder_init(12, 12))

    def test_not_an_archive(self, tmp_path):
        text, npy = tmp_path / "text.npz", tmp_path / "single.npy"
        text.write_text("hello\n")
        np.save(npy, np.zeros(3))
        whole = self._saved(tmp_path, et.attention_init(0)).read_bytes()
        cut = tmp_path / "cut.npz"
        cut.write_bytes(whole[: len(whole) // 2])
        objects = tmp_path / "objects.npz"
        np.savez(objects, alpha=np.array(None, dtype=object))
        for path in (text, npy, cut, objects):
            with pytest.raises(ArchiveMismatch, match="not an .npz archive"):
                load_params(path, et.attention_init(0))

    @staticmethod
    def _saved(tmp_path, params):
        path = tmp_path / "saved.npz"
        save_params(path, params)
        return path


class TestAtomicWrite:
    def test_no_stale_tmp_left(self, tmp_path):
        from endotrack.files import atomic_write_texts

        target = tmp_path / "out.txt"
        atomic_write_texts([(target, "hello\n")])
        assert target.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_keeps_old_file_and_no_tmp(self, tmp_path):
        from endotrack.files import atomic_write_texts

        target = tmp_path / "out.txt"
        atomic_write_texts([(target, "old\n")])
        with pytest.raises(UnicodeEncodeError):
            atomic_write_texts([(target, "\ud800")])
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_second_write_replaces_neither(self, tmp_path):
        from endotrack.files import atomic_write_texts

        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        atomic_write_texts([(first, "old a\n"), (second, "old b\n")])
        with pytest.raises(UnicodeEncodeError):
            atomic_write_texts([(first, "new a\n"), (second, "\ud800")])
        assert first.read_text() == "old a\n" and second.read_text() == "old b\n"
        assert sorted(tmp_path.iterdir()) == [first, second]

    def test_directory_target_replaces_neither(self, tmp_path):
        from endotrack.files import atomic_write_texts

        first, adir = tmp_path / "a.txt", tmp_path / "adir"
        first.write_text("old a\n")
        adir.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_texts([(first, "new a\n"), (adir, "new b\n")])
        assert info.value.filename == str(adir) and info.value.filename2 is None
        assert first.read_text() == "old a\n"
        assert sorted(tmp_path.iterdir()) == [first, adir]

    def test_failed_rename_names_the_target(self, tmp_path, monkeypatch):
        from endotrack import files

        target = tmp_path / "out.txt"
        target.write_text("old\n")

        def refuse(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(src), str(dst))

        monkeypatch.setattr(files.os, "replace", refuse)
        with pytest.raises(PermissionError) as info:
            files.atomic_write_texts([(target, "new\n")])
        assert info.value.filename == str(target) and info.value.filename2 is None
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("raising", [0, 1])
    def test_raising_chunks_replace_neither(self, tmp_path, raising):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        atomic_write_texts([(first, "old a\n"), (second, "old b\n")])

        def chunks(text):
            yield text
            raise RuntimeError("chunk source failed")

        new = [["new a\n"], ["new b\n"]]
        new[raising] = chunks("half\n")
        with pytest.raises(RuntimeError, match="chunk source failed"):
            atomic_write_texts([(first, new[0]), (second, new[1])])
        assert first.read_text() == "old a\n" and second.read_text() == "old b\n"
        assert sorted(tmp_path.iterdir()) == [first, second]

    @pytest.mark.parametrize("other", ["./a.txt", "sub/../a.txt", "link/a.txt"])
    def test_same_file_twice_writes_nothing(self, tmp_path, other):
        target = tmp_path / "a.txt"
        target.write_text("old\n")
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        named = f"{tmp_path}/{other}"
        with pytest.raises(EndotrackError, match=re.escape(f"{target} and {named} name the same file")):
            atomic_write_texts([(target, ["gt\n"]), (named, ["rels\n"])])
        assert target.read_text() == "old\n"
        assert sorted(tmp_path.iterdir()) == [target, tmp_path / "link"]

    def test_symlink_and_its_target_are_two_entries(self, tmp_path):
        # os.replace swaps the link itself for the new file; the target is not touched twice.
        target, link = tmp_path / "a.txt", tmp_path / "l.txt"
        target.write_text("old\n")
        link.symlink_to(target)
        atomic_write_texts([(target, ["a\n"]), (link, ["l\n"])])
        assert target.read_text() == "a\n" and link.read_text() == "l\n" and not link.is_symlink()
