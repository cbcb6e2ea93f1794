"""Property test of the trajectory-file boundary.

Valid ground-truth and relative-pose files are mutated token by token (some
tokens hold bytes that are not UTF-8) and line by line, then run through
``eval`` and through ``track`` in both modes.
Whatever the input, ``main`` must return a documented exit code (0-4), print
at most one line on stderr and let no exception escape; floating-point
overflow or an invalid operation (which numpy would only warn about) counts
as an escaped exception here.
"""

import contextlib
import io

import numpy as np
import pytest
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from endotrack import files as trajectory_files
from endotrack.cli import main
from endotrack.files import parse_trajectory, read_trajectory

from trajectory_oracle import parse_lines, read_lines

# The last two are bytes that are not UTF-8, as surrogateescape writes them:
# 0xff, and a 0xc3 whose continuation byte is cut off.
TOKENS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e150", "-1e150", "1e151", "-1e151",
          "1e-320", "0", "-0", "1", "4", "-4", "١", "0x10", "1_0", "abc", "", "\udcff", "1\udcc3"]
HEADERS = ["unit=m k=4", "unit=mm", "unit=mm k=0", "unit=mm k=-4", "unit=mm k=x",
           "k=4 unit=mm", "unit=mm k=4 x=1", "unit=cm k=4", "unit=mm k=2", "unit=mm k=1e3", ""]

token = st.tuples(st.just("token"), st.integers(0, 99), st.integers(0, 9), st.sampled_from(TOKENS))
# Replacing one token is the commonest mutation: it keeps the rest of the file valid.
mutation = st.one_of(
    token, token, token,
    st.tuples(st.just("drop_field"), st.integers(0, 99), st.integers(0, 9)),
    st.tuples(st.just("extra_field"), st.integers(0, 99), st.sampled_from(TOKENS)),
    st.tuples(st.just("header"), st.sampled_from(HEADERS)),
    st.tuples(st.just("drop_line"), st.integers(0, 99)),
    st.tuples(st.just("repeat_line"), st.integers(0, 99)),
)


def mutate(text: str, ops) -> str:
    lines = text.splitlines()
    for op, *args in ops:
        if op == "header":
            lines[0] = args[0]
            continue
        if not lines:
            break
        i = args[0] % len(lines)
        fields = lines[i].split(" ")
        if op == "token":
            fields[args[1] % len(fields)] = args[2]
        elif op == "drop_field":
            del fields[args[1] % len(fields)]
        elif op == "extra_field":
            fields.append(args[1])
        elif op == "drop_line":
            del lines[i]
            continue
        elif op == "repeat_line":
            lines.insert(i, lines[i])
            continue
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            np.errstate(over="raise", divide="raise", invalid="raise"):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("boundary")
    code, err = run("synth", "--n", 6, "--seed", 3, "--sigma-t", 0.01, "--sigma-r", 0.01,
                    "--out-gt", d / "gt.txt", "--out-rels", d / "rels.txt")
    assert code == 0, err
    return d


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["gt", "rels"]), ops=st.lists(mutation, min_size=1, max_size=3))
# Both once overflowed: a quaternion norm to inf (read as the identity), and ate to inf.
@example(target="gt", ops=[("token", 2, 5, "1e308")])
@example(target="rels", ops=[("token", 1, 1, "-1e308")])
@example(target="gt", ops=[("token", 3, 7, "\udcff")])
@example(target="rels", ops=[("token", 0, 1, "1\udcc3")])
def test_mutated_files_exit_cleanly(files, target, ops):
    gt, rels = files / "gt.txt", files / "rels.txt"
    bad = files / f"bad-{target}.txt"
    text = mutate((files / f"{target}.txt").read_text(), ops)
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    if target == "gt":
        gt = bad
    else:
        rels = bad
    est = files / "est.txt"
    calls = [("eval", gt, files / "gt.txt"), ("eval", files / "gt.txt", gt)]
    for mode in ("chained", "rebased"):
        est.unlink(missing_ok=True)
        calls.append(("track", rels, "--base", gt, "--mode", mode, "--out", est))
        code, err = run(*calls[-1])
        if code == 0:
            calls.append(("eval", gt, est))
    for argv in calls:
        code, err = run(*argv)
        assert code in (0, 1, 2, 3, 4), argv
        assert err.count("\n") <= 1, (argv, err)


# Tokens that int() or float() read as the writer never writes them, frames
# at and beyond int64, and a form feed, a carriage return and a file
# separator, each of which splits a line in two.
READER_TOKENS = TOKENS + ["+4", "0004", "4.0", "-0.0", "1E2", str(2**63 + 4), str(2**63 - 1),
                          str(-2**63), "\x0c", "\r", "\x1c", "#"]
reader_token = st.tuples(st.just("token"), st.integers(0, 99), st.integers(0, 9),
                         st.sampled_from(READER_TOKENS))
reader_mutation = st.one_of(mutation, reader_token, reader_token,
                            st.tuples(st.just("extra_field"), st.integers(0, 99), st.sampled_from(READER_TOKENS)))


def outcome(parse, text):
    """What a reader makes of ``text``: the trajectory's bits and labels, or its error."""
    try:
        traj = parse(text)
    except Exception as e:
        return type(e), str(e)
    return traj.R.tobytes(), traj.t.tobytes(), traj.k, traj.unit, traj.start


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["gt", "rels"]), ops=st.lists(reader_mutation, max_size=3),
       lead=st.sampled_from(["", "# lead\n", "\n", " \n# a\n\t\n"]), block_rows=st.sampled_from([1, 2, 4, 1024]))
# Frames 2**63 - 1 and 3 - 2**63 differ by k = 4 only in wrapping int64 arithmetic.
@example(target="gt", ops=[("token", 1, 0, str(2**63 - 1)), ("token", 2, 0, str(3 - 2**63)),
                           ("drop_line", 3), ("drop_line", 3), ("drop_line", 3), ("drop_line", 3)],
         lead="", block_rows=1024)
def test_block_reader_agrees_with_per_line_reader(files, target, ops, lead, block_rows):
    """Same arrays, stride, unit and start, or the same error, from both readers."""
    text = lead + mutate((files / f"{target}.txt").read_text(), ops)
    with mock.patch.object(trajectory_files, "BLOCK_ROWS", block_rows):
        got = outcome(parse_trajectory, text)
    assert got == outcome(parse_lines, text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["gt", "rels"]), ops=st.lists(reader_mutation, max_size=3),
       lead=st.sampled_from(["", "# lead\n", "\n", " \n# a\n\t\n"]),
       block_rows=st.sampled_from([1, 2, 4, 1024]), block_bytes=st.sampled_from([1, 16, 100, 1 << 17]))
def test_readers_cut_anywhere_agree_with_per_line_reader(files, target, ops, lead, block_rows, block_bytes):
    """The text and the file reader, whatever their cuts, against the
    per-line reader of the whole text."""
    text = lead + mutate((files / f"{target}.txt").read_text(), ops)
    path = files / "cut.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with mock.patch.object(trajectory_files, "BLOCK_ROWS", block_rows), \
            mock.patch.object(trajectory_files, "_BLOCK_BYTES", block_bytes):
        got = outcome(parse_trajectory, text), outcome(read_trajectory, path)
    assert got == (outcome(parse_lines, text), outcome(read_lines, path))
