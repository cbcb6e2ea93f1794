"""Text trajectory files and parameter archives.

Trajectory format: '#' comment lines anywhere, then one header line
``unit=<mm|cm> k=<stride>``, then one row per pose::

    index tx ty tz qx qy qz qw

The quaternion is scalar-LAST on disk (the common trajectory-file layout)
and converted to the scalar-first internal form at this boundary.  Floats
are written with shortest round-trip repr, so parse(serialize(t)) is exact.
Relative-pose sequences use the same format; their indices are the target
frames (k, 2k, ...).  Every value is finite and at most ``POSE_BOUND`` in
magnitude, on reading and on writing alike.

Rows are written and read ``BLOCK_ROWS`` at a time, so no file's text is
held whole.  ``trajectory_chunks`` checks the unit, the row count and each
translation, then yields the header and one string per block, converted
when it is reached; ``atomic_write_texts`` streams such chunks into place.
``parse_trajectory`` (a text) and ``read_trajectory`` (a file, read and
decoded a cut at a time) feed one reader with lists of lines: after the
header it splits, converts and checks each block of lines in bulk and
converts it to rotations straight into the result.  Only a block that holds
a comment, a blank line, text other than plain ASCII, an ``_`` or a row
that fails a check goes through the per-line checks, which raise for its
first faulty line and name it.  Both routes check one frame rule, on Python
ints of any size: each frame follows the one before it by k.
"""

from __future__ import annotations

import errno
import os
import secrets
import zipfile
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import (ArchiveMismatch, EndotrackError, NotARotation, TrajectoryParseError,
                     ZeroQuaternion, plain)
from .se3 import PoseVec, pose_from_vec, pose_to_vec
from .tracker import BLOCK_ROWS, Trajectory
from .tree import flatten, map_leaves

UNITS = ("mm", "cm")
# Squared norms of sums of values this size stay finite.
POSE_BOUND = 1e150
# Bytes of text or file cut at a time for the reader, about BLOCK_ROWS rows.
_BLOCK_BYTES = BLOCK_ROWS * 128
# One file row; %r is repr, the shortest string that reads back as the same float.
_ROW = "%d %r %r %r %r %r %r %r\n"


def _beyond_bound(where: str) -> NotARotation:
    return NotARotation(f"{where}: pose values must be finite and at most {POSE_BOUND:g} in magnitude")


def atomic_write_texts(items) -> None:
    """Write each ``(path, chunks)`` pair, ``chunks`` an iterable of strings,
    through a uniquely named temp file in the path's directory, fsynced, and
    rename the temp files into place only after every one is written.  A
    failed write, or a chunk iterable that raises, removes every temp file
    and leaves every path as it was.  A directory target, whose rename would
    fail after earlier ones, and two items naming one file, the later of
    which would silently replace the earlier, are refused before anything is
    written.  Its own failures name the path asked for, a chunk iterable's
    do not.  Concurrent writers never share a temp file."""
    targets, named = [], {}
    for given, chunks in items:
        path = Path(given)
        if path.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        # os.replace replaces a symlink itself, so the directory entry, not
        # what a link there points to, is what two items must not share.
        entry = (os.path.realpath(path.parent), path.name)
        if entry in named:
            raise EndotrackError(f"{named[entry]} and {given} name the same file; nothing was written")
        named[entry] = given
        targets.append((path, chunks))
    tmps, theirs = [], []
    try:
        for path, chunks in targets:
            tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmps.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.writelines(_noting_errors(chunks, theirs))
                f.flush()
                os.fsync(f.fileno())
        for tmp, path in tmps:
            os.replace(tmp, path)
    except BaseException as e:
        for tmp, _ in tmps:
            tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e not in theirs:
            raise OSError(e.errno, e.strerror, str(path)) from None
        raise


def _noting_errors(chunks, noted: list):
    try:
        yield from chunks
    except OSError as e:
        noted.append(e)
        raise


def trajectory_chunks(traj: Trajectory):
    """The file text of ``traj``: an iterator over the header line, then one
    string per block of BLOCK_ROWS rows.  Before any text is made, a
    trajectory without rows or in a unit not in UNITS raises EndotrackError
    and a translation beyond POSE_BOUND raises NotARotation naming its frame.
    A block, the slice ``traj[r0:r0 + BLOCK_ROWS]``, is converted when it is
    reached and labelled with its own ``frames``; an R in it that is not a
    rotation within se3.ROTATION_TOL raises NotARotation there naming its
    frame, and a rotation's quaternion is of unit norm.  So nothing is
    written that cannot be read back."""
    if traj.unit not in UNITS or not len(traj):
        raise EndotrackError(f"a trajectory file holds at least one row in one of {UNITS}, "
                             f"got {len(traj)} rows in {traj.unit!r}; nothing was written")
    # Two comparisons, so NaN fails both and no float temporary is made.
    beyond = ~((traj.t <= POSE_BOUND) & (traj.t >= -POSE_BOUND)).all(axis=1)
    if beyond.any():
        raise _beyond_bound(f"frame {traj.frames[beyond.argmax()]}")
    return _blocks(traj)


def _blocks(traj: Trajectory):
    yield f"unit={traj.unit} k={traj.k}\n"
    for r0 in range(0, len(traj), BLOCK_ROWS):
        block = traj[r0:r0 + BLOCK_ROWS]
        try:
            v = pose_to_vec(block)
        except NotARotation as e:
            raise NotARotation(f"frame {block.frames[e.index[0]]}: {e}") from None
        n = len(block)
        cells = [None] * (8 * n)
        cells[0::8] = block.frames
        # Scalar-first internally -> scalar-last on disk.
        for j, column in enumerate(v.t.T.tolist() + np.roll(v.q, -1, axis=1).T.tolist(), start=1):
            cells[j::8] = column
        yield _ROW * n % tuple(cells)


def format_trajectory(traj: Trajectory) -> str:
    """The whole file text, as ``trajectory_chunks`` makes it."""
    return "".join(trajectory_chunks(traj))


def write_trajectory(path, traj: Trajectory) -> None:
    atomic_write_texts([(path, trajectory_chunks(traj))])


def _parse_header(line_no: int, line: str) -> tuple[str, int]:
    kv = {}
    for token in line.split():
        if "=" not in token:
            raise TrajectoryParseError(line_no, f"expected key=value header tokens, got {token!r}")
        key, _, value = token.partition("=")
        if key in kv:
            raise TrajectoryParseError(line_no, f"header key {key!r} given twice")
        kv[key] = value
    if set(kv) != {"unit", "k"}:
        raise TrajectoryParseError(line_no, f"header must declare unit and k, got {sorted(kv)}")
    if kv["unit"] not in UNITS:
        raise TrajectoryParseError(line_no, f"unit must be one of {UNITS}, got {kv['unit']!r}")
    try:
        k = int(plain(kv["k"]))
    except ValueError:
        raise TrajectoryParseError(line_no, f"stride k must be an integer, got {kv['k']!r}") from None
    if k < 1:
        raise TrajectoryParseError(line_no, f"stride k must be >= 1, got {k}")
    return kv["unit"], k


def parse_trajectory(text: str) -> Trajectory:
    """The trajectory a file's text holds.  Raises TrajectoryParseError
    naming the line of a malformed header or row, NotARotation for a value
    beyond POSE_BOUND and ZeroQuaternion for a row without a rotation.  The
    first faulty line decides; ZeroQuaternion comes only once every row has
    passed."""
    return _parse_blocks(_text_lines(text), text.count("\n") + 1)


def read_trajectory(path) -> Trajectory:
    """The trajectory in the file at ``path``, read as ``parse_trajectory``
    reads text, with one more fault: a byte that is not UTF-8 raises
    TrajectoryParseError naming its line.  That fault comes first wherever
    it lies, as it would if the whole file were decoded before parsing."""
    with open(path, "rb") as f:
        # A pipe cannot be read twice; its arrays grow as they fill.
        capacity = 0
        if f.seekable():
            capacity = sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b"")) + 1
            f.seek(0)
        blocks = _file_lines(f)
        try:
            return _parse_blocks(blocks, capacity)
        except EndotrackError:
            # Decode the rest: a byte that is not UTF-8 there is the fault to name.
            for _ in blocks:
                pass
            raise


def _text_lines(text: str):
    """The lines of ``text`` in lists, cut after the last "\n" within each
    _BLOCK_BYTES characters (or after the first "\n" past them)."""
    pos = 0
    while pos < len(text):
        cut = (text.rfind("\n", pos, pos + _BLOCK_BYTES) + 1
               or text.find("\n", pos + _BLOCK_BYTES) + 1 or len(text))
        yield text[pos:cut].splitlines()
        pos = cut


def _file_lines(f):
    """The lines of a binary file in lists, decoded about _BLOCK_BYTES at a
    time.  A cut falls after a "\n" byte, which never lies inside a UTF-8
    sequence, so no character is split.  A byte that is not UTF-8 raises
    TrajectoryParseError naming its line, counted by ``splitlines``."""
    seen = 0
    while data := b"".join(f.readlines(_BLOCK_BYTES)):
        try:
            lines = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as e:
            # The bytes before the first bad one decode; "x" stands for the line it starts.
            raise TrajectoryParseError(seen + len((data[:e.start].decode("utf-8") + "x").splitlines()),
                                       f"byte {data[e.start]:#04x} is not UTF-8 text") from None
        seen += len(lines)
        yield lines


def _parse_blocks(line_lists, capacity: int) -> Trajectory:
    """The one reader: the header, then each block of BLOCK_ROWS lines
    through ``_bulk_rows`` or, refused there, ``_checked_rows``, converted
    to R and t on its own into arrays of ``capacity`` rows (the count of
    "\n" plus one), which double when they fill: when other breaks end
    lines, or when nothing was counted.
    ``line_lists`` yields the lines in lists of any length."""
    lines = chain.from_iterable(line_lists)
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise TrajectoryParseError(line_no, "missing header line 'unit=<mm|cm> k=<int>'")
    unit, k = _parse_header(line_no, line)
    R, t, n, last, zero = np.empty((capacity, 3, 3)), np.empty((capacity, 3)), 0, None, None
    while block := list(islice(lines, BLOCK_ROWS)):
        last, rows = _bulk_rows(block, k, last) or _checked_rows(block, line_no + 1, k, last)
        if len(rows) and zero is None:
            try:
                # Scalar-last on disk -> scalar-first internally.
                poses = pose_from_vec(PoseVec(rows[:, :3], np.roll(rows[:, 3:], 1, axis=1)), unit)
            except ZeroQuaternion as e:
                row_lines = (no for no, raw in enumerate(block, start=line_no + 1)
                             if raw.strip()[:1] not in ("", "#"))
                zero = ZeroQuaternion(f"line {next(islice(row_lines, e.index[0], None))}: {e}")
            else:
                if n + len(rows) > len(t):
                    grow = max(n, BLOCK_ROWS)
                    R = np.concatenate([R[:n], np.empty((grow, 3, 3))])
                    t = np.concatenate([t[:n], np.empty((grow, 3))])
                R[n:n + len(rows)], t[n:n + len(rows)] = poses.R, poses.t
        n += len(rows)
        line_no += len(block)
    if zero is not None:
        raise zero
    if n == 0:
        raise TrajectoryParseError(line_no, "no pose rows")
    # Every stride was checked exactly, so the first frame follows from the last.
    return Trajectory(R[:n], t[:n], k, unit, last - (n - 1) * k)


def _bulk_rows(block: list[str], k: int, last: int | None) -> tuple[int, np.ndarray] | None:
    """The last frame and the (rows, 7) values of a block of plain rows that
    follows frame ``last``, or None when a line is not a plain row or fails a
    check."""
    # A blank line has no field, and int() refuses a comment's first one.
    fields = list(map(str.split, block))
    if set(map(len, fields)) != {8}:
        return None
    cells = list(chain.from_iterable(fields))
    try:
        plain("".join(block))
        frames = list(map(int, cells[0::8]))
        del cells[0::8]
        v = np.reshape(list(map(float, cells)), (-1, 7))
    except ValueError:
        return None
    # The frame rule of _checked_rows, on Python ints: each frame follows the one before by k.
    first = frames[0] if last is None else last + k
    in_bound = ((v <= POSE_BOUND) & (v >= -POSE_BOUND)).all()
    if frames != list(range(first, first + len(frames) * k, k)) or not in_bound:
        return None
    return frames[-1], v


def _checked_rows(block: list[str], line_no: int, k: int,
                  last: int | None) -> tuple[int | None, np.ndarray]:
    """The per-line checks, for a block the bulk route refused: each line in
    order from number ``line_no``, raising for the first at fault and naming
    it.  Returns the last frame and the rows, as ``_bulk_rows`` does."""
    rows = []
    for line_no, raw in enumerate(block, start=line_no):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # Spelling first, then the field count, then the numbers.
        try:
            tokens = plain(line).split()
            if len(tokens) == 8:
                frame = int(tokens[0])
                vals = [float(t) for t in tokens[1:]]
        except ValueError as e:
            raise TrajectoryParseError(line_no, str(e)) from None
        if len(tokens) != 8:
            raise TrajectoryParseError(line_no, f"expected 8 fields, got {len(tokens)}")
        # Also rejects NaN and inf.
        if not all(abs(x) <= POSE_BOUND for x in vals):
            raise _beyond_bound(f"line {line_no}")
        if last is not None and frame - last != k:
            raise TrajectoryParseError(line_no, f"frame index {frame} does not follow {last} by k={k}")
        last = frame
        rows.append(vals)
    return last, np.reshape(rows, (-1, 7))


def save_params(path, params) -> None:
    """Write every leaf of a parameter tree to an .npz, keyed by dotted path."""
    np.savez(path, **flatten(params))


def load_params(path, like):
    """Read an archive written by save_params into the shape of ``like``.

    ``like`` is a freshly initialised tree of the expected class.  Arrays
    keep their stored dtype (float32 stays float32); scalar leaves take the
    type of ``like``'s.  Raises ArchiveMismatch for a file that is not an
    .npz of plain arrays, or naming the first key that is missing, extra,
    of another shape, or of another kind (int vs float).
    """
    try:
        with open(path, "rb") as f, np.load(f) as z:
            stored = {key: z[key] for key in z.files}
    except (ValueError, TypeError, zipfile.BadZipFile) as e:
        # ValueError: pickled contents, refused; TypeError: a bare .npy array.
        raise ArchiveMismatch(f"{path}: not an .npz archive of arrays: {e}") from None
    expected = flatten(like)
    odd = sorted(set(stored) ^ set(expected))
    if odd:
        problem = "missing" if odd[0] in expected else "unexpected"
        raise ArchiveMismatch(f"{path}: {problem} key {odd[0]!r}")

    def take(key, leaf):
        arr, want = stored[key], np.asarray(leaf)
        if arr.shape != want.shape or arr.dtype.kind != want.dtype.kind:
            raise ArchiveMismatch(f"{path}: key {key!r} holds {arr.dtype} of shape {arr.shape}, "
                                  f"expected {want.dtype} of shape {want.shape}")
        return arr if isinstance(leaf, np.ndarray) else type(leaf)(arr.item())

    return map_leaves(take, like)
