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
"""

from __future__ import annotations

import errno
import os
import secrets
import zipfile
from pathlib import Path

import numpy as np

from .errors import ArchiveMismatch, NotARotation, TrajectoryParseError, ZeroQuaternion
from .se3 import PoseVec, pose_from_vec, pose_to_vec
from .tracker import Trajectory
from .tree import flatten, map_leaves

UNITS = ("mm", "cm")
# Squared norms of sums of values this size stay finite.
POSE_BOUND = 1e150


def _beyond_bound(where: str) -> NotARotation:
    return NotARotation(f"{where}: pose values must be finite and at most {POSE_BOUND:g} in magnitude")


def atomic_write_texts(items) -> None:
    """Write each ``(path, text)`` pair through a uniquely named temp file in
    the path's directory, fsynced, and rename the temp files into place only
    after every one is written.  A failed write removes every temp file and
    leaves every path as it was; a directory target, whose rename would fail
    after earlier ones, is refused first.  Errors name the path asked for.
    Concurrent writers never share a temp file."""
    items = [(Path(path), text) for path, text in items]
    for path, _ in items:
        if path.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmps = []
    try:
        for path, text in items:
            tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmps.append((tmp, path))
            with os.fdopen(fd, "w") as f:
                f.write(text)
                f.flush()
                os.fsync(f.fileno())
        for tmp, path in tmps:
            os.replace(tmp, path)
    except BaseException as e:
        for tmp, _ in tmps:
            tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, str(path)) from None
        raise


def format_trajectory(traj: Trajectory) -> str:
    """The file text; a row that the reader would reject raises NotARotation
    naming its frame, so nothing is written that cannot be read back."""
    v = pose_to_vec(traj)
    rows = np.concatenate([v.t, v.q[:, 1:], v.q[:, :1]], axis=1)
    # Two comparisons, so NaN fails both and no float temporary is made.
    beyond = ~((rows <= POSE_BOUND) & (rows >= -POSE_BOUND)).all(axis=1)
    if beyond.any():
        raise _beyond_bound(f"frame {traj.frames[int(beyond.argmax())]}")
    rows = rows.tolist()
    lines = [f"{frame} " + " ".join(map(repr, row)) for frame, row in zip(traj.frames, rows)]
    return "\n".join([f"unit={traj.unit} k={traj.k}", *lines]) + "\n"


def write_trajectory(path, traj: Trajectory) -> None:
    atomic_write_texts([(path, format_trajectory(traj))])


def _plain_ascii(line_no: int, text: str) -> str:
    """``text`` itself if it is plain ASCII without ``_``.  int() and float()
    also read Unicode digits and ``_`` separators, which no writer emits."""
    if not text.isascii() or "_" in text:
        raise TrajectoryParseError(line_no, f"numbers must be plain ASCII without '_': {text!r}")
    return text


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
        k = int(_plain_ascii(line_no, kv["k"]))
    except ValueError:
        raise TrajectoryParseError(line_no, f"stride k must be an integer, got {kv['k']!r}") from None
    if k < 1:
        raise TrajectoryParseError(line_no, f"stride k must be >= 1, got {k}")
    return kv["unit"], k


def parse_trajectory(text: str) -> Trajectory:
    unit = None
    frames: list[int] = []
    rows: list[list[float]] = []
    line_nos: list[int] = []
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if unit is None:
            unit, k = _parse_header(line_no, line)
            continue
        tokens = _plain_ascii(line_no, line).split()
        if len(tokens) != 8:
            raise TrajectoryParseError(line_no, f"expected 8 fields, got {len(tokens)}")
        try:
            frame = int(tokens[0])
            vals = [float(t) for t in tokens[1:]]
        except ValueError as e:
            raise TrajectoryParseError(line_no, str(e)) from None
        # Also rejects NaN and inf.
        if not all(abs(v) <= POSE_BOUND for v in vals):
            raise _beyond_bound(f"line {line_no}")
        if frames and frame - frames[-1] != k:
            raise TrajectoryParseError(
                line_no, f"frame index {frame} does not follow {frames[-1]} by k={k}"
            )
        frames.append(frame)
        rows.append(vals)
        line_nos.append(line_no)
    if unit is None:
        raise TrajectoryParseError(line_no, "missing header line 'unit=<mm|cm> k=<int>'")
    if not rows:
        raise TrajectoryParseError(line_no, "no pose rows")
    v = np.array(rows)
    try:
        # Scalar-last on disk -> scalar-first internally.
        poses = pose_from_vec(PoseVec(v[:, :3], np.roll(v[:, 3:], 1, axis=1)), unit)
    except ZeroQuaternion as e:
        raise ZeroQuaternion(f"line {line_nos[e.index[0]]}: {e}") from None
    return Trajectory(poses.R, poses.t, k, unit, frames[0])


def _read_text(path) -> str:
    """The file decoded as UTF-8.  A byte that is not UTF-8 raises
    TrajectoryParseError naming its line, as any other malformed text does."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise TrajectoryParseError(data.count(b"\n", 0, e.start) + 1,
                                   f"byte {data[e.start]:#04x} is not UTF-8 text") from None


def read_trajectory(path) -> Trajectory:
    return parse_trajectory(_read_text(path))


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
