"""Exception types shared across the package, and its three argument checks,
each the one rule for its concern: ``integer`` for integer arguments (nothing
is coerced), ``same_unit`` for length-unit tags and ``plain`` for numbers in text.
Each error class declares how ``cli.main`` reports it, inherited unless it sets
its own: the stderr line ``error: {label}{message}`` and exit status ``exit_code``."""

import numpy as np


class EndotrackError(ValueError):
    """Base class for all validation errors raised by this package."""
    exit_code = 1
    label = ""


class InvalidPose(EndotrackError):
    """Base class for a pose that is not a rigid motion; ``index`` locates the
    first faulty one in a stack, and is ``()`` where none is located."""
    exit_code = 3
    label = "invalid pose: "

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


class ZeroQuaternion(InvalidPose):
    """Quaternion norm too small to normalize."""


class InvalidQuaternion(InvalidPose):
    """Quaternion is not unit-norm where a unit quaternion is required."""


class NotARotation(InvalidPose):
    """Matrix is not orthonormal with determinant +1 within tolerance."""


class ShapeMismatch(EndotrackError):
    """Tensor extents incompatible with the requested operation."""


class BadPermutation(EndotrackError):
    """Axis order is not a permutation of the tensor's axes."""


class BadChannelCount(EndotrackError):
    """Channel count violates a divisibility constraint."""


class BadExtent(EndotrackError):
    """Spatial extent violates a divisibility or positivity constraint."""


class BadPenalty(EndotrackError):
    """Robust-loss level weight theta not finite or negative."""


class NonFiniteFunction(EndotrackError):
    """Objective returned NaN or Inf during finite differencing."""


class UnitMismatch(EndotrackError):
    """Operands carry different length-unit tags."""
    exit_code = 4


def integer(v, name: str, least: int | None = None) -> int:
    """A Python or numpy integer scalar as an int; a bool, float, string or array
    (0-d too), or a value below ``least``, raises ShapeMismatch naming ``name``."""
    # The exact type test settles the common case, a plain int (never a bool), at once.
    if type(v) is not int and not isinstance(v, np.integer):
        raise ShapeMismatch(f"{name} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise ShapeMismatch(f"{name} must be an integer >= {least}, got {v}")
    return int(v)


def same_unit(a, b, a_name: str, b_name: str) -> None:
    """UnitMismatch naming both operands unless ``a.unit == b.unit``."""
    if a.unit != b.unit:
        raise UnitMismatch(f"{a_name} unit {a.unit!r} vs {b_name} unit {b.unit!r}")


def plain(text: str) -> str:
    """``text`` itself if it is plain ASCII without ``_``, as files and argv
    hold numbers; int() and float() would also read Unicode digits and ``_``
    separators, which no writer emits.  Anything else raises ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"numbers must be plain ASCII without '_': {text!r}")
    return text


class LengthMismatch(EndotrackError):
    """Sequence lengths incompatible (e.g. rotations vs. translations)."""


class AlignmentError(EndotrackError):
    """Trajectories are not frame-aligned (first frame, stride or count differ)."""
    exit_code = 4


class TrajectoryParseError(EndotrackError):
    """Malformed trajectory file; carries the offending line number."""
    exit_code = 2

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ArchiveMismatch(EndotrackError):
    """Parameter archive keys or shapes differ from the expected tree."""
