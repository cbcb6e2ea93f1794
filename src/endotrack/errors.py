"""Exception types shared across the package, and its two argument checks:
``integer``, the one rule for integer arguments (nothing is coerced), and
``same_unit``, the one rule for length-unit tags."""

import numpy as np


class EndotrackError(ValueError):
    """Base class for all validation errors raised by this package."""


class ZeroQuaternion(EndotrackError):
    """Quaternion norm too small to normalize; ``index`` locates it in a stack."""

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


class InvalidQuaternion(EndotrackError):
    """Quaternion is not unit-norm where a unit quaternion is required."""


class NotARotation(EndotrackError):
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
    """Robust-loss penalty out of range: exponent q outside (0, 1), or eps or a
    level weight theta not finite or negative (eps must also be nonzero)."""


class NonFiniteFunction(EndotrackError):
    """Objective returned NaN or Inf during finite differencing."""


class UnitMismatch(EndotrackError):
    """Operands carry different length-unit tags."""


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


class LengthMismatch(EndotrackError):
    """Sequence lengths incompatible (e.g. relatives vs. base trajectory)."""


class AlignmentError(EndotrackError):
    """Trajectories are not frame-aligned (indices or stride differ)."""


class TrajectoryParseError(EndotrackError):
    """Malformed trajectory file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ArchiveMismatch(EndotrackError):
    """Parameter archive keys or shapes differ from the expected tree."""
