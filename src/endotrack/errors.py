"""Exception types shared across the package."""


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
    """Robust-loss penalty exponent outside (0, 1)."""


class NonFiniteFunction(EndotrackError):
    """Objective returned NaN or Inf during finite differencing."""


class UnitMismatch(EndotrackError):
    """Operands carry different length-unit tags."""


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
