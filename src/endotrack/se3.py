"""Quaternion and SE(3) algebra for relative/absolute pose handling.

Conventions, fixed once for the whole package:

* Quaternions are numpy arrays ``[q0, qx, qy, qz]`` (scalar first, Hamilton).
  The canonical representative of the double cover has ``q0 >= 0``.
* A :class:`Pose` maps points from its own frame into the world frame:
  ``x_world = R @ x_local + t``.  Translation units (mm or cm) ride along as
  a metadata tag; the algebra never converts them, and composing two poses
  of different units raises UnitMismatch.
* Euler angles are extrinsic X-Y-Z: ``R = Rz(rz) @ Ry(ry) @ Rx(rx)`` about
  the fixed world axes.
* Every function but ``quat_log`` broadcasts over leading axes (q (..., 4),
  R (..., 3, 3), t (..., 3)); each row of a stack comes out bit for bit as alone.
* ``pose_compose`` of two single poses multiplies with ``dot`` and tests
  R'R's drift on Python floats; stacks and broadcasts use ``@``,
  ``matvec`` and one array test.  Both routes round alike, so that promise holds.
* ``Pose(...)`` converts and checks its arrays.  The private ``_pose`` skips
  both and may only wrap arrays that are already float64 with R (..., 3, 3)
  and t (..., 3) over the same leading axes: ``pose_compose``'s own results
  and rows of a ``Trajectory`` or of other arrays built that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotARotation, ShapeMismatch, ZeroQuaternion, same_unit

# Degenerate-axis threshold for the quaternion logarithm.
LOG_EPS = 1e-8
# Orthonormality defect that triggers re-orthonormalization after composing.
ORTHO_TOL = 1e-9
# |cos ry| at or below which euler_from_rotmat takes its gimbal-lock branch.
# Rebuilding R from the angles errs by about 2 |cos ry| in that branch and by
# about 6e-16 / |cos ry| outside it, for entries off by rounding; the two meet
# near 2e-8, where either errs by at most about 4e-8.
LOCK_TOL = 2e-8
# Shared by every drift test (so a compose allocates no identity) and by
# orthonormalize; read-only.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


@dataclass(frozen=True)
class Pose:
    """Rigid transform, or a stack of them: ``R`` (..., 3, 3) plus ``t`` (..., 3)."""

    R: np.ndarray
    t: np.ndarray
    unit: str = "mm"

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        t = np.asarray(self.t, dtype=float)
        if R.shape[-2:] != (3, 3):
            raise ShapeMismatch(f"rotation must be 3x3, got {R.shape}")
        if t.shape != R.shape[:-2] + (3,):
            raise ShapeMismatch(f"translation must be a 3-vector per rotation, got {t.shape}")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)


def _pose(R: np.ndarray, t: np.ndarray, unit: str) -> Pose:
    """A Pose around float64 R (..., 3, 3) and t (..., 3) as given: no conversion, no checks."""
    p = object.__new__(Pose)
    fields = p.__dict__
    fields["R"], fields["t"], fields["unit"] = R, t, unit
    return p


@dataclass(frozen=True)
class PoseVec:
    """7-parameter pose: translation (..., 3) plus scalar-first unit quaternion (..., 4)."""

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if t.shape[-1:] != (3,):
            raise ShapeMismatch(f"translation must be a 3-vector, got {t.shape}")
        if q.shape != t.shape[:-1] + (4,):
            raise ShapeMismatch(f"quaternion must be a 4-vector per translation, got {q.shape}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q", q)


def identity_pose(unit: str = "mm") -> Pose:
    return Pose(np.eye(3), np.zeros(3), unit)


def vec_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, equal bit for bit to the 1-D np.linalg.norm."""
    return np.sqrt(np.vecdot(v, v))


def _matrices_last(M: np.ndarray) -> np.ndarray:
    """(3, 3, ...) built from components (unpacked with ``.T``) -> contiguous (..., 3, 3)."""
    return np.ascontiguousarray(np.swapaxes(M.T, -1, -2))


def quat_normalize(q) -> np.ndarray:
    """Scale to unit norm and resolve the double cover (q0 >= 0).

    Raises ZeroQuaternion when a norm is below 1e-12; its ``index`` locates
    the first such quaternion in the leading axes.
    """
    q = np.asarray(q, dtype=float)
    n = vec_norm(q)
    small = n <= 1e-12
    if small.any():
        index = tuple(int(i) for i in np.argwhere(small)[0])
        raise ZeroQuaternion(f"quaternion norm {n[index]} too small to normalize", index)
    q = q / n[..., None]
    return np.where(q[..., :1] < 0.0, -q, q)


def quat_log(q) -> np.ndarray:
    """Logarithm of a unit quaternion: (v/|v|) * atan2(|v|, q0), zero at identity.

    The magnitude is the half-angle of the encoded rotation.  Callers are
    expected to pass a canonical unit quaternion; atan2, unlike acos(q0),
    keeps the angle's precision near the identity.
    """
    q = np.asarray(q, dtype=float)
    v = q[1:]
    vn = np.linalg.norm(v)
    if vn <= LOG_EPS:
        return np.zeros(3)
    return (v / vn) * np.arctan2(vn, q[0])


def quat_to_rotmat(q) -> np.ndarray:
    """Unit quaternion to rotation matrix (Hamilton convention)."""
    w, x, y, z = np.asarray(q, dtype=float).T
    return _matrices_last(np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]))


def rotmat_to_quat(R) -> np.ndarray:
    """Rotation matrix to canonical unit quaternion.

    Uses the largest of trace/diagonal branches so the divisor stays well
    away from zero for every input rotation.
    """
    R = np.asarray(R, dtype=float)
    check_rotation(R, tol=1e-6)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.swapaxes(R, -1, -2).T
    tr = r00 + r11 + r22
    u, v, w, a, b, c = r21 - r12, r02 - r20, r10 - r01, r01 + r10, r02 + r20, r12 + r21
    # Row j: the unnormalized quaternion of branch j, whose entry j is that branch's s.
    table = np.array([[1.0 + tr, u, v, w],
                      [u, 1.0 + r00 - r11 - r22, a, b],
                      [v, a, 1.0 - r00 + r11 - r22, c],
                      [w, b, c, 1.0 - r00 - r11 + r22]])
    branch = np.where(tr > 0.0, 0, np.where((r00 >= r11) & (r00 >= r22), 1, np.where(r11 >= r22, 2, 3)))
    q = np.choose(branch, table)
    q *= 0.5 / np.sqrt(np.choose(branch, q))
    return np.ascontiguousarray(np.where(q[0] < 0.0, -q, q).T)


def rotmat_from_axis_angle(axis, angle) -> np.ndarray:
    """Rodrigues formula; ``axis`` need not be normalized.  An axis of norm
    at most 1e-12 gives the identity."""
    axis = np.asarray(axis, dtype=float)
    n = vec_norm(axis)
    small = n <= 1e-12
    x, y, z = (axis / np.where(small, 1.0, n)[..., None]).T
    o = np.zeros(np.shape(x))
    K = _matrices_last(np.array([[o, -z, y], [z, o, -x], [-y, x, o]]))
    angle = np.asarray(angle, dtype=float)[..., None, None]
    M = np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
    return np.where(small[..., None, None], np.eye(3), M)


def euler_from_rotmat(R) -> tuple:
    """Extrinsic X-Y-Z angles (rx, ry, rz) with R = Rz @ Ry @ Rx.

    At gimbal lock, where R[2,1] and R[2,2] (cos ry times the sine and
    cosine of rx) are both within LOCK_TOL of zero, the decomposition is not
    unique; rz is fixed to 0 and rx absorbs the remaining freedom.
    """
    R = np.asarray(R, dtype=float)
    sy = -R[..., 2, 0]
    cy = np.hypot(R[..., 2, 1], R[..., 2, 2])
    ry = np.arctan2(sy, cy)
    lock = cy <= LOCK_TOL
    s = np.where(sy > 0, 1.0, -1.0)
    rx = np.where(lock, np.arctan2(s * R[..., 0, 1], s * R[..., 0, 2]),
                  np.arctan2(R[..., 2, 1], R[..., 2, 2]))
    rz = np.where(lock, 0.0, np.arctan2(R[..., 1, 0], R[..., 0, 0]))
    return rx[()], ry[()], rz[()]


def _ortho_residual(R: np.ndarray) -> np.ndarray:
    """|R'R - I| entrywise; the subtract and abs reuse R'R's buffer."""
    D = R.mT @ R
    D -= _EYE3
    return np.abs(D, out=D)


def _ortho_defect(R: np.ndarray) -> np.ndarray:
    """Largest |R'R - I| entry per rotation."""
    return _ortho_residual(R).max(axis=(-2, -1))


def check_rotation(R, tol: float = 1e-6) -> None:
    """Raise NotARotation unless R'R = I and det(R) = 1 within tol, for every R."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        raise NotARotation(f"expected 3x3 matrix, got {R.shape}")
    defect = np.max(_ortho_defect(R), initial=0.0)
    if not np.isfinite(defect) or defect > tol:
        raise NotARotation(f"R'R deviates from identity by {defect}")
    if np.any(np.abs(np.linalg.det(R) - 1.0) > max(tol, 1e-9)):
        raise NotARotation("determinant differs from +1")


def orthonormalize(R) -> np.ndarray:
    """Nearest rotation in the Frobenius sense (polar factor via SVD).

    A matrix with an inf or NaN entry comes back all NaN.  It never reaches
    the SVD, which on some inf matrices does not return.
    """
    R = np.asarray(R, dtype=float)
    bad = ~np.isfinite(R).all(axis=(-2, -1))
    if bad.any():
        R = np.where(bad[..., None, None], _EYE3, R)
    U, _, Vt = np.linalg.svd(R)
    U[..., -1] *= np.where(np.linalg.det(U @ Vt) < 0.0, -1.0, 1.0)[..., None]
    out = U @ Vt
    out[bad] = np.nan
    return out


def pose_compose(a: Pose, b: Pose) -> Pose:
    """a then b applied in b's frame: R = Ra Rb, t = Ra tb + ta.

    Re-orthonormalizes each rotation whose drift exceeds ORTHO_TOL so long
    chains stay valid.  Two single poses multiply with ``dot`` and test the
    drift on Python floats, which on 3x3 operands costs less per call than
    ``@``, ``matvec`` and the array test and gives the same bits.  Raises
    UnitMismatch unless a and b share a unit.
    """
    same_unit(a, b, "a", "b")
    if a.R.ndim == b.R.ndim == 2:
        R = a.R.dot(b.R)
        t = a.R.dot(b.t) + a.t
        # R'R comes from one symmetric rank-k update, so its upper triangle
        # holds every distinct entry.  A NaN fails and falls through.
        (d00, d01, d02), (_, d11, d12), (_, _, d22) = R.T.dot(R).tolist()
        if (abs(d00 - 1.0) <= ORTHO_TOL and abs(d11 - 1.0) <= ORTHO_TOL and abs(d22 - 1.0) <= ORTHO_TOL
                and abs(d01) <= ORTHO_TOL and abs(d02) <= ORTHO_TOL and abs(d12) <= ORTHO_TOL):
            return _pose(R, t, a.unit)
    else:
        R = a.R @ b.R
        t = np.matvec(a.R, b.t) + a.t
    D = _ortho_residual(R)
    # One test for the whole stack.  A NaN fails it too and reaches the
    # per-rotation test, where it compares false and stays unrepaired.
    if not D.max(initial=0.0) <= ORTHO_TOL:
        drifted = D.max(axis=(-2, -1)) > ORTHO_TOL
        if drifted.any():
            R[drifted] = orthonormalize(R[drifted])
    return _pose(R, t, a.unit)


def pose_inverse(p: Pose) -> Pose:
    return Pose(np.swapaxes(p.R, -1, -2), -np.vecmat(p.t, p.R), p.unit)


def relative_pose(p_prev: Pose, p_cur: Pose) -> Pose:
    """Transform taking p_prev's frame to p_cur's: inverse(p_prev) * p_cur.
    Raises UnitMismatch unless p_prev and p_cur share a unit."""
    same_unit(p_prev, p_cur, "p_prev", "p_cur")
    return pose_compose(pose_inverse(p_prev), p_cur)


def pose_to_vec(p: Pose) -> PoseVec:
    return PoseVec(p.t.copy(), rotmat_to_quat(p.R))


def pose_from_vec(v: PoseVec, unit: str = "mm") -> Pose:
    return Pose(quat_to_rotmat(quat_normalize(v.q)), v.t, unit)
