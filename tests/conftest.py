import numpy as np
import pytest

from endotrack import Pose, Trajectory, quat_to_rotmat


def random_unit_quat(rng) -> np.ndarray:
    while True:
        q = rng.standard_normal(4)
        n = np.linalg.norm(q)
        if n > 1e-3:
            return q / n


def random_pose(rng, t_scale: float = 1.0, unit: str = "mm") -> Pose:
    return Pose(quat_to_rotmat(random_unit_quat(rng)), t_scale * rng.standard_normal(3), unit)


def trajectory_of(poses, k: int = 4, start: int = 0) -> Trajectory:
    """Trajectory holding the given single poses as its rows (at least one)."""
    poses = list(poses)
    return Trajectory(np.array([p.R for p in poses]), np.array([p.t for p in poses]),
                      k=k, unit=poses[0].unit, start=start)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
