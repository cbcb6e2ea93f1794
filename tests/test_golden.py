"""Golden files: the exact bytes `synth`, `track` and `eval` write for one seeded run.

The files under tests/golden/ were written by this sequence of commands:

    endotrack synth --n 100 --seed 7 --sigma-t 0.01 --sigma-r 0.002 \\
        --out-gt gt.txt --out-rels rels.txt
    endotrack track rels.txt --base gt.txt --mode chained --out est-chained.txt
    endotrack track rels.txt --base gt.txt --mode rebased --out est-rebased.txt
    endotrack eval gt.txt est-chained.txt --out report-chained.txt
    endotrack eval gt.txt est-rebased.txt --out report-rebased.txt

The frame files frames-16-f32.txt and frames-16-f64.txt hold one
line per frame: the repr (shortest round-trip digits) of R and t of the
pose chained from seeded 16x16 frame pairs through pipeline_forward,
decoder_forward, pose_from_vec and pose_compose, so they pin every bit of
the frame path.

Any change to the numbers or the formatting of these files must be deliberate.
"""

from pathlib import Path

import numpy as np
import pytest

from endotrack import decoder, pipeline, se3
from endotrack.cli import main

GOLDEN = Path(__file__).with_name("golden")
NAMES = ("gt.txt", "rels.txt", "est-chained.txt", "est-rebased.txt",
         "report-chained.txt", "report-rebased.txt")


def write_all(out: Path) -> None:
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("synth", "--n", 100, "--seed", 7, "--sigma-t", 0.01, "--sigma-r", 0.002,
        "--out-gt", out / "gt.txt", "--out-rels", out / "rels.txt")
    for mode in ("chained", "rebased"):
        est = out / f"est-{mode}.txt"
        run("track", out / "rels.txt", "--base", out / "gt.txt", "--mode", mode, "--out", est)
        run("eval", out / "gt.txt", est, "--out", out / f"report-{mode}.txt")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    write_all(out)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_bytes_match_golden(written, name):
    assert (written / name).read_bytes() == (GOLDEN / name).read_bytes()


FRAME_SIZE = 16
FRAME_DTYPES = {"f32": np.float32, "f64": np.float64}


def frame_lines(dtype: str, n: int = 16, seed: int = 5) -> str:
    """One line per frame pair: the chained pose's R and t as Python float reprs."""
    dt = FRAME_DTYPES[dtype]
    cfg = pipeline.PipelineConfig(FRAME_SIZE, FRAME_SIZE)
    params = pipeline.init_pipeline(cfg).astype(dt)
    dec = decoder.decoder_init(cfg.fused_channels, 12, seed=1).astype(dt)
    rng = np.random.default_rng(seed)
    prev = rng.standard_normal((3, FRAME_SIZE, FRAME_SIZE), dtype=dt)
    pose = se3.identity_pose()
    lines = []
    for i in range(n):
        cur = rng.standard_normal((3, FRAME_SIZE, FRAME_SIZE), dtype=dt)
        flow = rng.standard_normal((2, FRAME_SIZE, FRAME_SIZE), dtype=dt)
        vec = decoder.decoder_forward(pipeline.pipeline_forward(prev, cur, flow, params), dec)
        pose = se3.pose_compose(pose, se3.pose_from_vec(vec))
        lines.append(f"{i} R={pose.R.tolist()!r} t={pose.t.tolist()!r}\n")
        prev = cur
    return "".join(lines)


@pytest.mark.parametrize("dtype", FRAME_DTYPES)
def test_frame_path_matches_golden(dtype):
    golden = (GOLDEN / f"frames-{FRAME_SIZE}-{dtype}.txt").read_bytes()
    assert frame_lines(dtype).encode() == golden


if __name__ == "__main__":
    # Rewrites the golden files: python tests/test_golden.py
    GOLDEN.mkdir(exist_ok=True)
    write_all(GOLDEN)
    for dtype in FRAME_DTYPES:
        (GOLDEN / f"frames-{FRAME_SIZE}-{dtype}.txt").write_bytes(frame_lines(dtype).encode())
