"""Command-line surface: synth, track, eval, gradcheck, bench.

Exit codes: 0 success, 2 file parse error (message names the line) or
usage error, 3 invalid pose in an input file, 4 unit, stride, first-frame or
frame-count mismatch between trajectories, 1 for a file that cannot be read
or written and for other validation failures.  Every failure prints one
line.  Run values come from flags alone; ``bench`` runs the default widths.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .checks import format_entries, run_gradient_checks
from .decoder import decoder_forward, decoder_init
from .errors import (
    AlignmentError,
    BadExtent,
    EndotrackError,
    InvalidQuaternion,
    NotARotation,
    TrajectoryParseError,
    UnitMismatch,
    ZeroQuaternion,
    integer,
    plain,
)
from .files import UNITS, atomic_write_texts, read_trajectory, trajectory_chunks, write_trajectory
from .metrics import evaluate
from .pipeline import PipelineConfig, init_pipeline, pipeline_forward
from .se3 import Pose
from .tracker import (DEFAULT_STRIDE, NoiseSpec, chain_absolute, chain_rebased, check_frames,
                      perturb_relatives, synth_trajectory)

# The decoder width bench runs, as the benchmark's track workloads do.
BENCH_DECODER_CHANNELS = 12
# Largest synth --n: 100x the benchmark's 1e4-pose pass; synth --n 1000000
# measured 649 MB peak RSS and 22-28 s on a 2-core Xeon (one BLAS thread,
# scripts/peak_rss.py).
MAX_POSES = 10**6
# Largest bench --size area, a 4K frame: 3840x2160 in float64 measured 2.47 GB
# peak RSS and 8 s on a 2-core Xeon (about 300 B a pixel).
MAX_FRAME_PIXELS = 3840 * 2160


def _plain_type(kind):
    """An argparse type: ``kind`` of text that ``errors.plain`` takes, named as
    ``kind`` is, so argparse refuses other text in one line: "invalid int value"."""
    def parse(text: str):
        return kind(plain(text))
    parse.__name__ = kind.__name__
    return parse


def cmd_synth(args) -> int:
    seed = integer(args.seed, "--seed", 0)
    if args.n > MAX_POSES:
        raise BadExtent(f"--n must be at most {MAX_POSES}, got {args.n}")
    try:
        bias = np.array([float(v) for v in plain(args.bias_t).split(",")]) if args.bias_t else np.zeros(3)
    except ValueError:
        raise EndotrackError(f"--bias-t must look like 'x,y,z', got {args.bias_t!r}") from None
    gt = synth_trajectory(args.n, smoothness=args.smoothness, seed=seed, unit=args.unit, k=args.k)
    spec = NoiseSpec(sigma_t=args.sigma_t, sigma_r=args.sigma_r, bias_t=bias, seed=seed + 1)
    rels = perturb_relatives(gt, spec)
    # Both files or neither: a failed write leaves no partial output.  Both
    # trajectories are checked here, before either file is opened.
    atomic_write_texts([(args.out_gt, trajectory_chunks(gt)), (args.out_rels, trajectory_chunks(rels))])
    print(f"wrote {args.out_gt} ({len(gt)} poses) and {args.out_rels} ({len(rels)} relatives)")
    return 0


def cmd_track(args) -> int:
    rels = read_trajectory(args.rels)
    base = read_trajectory(args.base)
    if args.mode == "chained":
        check_frames(rels, "relatives", base.start + base.k, base.k)
        est = chain_absolute(Pose(base.R[0], base.t[0], base.unit), rels)
    else:
        est = chain_rebased(base, rels)
    write_trajectory(args.out, est)
    print(f"wrote {args.out} ({len(est)} poses, mode={args.mode})")
    return 0


def cmd_eval(args) -> int:
    gt = read_trajectory(args.gt)
    est = read_trajectory(args.est)
    report = evaluate(gt, est)
    sys.stdout.writelines(report.chunks())
    if args.out:
        atomic_write_texts([(args.out, report.chunks())])
    return 0


def cmd_gradcheck(args) -> int:
    seed = integer(args.seed, "--seed", 0)
    entries = run_gradient_checks(seed, inject_nan=args.inject_nan)
    print(format_entries(entries, seed))
    return 0 if all(e.passed for e in entries) else 1


def cmd_bench(args) -> int:
    try:
        h, w = (int(v) for v in plain(args.size).lower().split("x"))
    except ValueError:
        raise EndotrackError(f"--size must look like 64x64, got {args.size!r}") from None
    if h * w > MAX_FRAME_PIXELS:
        raise BadExtent(f"--size must be at most {MAX_FRAME_PIXELS} pixels (3840x2160), got {h}x{w}")
    repeat, warmup = integer(args.repeat, "--repeat", 1), integer(args.warmup, "--warmup", 0)
    pcfg = PipelineConfig(height=h, width=w)
    dtype = np.float32 if args.f32 else np.float64
    params = init_pipeline(pcfg).astype(dtype)
    dec = decoder_init(pcfg.fused_channels, BENCH_DECODER_CHANNELS, seed=pcfg.seed + 1).astype(dtype)
    rng = np.random.default_rng(pcfg.seed)
    img_prev = rng.standard_normal((3, h, w)).astype(dtype)
    img_cur = rng.standard_normal((3, h, w)).astype(dtype)
    flow = rng.standard_normal((2, h, w)).astype(dtype)

    def one_pass():
        t0 = time.perf_counter()
        fused = pipeline_forward(img_prev, img_cur, flow, params)
        t1 = time.perf_counter()
        decoder_forward(fused, dec)
        return t1 - t0, time.perf_counter() - t1

    for _ in range(warmup):
        one_pass()
    timings = np.sum([one_pass() for _ in range(repeat)], axis=0)
    per_frame = float(timings.sum()) / repeat
    fps = 1.0 / per_frame

    print("throughput benchmark -- STAND-IN pipeline (randomly initialized weights,")
    print("not a trained network; numbers characterize these kernels only)")
    print(f"size {h}x{w}, dtype {'float32' if args.f32 else 'float64'}, "
          f"{repeat} repeats after {warmup} warmup")
    print("per-stage ms/frame:")
    for name, total in zip(("pipeline", "decoder"), timings):
        print(f"  {name:<9} {1000.0 * total / repeat:8.3f}")
    print(f"total {1000.0 * per_frame:.3f} ms/frame -> {fps:.1f} fps")
    return 0


class _Parser(argparse.ArgumentParser):
    """Subparsers inherit this class, so every usage error is one line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="endotrack",
        description="Ego-motion tracking math core: synthetic trajectories, pose chaining, "
                    "metric evaluation, gradient checks, and a kernel throughput benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    plain_int, plain_float = _plain_type(int), _plain_type(float)

    p = sub.add_parser("synth", help="generate a ground-truth trajectory and noisy relative poses")
    p.add_argument("--n", type=plain_int, default=500, help="number of poses")
    p.add_argument("--seed", type=plain_int, default=0, help="at least 0")
    p.add_argument("--k", type=plain_int, default=DEFAULT_STRIDE, help="frame stride, at least 1")
    p.add_argument("--smoothness", type=plain_float, default=1.0, help="upper bound on step length")
    p.add_argument("--sigma-t", type=plain_float, default=0.0, help="translation noise std per step")
    p.add_argument("--sigma-r", type=plain_float, default=0.0, help="rotation noise std per step (radians)")
    p.add_argument("--bias-t", default=None, help="translation bias 'x,y,z'")
    p.add_argument("--unit", choices=UNITS, default="mm")
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-rels", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("track", help="chain relative poses into an absolute trajectory")
    p.add_argument("rels", help="relative-pose file")
    p.add_argument("--base", required=True,
                   help="trajectory file: first pose seeds chained mode, all poses seed rebased mode")
    p.add_argument("--mode", choices=("chained", "rebased"), default="chained")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="five-metric comparison of two trajectory files")
    p.add_argument("gt")
    p.add_argument("est")
    p.add_argument("--out", default=None, help="also write the report to this path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--seed", type=plain_int, default=0, help="at least 0")
    p.add_argument("--inject-nan", action="store_true",
                   help="corrupt parameters first (verifies the harness fails loudly)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="time the feature pipeline + decoder per frame pair")
    p.add_argument("--size", default="64x64")
    p.add_argument("--repeat", type=plain_int, default=30)
    p.add_argument("--warmup", type=plain_int, default=5)
    p.add_argument("--f32", action="store_true", help="reduced-precision mode")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrajectoryParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ZeroQuaternion, NotARotation, InvalidQuaternion) as e:
        print(f"error: invalid pose: {e}", file=sys.stderr)
        return 3
    except (UnitMismatch, AlignmentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (EndotrackError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
