#!/usr/bin/env python3
"""Peak memory of the trajectory commands, one child process each.

    python3 scripts/peak_rss.py --n 1000000

Runs ``synth`` (seed 7, sigma-t 0.01, sigma-r 0.002), ``track`` in chained
and in rebased mode and ``eval`` of the ground truth against the chained
estimate, on one set of files in a temporary directory (``TMPDIR`` picks its
parent).  Each command runs in its own child with one BLAS thread and its
stdout discarded; the script prints one row per command: its peak RSS,
taken from that child's own rusage as ``os.wait4`` returns it, and its wall
time.  A command that fails stops the script with one line naming it.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(argv: list[str], env: dict) -> tuple[float, float]:
    """Peak RSS in MB (ru_maxrss, KiB on Linux, / 1024) and wall seconds of
    ``python -m endotrack argv`` in a child of its own."""
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "endotrack", *argv], env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"endotrack {' '.join(argv)} exited {code}")
    return usage.ru_maxrss / 1024.0, seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=1_000_000, help="poses to synthesize")
    args = ap.parse_args()
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as d:
        gt, rels = f"{d}/gt.txt", f"{d}/rels.txt"
        chained, rebased = f"{d}/est-chained.txt", f"{d}/est-rebased.txt"
        commands = [
            ("synth", ["synth", "--n", str(args.n), "--seed", "7", "--sigma-t", "0.01",
                       "--sigma-r", "0.002", "--out-gt", gt, "--out-rels", rels]),
            ("track chained", ["track", rels, "--base", gt, "--mode", "chained", "--out", chained]),
            ("track rebased", ["track", rels, "--base", gt, "--mode", "rebased", "--out", rebased]),
            ("eval", ["eval", gt, chained]),
        ]
        print(f"n={args.n}: command, peak RSS (MB), wall (s)")
        for name, argv in commands:
            mb, seconds = run(argv, env)
            print(f"{name:<14} {mb:8.1f} {seconds:8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
