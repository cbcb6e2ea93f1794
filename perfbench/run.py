"""Run one endotrack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload track-64-f32 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: endotrack is imported from ``src/``
next to this directory, never from an installed copy.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics from spans recorded around endotrack's public functions.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A results file with the run's context goes to ``perfbench/out/``.
"""

import time

_PROCESS_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before numpy loads BLAS: one thread keeps a 2-core shared machine's
# numbers steady, and the kernels' matrices are too small to gain from more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Extra set-ups per untraced run, each in a fresh process, spread over the
# timed steps; setup_s is the median of these and the run's own.
SETUP_PROBES = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_endotrack():
    """Import endotrack from this checkout's src/ or fail."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import endotrack

    if Path(endotrack.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"endotrack imported from {endotrack.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info(np) -> dict:
    """BLAS name and version as numpy reports them, and the thread count in use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    try:
        import ctypes

        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in libs.glob("libscipy_openblas*.so"):
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            threads = fn()
    except (OSError, AttributeError):
        pass
    return {"blas": name, "blas_threads_pinned": BLAS_THREADS, "blas_threads_in_use": threads}


def git_commit() -> str:
    """HEAD of the checkout; "unknown" outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    top, head = proc.stdout.split()
    # A checkout exported into some other repository is not that repository's HEAD.
    return head if Path(top).resolve() == ROOT else "unknown"


def context(args) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace), "git_commit": git_commit(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, **blas_info(np)}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_endotrack()
    except ImportError as e:
        print(f"perfbench: cannot import endotrack from {SRC}: {e}", file=sys.stderr)
        return 2
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = spec.setup(args.seed)
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = bench.traced_run(run, args.seconds, OUT / f"{args.workload}.spans.npz")
    else:
        result = bench.untraced_run(run, args.seconds, [setup_s],
                                    lambda: probe_setup(args.workload, args.seed), SETUP_PROBES)

    ctx = context(args)
    print("context " + json.dumps(ctx))
    print(f"stand-in weights (seeded, not a trained network); workload {args.workload}")
    for name, m in result.extra.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"context": ctx, "correct": result.correct, "attempted": result.attempted,
         "failed": result.failed, "metrics": result.metrics, "extra": result.extra}, indent=1))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
