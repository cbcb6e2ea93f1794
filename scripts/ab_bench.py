"""A/B runs of the benchmark: a base revision against the working tree.

    python3 scripts/ab_bench.py --base HEAD~1 --workload traj-10k --out BENCH_9.json

Exports the base revision's committed files with ``git archive`` into a
temporary directory (``TMPDIR`` picks its parent), then runs
``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds`` in
that copy ("parent") and in the working tree ("change"), one pair per seed
1..10 for each workload.  Odd pairs run the parent first, even pairs the
change.  After every run it rewrites ``--out``
with every run so far and, for each workload and each end-to-end metric named
in ``BENCHMARK.json``, both sides' quartiles, the pairs the change won, the
relative change of the medians, the median of the per-pair ratios (change
over parent), which cancels load that both runs of a pair share, and the
parent's quartile spread with whether the medians differ by more than it.
A gain may be claimed when the change wins at least nine pairs of ten and
that gap exceeds the spread.  Against the metric's ``bound``, a fraction of
the parent's median, it also reports whether the change's median is worse
by more than the bound (``worse_beyond_bound``) and whether the parent's
quartile spread alone is wider than the bound (``unresolved``).  Nothing
under ``perfbench/`` is imported or written to, apart from the results
perfbench writes itself.
Needs a Python whose ``tarfile`` has extraction filters (3.10.12, 3.11.4,
3.12 or later).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Ten pairs per workload: a claimed gain must win at least nine of ten.
PAIRS = 10
# Context keys that describe the machine rather than one run.
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads_pinned")


def quartiles(values: list[float]) -> dict:
    """q25, median and q75 with linear interpolation (numpy's default percentile)."""
    if len(values) == 1:
        q25 = median = q75 = values[0]
    else:
        q25, median, q75 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q25": round(q25, 4), "median": round(median, 4), "q75": round(q75, 4)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: complete pairs, correctness, failures and each metric's comparison.

    ``metrics`` are BENCHMARK.json's ``end_to_end`` entries (``name``, ``better``,
    ``bound``).  A pair counts for the change when its value is strictly better;
    ties count for neither side.  A change exactly at the bound is not beyond it.
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for _, p in sorted(pairs.items()) if set(p) == set(SIDES)]
        if not complete:
            continue
        results = [p[side] for p in complete for side in SIDES]
        entry = {"pairs": len(complete), "all_correct": all(r["correct"] for r in results),
                 "failed": sum(r["failed"] for r in results)}
        for m in metrics:
            sign = -1.0 if m["better"] == "lower" else 1.0
            values = {side: [p[side]["metrics"][m["name"]]["value"] for p in complete]
                      for side in SIDES}
            stats = {side: quartiles(values[side]) for side in SIDES}
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            base = statistics.median(values["parent"])
            rel = (statistics.median(values["change"]) - base) / base
            ratio = statistics.median(c / p for p, c in zip(values["parent"], values["change"]))
            iqr = stats["parent"]["q75"] - stats["parent"]["q25"]
            gap = abs(stats["change"]["median"] - stats["parent"]["median"])
            entry[m["name"]] = {**stats, "change_better_pairs": wins, "median_change_rel": round(rel, 3),
                                "median_pair_ratio": round(ratio, 4), "parent_iqr": round(iqr, 4),
                                "gap_exceeds_parent_iqr": gap > iqr,
                                "worse_beyond_bound": -sign * rel > m["bound"],
                                "unresolved": iqr > m["bound"] * base}
        summary[workload] = entry
    return summary


def export_revision(rev: str, dest: Path) -> str:
    """Write rev's committed files under dest; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def working_tree_id() -> str:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                           capture_output=True, text=True, check=True).stdout.strip()
    return head + ("+uncommitted" if dirty else "")


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced perfbench run: its final JSON line and its context line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_bench: {workload} seed {seed} in {checkout} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    ctx = next(json.loads(line[len("context "):]) for line in lines if line.startswith("context "))
    return json.loads(lines[-1]), ctx


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", action="append", required=True, help="repeat for several")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not hasattr(tarfile, "data_filter"):
        raise SystemExit(f"ab_bench: Python {sys.version.split()[0]} has no tarfile extraction "
                         "filters; use 3.10.12, 3.11.4, 3.12 or later")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        checkouts = {"parent": Path(tmp), "change": ROOT}
        base = export_revision(args.base, checkouts["parent"])
        doc = {
            "description": f"perfbench A/B runs: parent {base} against change {working_tree_id()}",
            "command": f"python3 perfbench/run.py --workload <workload> --seed <pair> "
                       f"--seconds {seconds:g} --trace 0",
            "protocol": "parent = the base revision exported with git archive, change = the "
                        "working tree; odd pairs run the parent first (runs_first)",
            "machine": {}, "summary": {}, "runs": [],
        }
        for workload in args.workload:
            for pair in range(1, PAIRS + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    result, ctx = run_side(checkouts[side], workload, pair, seconds)
                    doc["machine"] = doc["machine"] or {k: ctx[k] for k in MACHINE_KEYS if k in ctx}
                    doc["runs"].append({"workload": workload, "pair": pair, "seed": pair, "side": side,
                                        "runs_first": side == order[0], "result": result})
                    doc["summary"] = summarize(doc["runs"], spec["end_to_end"])
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
                    values = ", ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4g}"
                                       for m in spec["end_to_end"])
                    print(f"{workload} pair {pair} {side}: {values}, correct {result['correct']}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
