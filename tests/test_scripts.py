"""The experiment scripts run end to end on small inputs and print the
summary line they always have; the memory script prints one row per
command."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, last_line", [
    (["drift_experiment.py", "--n", "50", "--seeds", "2"],
     "mean over 2 seeds: chained 4.68 (drift), rebased 1.31 (flat)"),
    (["lambda_descent.py", "--steps", "5"], "monotone decrease: True"),
])
def test_script_runs(argv, last_line):
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


def test_peak_rss_one_row_per_command():
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "peak_rss.py"), "--n", "50"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [re.fullmatch(r"(.+?) +[0-9.]+ +[0-9.]+", row)[1] for row in rows] == [
        "synth", "track chained", "track rebased", "eval"]
