"""Record the anchor outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for each track workload the chained poses
(R row-major, then t) of the fixed anchor stream, and for each trajectory
workload the (mean, std) metric summary of the fixed anchor pass.  Re-record
only when a change is meant to move outputs, and say so where it lands.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import REFERENCE_PATH, TINY, WORKLOADS  # noqa: E402


def main() -> int:
    reference = {name: spec.setup(0).anchor_rows() for name, spec in {**WORKLOADS, **TINY}.items()}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH} ({', '.join(reference)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
