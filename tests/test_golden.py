"""Golden files: the exact bytes `synth`, `track` and `eval` write for one seeded run.

The files under tests/golden/ were written by this sequence of commands:

    endotrack synth --n 100 --seed 7 --sigma-t 0.01 --sigma-r 0.002 \\
        --out-gt gt.txt --out-rels rels.txt
    endotrack track rels.txt --base gt.txt --mode chained --out est-chained.txt
    endotrack track rels.txt --base gt.txt --mode rebased --out est-rebased.txt
    endotrack eval gt.txt est-chained.txt --out report-chained.txt
    endotrack eval gt.txt est-rebased.txt --out report-rebased.txt

Any change to the numbers or the formatting of these files must be deliberate.
"""

from pathlib import Path

import pytest

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


if __name__ == "__main__":
    # Rewrites the golden files: python tests/test_golden.py
    GOLDEN.mkdir(exist_ok=True)
    write_all(GOLDEN)
