"""Golden CLI corpus: stored stdout and exit code of see-saw subcommands.

Each case of ``golden/manifest.json`` runs in-process through ``cli.main``,
with its input files named relative to ``golden/``; its stdout must equal
``golden/<name>.stdout`` byte for byte, and its exit code the ``exit`` stored
beside it.  A change that moves printed bits on purpose rewrites the corpus:

    python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text())


def run_case(case) -> tuple[str, int]:
    """stdout and exit code of the case's argv, run from the golden directory."""
    from eclim.cli import main
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(case["argv"])
    finally:
        os.chdir(here)
    return out.getvalue(), code


def expected(case) -> tuple[str, int]:
    stored = json.loads((GOLDEN / f"{case['name']}.json").read_text())
    return stored["stdout"], stored["exit"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_stdout_matches_the_corpus(case):
    assert run_case(case) == expected(case)


def regenerate():
    for case in CASES:
        stdout, code = run_case(case)
        (GOLDEN / f"{case['name']}.json").write_text(
            json.dumps({"stdout": stdout, "exit": code}, indent=1) + "\n")
        print(f"{case['name']}: exit {code}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    regenerate()
