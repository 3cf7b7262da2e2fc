"""Golden CLI corpus: stored stdout, exit code and error code of CLI runs.

Each case of ``golden/manifest.json`` runs in-process through ``cli.main``,
with its input files named relative to ``golden/``; its stdout must equal the
``stdout`` stored in ``golden/<name>.json`` byte for byte, its exit code the
``exit`` stored beside it, and the ``code`` field of the one JSON line on
stderr the stored ``code`` (null when stderr is empty).  The corpus covers
every subcommand, and one input error each.  A change that moves printed bits
on purpose rewrites the corpus:

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


def run_case(case) -> tuple[str, int, str | None]:
    """stdout, exit code and stderr's error code of the case's argv, run from
    the golden directory."""
    from eclim.cli import main
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case["argv"])
    finally:
        os.chdir(here)
    error = json.loads(err.getvalue())["code"] if err.getvalue() else None
    return out.getvalue(), code, error


def expected(case) -> tuple[str, int, str | None]:
    stored = json.loads((GOLDEN / f"{case['name']}.json").read_text())
    return stored["stdout"], stored["exit"], stored["code"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_stdout_matches_the_corpus(case):
    assert run_case(case) == expected(case)


def regenerate():
    for case in CASES:
        stdout, code, error = run_case(case)
        (GOLDEN / f"{case['name']}.json").write_text(
            json.dumps({"stdout": stdout, "exit": code, "code": error}, indent=1) + "\n")
        print(f"{case['name']}: exit {code}" + (f" ({error})" if error else ""))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    regenerate()
