"""Golden CLI corpus: every recorded case reproduces byte for byte.

The fixtures and expected outputs live in tests/golden/ and are written by
tests/golden/make_golden.py.  A failure here means a printed output changed.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fwlop import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_corpus_is_not_trivial():
    assert len(CASES) >= 60
    assert sum(case["exit"] == 0 for case in CASES) >= 50
    commands = {case["argv"][0] for case in CASES if case["exit"] == 0}
    assert {
        "compose", "bracket", "grade", "symbol", "poisson",
        "a-iso", "a-inv", "linearize", "laplacian",
    } <= commands


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_case(case):
    argv = [
        str(GOLDEN / "fixtures" / a) if a.endswith(".json") else a
        for a in case["argv"]
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    expected = (GOLDEN / "out" / f"{case['name']}.txt").read_text(encoding="utf-8")
    assert out.getvalue() == expected
    assert err.getvalue() == case["stderr"]
    assert code == case["exit"]
