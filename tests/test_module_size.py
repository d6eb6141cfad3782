"""Every package module stays below CPython's parser token budget.

CPython's parser grows its token array by doubling, so a module of more
than 8192 tokens is parsed into an array of 16384.  When `verify.py` once
crossed that line, compiling it (bytecode not cached) raised peak RSS by
about 0.7 MB on every benchmark workload.  Comments, NL tokens of
non-logical line breaks and the encoding marker are not counted: the
tokenizer never hands them to the parser.
"""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fwlop"
BUDGET = 8192
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_is_below_the_parser_token_budget(path):
    with path.open("rb") as handle:
        count = sum(
            1
            for token in tokenize.tokenize(handle.readline)
            if token.type not in UNCOUNTED
        )
    assert count < BUDGET
