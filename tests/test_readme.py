"""The README's library quick start runs and prints what its comments say.

Every `print(...)` line of the block carries the expected output as its
trailing `# ...` comment; the block is run as it stands and each printed
line is compared with the comment of the print call that wrote it.
"""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_quick_start_prints_its_comments():
    block = _quick_start()
    expected = [
        line.split("# ", 1)[1]
        for line in block.splitlines()
        if line.startswith("print(") and "# " in line
    ]
    assert expected, "the quick start prints nothing to check"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
