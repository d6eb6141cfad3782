"""Line coverage of the fwlop package under the tier-1 tests, standard
library only.

Run from anywhere (extra arguments go to pytest in place of the defaults):

    python tests/line_coverage.py

It runs the test suite in this process under `sys.settrace`, tracing only
frames whose code lives in src/fwlop, and prints for each module the
executable lines that no test ran, then the totals.  A line is executable
when the compiled module has bytecode on it; a function's first line counts
as run when the function is called.  Tracing makes the suite about four
times slower, so this script is opt-in: its name does not match pytest's
`test_*.py` pattern, and tier-1 does not collect it.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fwlop"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set:
    """The line numbers that carry bytecode in the module at path or in any
    code object nested in it."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def traced_run(args: list) -> tuple:
    """(pytest exit code, {module path: set of lines run}) of one test run."""
    import pytest

    ran = {str(path): set() for path in SRC.glob("*.py")}
    # co_filename -> its set in `ran`, or None for code outside the package
    sets = {}

    def lines_of(filename):
        hit = sets.get(filename, False)
        if hit is False:
            hit = sets[filename] = ran.get(os.path.realpath(filename))
        return hit

    def local(frame, event, arg):
        if event == "line":
            lines_of(frame.f_code.co_filename).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        hit = lines_of(frame.f_code.co_filename)
        if hit is None:
            return None
        hit.add(frame.f_code.co_firstlineno)
        return local

    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, ran


def main(argv: list) -> int:
    args = argv or DEFAULT_ARGS + [str(ROOT / "tests")]
    code, ran = traced_run(args)
    total = missed = 0
    for name in sorted(ran):
        lines = executable_lines(Path(name))
        unrun = sorted(lines - ran[name])
        total += len(lines)
        missed += len(unrun)
        if unrun:
            shown = ", ".join(map(str, unrun))
            print(f"{Path(name).name}: {len(unrun)} of {len(lines)} lines not run: {shown}")
    print(f"{total - missed} of {total} executable lines ran, {missed} not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
