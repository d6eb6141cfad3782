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

It is also a gate.  `unexecuted_lines.json` lists the lines allowed to stay
unexecuted, each keyed by module, enclosing function and stripped source
text (not by line number, so the list survives edits elsewhere), with the
count of the function's executable lines that carry that text and a
reason.  The script exits 1 when a line outside the list did not run, or
when the lines of an entry left unexecuted are not exactly its count;
otherwise it exits with pytest's code.  `tests/test_unexecuted_lines.py`
checks the entries and their counts against the sources in tier-1, without
tracing.
"""

import ast
import json
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fwlop"
ALLOWED = Path(__file__).resolve().parent / "unexecuted_lines.json"
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


def line_keys(path: Path) -> dict:
    """{line number: (module file name, enclosing function, stripped text)}
    for the executable lines of the module at path.  The function is its
    dotted name through enclosing classes and functions, "<module>" at
    top level."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    for line in range(child.lineno, child.end_lineno + 1):
                        owner[line] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return {
        line: (path.name, owner.get(line, "<module>"), text[line - 1].strip())
        for line in executable_lines(path)
    }


def load_allowed() -> list:
    """The entries of the committed list, each a dict with the keys
    module, function, text, count and reason."""
    return json.loads(ALLOWED.read_text(encoding="utf-8"))


def entry_key(entry: dict) -> tuple:
    return entry["module"], entry["function"], entry["text"]


def miscounted_entries(entries: list) -> list:
    """The entries whose count is not the number of executable lines of
    their function that carry their text."""
    keys = Counter()
    for path in SRC.glob("*.py"):
        keys.update(line_keys(path).values())
    return [e for e in entries if keys[entry_key(e)] != e["count"]]


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
    entries = load_allowed()
    allowed = {entry_key(e) for e in entries}
    unlisted = []
    unrun_keys = Counter()
    total = missed = 0
    for name in sorted(ran):
        keys = line_keys(Path(name))
        unrun = sorted(set(keys) - ran[name])
        total += len(keys)
        missed += len(unrun)
        if unrun:
            shown = ", ".join(map(str, unrun))
            print(f"{Path(name).name}: {len(unrun)} of {len(keys)} lines not run: {shown}")
        unrun_keys.update(keys[line] for line in unrun)
        unlisted += [(line, keys[line]) for line in unrun if keys[line] not in allowed]
    print(f"{total - missed} of {total} executable lines ran, {missed} not run")
    for line, (module, function, text) in unlisted:
        print(f"not run and not listed: {module}:{line} in {function}: {text}")
    miscounted = [e for e in entries if unrun_keys[entry_key(e)] != e["count"]]
    for e in miscounted:
        print(
            f"listed with count {e['count']} but {unrun_keys[entry_key(e)]} not run: "
            f"{e['module']} {e['function']}: {e['text']}"
        )
    if unlisted or miscounted:
        return 1
    return code

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
