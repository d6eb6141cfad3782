"""Property test: every CLI input ends with a documented exit code.

Operator, derivation and gamma documents and polynomial strings are drawn
from bounded strategies (charts up to 2x2, derivative orders up to 3,
`--order` in -1..4), partly well-formed and partly broken, written under
`tmp_path` and run through `cli.main` in-process.  Operator terms and gamma
entries are sometimes repeated at one key, and a JSON object sometimes
names a key twice.  Each case must end with exit 0 (success), 1 (domain
error) or 3 (parse error); an exception that escapes `main`, or exit 2 (an
internal invariant violation), fails it.

The argv layer is fuzzed the same way: a generated case with one usage
defect (unknown subcommand or flag, missing or non-integer `--order`,
missing positional) must exit 3 with one `UsageError` line, and a request
over a size cap (chart, Laplacian or verify bounds) must exit 1 with one
`RequestTooLarge` line in under 0.5 s.  Nothing spawns a process.
"""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fwlop import cli
from fwlop.errors import (
    MAX_CHART_DIM,
    MAX_LAPLACIAN_DIM,
    MAX_VERIFY_TABLE_KEYS,
    multi_index_count,
)

# Values that break a document field of any type.
BAD_VALUES = [None, True, False, -1, 0, 7, 1.5, "x", "", [], {}, [True], "x1 +", "w1"]
# Characters of random polynomial text: the grammar's, plus a digit that
# str.isdigit accepts but int() does not, a Unicode decimal digit and a
# Unicode space.
TEXT_ALPHABET = "xuvw0123/^*+-() ²٣\u00a0"


@st.composite
def poly_texts(draw, n, m, letter, fiber_degree=None):
    """Polynomial text over x1..xn and letter1..letterm that parses.

    With `fiber_degree` set every term has that degree in `letter`.
    """
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        numer = draw(st.integers(-9, 9))
        denom = draw(st.integers(1, 5))
        factors = [f"{numer}/{denom}" if denom > 1 else str(numer)]
        for i in range(1, n + 1):
            exp = draw(st.integers(0, 2))
            if exp:
                factors.append(f"x{i}^{exp}")
        degree = draw(st.integers(0, 2)) if fiber_degree is None else fiber_degree
        for _ in range(degree):
            factors.append(f"{letter}{draw(st.integers(1, m))}")
        terms.append("*".join(factors))
    return " + ".join(terms)


class Pairs(list):
    """A JSON object as its (key, value) pairs, so that a key can repeat."""


def _dumps(node) -> str:
    """JSON text of a document whose objects may be `Pairs`."""
    if isinstance(node, dict):
        node = Pairs(node.items())
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dumps(v) for v in node) + "]"
    return json.dumps(node)


@st.composite
def corrupted(draw, strategy):
    """A document from `strategy`, a third of the time with one defect: a
    field replaced by a value of the wrong type or range, a key dropped,
    an unknown key added, a key named twice in one object, or a polynomial
    string garbled."""
    doc = draw(strategy)
    if draw(st.sampled_from([False, True, True])):
        return doc
    slots = []

    def collect(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                collect(value)

    collect(doc)
    node, key = draw(st.sampled_from(slots))
    action = draw(st.integers(0, 4))
    if action == 0 and isinstance(node, dict):
        del node[key]
    elif action == 1 and isinstance(node, dict):
        node["extra"] = 1
    elif action == 2 and isinstance(node[key], str):
        node[key] = draw(st.text(alphabet=TEXT_ALPHABET, max_size=12))
    elif action == 3 and isinstance(node, dict):
        # the key again, with its own value or another one
        again = draw(st.sampled_from([node[key], draw(st.sampled_from(BAD_VALUES))]))
        pairs = Pairs(node.items())
        pairs.insert(draw(st.integers(0, len(pairs))), (key, again))
        if node is doc:
            return pairs
        parent, at = next((p, k) for p, k in slots if p[k] is node)
        parent[at] = pairs
    else:
        node[key] = draw(st.sampled_from(BAD_VALUES))
    return doc


@st.composite
def repeated(draw, entries, coeffs):
    """entries, a third of the time with copies of some of them at the
    same key (list fields reversed) and a coefficient from `coeffs`."""
    if not entries or draw(st.integers(0, 2)):
        return entries
    out = list(entries)
    for _ in range(draw(st.integers(1, 2))):
        entry = {
            field: value[::-1] if isinstance(value, list) else value
            for field, value in draw(st.sampled_from(entries)).items()
        }
        entry["coeff"] = draw(coeffs)
        out.insert(draw(st.integers(0, len(out))), entry)
    return out


charts = st.tuples(st.integers(1, 2), st.integers(1, 2))


def _chart_doc(n, m):
    return {"base_dim": n, "fiber_rank": m}


@st.composite
def operator_docs(draw, space=None):
    """Operator document; FWL-shaped at a random order half of the time."""
    n, m = draw(charts)
    space = space or draw(st.sampled_from(["E", "Estar", "Ambient"]))
    letter = "v" if space == "Estar" else "u"
    terms = []
    if draw(st.booleans()):
        q = draw(st.integers(0, 3))
        shapes = [(0, q, 1), (0, max(q - 1, 0), 0)] + ([(1, q - 1, 0)] if q else [])
        for _ in range(draw(st.integers(0, 3))):
            nb, nf, degree = draw(st.sampled_from(shapes))
            terms.append((nb, nf, draw(poly_texts(n, m, letter, fiber_degree=degree))))
    else:
        for _ in range(draw(st.integers(0, 3))):
            nb = draw(st.integers(0, 3))
            nf = draw(st.integers(0, 3 - nb))
            terms.append((nb, nf, draw(poly_texts(n, m, letter))))
    entries = [
        {
            "coeff": coeff,
            "dx": draw(st.lists(st.integers(1, n), min_size=nb, max_size=nb)),
            "du": draw(st.lists(st.integers(1, m), min_size=nf, max_size=nf)),
        }
        for nb, nf, coeff in terms
    ]
    coeffs = st.one_of(st.just("0"), poly_texts(n, m, letter))
    return {
        "chart": _chart_doc(n, m),
        "space": space,
        "terms": draw(repeated(entries, coeffs)),
    }


@st.composite
def derivation_docs(draw):
    """Derivation document, homogeneous of a random degree half of the time."""
    n, m = draw(charts)
    degree = draw(st.integers(0, 2))
    if draw(st.booleans()):
        dx_deg, dv_deg, mult_deg = degree, degree + 1, degree
    else:
        dx_deg = dv_deg = mult_deg = None
    return {
        "chart": _chart_doc(n, m),
        "field": {
            "dx": [draw(poly_texts(n, m, "v", dx_deg)) for _ in range(n)],
            "dv": [draw(poly_texts(n, m, "v", dv_deg)) for _ in range(m)],
        },
        "mult": draw(poly_texts(n, m, "v", mult_deg)),
    }


@st.composite
def gamma_docs(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.sampled_from([n, n, n + 1]))
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        k, i, j = (draw(st.integers(1, n)) for _ in range(3))
        coeff = draw(poly_texts(n, m, "u", fiber_degree=0))
        entries.append({"k": k, "i": i, "j": j, "coeff": coeff})
        if draw(st.integers(0, 3)):
            entries.append({"k": k, "i": j, "j": i, "coeff": coeff})
    coeffs = st.one_of(st.just("0"), poly_texts(n, m, "u", fiber_degree=0))
    entries = draw(repeated(entries, coeffs))
    return {"chart": _chart_doc(n, m), "gamma": entries}


ORDERS = st.integers(-1, 4).map(str)


@st.composite
def cli_cases(draw):
    """(argv naming document i as "@i", [documents])."""
    command = draw(st.sampled_from([
        "eval", "compose", "bracket", "grade", "classify", "symbol", "ad",
        "poisson", "a-iso", "a-inv", "linearize", "laplacian",
    ]))
    if command == "laplacian":
        return [command, "@0"], [draw(corrupted(gamma_docs()))]
    if command == "a-inv":
        return [command, "--order", draw(ORDERS), "@0"], [draw(corrupted(derivation_docs()))]
    if command in ("compose", "bracket", "poisson"):
        space = draw(st.sampled_from(["E", "Estar", "Ambient"]))
        docs = [draw(corrupted(operator_docs(space))) for _ in range(2)]
        return [command, "@0", "@1"], docs
    argv = [command, "@0"]
    if command in ("classify", "ad", "a-iso", "linearize"):
        argv += ["--order", draw(ORDERS)]
    if command == "eval":
        text = draw(st.one_of(
            poly_texts(2, 2, draw(st.sampled_from("uv"))),
            st.text(alphabet=TEXT_ALPHABET, max_size=12),
        ))
        argv.append("--fn=" + text)
    return argv, [draw(corrupted(operator_docs()))]


def _run(argv, docs, directory):
    """(exit code, stdout, stderr) of `cli.main` on argv naming document i as "@i"."""
    paths = []
    for index, doc in enumerate(docs):
        path = directory / f"doc{index}.json"
        path.write_text(_dumps(doc), encoding="utf-8")
        paths.append(str(path))
    argv = [paths[int(a[1:])] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=cli_cases())
def test_cli_inputs_end_with_a_documented_exit_code(case, tmp_path):
    argv, docs = case
    code, _, _ = _run(argv, docs, tmp_path)
    assert code in (0, 1, 3)


# -- the argv layer ------------------------------------------------------------
# Usage errors end before any document is read, with exit 3; requests over a
# size cap end before any enumeration, with exit 1.  Both run in process.

ORDER_COMMANDS = ("classify", "ad", "a-iso", "a-inv", "linearize")


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


@st.composite
def malformed_argv(draw):
    """(argv, [documents]): a generated case with one usage defect."""
    argv, docs = draw(cli_cases())
    defects = ["unknown-command", "unknown-flag", "missing-positional"]
    if argv[0] in ORDER_COMMANDS:
        defects += ["missing-order", "non-integer-order"]
    defect = draw(st.sampled_from(defects))
    if defect == "unknown-command":
        argv[0] = draw(st.sampled_from(["frobnicate", "Eval", "a_iso", "verify2", ""]))
    elif defect == "unknown-flag":
        flag = draw(st.sampled_from(["--bogus", "--orderx", "-z", "--trials=1"]))
        argv.insert(draw(st.integers(1, len(argv))), flag)
    elif defect == "missing-positional":
        argv.remove(draw(st.sampled_from([a for a in argv if a.startswith("@")])))
    else:
        at = argv.index("--order")
        if defect == "missing-order":
            del argv[at:at + 2]
        else:
            argv[at + 1] = draw(st.text(alphabet="x0123.-e ", max_size=4).filter(_not_an_int))
    return argv, docs


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=malformed_argv())
def test_malformed_argv_exits_3_with_one_typed_line(case, tmp_path):
    argv, docs = case
    code, out, err = _run(argv, docs, tmp_path)
    assert (code, out) == (3, "")
    assert err.startswith("UsageError: ") and err.count("\n") == 1


@st.composite
def over_cap_cases(draw):
    """(argv, [documents]) of a request over one of the size caps."""
    kind = draw(st.sampled_from(["chart", "laplacian", "bounds"]))
    if kind == "bounds":
        n, m, q = draw(
            st.tuples(st.integers(1, 300), st.integers(1, 300), st.integers(1, 40)).filter(
                lambda b: multi_index_count(b[0] + b[1], b[2], MAX_VERIFY_TABLE_KEYS)
                > MAX_VERIFY_TABLE_KEYS
            )
        )
        return ["verify", "--suite", "all", "--trials", "1", "--bounds", f"{n},{m},{q}"], []
    if kind == "laplacian":
        n = draw(st.integers(MAX_LAPLACIAN_DIM + 1, MAX_CHART_DIM))
        entry = {"k": 1, "i": 1, "j": n, "coeff": "x1"}
        gamma = {"chart": _chart_doc(n, n), "gamma": [entry, dict(entry, i=n, j=1)]}
        return ["laplacian", "@0"], [gamma]
    big = draw(st.integers(MAX_CHART_DIM + 1, 10**9))
    n, m = draw(st.sampled_from([(big, 1), (1, big), (big, big)]))
    command = draw(st.sampled_from(
        list(ORDER_COMMANDS) + ["eval", "compose", "grade", "symbol", "laplacian"]
    ))
    if command == "a-inv":
        # An over-cap chart is refused before the component counts are read.
        dx, dv = (["0"] * d if d <= MAX_CHART_DIM else [] for d in (n, m))
        doc = {"chart": _chart_doc(n, m), "field": {"dx": dx, "dv": dv}, "mult": "0"}
    elif command == "laplacian":
        doc = {"chart": _chart_doc(n, m), "gamma": []}
    else:
        space = "Ambient" if command == "linearize" else "E"
        doc = {"chart": _chart_doc(n, m), "space": space,
               "terms": [{"coeff": "1", "dx": [], "du": [1]}]}
    argv = [command, "@0"]
    if command in ORDER_COMMANDS:
        argv += ["--order", "1"]
    if command == "eval":
        argv.append("--fn=1")
    if command == "compose":
        argv.append("@0")
    return argv, [doc]


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=over_cap_cases())
def test_over_cap_requests_are_refused_quickly(case, tmp_path):
    argv, docs = case
    start = time.perf_counter()
    code, out, err = _run(argv, docs, tmp_path)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith("RequestTooLarge: ") and err.count("\n") == 1


def test_a_iso_at_order_6_on_chart_40_is_refused(tmp_path):
    """C(44, 5), about 1.1M basis words C at m = 40, q = 6, which a_iso no
    longer walks: the document is not FWL at order 6, and says so at once."""
    doc = {"chart": _chart_doc(40, 40), "space": "E",
           "terms": [{"coeff": "1", "dx": [], "du": [1] * 6}]}
    start = time.perf_counter()
    code, out, err = _run(["a-iso", "--order", "6", "@0"], [doc], tmp_path)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == "NotFWL: operator is not FWL of order 6\n"
