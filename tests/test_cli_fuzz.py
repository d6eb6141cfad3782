"""Property test: every CLI input ends with a documented exit code.

Operator, derivation and gamma documents and polynomial strings are drawn
from bounded strategies (charts up to 2x2, derivative orders up to 3,
`--order` in -1..4), partly well-formed and partly broken, written under
`tmp_path` and run through `cli.main` in-process.  Each case must end with
exit 0 (success), 1 (domain error) or 3 (parse error); an exception that
escapes `main`, or exit 2 (an internal invariant violation), fails it.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fwlop import cli

# Values that break a document field of any type.
BAD_VALUES = [None, True, False, -1, 0, 7, 1.5, "x", "", [], {}, [True], "x1 +", "w1"]


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


@st.composite
def corrupted(draw, strategy):
    """A document from `strategy`, a third of the time with one defect: a
    field replaced by a value of the wrong type or range, a key dropped,
    an unknown key added, or a polynomial string garbled."""
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
    action = draw(st.integers(0, 3))
    if action == 0 and isinstance(node, dict):
        del node[key]
    elif action == 1 and isinstance(node, dict):
        node["extra"] = 1
    elif action == 2 and isinstance(node[key], str):
        node[key] = draw(st.text(alphabet="xuvw0123/^*+-() ", max_size=12))
    else:
        node[key] = draw(st.sampled_from(BAD_VALUES))
    return doc


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
    return {
        "chart": _chart_doc(n, m),
        "space": space,
        "terms": [
            {
                "coeff": coeff,
                "dx": draw(st.lists(st.integers(1, n), min_size=nb, max_size=nb)),
                "du": draw(st.lists(st.integers(1, m), min_size=nf, max_size=nf)),
            }
            for nb, nf, coeff in terms
        ],
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
            st.text(alphabet="xuvw0123/^*+-() ", max_size=12),
        ))
        argv.append("--fn=" + text)
    return argv, [draw(corrupted(operator_docs()))]


def _run(argv, docs, directory):
    paths = []
    for index, doc in enumerate(docs):
        path = directory / f"doc{index}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    argv = [paths[int(a[1:])] if a.startswith("@") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


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
    assert _run(argv, docs, tmp_path) in (0, 1, 3)
