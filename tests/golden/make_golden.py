"""Regenerate the golden CLI corpus: fixture documents and expected outputs.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

It writes seeded fixture documents to ``tests/golden/fixtures/``, runs each
case of the corpus through ``fwlop.cli.main`` in-process, and records the
exit code and standard error in ``tests/golden/cases.json`` and standard
output in ``tests/golden/out/<case>.txt``.  ``tests/test_golden.py`` replays
the cases and compares byte for byte.  Regenerate only when an output change
is intended, and say so in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from pathlib import Path

from fwlop import cli
from fwlop import randgen as rg
from fwlop.diffop import DiffOp, chart_to_doc, diffop_to_doc
from fwlop.lbundle import a_iso, lderivation_to_doc
from fwlop.symcore import Chart, Space, poly_to_str

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
OUT = HERE / "out"


def _op_doc(chart, space, terms):
    """Operator document from (coeff string, dx list, du list) triples."""
    return {
        "chart": chart_to_doc(chart),
        "space": space,
        "terms": [{"coeff": c, "dx": dx, "du": du} for c, dx, du in terms],
    }


# Polynomial texts at the edges of the grammar: the refused ones with the
# offset their PolySyntaxError names (or the variable error they raise on
# E at chart (2,2)), then forms that are accepted.
PARSE_TEXTS = [
    ("x_space_0", "x 0"),  # offset 1
    ("exp_space_0", "x1^ 0"),  # offset 3
    ("plus_at_end", "x1 + "),  # offset 5
    ("star_first", "* x1"),  # offset 0
    ("caret_at_end", "x1 ^"),  # offset 4
    ("slash_at_end", "3/"),  # offset 2
    ("two_ints", "2 3"),  # offset 2
    ("minus_before_var", "x1 + -x2"),  # offset 6
    ("v1_on_e", "v1"),  # UnknownVariable
    ("x3_out_of_range", "x3"),  # IndexOutOfRange
    ("spaced_var", " x 1 "),
    ("times_minus", "x1*-3"),
    ("double_minus", "--3"),
    ("unicode_space_digit", "\u00a0x1\u2003+\u00a0\u0663"),  # Arabic-Indic 3
]
# Document route of PARSE_TEXTS[k], cycling with k, and the command run on it.
PARSE_ROUTES = {
    "op": ["symbol"],
    "deriv": ["a-inv", "--order", "1"],
    "gamma": ["laplacian"],
}


def _parse_route(k):
    return list(PARSE_ROUTES)[k % len(PARSE_ROUTES)]


def _parse_doc(k, text):
    """Document carrying `text` in one place: an operator coefficient, a
    derivation's multiplication part or a connection coefficient; all on
    chart (2,2)."""
    chart = Chart(2, 2)
    route = _parse_route(k)
    if route == "op":
        return _op_doc(chart, "E", [(text, [1], [])])
    if route == "deriv":
        return {
            "chart": chart_to_doc(chart),
            "field": {"dx": ["0", "0"], "dv": ["0", "0"]},
            "mult": text,
        }
    return {
        "chart": chart_to_doc(chart),
        "gamma": [{"k": 1, "i": 1, "j": 1, "coeff": text}],
    }


def _fixtures():
    """Yield (file name, document) pairs; every random one has its own seed.
    A document given as a string is written as it is."""
    # Hand-written operators with coefficients over several denominators.
    yield "op_e_hand.json", _op_doc(
        Chart(2, 2),
        "E",
        [
            ("3/4*x1*u2 - 5/6*u1^2 + 7/10", [1], [2]),
            ("-2/9*x2^2 + 1/3*u1", [], [1, 1]),
            ("11/12*x1*x2*u1*u2", [2], []),
        ],
    )
    yield "op_estar_hand.json", _op_doc(
        Chart(2, 1),
        "Estar",
        [
            ("5/8*x1*v1 - 1/6", [1], [1]),
            ("-3/14*v1^2 + 2/5*x2", [], [1]),
        ],
    )
    yield "fwl2_hand.json", _op_doc(
        Chart(1, 2),
        "E",
        [
            ("2/3*x1", [1], [2]),
            ("-1/4*u1 + 5/7*x1*u2", [], [1, 2]),
            ("9/10", [], [1]),
        ],
    )
    # FWL of order 4 at chart (2,2): every order-3 key repeats a fiber
    # letter, so the bundle map divides by C! = 2 or 6.
    yield "fwl4_hand.json", _op_doc(
        Chart(2, 2),
        "E",
        [
            ("3/5*x1 - 1", [1], [1, 1, 2]),
            ("-2/7*x2^2", [2], [2, 2, 2]),
            ("2/3*u1 - 5/4*x2*u2", [], [1, 1, 2, 2]),
            ("7/9*x1*u2", [], [1, 1, 1, 1]),
            ("-1/6*u1 + u2", [], [1, 2, 2, 2]),
            ("5/8*x1^2 - 1/3", [], [1, 1, 2]),
            ("4/11*x2", [], [2, 2, 2]),
            ("1/2", [], [1, 1, 1]),
        ],
    )
    yield "ambient_hand.json", _op_doc(
        Chart(1, 1),
        "Ambient",
        [
            ("3/5*u1 - 1/2*x1*u1", [], [1, 1]),
            ("4/9*x1", [1], []),
            ("-7/8*u1^2", [], []),
        ],
    )

    bounds = rg.Bounds()
    charts = [Chart(1, 1), Chart(2, 1), Chart(1, 2), Chart(2, 2)]
    for space, tag in [(Space.E, "e"), (Space.ESTAR, "estar"), (Space.AMBIENT, "amb")]:
        for k in range(4):
            rng = random.Random(1000 * len(tag) + k)
            chart = charts[k]
            op = rg.rand_diffop(rng, chart, space, bounds, order=2)
            yield f"op_{tag}_{k}.json", diffop_to_doc(op)
            partner = rg.rand_diffop(rng, chart, space, bounds, order=2)
            yield f"op_{tag}_{k}b.json", diffop_to_doc(partner)

    for q, chart in [(1, Chart(2, 2)), (2, Chart(1, 1)), (2, Chart(2, 2)), (3, Chart(1, 2))]:
        rng = random.Random(2000 + 10 * q + chart.base_dim)
        name = f"mv_q{q}_{chart.base_dim}{chart.fiber_rank}.json"
        p = rg.rand_multivector(rng, chart, Space.E, bounds, q)
        yield name, diffop_to_doc(p.to_operator())

    for q, chart in [(1, Chart(2, 2)), (2, Chart(1, 1)), (2, Chart(2, 2)), (3, Chart(1, 2))]:
        rng = random.Random(3000 + 10 * q + chart.base_dim)
        op = rg.rand_fwl_op(rng, chart, bounds, q)
        name = f"fwl_q{q}_{chart.base_dim}{chart.fiber_rank}.json"
        yield name, diffop_to_doc(op)
        yield "deriv_" + name, lderivation_to_doc(a_iso(op, q))

    # Order 0: multiplication by a fiber-linear function.
    rng = random.Random(3500)
    phi = rg.rand_section(rng, Chart(2, 2), bounds)
    yield "fwl_q0_22.json", diffop_to_doc(DiffOp.mult(phi))
    rng = random.Random(3541)
    yield "fwl_q3_33.json", diffop_to_doc(rg.rand_fwl_op(rng, Chart(3, 3), bounds, 3))

    for q, chart in [(1, Chart(1, 1)), (2, Chart(2, 2))]:
        rng = random.Random(4000 + q)
        d = rg.rand_homogeneous_lderivation(rng, chart, bounds, q - 1)
        yield f"deriv_rand_q{q}.json", lderivation_to_doc(d)

    for q, chart in [(1, Chart(1, 1)), (2, Chart(2, 1)), (2, Chart(2, 2)), (3, Chart(1, 1))]:
        rng = random.Random(5000 + 10 * q + chart.base_dim)
        op = rg.rand_order_q_linearizable_op(rng, chart, bounds, q)
        yield f"lin_q{q}_{chart.base_dim}{chart.fiber_rank}.json", diffop_to_doc(op)

    for n in (1, 2, 3, 4, 5, 6):
        rng = random.Random(6000 + n)
        chart = Chart(n, n)
        gamma = rg.rand_gamma(rng, chart, bounds)
        entries = [
            {"k": k, "i": i, "j": j, "coeff": poly_to_str(c)}
            for (k, i, j), c in sorted(gamma.items())
        ]
        yield f"gamma_{n}.json", {"chart": chart_to_doc(chart), "gamma": entries}
    yield "identity_e_22.json", _op_doc(Chart(2, 2), "E", [("1", [], [])])
    # Repeated entries add up: two operator terms at one (dx, du).
    yield "op_repeated_term.json", _op_doc(Chart(1, 1), "E", [("1", [], [1]), ("x1", [], [1])])
    # ... and so do two gamma entries at one (k, i, j).
    yield "gamma_repeated.json", {
        "chart": chart_to_doc(Chart(1, 1)),
        "gamma": [
            {"k": 1, "i": 1, "j": 1, "coeff": "x1"},
            {"k": 1, "i": 1, "j": 1, "coeff": "x1^2"},
        ],
    }
    # A zero term's letters are range-checked like any other's.
    yield "op_zero_term_out_of_range.json", _op_doc(
        Chart(1, 1), "E", [("1", [], [1]), ("0", [7], [5])]
    )
    # A key repeated in one JSON object is refused.
    yield "op_repeated_key.json", (
        '{"chart": {"base_dim": 1, "fiber_rank": 1}, "space": "E", "space": "Estar",\n'
        ' "terms": [{"coeff": "1", "dx": [], "du": [1]}]}\n'
    )
    for k, (tag, text) in enumerate(PARSE_TEXTS):
        yield f"parse_{tag}.json", _parse_doc(k, text)
    yield "gamma_hand.json", {
        "chart": chart_to_doc(Chart(2, 2)),
        "gamma": [
            {"k": 1, "i": 1, "j": 2, "coeff": "3/7*x1 - 2/3"},
            {"k": 1, "i": 2, "j": 1, "coeff": "3/7*x1 - 2/3"},
            {"k": 2, "i": 2, "j": 2, "coeff": "-5/4*x2^2"},
        ],
    }


def _cases():
    """Yield (case name, argv); fixture paths are names under fixtures/."""
    ops = {
        "e": ["op_e_hand.json"] + [f"op_e_{k}.json" for k in range(4)],
        "estar": ["op_estar_hand.json"] + [f"op_estar_{k}.json" for k in range(4)],
        "amb": ["ambient_hand.json"] + [f"op_amb_{k}.json" for k in range(4)],
    }
    for tag in ("e", "estar", "amb"):
        for k in range(4):
            left, right = f"op_{tag}_{k}.json", f"op_{tag}_{k}b.json"
            yield f"compose_{tag}_{k}", ["compose", left, right]
            yield f"bracket_{tag}_{k}", ["bracket", left, right]
        for name in ops[tag]:
            stem = name[: -len(".json")]
            yield f"symbol_{stem}", ["symbol", name]
            yield f"grade_{stem}", ["grade", name]
    yield "compose_hand_e_fwl", ["compose", "op_e_hand.json", "fwl_q2_22.json"]
    yield "bracket_hand_e_fwl", ["bracket", "fwl_q2_22.json", "op_e_hand.json"]
    yield "eval_e_hand", ["eval", "op_e_hand.json", "--fn", "1/3*x1^2*u2 - 4/5*u1^3 + x2"]
    yield "eval_estar_hand", ["eval", "op_estar_hand.json", "--fn", "-2/7*x1*v1^2 + 3/4"]
    for q in (1, 2, 3):
        yield f"classify_fwl2_q{q}", ["classify", "--order", str(q), "fwl2_hand.json"]

    mvs = ["mv_q1_22.json", "mv_q2_11.json", "mv_q2_22.json", "mv_q3_12.json"]
    yield "poisson_q1_q2_22", ["poisson", mvs[0], mvs[2]]
    yield "poisson_q2_q2_22", ["poisson", mvs[2], mvs[2]]
    yield "poisson_q2_q2_11", ["poisson", mvs[1], mvs[1]]
    yield "poisson_q3_q3_12", ["poisson", mvs[3], mvs[3]]
    yield "poisson_chart_mismatch", ["poisson", mvs[0], mvs[1]]

    fwls = [(1, "22"), (2, "11"), (2, "22"), (3, "12")]
    for q, ch in fwls:
        name = f"fwl_q{q}_{ch}.json"
        yield f"a_iso_q{q}_{ch}", ["a-iso", "--order", str(q), name]
        yield f"ad_q{q}_{ch}", ["ad", "--order", str(q), name]
        yield f"a_inv_q{q}_{ch}", ["a-inv", "--order", str(q), "deriv_" + name]
    yield "a_iso_q0_22", ["a-iso", "--order", "0", "fwl_q0_22.json"]
    yield "ad_q0_22", ["ad", "--order", "0", "fwl_q0_22.json"]
    yield "a_iso_q3_33", ["a-iso", "--order", "3", "fwl_q3_33.json"]
    yield "a_iso_hand_q2", ["a-iso", "--order", "2", "fwl2_hand.json"]
    yield "a_iso_hand_q4", ["a-iso", "--order", "4", "fwl4_hand.json"]
    yield "ad_hand_q4", ["ad", "--order", "4", "fwl4_hand.json"]
    yield "a_iso_not_fwl", ["a-iso", "--order", "2", "op_e_hand.json"]
    yield "a_inv_rand_q1", ["a-inv", "--order", "1", "deriv_rand_q1.json"]
    yield "a_inv_rand_q2", ["a-inv", "--order", "2", "deriv_rand_q2.json"]
    yield "a_inv_wrong_degree", ["a-inv", "--order", "3", "deriv_rand_q2.json"]

    for q, ch in [(1, "11"), (2, "21"), (2, "22"), (3, "11")]:
        yield f"linearize_q{q}_{ch}", ["linearize", "--order", str(q), f"lin_q{q}_{ch}.json"]
    yield "linearize_hand_q2", ["linearize", "--order", "2", "ambient_hand.json"]
    yield "linearize_not_linearizable", ["linearize", "--order", "1", "op_amb_1.json"]

    for tag in ("1", "2", "3", "4", "5", "6", "hand"):
        yield f"laplacian_gamma_{tag}", ["laplacian", f"gamma_{tag}.json"]
    yield "symbol_repeated_term", ["symbol", "op_repeated_term.json"]
    yield "laplacian_gamma_repeated", ["laplacian", "gamma_repeated.json"]
    yield "symbol_repeated_key", ["symbol", "op_repeated_key.json"]
    yield "symbol_zero_term_out_of_range", ["symbol", "op_zero_term_out_of_range.json"]

    for k, (tag, text) in enumerate(PARSE_TEXTS):
        yield f"parse_fn_{tag}", ["eval", "identity_e_22.json", "--fn=" + text]
        route = _parse_route(k)
        yield f"parse_{route}_{tag}", PARSE_ROUTES[route] + [f"parse_{tag}.json"]


def run_case(argv, fixtures_dir):
    """Run one CLI case in-process; return (exit code, stdout, stderr)."""
    resolved = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(resolved)
    return code, out.getvalue(), err.getvalue()


def main():
    for path in (FIXTURES, OUT):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    for name, doc in _fixtures():
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=1) + "\n"
        (FIXTURES / name).write_text(text, encoding="utf-8")
    cases = []
    for name, argv in _cases():
        code, out, err = run_case(argv, FIXTURES)
        (OUT / f"{name}.txt").write_text(out, encoding="utf-8")
        cases.append({"name": name, "argv": argv, "exit": code, "stderr": err})
    (HERE / "cases.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    codes = {}
    for case in cases:
        codes[case["exit"]] = codes.get(case["exit"], 0) + 1
    print(f"{len(cases)} cases, exit codes {dict(sorted(codes.items()))}")


if __name__ == "__main__":
    main()
