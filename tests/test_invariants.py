"""The library's one internal invariant, the agreement of `a_iso`'s two
paths, raises InvariantViolation, which survives `python -O`.  Every other
cross-check is a verify identity, which a planted fault makes fail; a
planted fault that makes a verify trial raise is a reported failure."""

import ast
import json
from pathlib import Path

import pytest

import fwlop
from fwlop import _oracles, diffop, lbundle, linearize, multivec, verify
from fwlop.cli import main
from fwlop.diffop import DiffOp, diffop_from_doc
from fwlop.errors import FwlopError, InvariantViolation
from fwlop.symcore import EMPTY_MI, Chart, MultiIndex, Poly, Space, add_into, parse_poly

SRC = Path(__file__).resolve().parent.parent / "src" / "fwlop"

OP_FWL2 = {
    "chart": {"base_dim": 1, "fiber_rank": 1},
    "space": "E",
    "terms": [
        {"coeff": "1", "dx": [], "du": [1]},
        {"coeff": "u1", "dx": [], "du": [1, 1]},
    ],
}


def test_invariant_violation_is_a_domain_error():
    assert issubclass(InvariantViolation, FwlopError)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_or_assertion_error_in_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    names = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "AssertionError"
    ]
    assert asserts == [] and names == []


# The unshuffle recovery is the verify oracle of the bracket and product
# table formulas, kept in the oracle module that only verify imports; a
# second recovery path in the library would duplicate them.
# The same holds for the cofactor determinant: the library's Laplacian
# forms none, and verify expands the split metric's; and for the
# normal-form shape tests, which the library's classification, a weight
# test, does not repeat; for the fiber rescaling, against which verify
# checks fiber degrees and weights; and for the basis enumeration, where
# the library walks only live words.
REFERENCE_HOMES = {
    "_det": {"_oracles.py"},
    "unshuffles": {"_oracles.py"},
    "_recover_table": {"_oracles.py"},
    "_fwl_shape": {"_oracles.py", "verify.py"},
    "_core_shape": {"_oracles.py", "verify.py"},
    "_scale_fiber": {"_oracles.py", "verify.py"},
    "all_multi_indices": {"_oracles.py", "verify.py"},
}


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_recovery_helpers_are_referenced_only_from_their_homes(path):
    names = set(_referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    strays = [
        name
        for name, homes in sorted(REFERENCE_HOMES.items())
        if name in names and path.name not in homes
    ]
    assert strays == []


# The modules of the constructions and the CLI: a symcore name that none of
# them references is not the library's.
CONSTRUCTIONS = ["symcore", "diffop", "multivec", "lbundle", "linearize", "cli"]
# symcore names kept without such a caller, each with its reason.
UNCALLED_IN_SYMCORE = {
    # bench/spans.py wraps it by name for the symcore.partial span
    "Poly.partial_multi",
}


def test_symcore_holds_only_what_the_constructions_call():
    """Every top-level function and method that symcore defines (dunders
    aside, which Python calls) is referenced from a construction module or
    the CLI, or exported in `fwlop.__all__`.  A method counts as referenced
    when any attribute of its name is."""
    referenced = set()
    for name in CONSTRUCTIONS:
        text = (SRC / f"{name}.py").read_text(encoding="utf-8")
        referenced.update(_referenced_names(ast.parse(text)))
    defined = []
    for node in ast.parse((SRC / "symcore.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            defined.append(node.name)
        elif isinstance(node, ast.ClassDef):
            defined.extend(
                f"{node.name}.{inner.name}"
                for inner in node.body
                if isinstance(inner, ast.FunctionDef)
                and not (inner.name.startswith("__") and inner.name.endswith("__"))
            )
    uncalled = {
        name
        for name in defined
        if name.rpartition(".")[2] not in referenced and name not in fwlop.__all__
    }
    assert uncalled == UNCALLED_IN_SYMCORE


def test_invariant_violation_is_raised_only_by_a_iso():
    raises = [
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Raise)
        and "InvariantViolation" in ast.unparse(inner.exc or ast.Constant(None))
    ]
    assert raises == [("lbundle.py", "a_iso")]


def test_run_suite_owns_the_one_trial_loop():
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for trial in verify.SUITES.values():
        node = functions[trial.__name__]
        assert "trials" not in [arg.arg for arg in node.args.args + node.args.kwonlyargs]
        loops = [inner for inner in ast.walk(node) if isinstance(inner, ast.For)]
        assert not any(
            isinstance(loop.target, ast.Attribute) and loop.target.attr == "trial"
            for loop in loops
        ), trial.__name__
    sets = [
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute)
        and inner.attr == "trial"
        and isinstance(inner.ctx, ast.Store)
    ]
    assert sets == [("verify.py", "run_suite")]
    # a_inverse refuses a non-homogeneous image, so round-trip-operator
    # reads the image-homogeneous verdict first
    checks = [
        ast.unparse(call.args[1])
        for call in ast.walk(functions["_trial_iso_a"])
        if isinstance(call, ast.Call)
        and ast.unparse(call.func) == "s.check"
        and ast.literal_eval(call.args[0]) == "round-trip-operator"
    ]
    assert checks == ["homogeneous and a_inverse(image, q) == op"]


def _wrong_closed_form(monkeypatch, name="_closed_form_mult"):
    """Add 1 to what one path of a_iso's multiplication part computes: the
    closed formula, or the trace action on the bundle-map path."""
    right = getattr(lbundle, name)

    def wrong(*args):
        value = right(*args)
        return value + Poly.const(value.chart, value.space, 1)

    monkeypatch.setattr(lbundle, name, wrong)


@pytest.mark.parametrize("name", ["_closed_form_mult", "_contract_trace"])
def test_a_iso_path_disagreement_raises(monkeypatch, name):
    op = diffop_from_doc(OP_FWL2)
    lbundle.a_iso(op, 2)
    _wrong_closed_form(monkeypatch, name)
    with pytest.raises(InvariantViolation, match="disagree"):
        lbundle.a_iso(op, 2)


def test_cli_maps_invariant_violation_to_exit_2(monkeypatch, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(OP_FWL2))
    _wrong_closed_form(monkeypatch)
    code = main(["a-iso", "--order", "2", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("InvariantViolation: ")


def _det_signed_by_column(matrix):
    """_oracles._det with each cofactor signed by its column alone, not by
    row + column: wrong whenever the expanded row has an odd index."""
    one = Poly.const(matrix[0][0].chart, matrix[0][0].space, 1)

    def minor(rows, cols):
        if not rows:
            return one
        i = min(
            range(len(rows)),
            key=lambda r: sum(not matrix[rows[r]][c].is_zero() for c in cols),
        )
        rest = rows[:i] + rows[i + 1 :]
        out = one - one
        for k, col in enumerate(cols):
            if not matrix[rows[i]][col].is_zero():
                term = matrix[rows[i]][col] * minor(rest, cols[:k] + cols[k + 1 :])
                out = out - term if k % 2 else out + term
        return out

    size = len(matrix)
    return minor(tuple(range(size)), tuple(range(size)))


def test_wrong_metric_determinant_raises(monkeypatch, capsys):
    # With Gamma^1_11 = x1 the sparsest row of [[-2 x1 u1, 1], [1, 0]] is the
    # second, so the wrong sign gives det = +1, a nonzero constant, not -1.
    # The library's Laplacian forms no determinant; verify's
    # metric-determinant identity expands one per drawn Gamma.
    chart = Chart(1, 1)
    gamma = {(1, 1, 1): parse_poly("x1", chart, Space.E)}
    assert _oracles._metric_determinant(chart, gamma) == Poly.const(chart, Space.E, -1)
    assert verify.run_suite("laplacian", 20, 1).ok
    monkeypatch.setattr(_oracles, "_det", _det_signed_by_column)
    assert _oracles._metric_determinant(chart, gamma) == Poly.const(chart, Space.E, 1)
    multivec.fwl_metric_laplacian(chart, gamma)
    report = verify.run_suite("laplacian", 20, 1)
    assert report.failures
    assert {f["identity"] for f in report.failures} == {"metric-determinant"}
    assert all(f["counterexample"]["gamma"] for f in report.failures)
    code = main(["verify", "--suite", "laplacian", "--trials", "20", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"failures: {len(report.failures)}\n" in captured.out
    assert ": metric-determinant\n" in captured.out


def _weight_of_homogeneous(degrees):
    """diffop._weight reading only the homogeneous coefficients."""
    weights = {deg - len(mi_f) for (_, mi_f), deg in degrees if deg is not None}
    return weights.pop() if len(weights) == 1 else None


def _weight_negated(degrees, _weight=diffop._weight):
    """diffop._weight with |B| minus the fiber degree."""
    weight = _weight(degrees)
    return None if weight is None else -weight


def _plus(module, name, extra):
    """module.<name> with extra(result) added to its result."""
    right = getattr(module, name)

    def wrong(*args):
        value = right(*args)
        return value + extra(value)

    return wrong


def _unit_field(d):
    return DiffOp.mult(Poly.const(d.chart, d.space, 1))


def _unit(value):
    return Poly.const(value.chart, value.space, 1)


def _unrestricted(p):
    """The level-q table kept as it is, fiber terms and all."""
    return p.to_operator().with_space(Space.E).symbol_at(p.q)


# identity -> (suite, module, name, planted fault)
PLANTED = {
    "fwl-weight-shape": ("stabilizer", diffop, "_weight", _weight_of_homogeneous),
    "core-weight-shape": ("stabilizer", diffop, "_weight", _weight_negated),
    "image-homogeneous": (
        "iso-a", lbundle, "_hamiltonian_field", _plus(lbundle, "_hamiltonian_field", _unit_field)
    ),
    "multiderivation-classes": (
        "pair-bracket", verify, "multiderivation_D", _plus(verify, "multiderivation_D", _unit)
    ),
    "linearization-fwl": ("lin-do", linearize, "linearize_multivector", _unrestricted),
}


@pytest.mark.parametrize("identity", sorted(PLANTED))
def test_a_planted_fault_fails_its_verify_identity(monkeypatch, identity):
    suite, module, name, fault = PLANTED[identity]
    assert verify.run_suite(suite, 20, 1).ok
    monkeypatch.setattr(module, name, fault)
    report = verify.run_suite(suite, 20, 1)
    assert identity in {f["identity"] for f in report.failures}


# Faults on the bundle-map path of a_iso that make a trial raise: each puts
# a part that is not base-only into `Poly.from_fiber_parts`, which refuses
# it with SpaceMismatch.  Every trial of the suites that call a_iso raises.
def _psi_plus_u1(node, psi, right=lbundle._contract_trace):
    """Psi(C) + u1."""
    return right(node, psi + parse_poly("u1", node.chart, Space.E))


def _column_plus_u1_squared(node, psi, right=lbundle._contract_trace):
    """The trace column at u1 + u1^2: its d/du1 is not base-only."""
    terms = dict(node.terms)
    add_into(terms, (EMPTY_MI, MultiIndex([1])), parse_poly("u1^2", node.chart, Space.E))
    return right(DiffOp(node.chart, Space.E, terms), psi)


RAISED = {"error": "SpaceMismatch: the part at MultiIndex([]) is not base-only"}


@pytest.mark.parametrize(
    "fault", [_psi_plus_u1, _column_plus_u1_squared], ids=["psi", "trace-column"]
)
def test_a_trial_that_raises_is_a_reported_failure(monkeypatch, fault):
    monkeypatch.setattr(lbundle, "_contract_trace", fault)
    report = verify.run_suite("iso-a", 50, 1)
    assert [f["trial"] for f in report.failures] == list(range(50))
    assert all(
        f["identity"] == "raised" and f["counterexample"] == RAISED
        for f in report.failures
    )
    # trial 0 raised, and the trials after it still made their checks
    assert report.executed["raised"] == 50 and report.executed["image-homogeneous"] > 0


def test_a_run_with_raising_trials_reports_every_suite(monkeypatch, capsys):
    monkeypatch.setattr(lbundle, "_contract_trace", _psi_plus_u1)
    reports = verify.run_all(50, 1)
    assert [report.suite for report in reports] == list(verify.SUITES)
    failing = {
        report.suite: {f["identity"] for f in report.failures}
        for report in reports
        if not report.ok
    }
    assert failing == dict.fromkeys(["exact-seq", "iso-a", "dual-deriv"], {"raised"})
    code = main(["verify", "--suite", "all", "--trials", "50", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == [line for r in reports for line in r.lines()]
    assert captured.err == ""
