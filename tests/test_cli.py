"""Command-line interface: documents in, documents out, exit codes."""

import json
import random
import sys
import time

import pytest

from fwlop import cli, verify
from fwlop.cli import main
from fwlop.diffop import DiffOp, diffop_dumps, diffop_loads, diffop_to_doc, dumps_json
from fwlop.errors import MAX_LAPLACIAN_DIM, MAX_SUB_MULTISETS, DocumentError, UnknownSuite
from fwlop.lbundle import LPair, a_inverse, a_iso, lderivation_to_doc
from fwlop.multivec import SymMultivector
from fwlop.randgen import Bounds, rand_fwl_op, rand_homogeneous_lderivation
from fwlop.symcore import EMPTY_MI, Chart, Poly, Space

OP_FWL2 = {
    "chart": {"base_dim": 1, "fiber_rank": 1},
    "space": "E",
    "terms": [
        {"coeff": "1", "dx": [], "du": [1]},
        {"coeff": "u1", "dx": [], "du": [1, 1]},
    ],
}

OP_CORE2 = {
    "chart": {"base_dim": 1, "fiber_rank": 1},
    "space": "E",
    "terms": [{"coeff": "1", "dx": [], "du": [1, 1]}],
}


@pytest.fixture
def op_file(tmp_path):
    def write(doc, name="op.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_fwl(op_file, capsys):
    code, out, _ = run(capsys, "classify", "--order", "2", op_file(OP_FWL2))
    assert code == 0
    assert out.strip() == "FWL(q=2), weight=-1"


def test_classify_core(op_file, capsys):
    code, out, _ = run(capsys, "classify", "--order", "2", op_file(OP_CORE2))
    assert code == 0
    assert out.strip() == "core(q=2), weight=-2"


def test_classify_neither(op_file, capsys):
    doc = {
        "chart": {"base_dim": 1, "fiber_rank": 1},
        "space": "E",
        "terms": [{"coeff": "u1^2", "dx": [], "du": [1]}],
    }
    code, out, _ = run(capsys, "classify", "--order", "2", op_file(doc))
    assert code == 0
    assert out.startswith("not FWL at q=2")


def test_eval(op_file, capsys):
    code, out, _ = run(capsys, "eval", op_file(OP_CORE2), "--fn", "u1^3")
    assert code == 0
    assert out.strip() == "6*u1"


def test_a_iso_document(op_file, capsys):
    code, out, _ = run(capsys, "a-iso", "--order", "2", op_file(OP_FWL2))
    assert code == 0
    doc = json.loads(out)
    assert doc["field"]["dv"] == ["-v1^2"]
    assert doc["mult"] == "-v1"


def test_a_iso_inverse_round_trip(op_file, capsys, tmp_path):
    code, out, _ = run(capsys, "a-iso", "--order", "2", op_file(OP_FWL2))
    deriv = tmp_path / "deriv.json"
    deriv.write_text(out)
    code, out, _ = run(capsys, "a-inv", "--order", "2", str(deriv))
    assert code == 0
    assert json.loads(out) == OP_FWL2


def test_compose_and_bracket(op_file, capsys):
    left = op_file(OP_CORE2, "l.json")
    right = op_file(OP_FWL2, "r.json")
    code, out, _ = run(capsys, "compose", left, right)
    assert code == 0
    json.loads(out)
    code, out, _ = run(capsys, "bracket", left, right)
    assert code == 0
    json.loads(out)


def test_grade_and_symbol(op_file, capsys):
    code, out, _ = run(capsys, "grade", op_file(OP_FWL2))
    assert code == 0
    assert set(json.loads(out)) == {"-1"}
    code, out, _ = run(capsys, "symbol", op_file(OP_FWL2))
    assert json.loads(out)["terms"] == [{"coeff": "u1", "dx": [], "du": [1, 1]}]


def test_ad(op_file, capsys):
    code, out, _ = run(capsys, "ad", "--order", "2", op_file(OP_FWL2))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"chart", "field"}
    assert doc["field"]["dv"] == ["-v1^2"]


def test_poisson_command(op_file, capsys):
    code, out, _ = run(
        capsys, "poisson", op_file(OP_CORE2, "a.json"), op_file(OP_CORE2, "b.json")
    )
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_linearize_command(op_file, capsys):
    doc = {
        "chart": {"base_dim": 1, "fiber_rank": 1},
        "space": "Ambient",
        "terms": [
            {"coeff": "u1", "dx": [], "du": [1, 1]},
            {"coeff": "u1^2", "dx": [1], "du": []},
        ],
    }
    code, out, _ = run(capsys, "linearize", "--order", "2", op_file(doc))
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": "u1", "dx": [], "du": [1, 1]}]


def test_laplacian_command(op_file, capsys, tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(
        json.dumps({"chart": {"base_dim": 1, "fiber_rank": 1}, "gamma": []})
    )
    code, out, _ = run(capsys, "laplacian", str(gamma))
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": "2", "dx": [1], "du": [1]}]


def test_verify_ok_and_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--suite", "laplacian", "--trials", "3", "--seed", "9")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--suite", "laplacian", "--trials", "3", "--seed", "9")
    assert out1 == out2
    assert "failures: 0" in out1


def test_verify_stats_count_every_identity_and_leave_stdout_alone(capsys):
    argv = ["verify", "--suite", "all", "--trials", "2", "--seed", "1"]
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, *argv, "--stats")
    assert (code, out) == (0, plain)
    assert err.count("\n") == 1
    stats = json.loads(err)
    executed = stats["executed"]
    assert list(executed) == list(cli.SUITES)
    assert {suite: list(counts) for suite, counts in stats["vacuous"].items()} == {
        suite: list(counts) for suite, counts in executed.items()
    }
    assert all(counts and min(counts.values()) >= 1 for counts in executed.values())
    assert executed["recovery"]["coefficient-recovery"] == 2
    assert sum(len(counts) for counts in executed.values()) >= 60


def test_verify_stats_count_failing_checks(capsys, monkeypatch):
    monkeypatch.setattr(cli.DiffOp, "recover_coefficients", lambda self: {"wrong": 1})
    code, out, err = run(
        capsys, "verify", "--suite", "recovery", "--trials", "3", "--seed", "1", "--stats"
    )
    assert code == 2 and "failures: 3" in out
    assert json.loads(err)["executed"]["recovery"]["coefficient-recovery"] == 3


def test_verify_stats_count_checks_with_a_zero_operand(capsys, monkeypatch):
    # a check is vacuous when one of its documented operands is zero, and a
    # pair only when both of its parts are; other operands never count
    chart = Chart(1, 1)
    one = Poly.const(chart, Space.E, 1)
    order_zero = SymMultivector(chart, Space.E, 0, {(EMPTY_MI, EMPTY_MI): one})
    zero_p = SymMultivector.zero(chart, Space.E, 1)

    def hand_made(s, rng, bounds):
        s.check("nonzero", True, op=DiffOp.identity(chart, Space.E), f=one)
        s.check("zero-op", True, op=DiffOp.zero(chart, Space.E), f=one)
        s.check("zero-poly", False, f=Poly.zero(chart, Space.E))
        s.check("zero-multivector", True, p=zero_p, q=1)
        s.check("half-zero-pair", True, pair=LPair(zero_p, order_zero))
        s.check("zero-pair", True, pair=LPair(zero_p, order_zero.scale(0)))
        s.check("no-operand", True, chart=str(chart))

    monkeypatch.setitem(verify.SUITES, "recovery", hand_made)
    code, out, err = run(
        capsys, "verify", "--suite", "recovery", "--trials", "2", "--seed", "1", "--stats"
    )
    assert code == 2 and "failures: 2" in out
    stats = json.loads(err)
    assert stats["executed"]["recovery"] == dict.fromkeys(
        ["nonzero", "zero-op", "zero-poly", "zero-multivector", "half-zero-pair",
         "zero-pair", "no-operand"], 2
    )
    assert stats["vacuous"]["recovery"] == {
        "nonzero": 0, "zero-op": 2, "zero-poly": 2, "zero-multivector": 2,
        "half-zero-pair": 0, "zero-pair": 2, "no-operand": 0,
    }


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 3
    assert out == ""
    assert err.startswith("UsageError: fwlop verify: argument --suite: invalid choice: 'bogus'")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "x.json"], "fwlop classify: the following arguments are required: --order"),
        (["classify", "--order", "x", "x.json"], "fwlop classify: argument --order: invalid int value: 'x'"),
        (["frobnicate", "x.json"], "fwlop: argument command: invalid choice: 'frobnicate'"),
        (["grade", "x.json", "--bogus"], "fwlop: unrecognized arguments: --bogus"),
        (["compose", "x.json"], "fwlop compose: the following arguments are required: right"),
        ([], "fwlop: the following arguments are required: command"),
    ],
    ids=["missing-order", "non-integer-order", "unknown-command", "unknown-flag",
         "missing-positional", "no-command"],
)
def test_usage_errors_exit_3_with_one_typed_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"UsageError: {message}")
    assert err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0
    assert "--order" in capsys.readouterr().out


DERIVATION = {
    "chart": {"base_dim": 1, "fiber_rank": 1},
    "field": {"dx": ["x1*v1"], "dv": ["-v1^2"]},
    "mult": "-v1",
}
GAMMA = {"chart": {"base_dim": 1, "fiber_rank": 1}, "gamma": [{"k": 1, "i": 1, "j": 1, "coeff": "x1"}]}
AMBIENT = {
    "chart": {"base_dim": 1, "fiber_rank": 1},
    "space": "Ambient",
    "terms": [{"coeff": "u1", "dx": [], "du": [1, 1]}],
}


def test_parser_is_built_once_across_calls(op_file, capsys, monkeypatch):
    """One parser build serves 20 calls over every subcommand, usage
    errors included: no call constructs a parser again.  The parser may
    already exist from an earlier test, so at most one build is seen."""
    built = []
    construct = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    fwl, core = op_file(OP_FWL2, "fwl.json"), op_file(OP_CORE2, "core.json")
    deriv, gamma = op_file(DERIVATION, "d.json"), op_file(GAMMA, "g.json")
    ambient = op_file(AMBIENT, "amb.json")
    calls = [
        ["eval", core, "--fn", "u1^3"],
        ["compose", core, fwl],
        ["bracket", core, fwl],
        ["grade", fwl],
        ["classify", "--order", "2", fwl],
        ["symbol", fwl],
        ["ad", "--order", "2", fwl],
        ["poisson", core, core],
        ["a-iso", "--order", "2", fwl],
        ["a-inv", "--order", "2", deriv],
        ["linearize", "--order", "2", ambient],
        ["laplacian", gamma],
        ["verify", "--suite", "laplacian", "--trials", "1"],
        ["classify", fwl],
        ["frobnicate"],
        ["eval", core, "--fn", "u1", "--space", "E"],
        ["a-iso", "--order", "1", core],
        ["grade", "--space", "Estar", core],
        ["symbol", fwl, "--bogus"],
        ["classify", "--order", "2", core],
    ]
    codes = [main(argv) for argv in calls]
    capsys.readouterr()
    assert codes == [0] * 13 + [3, 3, 0, 1, 1, 3, 0]
    assert built.count("fwlop") <= 1
    assert len(built) == len(set(built))


def test_reused_parser_carries_no_state(op_file, capsys):
    estar = dict(OP_CORE2, space="Estar", terms=[{"coeff": "1", "dx": [], "du": [1]}])
    code, out, _ = run(capsys, "eval", op_file(OP_CORE2, "e.json"), "--fn", "u1^3", "--space", "E")
    assert (code, out) == (0, "6*u1\n")
    code, out, err = run(capsys, "eval", op_file(estar, "s.json"), "--fn", "v1^2")
    assert (code, out, err) == (0, "2*v1\n", "")
    code, out, _ = run(capsys, "a-iso", "--order", "2", op_file(OP_FWL2))
    assert code == 0
    assert "mult" in json.loads(out)
    code, out, _ = run(capsys, "ad", "--order", "2", op_file(OP_FWL2))
    assert code == 0
    assert set(json.loads(out)) == {"chart", "field"}


def test_domain_error_exit_code(op_file, capsys):
    # a-iso of a non-FWL operator is a domain error
    doc = {
        "chart": {"base_dim": 1, "fiber_rank": 1},
        "space": "E",
        "terms": [{"coeff": "u1^2", "dx": [], "du": [1]}],
    }
    code, _, err = run(capsys, "a-iso", "--order", "1", op_file(doc))
    assert code == 1
    assert "NotFWL" in err


def test_parse_error_exit_code(op_file, capsys):
    code, _, err = run(capsys, "eval", op_file(OP_CORE2), "--fn", "u1^0")
    assert code == 3
    assert "PolySyntaxError" in err


def _one_error_line(err, name):
    return err.startswith(f"{name}: ") and err.count("\n") == 1 and err.endswith("\n")


def test_non_decimal_digits_are_parse_errors(op_file, capsys):
    # '²' passes str.isdigit but not int(); it once escaped as a ValueError
    code, out, err = run(capsys, "eval", op_file(OP_CORE2), "--fn=x1^²")
    assert (code, out) == (3, "")
    assert _one_error_line(err, "PolySyntaxError")
    doc = dict(OP_CORE2, terms=[{"coeff": "²", "dx": [], "du": [1, 1]}])
    code, out, err = run(capsys, "symbol", op_file(doc))
    assert (code, out) == (3, "")
    assert _one_error_line(err, "PolySyntaxError")


def test_integers_past_the_conversion_limit_are_refused(op_file, capsys):
    code, out, err = run(capsys, "eval", op_file(OP_CORE2), "--fn", "7" * 5000)
    assert (code, out) == (1, "")
    assert _one_error_line(err, "RequestTooLarge")
    # each coefficient parses and prints; their 6000-digit product does not
    doc = dict(OP_CORE2, terms=[{"coeff": "9" * 3000, "dx": [], "du": []}])
    left, right = op_file(doc, "a.json"), op_file(doc, "b.json")
    code, out, err = run(capsys, "compose", left, right)
    assert (code, out) == (1, "")
    assert _one_error_line(err, "RequestTooLarge")


def test_document_error_exit_code(op_file, capsys):
    doc = dict(OP_CORE2)
    doc["junk"] = 1
    code, _, err = run(capsys, "classify", "--order", "2", op_file(doc))
    assert code == 3
    assert "DocumentError" in err


def test_nonhomogeneous_multivector_rejected(op_file, capsys):
    code, _, err = run(
        capsys, "poisson", op_file(OP_FWL2, "a.json"), op_file(OP_CORE2, "b.json")
    )
    assert code == 1
    assert "ArityMismatch" in err


def test_output_documents_reload(op_file, capsys):
    # every printed operator document round-trips through the loader
    code, out, _ = run(capsys, "compose", op_file(OP_FWL2, "a.json"), op_file(OP_FWL2, "b.json"))
    from fwlop.diffop import diffop_from_doc

    reloaded = diffop_from_doc(json.loads(out))
    assert json.loads(out) == json.loads(out)
    assert reloaded.order() == 4


def _gamma_doc(gamma):
    return {"chart": {"base_dim": 1, "fiber_rank": 1}, "gamma": gamma}


@pytest.mark.parametrize(
    "gamma",
    [
        [{"k": 1, "i": 1, "j": 1, "coeff": 5}],
        [{"k": 1, "i": 1, "j": 1, "coeff": None}],
        [{"k": "1", "i": 1, "j": 1, "coeff": "x1"}],
        [{"k": 1, "i": 1.0, "j": 1, "coeff": "x1"}],
        [{"k": 1, "i": 1, "j": True, "coeff": "x1"}],
        [{"k": 1, "i": 1, "j": [1], "coeff": "x1"}],
        {"k": 1, "i": 1, "j": 1, "coeff": "x1"},
        "x1",
        7,
    ],
    ids=[
        "int-coeff", "null-coeff", "str-k", "float-i", "bool-j", "list-j",
        "gamma-object", "gamma-string", "gamma-int",
    ],
)
def test_laplacian_wrong_types_are_document_errors(op_file, capsys, gamma):
    code, out, err = run(capsys, "laplacian", op_file(_gamma_doc(gamma)))
    assert code == 3
    assert out == ""
    assert err.startswith("DocumentError: ")


def test_repeated_gamma_entries_add_up(op_file, capsys):
    twice = [{"k": 1, "i": 1, "j": 1, "coeff": c} for c in ("x1", "x1^2")]
    code, summed, _ = run(capsys, "laplacian", op_file(_gamma_doc(twice), "twice.json"))
    once = [{"k": 1, "i": 1, "j": 1, "coeff": "x1 + x1^2"}]
    assert code == 0
    assert run(capsys, "laplacian", op_file(_gamma_doc(once), "once.json")) == (0, summed, "")


@pytest.mark.parametrize("coeffs", [["0"], ["x1", "-x1"]], ids=["zero", "cancelling"])
def test_zero_gamma_entry_out_of_range_is_refused(op_file, capsys, coeffs):
    entries = [{"k": 2, "i": 1, "j": 1, "coeff": c} for c in coeffs]
    code, out, err = run(capsys, "laplacian", op_file(_gamma_doc(entries)))
    assert (code, out) == (1, "")
    assert err == "RankMismatch: connection index (2,1,1) out of range\n"


def _entry(k, i, j, coeff):
    return {"k": k, "i": i, "j": j, "coeff": coeff}


@pytest.mark.parametrize(
    "dims, entries, message",
    [
        ((2, 1), [], "RankMismatch: the fiber-wise linear metric needs fiber rank = base dim"),
        (
            (2, 2),
            [_entry(1, 1, 2, "x1"), _entry(1, 2, 1, "x2")],
            "AsymmetricGamma: Gamma^1_{12} != Gamma^1_{21}",
        ),
        (
            (1, 1),
            [_entry(1, 1, 1, "x1*u1")],
            "SpaceMismatch: connection coefficients must be base-only",
        ),
        (
            (MAX_LAPLACIAN_DIM + 1,) * 2,
            [_entry(MAX_LAPLACIAN_DIM + 2, 1, 1, "x1")],
            f"RequestTooLarge: the Laplacian chart dimension {MAX_LAPLACIAN_DIM + 1} "
            f"exceeds the cap of {MAX_LAPLACIAN_DIM}",
        ),
    ],
    ids=["fiber-rank", "asymmetric", "not-base-only", "over-cap"],
)
def test_laplacian_refusals_exit_1(op_file, capsys, dims, entries, message):
    # An index out of range is test_zero_gamma_entry_out_of_range_is_refused.
    doc = {"chart": {"base_dim": dims[0], "fiber_rank": dims[1]}, "gamma": entries}
    path = op_file(doc)
    start = time.perf_counter()
    code, out, err = run(capsys, "laplacian", path)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"chart": {"base_dim": 1, "fiber_rank": 1}, "space": "E", "space": "Estar", '
         '"terms": []}', "space"),
        ('{"chart": {"base_dim": 1, "fiber_rank": 1, "base_dim": 2}, "space": "E", '
         '"terms": []}', "base_dim"),
        ('{"chart": {"base_dim": 1, "fiber_rank": 1}, "space": "E", '
         '"terms": [{"coeff": "1", "dx": [], "du": [1], "coeff": "2"}]}', "coeff"),
    ],
    ids=["top-level", "chart", "term"],
)
def test_repeated_json_keys_are_document_errors(tmp_path, capsys, text, key):
    path = tmp_path / "op.json"
    path.write_text(text)
    code, out, err = run(capsys, "symbol", str(path))
    assert (code, out) == (3, "")
    assert err == f"DocumentError: repeated key {key!r} in a JSON object\n"


@pytest.mark.parametrize(
    "chart",
    [
        {"base_dim": True, "fiber_rank": 1},
        {"base_dim": 1, "fiber_rank": False},
    ],
)
def test_boolean_chart_dimensions_rejected(op_file, capsys, chart):
    doc = dict(OP_CORE2, chart=chart)
    code, out, err = run(capsys, "symbol", op_file(doc))
    assert code == 3
    assert out == ""
    assert err.startswith("DocumentError: ")
    code, _, err = run(capsys, "laplacian", op_file(dict(_gamma_doc([]), chart=chart)))
    assert code == 3
    assert err.startswith("DocumentError: ")


@pytest.mark.parametrize("field", ["dx", "du"])
def test_boolean_index_letters_rejected(op_file, capsys, field):
    term = {"coeff": "1", "dx": [], "du": [1]}
    term[field] = [True]
    doc = dict(OP_CORE2, terms=[term])
    code, out, err = run(capsys, "symbol", op_file(doc))
    assert code == 3
    assert out == ""
    assert err.startswith("DocumentError: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--trials", "-5"],
        ["--trials", "0"],
        ["--bounds", "1,1"],
        ["--bounds", "0,0,0"],
        ["--bounds", "2,2,0"],
        ["--bounds", "1,1,1,1"],
        ["--bounds", "1.5,1,1"],
        ["--bounds", "a,b,c"],
        ["--bounds", ""],
    ],
)
def test_verify_bad_arguments_are_document_errors(capsys, argv):
    code, out, err = run(capsys, "verify", "--suite", "recovery", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("DocumentError: ")


def test_verify_accepts_small_bounds(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "recovery", "--trials", "2", "--bounds", "1,1,1"
    )
    assert code == 0
    assert "failures: 0" in out


@pytest.mark.parametrize(
    "suite, message",
    [
        ("dual-deriv", "the determinant size 15 exceeds the cap of 8"),
        (
            "pair-bracket",
            "the table key count C(n+m+q-1, q) at n=1, m=10, q=4 exceeds the cap of 1000",
        ),
    ],
)
def test_verify_refuses_a_trial_over_an_oracle_cap(capsys, suite, message):
    # bounds under the verify cap can still draw an oracle input over its own
    # cap: that refuses the request (exit 1), not a failing identity (exit 2)
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--trials", "2", "--seed", "1",
        "--bounds", "1,20,1",
    )
    assert (code, out) == (1, "")
    assert err == f"RequestTooLarge: {message}\n"


# Inputs the CLI fuzz test found escaping `main` as Python exceptions.


@pytest.mark.parametrize(
    "dv", [[True], [None], [1]], ids=["bool", "null", "int"]
)
def test_derivation_components_must_be_strings(op_file, capsys, dv):
    doc = {
        "chart": {"base_dim": 1, "fiber_rank": 1},
        "field": {"dx": ["x1*v1^2"], "dv": dv},
        "mult": "v1",
    }
    code, out, err = run(capsys, "a-inv", "--order", "1", op_file(doc))
    assert code == 3
    assert out == ""
    assert err.startswith("DocumentError: ")


def test_linearize_at_order_zero(op_file, capsys):
    ambient = {
        "chart": {"base_dim": 2, "fiber_rank": 1},
        "space": "Ambient",
        "terms": [{"coeff": "0*x1^2*u1", "dx": [], "du": []}],
    }
    code, out, _ = run(capsys, "linearize", "--order", "0", op_file(ambient))
    assert code == 0
    assert json.loads(out)["terms"] == []
    ambient["terms"][0]["coeff"] = "x1*u1 + u1^2"
    code, out, _ = run(capsys, "linearize", "--order", "0", op_file(ambient))
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": "x1*u1", "dx": [], "du": []}]


def test_a_inv_at_order_zero_inverts_a_iso(op_file, capsys):
    op = {
        "chart": {"base_dim": 1, "fiber_rank": 1},
        "space": "E",
        "terms": [{"coeff": "-x1*u1", "dx": [], "du": []}],
    }
    code, out, _ = run(capsys, "a-iso", "--order", "0", op_file(op, "op.json"))
    assert code == 0
    assert json.loads(out)["field"] == {"dx": ["0"], "dv": ["x1"]}
    code, out, _ = run(capsys, "a-inv", "--order", "0", op_file(json.loads(out), "d.json"))
    assert code == 0
    assert json.loads(out) == op


# Order 6 on fiber rank 5 has C(9, 5) = 126 basis multi-indices, over the
# basis cap of 100 that these commands once had; none of them walks the
# basis now.
CHART_1_5 = {"base_dim": 1, "fiber_rank": 5}


def test_linearize_past_the_basis_cap(op_file, capsys):
    ambient = {
        "chart": CHART_1_5,
        "space": "Ambient",
        "terms": [
            {"coeff": "u1", "dx": [], "du": [1, 1, 1, 1, 1, 1]},
            {"coeff": "x1 + u2", "dx": [], "du": [1, 2, 3, 4, 5]},
        ],
    }
    code, out, err = run(capsys, "linearize", "--order", "6", op_file(ambient))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "chart": CHART_1_5,
        "space": "E",
        "terms": [
            {"coeff": "x1", "dx": [], "du": [1, 2, 3, 4, 5]},
            {"coeff": "u1", "dx": [], "du": [1, 1, 1, 1, 1, 1]},
        ],
    }


def test_a_inv_past_the_basis_cap(op_file, capsys):
    d = rand_homogeneous_lderivation(random.Random(15), Chart(1, 5), Bounds(), 5)
    code, out, err = run(capsys, "a-inv", "--order", "6", op_file(lderivation_to_doc(d)))
    assert (code, err) == (0, "")
    assert out == diffop_dumps(a_inverse(d, 6)) + "\n"
    assert any(len(term["du"]) == 5 for term in json.loads(out)["terms"])


@pytest.mark.parametrize("command", ["a-iso", "ad"])
def test_a_iso_past_the_basis_cap(op_file, capsys, command):
    # C(44, 5), about 1.1M basis words C at m = 40, q = 6; the bundle-map
    # path walks only the live ones
    op = rand_fwl_op(random.Random(12), Chart(1, 40), Bounds(), 6)
    code, out, err = run(capsys, command, "--order", "6", op_file(diffop_to_doc(op)))
    assert (code, err) == (0, "")
    doc = lderivation_to_doc(a_iso(op, 6))
    assert doc["mult"] != "0"
    if command == "ad":
        del doc["mult"]
    assert out == dumps_json(doc) + "\n"


ZERO_DERIVATION = {
    "chart": {"base_dim": 1, "fiber_rank": 1},
    "field": {"dx": ["0"], "dv": ["0"]},
    "mult": "0",
}
ZERO_OP = {"chart": {"base_dim": 1, "fiber_rank": 1}, "space": "E", "terms": []}


@pytest.mark.parametrize(
    "command, doc",
    [("a-inv", ZERO_DERIVATION), ("a-iso", ZERO_OP), ("ad", ZERO_OP)],
    ids=["a-inv", "a-iso", "ad"],
)
def test_negative_order_is_refused(op_file, capsys, command, doc):
    code, out, err = run(capsys, command, "--order", "-1", op_file(doc))
    assert code == 1
    assert out == ""
    assert err == "ArityMismatch: order must be >= 0, got -1\n"


# `json.load` raises a bare ValueError for an integer past Python's
# 4300-digit int/str conversion limit, UnicodeDecodeError for bytes that are
# not UTF-8 and RecursionError for deep nesting; each once escaped `main`.
@pytest.mark.parametrize(
    "raw, code, error",
    [
        (
            json.dumps(OP_CORE2).replace('"base_dim": 1', '"base_dim": 1' + "0" * 4999),
            1,
            "RequestTooLarge",
        ),
        ("[" * 100000 + "]" * 100000, 1, "RequestTooLarge"),
        (b"\xff\xfe{}", 3, "DocumentError"),
    ],
    ids=["integer-past-the-conversion-limit", "nested-too-deeply", "not-utf8"],
)
def test_json_load_errors_are_typed(tmp_path, capsys, raw, code, error):
    path = tmp_path / "doc.json"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode("utf-8"))
    code_got, out, err = run(capsys, "symbol", str(path))
    assert (code_got, out) == (code, "")
    assert _one_error_line(err, error)


# The same three texts read by the one JSON reader, given as files: the
# error line names the file.
@pytest.mark.parametrize(
    "raw, code, line",
    [
        (
            "1" * 5000,
            1,
            "RequestTooLarge: an integer in {path} is over Python's limit of "
            f"{sys.get_int_max_str_digits()} digits",
        ),
        ("[" * 100000 + "]" * 100000, 1, "RequestTooLarge: {path} is nested too deeply to read"),
        (
            b"\x80{}",
            3,
            "DocumentError: invalid JSON in {path}: 'utf-8' codec can't decode byte "
            "0x80 in position 0: invalid start byte",
        ),
    ],
    ids=["integer-past-the-conversion-limit", "nested-too-deeply", "not-utf8"],
)
def test_json_read_errors_name_the_file(tmp_path, capsys, raw, code, line):
    path = tmp_path / "doc.json"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode("utf-8"))
    for argv in (["compose", str(path), str(path)], ["laplacian", str(path)]):
        assert run(capsys, *argv) == (code, "", line.format(path=path) + "\n")


def test_document_bytes_mean_utf8_on_both_routes(tmp_path, capsys):
    # A UTF-16 document (with its byte-order mark 0xff 0xfe) is refused by
    # the library reader as by the CLI, and UTF-8 bytes read as the text.
    text = json.dumps(OP_CORE2)
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    with pytest.raises(DocumentError) as info:
        diffop_loads(text.encode("utf-16"))
    assert str(info.value) == f"invalid JSON in the document: {reason}"
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-16"))
    assert run(capsys, "symbol", str(path)) == (
        3,
        "",
        f"DocumentError: invalid JSON in {path}: {reason}\n",
    )
    assert diffop_loads(text.encode("utf-8")) == diffop_loads(text)


def test_laplacian_checks_the_chart_before_reading_gamma(op_file, capsys):
    # The one entry is not a polynomial, but the chart is refused first.
    n = MAX_LAPLACIAN_DIM + 1
    doc = {"chart": {"base_dim": n, "fiber_rank": n}, "gamma": [_entry(1, 1, 1, "x1 +")]}
    assert run(capsys, "laplacian", op_file(doc)) == (
        1,
        "",
        f"RequestTooLarge: the Laplacian chart dimension {n} exceeds the cap of "
        f"{MAX_LAPLACIAN_DIM}\n",
    )
    doc["chart"] = {"base_dim": 2, "fiber_rank": 1}
    assert run(capsys, "laplacian", op_file(doc)) == (
        1,
        "",
        "RankMismatch: the fiber-wise linear metric needs fiber rank = base dim\n",
    )


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            dict(_gamma_doc([]), note=1),
            "gamma document must have exactly the keys ['chart', 'gamma'], "
            "got ['chart', 'gamma', 'note']",
        ),
        ([], "gamma document must be a JSON object"),
        (
            _gamma_doc([{"k": 1, "i": 1, "j": 1}]),
            "gamma entry must have exactly the keys ['coeff', 'i', 'j', 'k'], "
            "got ['i', 'j', 'k']",
        ),
        (_gamma_doc([[1, 1, 1, "x1"]]), "gamma entry must be a JSON object"),
    ],
    ids=["document-key", "document-not-object", "entry-key", "entry-not-object"],
)
def test_laplacian_shape_refusals(op_file, capsys, doc, message):
    assert run(capsys, "laplacian", op_file(doc)) == (3, "", f"DocumentError: {message}\n")


def _one_key_op(n, m, dx, du, coeff="1"):
    chart = {"base_dim": n, "fiber_rank": m}
    return {"chart": chart, "space": "E", "terms": [{"coeff": coeff, "dx": dx, "du": du}]}


@pytest.mark.parametrize(
    "dims, dx, du, message",
    [
        (
            (20, 1),
            list(range(1, 21)),
            [],
            "the letter count 1048576 x 20 of a key part's sub-multisets",
        ),
        ((1, 1), [1] * 4000, [], "the letter count 4001 x 4000 of a key part's sub-multisets"),
        (
            (16, 16),
            list(range(1, 17)),
            list(range(1, 17)),
            "the pair count 65536 x 65536 of a key's base and fiber sub-multisets",
        ),
    ],
    ids=["20-distinct-letters", "one-letter-4000-times", "16-by-16-pairs"],
)
def test_leibniz_pass_over_the_cap_is_refused_up_front(op_file, capsys, dims, dx, du, message):
    big = op_file(_one_key_op(*dims, dx, du), "big.json")
    x1 = op_file(_one_key_op(*dims, [], [], "x1"), "x1.json")
    start = time.perf_counter()
    got = run(capsys, "compose", big, x1)
    assert time.perf_counter() - start < 0.5
    line = f"RequestTooLarge: {message} exceeds the cap of {MAX_SUB_MULTISETS}\n"
    assert got == (1, "", line)


def test_unreadable_document_is_a_document_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "compose", "missing.json", "x.json")
    assert (code, out) == (3, "")
    assert err == (
        "DocumentError: cannot read missing.json: "
        "[Errno 2] No such file or directory: 'missing.json'\n"
    )


@pytest.mark.parametrize(
    "field, value, line",
    [
        ("space", "F", "SpaceMismatch: unknown space 'F'\n"),
        ("chart", {"base_dim": 0, "fiber_rank": 1}, "ChartMismatch: chart dimensions must be >= 1\n"),
    ],
    ids=["unknown-space", "chart-dimension-zero"],
)
def test_space_and_chart_refusals_exit_1(op_file, capsys, field, value, line):
    assert run(capsys, "symbol", op_file(dict(OP_CORE2, **{field: value}))) == (1, "", line)


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(UnknownSuite) as info:
        verify.run_suite("bogus", 1, 0)
    assert str(info.value) == (
        "unknown suite 'bogus'; pick one of ['dual-deriv', 'exact-seq', 'iso-a', "
        "'laplacian', 'lin-do', 'lin-fn', 'lin-mv', 'pair-bracket', 'recovery', "
        "'stabilizer', 'symbol-bracket', 'zero-section'] or 'all'"
    )
