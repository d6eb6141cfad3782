"""Command-line front end.

Each subcommand reads operator or derivation documents (JSON), runs one
library construction, and prints a canonical document on standard output.
Exit codes: 0 success, 1 domain error or a request over a size cap,
2 verification failure or disagreeing paths of `a_iso`, 3 parse, document
or usage error.  Every nonzero exit prints one `ErrorType: message` line on
standard error; `-h`/`--help` prints help and exits 0.

The argument parser is built on the first `main` call and reused by every
later call in the process; `parse_args` returns a fresh namespace each time.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .diffop import (
    DiffOp,
    _is_int,
    _require_keys,
    chart_from_doc,
    diffop_dumps,
    diffop_from_doc,
    diffop_to_doc,
    dumps_json,
    loads_json,
)
from .errors import (
    DocumentError,
    FwlopError,
    InvariantViolation,
    SpaceMismatch,
    UsageError,
)
from .lbundle import (
    a_inverse,
    a_iso,
    lderivation_from_doc,
    lderivation_to_doc,
)
from .linearize import linearize_do
from .multivec import (
    SymMultivector,
    check_laplacian_chart,
    fwl_metric_laplacian,
    poisson,
)
from .randgen import Bounds
from .symcore import Space, parse_poly, poly_to_str
from .verify import SUITES, run_all, run_suite


def _load_json(path: str):
    """The JSON document at path, read as UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loads_json(handle, path)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _load_op(path: str, space: str | None = None) -> DiffOp:
    op = diffop_from_doc(_load_json(path))
    if space is not None and op.space is not Space.from_name(space):
        raise SpaceMismatch(
            f"document lives on {op.space.value}, --space asked for {space}"
        )
    return op


def _load_multivector(path: str) -> SymMultivector:
    op = _load_op(path)
    order = op.order()
    if order is None:
        raise DocumentError("multivector commands need a nonzero homogeneous table")
    return SymMultivector(op.chart, op.space, order, dict(op.terms))


def _print_op(op: DiffOp):
    print(diffop_dumps(op))


def cmd_eval(args) -> int:
    op = _load_op(args.operator, args.space)
    f = parse_poly(args.fn, op.chart, op.space)
    print(poly_to_str(op.apply(f)))
    return 0


def cmd_compose(args) -> int:
    op1, op2 = _load_op(args.left), _load_op(args.right)
    _print_op(op1.compose(op2))
    return 0


def cmd_bracket(args) -> int:
    op1, op2 = _load_op(args.left), _load_op(args.right)
    _print_op(op1.commutator(op2))
    return 0


def cmd_grade(args) -> int:
    op = _load_op(args.operator, args.space)
    doc = {
        str(weight): diffop_to_doc(part)
        for weight, part in op.grade_decompose().items()
    }
    print(dumps_json(doc))
    return 0


def cmd_classify(args) -> int:
    op = _load_op(args.operator, args.space)
    q = args.order
    if op.is_core(q):
        print(f"core(q={q}), weight={-q}")
    elif op.is_fwl(q):
        print(f"FWL(q={q}), weight={1 - q}")
    else:
        weights = sorted(op.grade_decompose())
        print(f"not FWL at q={q}; weights={weights}")
    return 0


def cmd_symbol(args) -> int:
    op = _load_op(args.operator, args.space)
    _print_op(op.symbol().to_operator())
    return 0


def cmd_poisson(args) -> int:
    p1, p2 = _load_multivector(args.left), _load_multivector(args.right)
    _print_op(poisson(p1, p2).to_operator())
    return 0


def cmd_a_iso(args) -> int:
    """a-iso prints the derivation document; ad prints its field part only."""
    op = _load_op(args.operator)
    doc = lderivation_to_doc(a_iso(op, args.order))
    if args.command == "ad":
        del doc["mult"]
    print(dumps_json(doc))
    return 0


def cmd_a_inv(args) -> int:
    deriv = lderivation_from_doc(_load_json(args.derivation))
    _print_op(a_inverse(deriv, args.order))
    return 0


def cmd_linearize(args) -> int:
    op = _load_op(args.operator, args.space)
    _print_op(linearize_do(op, args.order))
    return 0


def cmd_laplacian(args) -> int:
    doc = _load_json(args.gamma)
    _require_keys(doc, ("chart", "gamma"), "gamma document")
    chart = chart_from_doc(doc["chart"])
    check_laplacian_chart(chart)
    if not isinstance(doc["gamma"], list):
        raise DocumentError("gamma must be a list of entries")
    table = {}
    for entry in doc["gamma"]:
        _require_keys(entry, ("k", "i", "j", "coeff"), "gamma entry")
        index = (entry["k"], entry["i"], entry["j"])
        if not all(_is_int(i) for i in index):
            raise DocumentError("gamma indices k, i, j must be integers")
        if not isinstance(entry["coeff"], str):
            raise DocumentError("coeff must be a polynomial string")
        # Repeated entries add up.  A zero sum stays in the table, so that
        # its index is still checked.
        coeff = parse_poly(entry["coeff"], chart, Space.E)
        table[index] = table[index] + coeff if index in table else coeff
    _print_op(fwl_metric_laplacian(chart, table))
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise DocumentError(f"--trials must be a positive integer, got {args.trials}")
    bounds = Bounds() if args.bounds is None else Bounds.parse(args.bounds)
    if args.suite == "all":
        reports = run_all(args.trials, args.seed, bounds)
    else:
        reports = [run_suite(args.suite, args.trials, args.seed, bounds)]
    for report in reports:
        for line in report.lines():
            print(line)
    if args.stats:
        executed = {report.suite: report.executed for report in reports}
        vacuous = {report.suite: report.vacuous for report in reports}
        print(dumps_json({"executed": executed, "vacuous": vacuous}), file=sys.stderr)
    return 0 if all(report.ok for report in reports) else 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise UsageError instead of
    exiting; its subparsers inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fwlop",
        description="Exact calculus for fiber-wise polynomial differential operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def op_command(name, fn, help_text, order=False, space=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("operator", help="operator document (JSON file)")
        if order:
            p.add_argument("--order", type=int, required=True)
        if space:
            p.add_argument(
                "--space",
                choices=["E", "Estar", "Ambient"],
                help="reject the document unless it lives on this space",
            )
        p.set_defaults(handler=fn)
        return p

    p = op_command("eval", cmd_eval, "apply an operator to a polynomial", space=True)
    p.add_argument("--fn", required=True, help="polynomial in the input grammar")

    for name, fn, help_text in [
        ("compose", cmd_compose, "compose two operators (left after right)"),
        ("bracket", cmd_bracket, "commutator of two operators"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(handler=fn)

    op_command(
        "grade", cmd_grade, "split an operator into weight-homogeneous parts", space=True
    )
    op_command(
        "classify",
        cmd_classify,
        "core/FWL classification at an order",
        order=True,
        space=True,
    )
    op_command("symbol", cmd_symbol, "top-order table of an operator", space=True)
    op_command("ad", cmd_a_iso, "adjoint vector field on the dual space", order=True)

    p = sub.add_parser("poisson", help="bracket of two symmetric multivectors")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=cmd_poisson)

    op_command("a-iso", cmd_a_iso, "operator to line-bundle derivation", order=True)

    p = sub.add_parser("a-inv", help="line-bundle derivation to operator")
    p.add_argument("derivation", help="derivation document (JSON file)")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=cmd_a_inv)

    op_command(
        "linearize",
        cmd_linearize,
        "linearize an ambient operator",
        order=True,
        space=True,
    )

    p = sub.add_parser("laplacian", help="Laplacian of the fiber-wise linear metric")
    p.add_argument("gamma", help="connection document (JSON file)")
    p.set_defaults(handler=cmd_laplacian)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bounds", help="n,m,q bounds triple, e.g. 2,2,3")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print each identity's executed and vacuous (zero-operand) counts "
        "as one JSON object on stderr",
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except InvariantViolation as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DocumentError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except FwlopError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
