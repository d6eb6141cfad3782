"""Linearization around the submanifold {u = 0} of an ambient chart.

Ambient data lives on the `Ambient` space tag of a chart (n, m): the base
variables are coordinates along the submanifold, the fiber variables are
the transverse coordinates, and the submanifold is their zero locus.  The
normal bundle reuses the same chart with the `E` tag; the fiber coordinate
u_a on E is the linearization of the transverse coordinate u_a itself.

A function vanishing on the submanifold linearizes to its first-order
transverse part.  A symmetric multivector is linearizable when its
pure-fiber top coefficients vanish on the submanifold (the chart form of
membership in the ideal generated by tangent vector fields); its
linearization keeps one-base-derivative terms restricted to u = 0 and
linearizes the pure-fiber coefficients.  An operator of order at most q
linearizes through its level-q table plus the restricted nested-commutator
values on the transverse coordinates,

    psi_C = [...[op, u_{c_1}], ..., u_{c_{q-1}}](1) restricted to u = 0,

which are read off the table: a bracket with a coordinate is the shift
c_J d^J -> mult_z(J) c_J d^(J - z) (`DiffOp._function_bracket`), so q-1
of them leave C! c_{(),C} on the order-0 key.  On the linearized level-q
table, whose keys all have length q, they leave nothing there.
"""

from __future__ import annotations

from .diffop import DiffOp
from .errors import (
    NotLinearizable,
    OrderExceeded,
    SpaceMismatch,
)
from .multivec import SymMultivector
from .symcore import EMPTY_MI, Poly, Space


def linearize_function(f: Poly) -> Poly:
    """First-order transverse part of a function vanishing on {u = 0}."""
    if f.space is not Space.AMBIENT:
        raise SpaceMismatch("function linearization expects ambient data")
    parts = f.fiber_parts()
    if EMPTY_MI in parts:
        raise NotLinearizable("function does not vanish on the submanifold")
    linear = [(1, c, f.den, mi) for mi, c in parts.items() if len(mi) == 1]
    return Poly.from_fiber_parts(f.chart, Space.E, linear)


def is_linearizable_multivector(p: SymMultivector) -> bool:
    """True iff every pure-fiber coefficient vanishes on the submanifold."""
    if p.space is not Space.AMBIENT:
        raise SpaceMismatch("linearizability is asked of ambient multivectors")
    return all(
        len(mi_b) > 0 or coeff.restrict_fiber_zero().is_zero()
        for (mi_b, mi_f), coeff in p.terms.items()
    )


def linearize_multivector(p: SymMultivector) -> SymMultivector:
    """The unique FWL multivector matching p to first transverse order.

    Terms with one base derivative keep their coefficient restricted to
    {u = 0}; pure-fiber terms linearize their coefficient; terms with two
    or more base derivatives drop.
    """
    if not is_linearizable_multivector(p):
        raise NotLinearizable("a pure-fiber top coefficient survives at u = 0")
    return SymMultivector(p.chart, Space.E, p.q, _linearized_terms(p))


def _linearized_terms(p: SymMultivector) -> dict:
    """`linearize_multivector`'s table of a multivector its caller has
    already found linearizable; zero coefficients are left for the
    constructor to drop."""
    terms = {}
    for key, coeff in p.terms.items():
        if len(key[0]) == 1:
            terms[key] = coeff.restrict_fiber_zero().with_space(Space.E)
        elif len(key[0]) == 0:
            terms[key] = linearize_function(coeff)
    return terms


def _checked_order(op: DiffOp, q: int):
    """The order of an ambient operator of order at most q."""
    if op.space is not Space.AMBIENT:
        raise SpaceMismatch("linearizability is asked of ambient operators")
    order = op.order()
    if order is not None and order > q:
        raise OrderExceeded(f"operator has order {order} > {q}")
    return order


def is_order_q_linearizable(op: DiffOp, q: int) -> bool:
    """Operators of order below q always pass; at order q the level-q
    table must be a linearizable multivector."""
    order = _checked_order(op, q)
    return order is None or order < q or is_linearizable_multivector(op.symbol_at(q))


def linearize_do(op: DiffOp, q: int) -> DiffOp:
    """Order-q linearization: FWL operator on the normal bundle.

    The order-q part is the linearized level-q table.  Each order-(q-1)
    pure-fiber coefficient is psi_C / C!, psi_C the nested commutator with
    the canonical transverse representatives,

        psi_C = [...[op, u_{c_1}], ..., u_{c_{q-1}}](1) restricted to u=0.

    Each bracket with u_c shifts the table, c_J d^J -> mult_c(J) c_J
    d^(J - c), so psi_C = C! c_{(),C} restricted to u = 0, and the term is
    that coefficient of op, moved to E.  The definition also subtracts the
    same value of the already-built top part; its keys all have length q,
    q-1 shifts leave none of length 0, and that value is zero.  The result
    is FWL of order q, which verify's `linearization-fwl` checks.
    """
    _checked_order(op, q)
    symbol = op.symbol_at(q)
    if not is_linearizable_multivector(symbol):
        raise NotLinearizable(f"operator is not order-{q} linearizable")
    terms = _linearized_terms(symbol)
    for (mi_b, mi_f), coeff in op.terms.items():
        if not mi_b and len(mi_f) == q - 1:
            terms[mi_b, mi_f] = coeff.restrict_fiber_zero().with_space(Space.E)
    return DiffOp(op.chart, Space.E, terms)
