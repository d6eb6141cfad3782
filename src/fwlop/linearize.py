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
values on the transverse coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import DiffOp, nested_values
from .errors import (
    InvariantViolation,
    NotLinearizable,
    OrderExceeded,
    SpaceMismatch,
)
from .lbundle import _check_basis_size
from .multivec import SymMultivector
from .symcore import (
    EMPTY_MI,
    Poly,
    Space,
    Var,
    VarKind,
    add_into,
    all_multi_indices,
)


def linearize_function(f: Poly) -> Poly:
    """First-order transverse part of a function vanishing on {u = 0}."""
    if f.space is not Space.AMBIENT:
        raise SpaceMismatch("function linearization expects ambient data")
    if not f.restrict_fiber_zero().is_zero():
        raise NotLinearizable("function does not vanish on the submanifold")
    parts = [
        (1, f.partial(Var(VarKind.FIBER, a)).restrict_fiber_zero(), (a,))
        for a in range(1, f.chart.fiber_rank + 1)
    ]
    return Poly.from_fiber_parts(f.chart, Space.E, parts)


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
    terms = {}
    for key, coeff in p.terms.items():
        if len(key[0]) == 1:
            terms[key] = coeff.restrict_fiber_zero().with_space(Space.E)
        elif len(key[0]) == 0:
            terms[key] = linearize_function(coeff)
    return SymMultivector(p.chart, Space.E, p.q, terms)


def is_order_q_linearizable(op: DiffOp, q: int) -> bool:
    """Operators of order below q always pass; at order q the level-q
    table must be a linearizable multivector."""
    if op.space is not Space.AMBIENT:
        raise SpaceMismatch("linearizability is asked of ambient operators")
    order = op.order()
    if order is None:
        return True
    if order > q:
        raise OrderExceeded(f"operator has order {order} > {q}")
    if order < q:
        return True
    return is_linearizable_multivector(op.symbol_at(q))


def linearize_do(op: DiffOp, q: int) -> DiffOp:
    """Order-q linearization: FWL operator on the normal bundle.

    The order-q part is the linearized level-q table.  Each order-(q-1)
    pure-fiber coefficient is recovered from the nested commutator with
    the canonical transverse representatives,

        psi_C = [...[op, u_{c_1}], ..., u_{c_{q-1}}](1) restricted to u=0,

    corrected by the same value of the already-built top part and divided
    by C!.  The result is checked to be FWL of order q.
    """
    _check_basis_size(op.chart, q)
    if not is_order_q_linearizable(op, q):
        raise NotLinearizable(f"operator is not order-{q} linearizable")
    chart = op.chart
    p_lin = linearize_multivector(op.symbol_at(q))
    value, value_top = nested_values(op), nested_values(p_lin.to_operator())

    terms = dict(p_lin.terms)
    for c_idx in all_multi_indices(chart.fiber_rank, q - 1):
        reps = [
            Poly.var(chart, Space.AMBIENT, Var(VarKind.FIBER, c)) for c in c_idx
        ]
        psi = value(reps).restrict_fiber_zero()
        lifted = [
            Poly.var(chart, Space.E, Var(VarKind.FIBER, c)) for c in c_idx
        ]
        psi_top = value_top(lifted)
        coeff = (psi.with_space(Space.E) - psi_top).scale(
            Fraction(1, c_idx.factorial())
        )
        add_into(terms, (EMPTY_MI, c_idx), coeff)

    result = DiffOp(chart, Space.E, terms)
    if not result.is_fwl(q):
        raise InvariantViolation("linearization failed the FWL postcondition")
    return result
