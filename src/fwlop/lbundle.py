"""Derivations of bundles as vector fields, and the operator/derivation
bijection.

A derivation of a rank-r bundle E with symbol X and frame matrix A is the
linear vector field X + sum A_ab v_a d/dv_b on the dual total space: a
`DiffOp` on `Space.ESTAR` of weight 0 and order 1 with no order-0 term.
It acts on the sections of E, which are the fiber-linear functions there,
and its commutators are operator commutators.  Its dual is the linear
vector field on E with matrix minus the transpose, and its action on the
top exterior power, f -> X(f) + tr(A) f, is what `a_iso` returns for that
dual at order 1.

A derivation of the pulled-back determinant line bundle over the dual
total space acts in the Vol_u frame as f -> W(f) + c f: a first-order
scalar operator, stored as a `DiffOp` on `Space.ESTAR` of order at most 1.
Its order-1 terms ((i), ()) and ((), (a)) are the vector field W, its
(), () term the multiplication part c, and "homogeneous of degree k" is
weight k (the d/dv coefficients have dual-fiber degree k+1).

The central construction maps a fiber-wise linear operator of order q to
such a derivation: its level-q table gives the vector field.  Per word C
of q-1 fiber letters the nested-commutator value with the fiber
coordinates

    Psi(C) = [...[op, u_c_1], ..., u_c_{q-1}](1)

combined with the trace action of the contracted symbol gives the
multiplication part.  The trace reads its columns P(u_C, u_alpha) as the
values Psi(C + alpha), since q commutators with functions kill the terms
of order below q; the shift by u_alpha takes only the key (∅, (alpha,))
of the nested commutator of C to order 0, so each column is that
coefficient, read off the node with no further shift.  Only the words
whose nested commutator is nonzero are walked (`diffop._live_words`);
the others contribute nothing.  An
independent closed coordinate formula computes the multiplication part
again on every call, and the two are checked equal.  The vector field is
the hamiltonian field of the symbol on both paths, so it is computed once
and not compared.

Rank-1 bundle multivectors are pairs (P, rho) of symmetric multivectors of
orders q and q-1, acting by D(f_1,...,f_{q-1} | g Vol) = (P(f's, g) +
g rho(f's)) Vol; their Poisson-algebra product and bracket are built
componentwise from the table formulas of `poisson` and `sym_product`, the
two summands of rho collected into one table.  The literal unshuffle
formulas on evaluations are the oracles of the `verify` suites.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import (
    _ORDER_ZERO,
    DiffOp,
    _live_words,
    _require_keys,
    _sum_pieces,
    chart_from_doc,
    chart_to_doc,
)
from .errors import (
    ArityMismatch,
    ChartMismatch,
    DocumentError,
    IncompatiblePair,
    InvariantViolation,
    NotFWL,
    NotHomogeneous,
    OrderExceeded,
    SpaceMismatch,
)
from .multivec import (
    SymMultivector,
    _hamiltonian_field,
    _poisson_pieces,
    _product_pieces,
    _summed,
    core_to_dualpoly,
    fwl_check_multivector,
    is_core_multivector,
    poisson,
    sym_product,
)
from .symcore import (
    EMPTY_MI,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    parse_poly,
    poly_to_str,
)


def lderiv_commutator(d1: DiffOp, d2: DiffOp) -> DiffOp:
    """Commutator of two line-bundle derivations, as operators on Estar."""
    return d1.commutator(d2)


# ---------------------------------------------------------------------------
# Rank-1 bundle multivectors as (P, rho) pairs.
# ---------------------------------------------------------------------------


class LPair:
    """Pair of multivectors of orders q and q-1 acting on the line bundle.

    The fiber-wise linear pairs are those with P FWL and rho a core
    (q-1)-multivector; `pair_to_lderivation` maps them to derivations.
    """

    __slots__ = ("p", "rho")

    def __init__(self, p: SymMultivector, rho: SymMultivector):
        if p.chart != rho.chart:
            raise ChartMismatch("pair components on different charts")
        if p.space is not Space.E or rho.space is not Space.E:
            raise SpaceMismatch("pairs live over the total space")
        if rho.q != p.q - 1:
            raise IncompatiblePair("rho must have order q-1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, *a):
        raise AttributeError("LPair is immutable")

    @property
    def chart(self):
        return self.p.chart

    @property
    def q(self):
        return self.p.q

    def __eq__(self, other):
        return isinstance(other, LPair) and self.p == other.p and self.rho == other.rho

    def __repr__(self):
        return f"LPair(P={self.p!r}, rho={self.rho!r})"

    def apply(self, fs, g: Poly) -> Poly:
        """Coefficient of D(f_1, ..., f_{q-1} | g Vol_u)."""
        if len(fs) != self.q - 1:
            raise IncompatiblePair(f"expected {self.q - 1} function slots")
        return self.p.eval(*fs, g) + g * self.rho.eval(*fs)


def pair_bracket(p1: LPair, p2: LPair) -> LPair:
    """Poisson-Lie bracket: ({P1, P2}, {P1, rho2} - {P2, rho1}).  Both
    brackets of rho collect into one table, summed once per key."""
    p = poisson(p1.p, p2.p)
    pieces = _poisson_pieces(p1.p, p2.rho, 1, {})
    _poisson_pieces(p2.p, p1.rho, -1, pieces)
    return LPair(p, _summed(p, p.q - 1, pieces))


def pair_product(p1: LPair, p2: LPair) -> LPair:
    """Associative product: (P1 P2, P1 rho2 + P2 rho1).  Both products of
    rho collect into one table, summed once per key."""
    p = sym_product(p1.p, p2.p)
    pieces = _product_pieces(p1.p, p2.rho, {})
    _product_pieces(p2.p, p1.rho, pieces)
    return LPair(p, _summed(p, p.q - 1, pieces))


def pair_to_lderivation(pair: LPair) -> DiffOp:
    """FWL pair to derivation of the pulled-back line bundle.

    The vector field is the hamiltonian field of P; the multiplication part
    transcribes the core multivector rho as a polynomial on the dual space
    (per basis index C this is the frame value divided by C!).
    """
    if not fwl_check_multivector(pair.p):
        raise IncompatiblePair("pair_to_lderivation needs a FWL multivector part")
    if not is_core_multivector(pair.rho):
        raise IncompatiblePair("pair_to_lderivation needs a core rho part")
    return _hamiltonian_field(pair.p) + DiffOp.mult(core_to_dualpoly(pair.rho))


# ---------------------------------------------------------------------------
# The operator <-> derivation bijection.
# ---------------------------------------------------------------------------


def _contract_trace(node: DiffOp, psi: Poly) -> Poly:
    """Multiplication part of the bundle map at the nested commutator
    `node` of C: `psi`, the value Psi(C), minus the trace of the matrix of
    the derivation P(u_C, -) of the dual bundle.  Minus that trace is the
    multiplication part, in the Vol_u frame, of the derivation's action on
    the determinant line.  At q = 1 that derivation is the linear field
    itself, and for the dual of a frame derivation with matrix A minus the
    trace is tr(A), which the `top-power-trace` identity checks against a
    sum of wedge products.  For `node` the nested commutator of u_C with a
    FWL operator of order q, column alpha, P(u_C, u_alpha), is the value
    of [node, u_alpha], which is node's coefficient at (∅, (alpha,)): the
    shift by u_alpha takes only that key to order 0.  Its diagonal entry
    is d/du_alpha of the column, and psi and the diagonal entries are
    summed in one `Poly.from_fiber_parts`, which refuses psi or a diagonal
    entry that is not base-only."""
    parts = [(1, psi, EMPTY_MI)]
    for alpha in range(1, node.chart.fiber_rank + 1):
        column = node.terms.get((EMPTY_MI, (alpha,)))
        if column is None:
            continue
        parts.append((-1, column.partial(Var(VarKind.FIBER, alpha)), EMPTY_MI))
    return Poly.from_fiber_parts(node.chart, Space.E, parts)


def _a_iso_pair(op: DiffOp, q: int, p: SymMultivector) -> LPair:
    """The pair (level-q symbol, bundle map) of a FWL operator.

    Per word C of q-1 fiber letters the multiplication part of the bundle
    map is the trace action of the contracted symbol plus the
    nested-commutator value Psi(C), the node's order-0 coefficient, since
    d^J 1 = 0 for J != ∅; rho stores it divided by C!.  Both are read off
    the table of the nested commutator of C, which `_live_words` yields,
    over the fiber letters, only when it is nonzero; no bracket is taken
    past it.  `p` is the level-q symbol, which the caller has built from
    an operator it checked FWL.
    """
    chart = op.chart
    letters = [(1, a) for a in range(1, chart.fiber_rank + 1)]
    zero = Poly.zero(chart, Space.E)
    rho_terms = {}
    for word, node in _live_words(op, letters, q - 1):
        if len(word) != q - 1:
            continue
        mult = _contract_trace(node, node.terms.get(_ORDER_ZERO, zero))
        if mult.terms:
            c_idx = MultiIndex._sorted(tuple(a + 1 for a in word))
            rho_terms[(EMPTY_MI, c_idx)] = mult.scale(Fraction(1, c_idx.factorial()))
    rho = SymMultivector._unchecked(chart, Space.E, q - 1, rho_terms)
    return LPair(p, rho)


def _closed_form_mult(op: DiffOp, q: int) -> Poly:
    """Coordinate formula for the multiplication part, read off the table.

    With the order-(q-1) pure-fiber coefficients D^C and the fiber-linear
    top coefficients D^B_b this is

        sum_C [ D^C - sum_b (C[b]+1) D^{C+b}_b ] v_C,

    the second sum being the dual-fiber divergence of the field part.
    """
    parts = []
    for (mi_b, mi_f), coeff in op.terms.items():
        if len(mi_b) != 0:
            continue
        if len(mi_f) == q - 1:
            parts.append((1, coeff, mi_f))
        elif len(mi_f) == q:
            # D^B is fiber-linear: d/du_b of it is its part at (b,).
            fiber = coeff.fiber_parts(Space.E)
            for b, mult in mi_f.multiplicities().items():
                d_b = fiber.get((b,))
                if d_b is not None:
                    parts.append((-mult, d_b, mi_f.remove(b)))
    return Poly.from_fiber_parts(op.chart, Space.ESTAR, parts)


def a_iso(op: DiffOp, q: int) -> DiffOp:
    """FWL operator of order q to a derivation of the pulled-back line.

    The vector field is the hamiltonian field of the level-q symbol, which
    is built once and not checked again: the symbol of an operator that
    passed the FWL test is FWL.  The multiplication part is
    computed by the closed coordinate formula and, for q >= 1, again by the
    bundle-map path (nested commutators plus trace action) on the same
    symbol; the two are checked equal, the one comparison of two answers
    that the library makes.  At q = 0 the closed form is zero and the
    bundle-map sum over |C| = -1 is empty.  The result is homogeneous of
    degree q-1, which verify's `image-homogeneous` checks.  The bundle-map
    path walks only the words C, |C| = q-1, whose nested commutator is
    nonzero, so its work is bounded by the operator's keys, not by the
    C(m+q-2, q-1) basis words.
    """
    if q < 0:
        raise ArityMismatch(f"order must be >= 0, got {q}")
    if op.space is not Space.E:
        raise SpaceMismatch("the operator side lives on the total space")
    if not op.is_fwl(q):
        raise NotFWL(f"operator is not FWL of order {q}")
    p = op.symbol_at(q)
    field = _hamiltonian_field(p)
    mult = _closed_form_mult(op, q)
    if q >= 1 and core_to_dualpoly(_a_iso_pair(op, q, p).rho) != mult:
        raise InvariantViolation(
            "bundle-map path and closed coordinate path disagree"
        )
    return field + DiffOp.mult(mult)


def _require_derivation(d: DiffOp):
    """Refuse an operator that is not a line-bundle derivation: one on the
    dual space of order at most 1."""
    if d.space is not Space.ESTAR:
        raise SpaceMismatch("line-bundle derivations live on the dual space")
    if (d.order() or 0) > 1:
        raise OrderExceeded(f"a derivation has order at most 1, got {d.order()}")


def a_inverse(d: DiffOp, q: int) -> DiffOp:
    """Derivation of degree q-1 back to the FWL operator of order q.

    Reads the mixed top coefficients off the d/dx part, the fiber-linear
    top coefficients off the d/dv part (with a sign), and the order-(q-1)
    pure-fiber coefficients as the multiplication part minus the dual-fiber
    divergence of the field, read off the same d/dv parts: no basis
    multi-index is walked.
    """
    _require_derivation(d)
    if q < 0:
        raise ArityMismatch(f"order must be >= 0, got {q}")
    chart = d.chart
    if not (d.is_zero() or d.weight() == q - 1):
        raise NotHomogeneous(f"derivation is not homogeneous of degree {q - 1}")
    zero = Poly.zero(chart, Space.ESTAR)
    terms = {}
    for i in range(1, chart.base_dim + 1):
        comp = d.terms.get((MultiIndex([i]), EMPTY_MI), zero)
        for mi, base_part in comp.fiber_parts(Space.E).items():
            terms[(MultiIndex([i]), mi)] = base_part

    # Pure-fiber coefficients: a part y of Y_alpha at mi gives -y u_alpha at
    # the top key mi and, when alpha is in mi, its divergence term
    # -mi[alpha] y at mi - alpha; the multiplication part adds its own.
    parts = {}
    for alpha in range(1, chart.fiber_rank + 1):
        comp = d.terms.get((EMPTY_MI, MultiIndex([alpha])), zero)
        for mi, y in comp.fiber_parts(Space.E).items():
            parts.setdefault((EMPTY_MI, mi), []).append((-1, y, (alpha,)))
            if alpha in mi:
                lower = parts.setdefault((EMPTY_MI, mi.remove(alpha)), [])
                lower.append((-mi.count(alpha), y, EMPTY_MI))
    mult = d.terms.get((EMPTY_MI, EMPTY_MI), zero)
    for mi, c in mult.fiber_parts(Space.E).items():
        parts.setdefault((EMPTY_MI, mi), []).append((1, c, EMPTY_MI))

    terms.update(_sum_pieces(chart, Space.E, parts, Poly.from_fiber_parts))
    return DiffOp(chart, Space.E, terms)


# ---------------------------------------------------------------------------
# Derivation document.
# ---------------------------------------------------------------------------


def lderivation_to_doc(d: DiffOp) -> dict:
    """Derivation document: the d/dx and d/dv coefficients and the order-0
    coefficient (the multiplication part) of a derivation."""
    _require_derivation(d)
    zero = Poly.zero(d.chart, Space.ESTAR)

    def coeff(mi_b, mi_f):
        return poly_to_str(d.terms.get((mi_b, mi_f), zero))

    n, m = d.chart.base_dim, d.chart.fiber_rank
    return {
        "chart": chart_to_doc(d.chart),
        "field": {
            "dx": [coeff(MultiIndex([i]), EMPTY_MI) for i in range(1, n + 1)],
            "dv": [coeff(EMPTY_MI, MultiIndex([a])) for a in range(1, m + 1)],
        },
        "mult": coeff(EMPTY_MI, EMPTY_MI),
    }


def lderivation_from_doc(doc) -> DiffOp:
    _require_keys(doc, ("chart", "field", "mult"), "derivation document")
    chart = chart_from_doc(doc["chart"])
    _require_keys(doc["field"], ("dx", "dv"), "field")
    dx, dv = doc["field"]["dx"], doc["field"]["dv"]
    if not isinstance(dx, list) or not isinstance(dv, list):
        raise DocumentError("field components must be lists of polynomials")
    if len(dx) != chart.base_dim or len(dv) != chart.fiber_rank:
        raise DocumentError("field component counts must match the chart")
    if not all(isinstance(s, str) for s in dx + dv):
        raise DocumentError("field components must be polynomial strings")
    terms = {}
    for i, text in enumerate(dx, start=1):
        terms[(MultiIndex([i]), EMPTY_MI)] = parse_poly(text, chart, Space.ESTAR)
    for a, text in enumerate(dv, start=1):
        terms[(EMPTY_MI, MultiIndex([a]))] = parse_poly(text, chart, Space.ESTAR)
    if not isinstance(doc["mult"], str):
        raise DocumentError("mult must be a polynomial string")
    terms[(EMPTY_MI, EMPTY_MI)] = parse_poly(doc["mult"], chart, Space.ESTAR)
    return DiffOp(chart, Space.ESTAR, terms)
