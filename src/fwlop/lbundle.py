"""Derivations of bundles in a frame and the operator/derivation bijection.

A derivation of a rank-r bundle is stored in the coordinate frame as a
vector field on the base plus an r x r matrix; duality sends the matrix to
minus its transpose, and the induced action on the top exterior power is
the trace.

A derivation of the pulled-back determinant line bundle over the dual
total space acts in the Vol_u frame as f -> W(f) + c f: a first-order
scalar operator, stored as a `DiffOp` on `Space.ESTAR` of order at most 1.
Its order-1 terms ((i), ()) and ((), (a)) are the vector field W, its
(), () term the multiplication part c, and "homogeneous of degree k" is
weight k (the d/dv coefficients have dual-fiber degree k+1).

The central construction maps a fiber-wise linear operator of order q to
such a derivation: its level-q table gives the vector field.  Per basis
multi-index C the nested-commutator value with the fiber coordinates

    Psi(C) = [...[op, u_c_1], ..., u_c_{q-1}](1)

combined with the trace action of the contracted symbol gives the
multiplication part.  The trace reads its columns P(u_C, u_alpha) as the
values Psi(C + alpha), since q commutators with functions kill the terms
of order below q, so one `nested_values` table per call serves both and
no section object is built.  An independent closed coordinate formula
computes the multiplication part again on every call, and the two are
checked equal.  The vector field is the hamiltonian field of the symbol on
both paths, so it is computed once and not compared.

Rank-1 bundle multivectors are pairs (P, rho) of symmetric multivectors of
orders q and q-1, acting by D(f_1,...,f_{q-1} | g Vol) = (P(f's, g) +
g rho(f's)) Vol; their Poisson-algebra product and bracket are built
componentwise from `poisson` and `sym_product`.  The literal unshuffle
formulas on evaluations are the oracles of the `verify` suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diffop import DiffOp, nested_values
from .errors import (
    MAX_BASIS_INDICES,
    ArityMismatch,
    ChartMismatch,
    DocumentError,
    IncompatiblePair,
    InvariantViolation,
    NotFWL,
    NotHomogeneous,
    OrderExceeded,
    RankMismatch,
    SpaceMismatch,
    refuse_over,
)
from .multivec import (
    Section,
    SectionRole,
    SymMultivector,
    _dual_monomial,
    _multiderivation_l,
    _require_fwl,
    core_to_dualpoly,
    fwl_check_multivector,
    hamiltonian_field,
    is_core_multivector,
    poisson,
    sym_product,
)
from .symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    add_into,
    all_multi_indices,
    multi_index_count,
    parse_poly,
    poly_to_str,
)


def _base_field_apply(chart: Chart, field, f: Poly) -> Poly:
    """Apply a base vector field (tuple of base-only coefficients) to f."""
    out = Poly.zero(chart, f.space)
    for i, coeff in enumerate(field, start=1):
        out = out + coeff.with_space(f.space) * f.partial(Var(VarKind.BASE, i))
    return out


@dataclass(frozen=True)
class FrameDerivation:
    """Derivation of a rank-r bundle in a fixed frame: symbol + matrix."""

    chart: Chart
    rank: int
    symbol_field: tuple  # base vector field components, length n
    matrix: tuple  # r rows of r base-only polynomials

    def __post_init__(self):
        if len(self.symbol_field) != self.chart.base_dim:
            raise RankMismatch("symbol field needs one component per base dim")
        if len(self.matrix) != self.rank or any(
            len(row) != self.rank for row in self.matrix
        ):
            raise RankMismatch("matrix shape must be rank x rank")
        for p in list(self.symbol_field) + [e for row in self.matrix for e in row]:
            if not p.is_base_only():
                raise SpaceMismatch("frame derivation data must be base-only")

    @classmethod
    def build(cls, chart, rank, symbol_field, matrix):
        return cls(chart, rank, tuple(symbol_field), tuple(tuple(r) for r in matrix))

    def act(self, components) -> tuple:
        """Action on a section given by frame components."""
        if len(components) != self.rank:
            raise RankMismatch("section has the wrong number of components")
        out = []
        for a in range(self.rank):
            val = _base_field_apply(self.chart, self.symbol_field, components[a])
            for b in range(self.rank):
                val = val + self.matrix[a][b].with_space(components[b].space) * components[b]
            out.append(val)
        return tuple(out)

    def dual(self) -> "FrameDerivation":
        """Induced derivation of the dual bundle: same symbol, minus transpose."""
        size = self.rank
        matrix = tuple(
            tuple(-self.matrix[b][a] for b in range(size)) for a in range(size)
        )
        return FrameDerivation(self.chart, size, self.symbol_field, matrix)

    def top_power(self) -> "FrameDerivation":
        """Induced derivation of the top exterior power: matrix becomes trace."""
        trace = self.matrix[0][0]
        for a in range(1, self.rank):
            trace = trace + self.matrix[a][a]
        return FrameDerivation(self.chart, 1, self.symbol_field, ((trace,),))

    def commutator(self, other: "FrameDerivation") -> "FrameDerivation":
        if self.chart != other.chart or self.rank != other.rank:
            raise ChartMismatch("frame derivations are not composable")
        symbol = tuple(
            _base_field_apply(self.chart, self.symbol_field, c2)
            - _base_field_apply(self.chart, other.symbol_field, c1)
            for c1, c2 in zip(self.symbol_field, other.symbol_field)
        )
        size = self.rank
        matrix = []
        for a in range(size):
            row = []
            for b in range(size):
                entry = _base_field_apply(
                    self.chart, self.symbol_field, other.matrix[a][b]
                ) - _base_field_apply(self.chart, other.symbol_field, self.matrix[a][b])
                for k in range(size):
                    entry = entry + self.matrix[a][k] * other.matrix[k][b]
                    entry = entry - other.matrix[a][k] * self.matrix[k][b]
                row.append(entry)
            matrix.append(tuple(row))
        return FrameDerivation(self.chart, size, symbol, tuple(matrix))


def lderiv_commutator(d1: DiffOp, d2: DiffOp) -> DiffOp:
    """Commutator of two line-bundle derivations, as operators on Estar."""
    return d1.commutator(d2)


# ---------------------------------------------------------------------------
# Rank-1 bundle multivectors as (P, rho) pairs.
# ---------------------------------------------------------------------------


class LPair:
    """Pair of multivectors of orders q and q-1 acting on the line bundle.

    The fiber-wise linear pairs are those with P FWL and rho a core
    (q-1)-multivector; for them `phi_table` exposes, per sorted fiber
    multi-index C, the frame data (base vector field from the symbol of P,
    base multiplication part) of the contracted bundle map.
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

    def is_fwl_pair(self) -> bool:
        return fwl_check_multivector(self.p) and is_core_multivector(self.rho)

    @classmethod
    def from_phi_table(cls, p: SymMultivector, phi_table) -> "LPair":
        """Build from frame data {C: (vector field components, mult part)}.

        The vector-field part of each entry must agree with the symbol of P
        contracted with the dual basis sections of C.
        """
        if not fwl_check_multivector(p):
            raise NotFWL("pair needs a FWL multivector part")
        chart = p.chart
        rho_terms = {}
        for c_idx, (field, c_mult) in phi_table.items():
            expected = _symbol_field_on_basis(p, c_idx)
            if tuple(field) != expected:
                raise IncompatiblePair(
                    f"vector field at {c_idx!r} differs from the symbol of P"
                )
            if not c_mult.is_base_only():
                raise IncompatiblePair("multiplication parts must be base-only")
            if not c_mult.is_zero():
                scale = Fraction(1, c_idx.factorial())
                rho_terms[(EMPTY_MI, c_idx)] = c_mult.with_space(Space.E).scale(scale)
        rho = SymMultivector(chart, Space.E, p.q - 1, rho_terms)
        return cls(p, rho)

    @property
    def phi_table(self) -> dict:
        """Frame data per sorted fiber multi-index (FWL pairs only)."""
        if not self.is_fwl_pair():
            raise IncompatiblePair("phi_table exists for FWL pairs only")
        chart = self.chart
        out = {}
        for c_idx in all_multi_indices(chart.fiber_rank, self.q - 1):
            field = _symbol_field_on_basis(self.p, c_idx)
            coeff = self.rho.terms.get((EMPTY_MI, c_idx))
            mult = (
                Poly.zero(chart, Space.E)
                if coeff is None
                else coeff.scale(c_idx.factorial())
            )
            if any(not f.is_zero() for f in field) or not mult.is_zero():
                out[c_idx] = (field, mult)
        return out

    def apply(self, fs, g: Poly) -> Poly:
        """Coefficient of D(f_1, ..., f_{q-1} | g Vol_u)."""
        if len(fs) != self.q - 1:
            raise IncompatiblePair(f"expected {self.q - 1} function slots")
        return self.p.eval(*fs, g) + g * self.rho.eval(*fs)


def _symbol_field_on_basis(p: SymMultivector, c_idx: MultiIndex) -> tuple:
    """l_P contracted with the dual basis sections of C, as components;
    p must already be known to be FWL."""
    chart = p.chart
    phis = [Section.basis(chart, SectionRole.OF_ESTAR, a) for a in c_idx]
    comps = []
    for i in range(1, chart.base_dim + 1):
        xi = Poly.var(chart, Space.E, Var(VarKind.BASE, i))
        comps.append(_multiderivation_l(p, *phis, xi))
    return tuple(comps)


def pair_bracket(p1: LPair, p2: LPair) -> LPair:
    """Poisson-Lie bracket: ({P1, P2}, {P1, rho2} - {P2, rho1})."""
    return LPair(
        poisson(p1.p, p2.p), poisson(p1.p, p2.rho) - poisson(p2.p, p1.rho)
    )


def pair_product(p1: LPair, p2: LPair) -> LPair:
    """Associative product: (P1 P2, P1 rho2 + P2 rho1)."""
    return LPair(
        sym_product(p1.p, p2.p),
        sym_product(p1.p, p2.rho) + sym_product(p2.p, p1.rho),
    )


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
    return hamiltonian_field(pair.p) + DiffOp.mult(core_to_dualpoly(pair.rho))


def lderivation_to_pair(d: DiffOp, q: int) -> LPair:
    """Inverse frame reading: field to (P, trace-corrected rho)."""
    op = a_inverse(d, q)
    return _a_iso_pair(op, q)


# ---------------------------------------------------------------------------
# The operator <-> derivation bijection.
# ---------------------------------------------------------------------------


def psi_values(op: DiffOp, sections) -> Poly:
    """[...[op, l_phi_1], ..., l_phi_{q-1}](1), a base-only polynomial."""
    return _psi(nested_values(op), [phi.ell() for phi in sections])


def _psi(value, word) -> Poly:
    psi = value(word)
    if not psi.is_base_only():
        raise InvariantViolation("nested-commutator value is not base-only")
    return psi


def _contract_trace(value, word, coords) -> Poly:
    """Multiplication part, in the Vol_u frame, of the action on the
    determinant line of the derivation P(u_C, -) of the dual bundle: minus
    the trace of its matrix, as `FrameDerivation.dual().top_power()`
    computes it.  For `value` the nested-commutator map of a FWL operator
    of order q, column alpha is value(u_C + [u_alpha]) = P(u_C, u_alpha)."""
    out = Poly.zero(coords[0].chart, Space.E)
    for alpha, u_alpha in enumerate(coords, start=1):
        column = value(word + [u_alpha])
        if set(column.fiber_degree_decompose()) - {1}:
            raise InvariantViolation(
                "evaluation on fiber-linear functions is not fiber-linear"
            )
        out = out - column.partial(Var(VarKind.FIBER, alpha))
    return out


def _a_iso_pair(op: DiffOp, q: int) -> LPair:
    """The pair (level-q symbol, bundle map) of a FWL operator.

    Per basis multi-index C the multiplication part of the bundle map is
    the trace action of the contracted symbol plus the nested-commutator
    value Psi(C); rho stores it divided by C!.  Both come from one table of
    nested commutators with the fiber coordinates, so the words u_C and
    u_C + [u_alpha] share their prefixes.  P is checked FWL once, here.
    """
    chart = op.chart
    p = op.symbol_at(q)
    _require_fwl(p)
    value = nested_values(op)
    coords = [Poly.var(chart, Space.E, v) for v in chart.vars_of(VarKind.FIBER)]
    rho_terms = {}
    for c_idx in all_multi_indices(chart.fiber_rank, q - 1):
        word = [coords[a - 1] for a in c_idx]
        mult = _contract_trace(value, word, coords) + _psi(value, word)
        rho_terms[(EMPTY_MI, c_idx)] = mult.scale(Fraction(1, c_idx.factorial()))
    return LPair(p, SymMultivector(chart, Space.E, q - 1, rho_terms))


def _closed_form_mult(op: DiffOp, q: int) -> Poly:
    """Coordinate formula for the multiplication part, read off the table.

    With the order-(q-1) pure-fiber coefficients D^C and the fiber-linear
    top coefficients D^B_b this is

        sum_C [ D^C - sum_b (C[b]+1) D^{C+b}_b ] v_C,

    the second sum being the dual-fiber divergence of the field part.
    """
    chart = op.chart
    out = Poly.zero(chart, Space.ESTAR)
    for (mi_b, mi_f), coeff in op.terms.items():
        if len(mi_b) != 0:
            continue
        if len(mi_f) == q - 1:
            out = out + coeff.with_space(Space.ESTAR) * _dual_monomial(chart, mi_f)
        elif len(mi_f) == q:
            for b, mult in mi_f.multiplicities().items():
                d_b = coeff.partial(Var(VarKind.FIBER, b)).with_space(Space.ESTAR)
                out = out - d_b.scale(mult) * _dual_monomial(chart, mi_f.remove(b))
    return out


def _check_order(q: int, chart: Chart):
    if q < 0:
        raise ArityMismatch(f"order must be >= 0, got {q}")
    _check_basis_size(chart, q)


def _check_basis_size(chart: Chart, q: int):
    """Refuse an order whose basis multi-indices C over the fiber rank,
    |C| = q-1, are too many to walk."""
    m = chart.fiber_rank
    refuse_over(
        f"the basis multi-index count C(m+q-2, q-1) at m={m}, q={q}",
        multi_index_count(m, q - 1, MAX_BASIS_INDICES),
        MAX_BASIS_INDICES,
    )


def a_iso(op: DiffOp, q: int) -> DiffOp:
    """FWL operator of order q to a derivation of the pulled-back line.

    The vector field is the hamiltonian field of the level-q symbol,
    computed once.  The multiplication part is computed by the closed
    coordinate formula and, for q >= 1, again by the bundle-map path
    (nested commutators plus trace action); the two are checked equal.  At
    q = 0 the closed form is zero and the bundle-map sum over |C| = -1 is
    empty.  The result is homogeneous of degree q-1.
    """
    _check_order(q, op.chart)
    if op.space is not Space.E:
        raise SpaceMismatch("the operator side lives on the total space")
    if not op.is_fwl(q):
        raise NotFWL(f"operator is not FWL of order {q}")
    field = hamiltonian_field(op.symbol_at(q))
    mult = _closed_form_mult(op, q)
    if q >= 1 and core_to_dualpoly(_a_iso_pair(op, q).rho) != mult:
        raise InvariantViolation(
            "bundle-map path and closed coordinate path disagree"
        )
    result = field + DiffOp.mult(mult)
    if not (result.is_zero() or result.weight() == q - 1):
        raise InvariantViolation("image derivation is not homogeneous of degree q-1")
    return result


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
    pure-fiber coefficients off the multiplication part after adding back
    the dual-fiber divergence of the field.
    """
    _require_derivation(d)
    chart = d.chart
    _check_order(q, chart)
    if not (d.is_zero() or d.weight() == q - 1):
        raise NotHomogeneous(f"derivation is not homogeneous of degree {q - 1}")
    zero = Poly.zero(chart, Space.ESTAR)
    terms = {}
    for i in range(1, chart.base_dim + 1):
        comp = d.terms.get((MultiIndex([i]), EMPTY_MI), zero)
        for mi, base_part in _split_dual(comp).items():
            add_into(terms, (MultiIndex([i]), mi), base_part)

    fiber_coeffs = {}
    for alpha in range(1, chart.fiber_rank + 1):
        comp = d.terms.get((EMPTY_MI, MultiIndex([alpha])), zero)
        for mi, base_part in _split_dual(comp).items():
            coeff = -base_part
            fiber_coeffs[(mi, alpha)] = coeff
            u_alpha = Poly.var(chart, Space.E, Var(VarKind.FIBER, alpha))
            add_into(terms, (EMPTY_MI, mi), coeff * u_alpha)

    mult_parts = _split_dual(d.terms.get((EMPTY_MI, EMPTY_MI), zero))
    for mi in all_multi_indices(chart.fiber_rank, q - 1):
        base_part = mult_parts.get(mi, Poly.zero(chart, Space.E))
        correction = Poly.zero(chart, Space.E)
        for beta in range(1, chart.fiber_rank + 1):
            top = fiber_coeffs.get((mi.concat(MultiIndex([beta])), beta))
            if top is not None:
                correction = correction + top.scale(mi.multiplicity(beta) + 1)
        add_into(terms, (EMPTY_MI, mi), base_part + correction)

    return DiffOp(chart, Space.E, terms)


def _split_dual(p: Poly) -> dict:
    """Split a dual-space polynomial by its v-monomial, keeping x-parts on E."""
    out = {}
    for mono, coeff in p.monomials().items():
        v_letters = []
        x_part = []
        for var, exp in mono:
            if var.kind is VarKind.DUAL_FIBER:
                v_letters.extend([var.index] * exp)
            else:
                x_part.append((var, exp))
        piece = Poly(p.chart, Space.E, {tuple(x_part): coeff})
        add_into(out, MultiIndex(v_letters), piece)
    return out


# ---------------------------------------------------------------------------
# Derivation document.
# ---------------------------------------------------------------------------


def lderivation_to_doc(d: DiffOp) -> dict:
    """Derivation document: the d/dx and d/dv coefficients and the order-0
    coefficient (the multiplication part) of a derivation."""
    from .diffop import chart_to_doc

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
    from .diffop import _require_keys, chart_from_doc

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
