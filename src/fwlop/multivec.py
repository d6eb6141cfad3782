"""Symmetric multivectors as homogeneous top-order operator tables.

A symmetric q-multivector is stored as an operator table all of whose keys
have total length exactly q.  Its evaluation on q functions is defined by
nested commutators,

    P(f1, ..., fq) = [...[op_P, f1], ..., fq](1),

which makes the top table of an order-q operator literally its symbol and
the coefficient recovery formula the single extraction oracle: for a pure
top table, evaluating on the coordinate functions of a multi-index J and
dividing by J! returns the stored coefficient.

The Poisson bracket and the symmetric product are read off the tables and
never form an operator commutator, so the bracket's compatibility with the
commutator is a genuine cross-check.  Their defining unshuffle sums over
evaluations are the oracles of the `verify` suites.

A section has no type of its own: a section of E* is its fiber-linear
function on E, and a section of E is one on the dual space.  So the
multiderivation pair (D_P, l_P) of a FWL multivector is its evaluation on
such functions, with one base function in the last slot of l_P.
"""

from __future__ import annotations

from .diffop import DiffOp, _sum_pieces, nested_values
from .errors import (
    MAX_LAPLACIAN_DIM,
    ArityMismatch,
    AsymmetricGamma,
    ChartMismatch,
    NotCore,
    NotFWL,
    RankMismatch,
    SpaceMismatch,
    refuse_over,
)
from .symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    VarKind,
    _sum_products,
    _term_partial,
    add_into,
)


class SymMultivector:
    """Homogeneous order-q coefficient table with commutator evaluation."""

    __slots__ = ("chart", "space", "q", "terms", "_op", "_values")

    def __init__(self, chart: Chart, space: Space, q: int, terms=None):
        if q < 0:
            raise ArityMismatch("multivector order must be >= 0")
        op = DiffOp(chart, space, terms or {})
        for mi_b, mi_f in op.terms:
            if len(mi_b) + len(mi_f) != q:
                raise ArityMismatch(
                    f"table key of length {len(mi_b) + len(mi_f)} in an order-{q} multivector"
                )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", op.terms)
        object.__setattr__(self, "_op", op)
        object.__setattr__(self, "_values", None)

    def __setattr__(self, *a):
        raise AttributeError("SymMultivector is immutable")

    @classmethod
    def _unchecked(cls, chart, space, q, terms):
        """Bypass validation for a canonical order-q table (internal): no
        zero coefficient, every key of length q, indices in range."""
        self = object.__new__(cls)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_op", DiffOp._raw(chart, space, terms))
        object.__setattr__(self, "_values", None)
        return self

    @classmethod
    def zero(cls, chart, space, q):
        return cls(chart, space, q, {})

    def to_operator(self) -> DiffOp:
        return self._op

    def __eq__(self, other):
        return (
            isinstance(other, SymMultivector)
            and self.q == other.q
            and self._op == other._op
        )

    def __hash__(self):
        return hash((self.q, self._op))

    def __repr__(self):
        return f"SymMultivector(q={self.q}, {self._op!r})"

    def __add__(self, other):
        if self.q != other.q:
            raise ArityMismatch("can only add multivectors of equal order")
        out = self._op + other._op
        return SymMultivector(self.chart, self.space, self.q, out.terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "SymMultivector":
        return SymMultivector(self.chart, self.space, self.q, self._op.scale(c).terms)

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, *args: Poly) -> Poly:
        """Nested-commutator evaluation on exactly q functions.

        Symmetric in the arguments, so they are sorted by `Poly.sort_key`,
        which builds no Fraction and does not depend on `hash()`.  The
        sorted word walks one `nested_values` map, made on the first call
        and kept for the multivector's lifetime: words share their
        prefixes' nested commutators, and a repeated word costs only the
        sort and dictionary lookups.  It is the library's only evaluation
        cache; the one other, the `verify` oracles' memo of whole
        evaluations, lives for a single oracle call.
        """
        if len(args) != self.q:
            raise ArityMismatch(f"expected {self.q} arguments, got {len(args)}")
        value = self._values
        if value is None:
            value = nested_values(self._op)
            object.__setattr__(self, "_values", value)
        return value(sorted(args, key=Poly.sort_key))


def poisson(p1: SymMultivector, p2: SymMultivector) -> SymMultivector:
    """Gerstenhaber-type bracket, read off the tables J -> c_J, J = (I, B).

    Adds J1[z] c1 d_z c2 at key J1 - z + J2 for every pair of terms and every
    letter z of J1 (x letters and the fiber letters of the space), minus the
    same sum with p1 and p2 swapped.  It forms no operator commutator, so its
    compatibility with the commutator is a cross-check of two code paths.
    """
    if p1.chart != p2.chart:
        raise ChartMismatch("poisson operands on different charts")
    if p1.space != p2.space:
        raise SpaceMismatch("poisson operands on different spaces")
    q = p1.q + p2.q - 1
    if q < 0:
        return SymMultivector.zero(p1.chart, p1.space, 0)
    return _summed(p1, q, _poisson_pieces(p1, p2, 1, {}))


def _poisson_pieces(p1, p2, sign: int, pieces: dict) -> dict:
    """Collect the summands of sign * {p1, p2} by key into pieces, for
    operands already checked compatible; returns pieces.  A summand
    J1[z] c1 d_z c2 is the product (integer factor, c1's terms, c1's
    denominator, d_z c2 as a term list, c2's denominator) of the summation
    kernel `symcore._sum_products`, and each d_z c2 is one `_term_partial`
    per (term of the second operand, letter z) per call."""
    n = p1.chart.base_dim
    for a, b, s in ((p1, p2, sign), (p2, p1, -sign)):
        # (J2, c2's terms, c2's denominator, {slot of z: d_z c2})
        b_terms = [(j2, c2.terms.items(), c2.den, {}) for j2, c2 in b.terms.items()]
        for (ia, ba), ca in a.terms.items():
            ca_terms, ca_den = ca.terms.items(), ca.den
            # (slot of z, factor, J1 - z) for the x letters, then the fiber ones
            shifts = [
                (z - 1, s * mult, (ia.remove(z), ba))
                for z, mult in ia.multiplicities().items()
            ]
            shifts += [
                (n + z - 1, s * mult, (ia, ba.remove(z)))
                for z, mult in ba.multiplicities().items()
            ]
            for (ib, bb), cb_terms, cb_den, partials in b_terms:
                for slot, k, (ra, rb) in shifts:
                    dz = partials.get(slot)
                    if dz is None:
                        dz = partials[slot] = _term_partial(cb_terms, ((slot, 1),))
                    if dz:
                        key = (ra.concat(ib), rb.concat(bb))
                        pieces.setdefault(key, []).append((k, ca_terms, ca_den, dz, cb_den))
    return pieces


def sym_product(p1: SymMultivector, p2: SymMultivector) -> SymMultivector:
    """Symmetric product: c1 c2 at key J1 + J2 for every pair of terms."""
    if p1.chart != p2.chart:
        raise ChartMismatch("product operands on different charts")
    if p1.space != p2.space:
        raise SpaceMismatch("product operands on different spaces")
    return _summed(p1, p1.q + p2.q, _product_pieces(p1, p2, {}))


def _product_pieces(p1, p2, pieces: dict) -> dict:
    """Collect the summands c1 c2 of p1 p2 by key into pieces, each the
    product (1, c1's terms, c1's denominator, c2's terms, c2's
    denominator) of `symcore._sum_products`, for operands already checked
    compatible; returns pieces."""
    b_terms = [(j2, c2.terms.items(), c2.den) for j2, c2 in p2.terms.items()]
    for (i1, b1), c1 in p1.terms.items():
        c1_terms, c1_den = c1.terms.items(), c1.den
        for (i2, b2), c2_terms, c2_den in b_terms:
            key = (i1.concat(i2), b1.concat(b2))
            pieces.setdefault(key, []).append((1, c1_terms, c1_den, c2_terms, c2_den))
    return pieces


def _summed(like: SymMultivector, q: int, pieces: dict) -> SymMultivector:
    """The order-q multivector on like's chart and space whose coefficients
    are the sums of pieces, one `symcore._sum_products` per key: reduced
    and canonical, so it is not re-validated."""
    terms = _sum_pieces(like.chart, like.space, pieces, _sum_products)
    return SymMultivector._unchecked(like.chart, like.space, q, terms)


def fwl_check_multivector(p: SymMultivector) -> bool:
    """True iff every term has weight 1-q (fiber degree of coeff minus |B|):
    the FWL test of the order-q table."""
    return p.to_operator().is_fwl(p.q)


def is_core_multivector(p: SymMultivector) -> bool:
    """True iff every term is pure-fiber with base-only coefficient."""
    return p.to_operator().is_core_sum()


# ---------------------------------------------------------------------------
# Multiderivation pair (D_P, l_P) of a FWL multivector.  A section of E* is
# its fiber-linear function on E, so both are evaluations of P.
# ---------------------------------------------------------------------------


def multiderivation_D(p: SymMultivector, *ells: Poly) -> Poly:
    """D_P(phi_1, ..., phi_q) = P(ell_1, ..., ell_q) for q sections of E*
    given as their fiber-linear functions on E; fiber-linear again, and
    `multiderivation_l`'s value is base-only, which verify's
    `multiderivation-classes` checks."""
    _require_fwl(p)
    if len(ells) != p.q:
        raise ArityMismatch(f"expected {p.q} sections, got {len(ells)}")
    _require_sections(ells)
    return p.eval(*ells)


def multiderivation_l(p: SymMultivector, *args: Poly) -> Poly:
    """Symbol part: l_P(phi_1, ..., phi_{q-1}, f) = P(ell_1, ..., f) for
    q-1 sections of E* as in `multiderivation_D` and one base function."""
    _require_fwl(p)
    if len(args) != p.q:
        raise ArityMismatch(f"expected {p.q - 1} sections and a function")
    *ells, f = args
    _require_sections(ells)
    if not f.is_base_only():
        raise SpaceMismatch("the function argument must be fiber-independent")
    return p.eval(*ells, f.with_space(Space.E))


def _require_fwl(p: SymMultivector):
    if not fwl_check_multivector(p):
        raise NotFWL("multiderivation pair needs a FWL multivector")


def _require_sections(ells):
    for ell in ells:
        if ell.space is not Space.E or not _is_fiber_linear(ell):
            raise SpaceMismatch(
                "a section of the dual bundle is a fiber-linear function on E"
            )


def _is_fiber_linear(p: Poly) -> bool:
    """Zero, or homogeneous of fiber degree 1."""
    return p.is_zero() or p.fiber_degree() == 1


def core_to_dualpoly(p: SymMultivector) -> Poly:
    """Core multivector as a polynomial on the dual space: table transcription.
    Reads only `.chart` and `.terms`, so a sum of core operators works too."""
    parts = []
    for (mi_b, mi_f), coeff in p.terms.items():
        if len(mi_b) != 0 or not coeff.is_base_only():
            raise NotCore("table has a non-core term")
        parts.append((1, coeff, mi_f))
    return Poly.from_fiber_parts(p.chart, Space.ESTAR, parts)


def hamiltonian_field(p: SymMultivector) -> DiffOp:
    """Derivation {P, -} of the core algebra, as a vector field on the dual
    space: a first-order operator on `Space.ESTAR` with no order-0 term.

    Mixed terms coeff(x) dx^i du^A give coeff * v_A d/dx^i; pure-fiber terms
    with fiber-linear coefficient sum_a c_a(x) u^a du^B give -c_a * v_B d/dv_a.
    Homogeneous of weight q-1.
    """
    if not fwl_check_multivector(p):
        raise NotFWL("hamiltonian fields are attached to FWL multivectors")
    return _hamiltonian_field(p)


def _hamiltonian_field(p: SymMultivector) -> DiffOp:
    """`hamiltonian_field` of a table its caller has already checked FWL."""
    chart = p.chart
    parts = {}
    for (mi_b, mi_f), coeff in p.terms.items():
        # A FWL key has |I| <= 1: weight 1-q at |I| >= 2 needs a negative
        # fiber degree.
        if mi_b:
            parts.setdefault((mi_b, EMPTY_MI), []).append((1, coeff, mi_f))
        else:
            # The coefficient is fiber-linear, sum_a c_a u^a: d/du^a is its
            # part at (a,).
            for mi_a, c_a in coeff.fiber_parts(Space.E).items():
                parts.setdefault((EMPTY_MI, mi_a), []).append((-1, c_a, mi_f))
    terms = _sum_pieces(chart, Space.ESTAR, parts, Poly.from_fiber_parts)
    return DiffOp._raw(chart, Space.ESTAR, terms)


# ---------------------------------------------------------------------------
# Laplacian of the fiber-wise linear metric built from a connection table.
# ---------------------------------------------------------------------------


def check_laplacian_chart(chart: Chart):
    """RankMismatch unless the chart is (n, n), RequestTooLarge when n is
    over MAX_LAPLACIAN_DIM."""
    n = chart.base_dim
    if chart.fiber_rank != n:
        raise RankMismatch("the fiber-wise linear metric needs fiber rank = base dim")
    refuse_over(f"the Laplacian chart dimension {n}", n, MAX_LAPLACIAN_DIM)


def fwl_metric_laplacian(chart: Chart, gamma) -> DiffOp:
    """Laplace-Beltrami operator of the fiber-wise linear split metric.

    `gamma` maps (k, i, j) to base-only polynomials, symmetric in (i, j);
    missing entries are zero.  With the convention a(.)b = a(x)b + b(x)a the
    metric in the (x, u) coordinates is g = [[A, I], [I, 0]], A = -2*Gamma.u,
    and g^-1 = [[0, I], [I, B]] with B = -A, since g g^-1 = [[I, A + B],
    [0, I]].  The constant-determinant Laplacian
    sum g^{mu nu} d_mu d_nu + sum (d_mu g^{mu nu}) d_nu is then

        2 sum_i d_xi d_ui + sum_ij B_ij d_ui d_uj + sum_ij (d_ui B_ij) d_uj,

    FWL of order 2.  No determinant is formed.  That the result is FWL and
    that det g = (-1)^n are identities of verify's `laplacian` suite.  The
    chart is checked by `check_laplacian_chart` before Gamma is read.
    """
    check_laplacian_chart(chart)
    n = chart.base_dim
    table = {}
    for (k, i, j), coeff in dict(gamma).items():
        if not (1 <= k <= n and 1 <= i <= n and 1 <= j <= n):
            raise RankMismatch(f"connection index ({k},{i},{j}) out of range")
        if not coeff.is_base_only():
            raise SpaceMismatch("connection coefficients must be base-only")
        if not coeff.is_zero():
            table[(k, i, j)] = coeff.with_space(Space.E)
    zero = Poly.zero(chart, Space.E)
    for (k, i, j), coeff in table.items():
        if table.get((k, j, i), zero) != coeff:
            raise AsymmetricGamma(f"Gamma^{k}_{{{i}{j}}} != Gamma^{k}_{{{j}{i}}}")

    # A and B are symmetric with Gamma: one sum of products per entry of A
    # on and above the diagonal.
    fiber = chart.vars_of(VarKind.FIBER)
    u = [Poly.var(chart, Space.E, v) for v in fiber]
    b = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            products = [
                (-2, table[k, i, j], u[k - 1]) for k in range(1, n + 1) if (k, i, j) in table
            ]
            a_ij = Poly.sum_of_products(chart, Space.E, products)
            b[i, j] = b[j, i] = -a_ij

    two = Poly.const(chart, Space.E, 2)
    terms = {}
    for i in range(1, n + 1):
        mi = MultiIndex([i])
        terms[(mi, mi)] = two
        for j in range(1, n + 1):
            if not b[i, j].terms:
                continue
            if i <= j:
                terms[(EMPTY_MI, MultiIndex([i, j]))] = b[i, j] if i == j else b[i, j].scale(2)
            add_into(terms, (EMPTY_MI, MultiIndex([j])), b[i, j].partial(fiber[i - 1]))
    return DiffOp(chart, Space.E, terms)

