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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .diffop import DiffOp, nested_values
from .errors import (
    MAX_DET_SIZE,
    ArityMismatch,
    AsymmetricGamma,
    ChartMismatch,
    InvariantViolation,
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
    Var,
    VarKind,
    add_into,
    dual_var,
    fiber_kind,
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
        and kept for the multivector's lifetime, the only evaluation cache:
        words share their prefixes' nested commutators, and a repeated word
        costs only dictionary lookups.
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
    fk = fiber_kind(p1.space)
    terms = {}
    for a, b, sign in ((p1, p2, 1), (p2, p1, -1)):
        for (ia, ba), ca in a.terms.items():
            for (ib, bb), cb in b.terms.items():
                for z, mult in ia.multiplicities().items():
                    key = (ia.remove(z).concat(ib), ba.concat(bb))
                    dz = cb.partial(Var(VarKind.BASE, z))
                    add_into(terms, key, (ca * dz).scale(sign * mult))
                for z, mult in ba.multiplicities().items():
                    key = (ia.concat(ib), ba.remove(z).concat(bb))
                    dz = cb.partial(Var(fk, z))
                    add_into(terms, key, (ca * dz).scale(sign * mult))
    return SymMultivector(p1.chart, p1.space, q, terms)


def sym_product(p1: SymMultivector, p2: SymMultivector) -> SymMultivector:
    """Symmetric product: c1 c2 at key J1 + J2 for every pair of terms."""
    if p1.chart != p2.chart:
        raise ChartMismatch("product operands on different charts")
    if p1.space != p2.space:
        raise SpaceMismatch("product operands on different spaces")
    terms = {}
    for (i1, b1), c1 in p1.terms.items():
        for (i2, b2), c2 in p2.terms.items():
            add_into(terms, (i1.concat(i2), b1.concat(b2)), c1 * c2)
    return SymMultivector(p1.chart, p1.space, p1.q + p2.q, terms)


def fwl_check_multivector(p: SymMultivector) -> bool:
    """True iff every term has weight 1-q (fiber degree of coeff minus |B|)."""
    if p.space is not Space.E:
        raise SpaceMismatch("FWL classification lives on space E")
    return all(
        deg - len(mi_f) == 1 - p.q
        for (mi_b, mi_f), coeff in p.terms.items()
        for deg in coeff.fiber_degree_decompose()
    )


def is_core_multivector(p: SymMultivector) -> bool:
    """True iff every term is pure-fiber with base-only coefficient."""
    return p.to_operator().is_core_sum()


# ---------------------------------------------------------------------------
# Sections of the bundle and of its dual, in the coordinate frames.
# ---------------------------------------------------------------------------


class SectionRole(Enum):
    OF_E = "OfE"
    OF_ESTAR = "OfEstar"


@dataclass(frozen=True)
class Section:
    """Tuple of base-only component polynomials in the coordinate frame."""

    role: SectionRole
    chart: Chart
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.chart.fiber_rank:
            raise RankMismatch("section needs one component per fiber dimension")
        for comp in self.components:
            if not comp.is_base_only():
                raise SpaceMismatch("section components must be base-only")

    @classmethod
    def basis(cls, chart: Chart, role: SectionRole, alpha: int) -> "Section":
        comps = tuple(
            Poly.const(chart, Space.E, 1 if a == alpha else 0)
            for a in range(1, chart.fiber_rank + 1)
        )
        return cls(role, chart, comps)

    def ell(self) -> Poly:
        """The induced fiber-linear function (on E for dual sections, on
        the dual space for sections of E)."""
        if self.role is SectionRole.OF_ESTAR:
            space, kind = Space.E, VarKind.FIBER
        else:
            space, kind = Space.ESTAR, VarKind.DUAL_FIBER
        out = Poly.zero(self.chart, space)
        for a, comp in enumerate(self.components, start=1):
            out = out + comp.with_space(space) * Poly.var(
                self.chart, space, Var(kind, a)
            )
        return out

    def vertical_lift(self) -> DiffOp:
        """Vertical lift of a section of E, as a first order operator."""
        if self.role is not SectionRole.OF_E:
            raise SpaceMismatch("vertical lifts exist for sections of E only")
        terms = {}
        for a, comp in enumerate(self.components, start=1):
            if not comp.is_zero():
                terms[(EMPTY_MI, MultiIndex([a]))] = comp.with_space(Space.E)
        return DiffOp(self.chart, Space.E, terms)

    def scale(self, f: Poly) -> "Section":
        return Section(
            self.role, self.chart, tuple(f * c for c in self.components)
        )

    def __add__(self, other: "Section") -> "Section":
        if self.role is not other.role:
            raise SpaceMismatch("cannot add sections of different bundles")
        return Section(
            self.role,
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )


def pairing(phi: Section, e: Section) -> Poly:
    """Duality pairing of a dual section with a section, a base function."""
    if phi.role is not SectionRole.OF_ESTAR or e.role is not SectionRole.OF_E:
        raise SpaceMismatch("pairing takes a dual section and a section")
    out = Poly.zero(phi.chart, Space.E)
    for pa, ea in zip(phi.components, e.components):
        out = out + pa * ea
    return out


# ---------------------------------------------------------------------------
# Multiderivation pair (D_P, l_P) of a FWL multivector.
# ---------------------------------------------------------------------------


def multiderivation_D(p: SymMultivector, *phis: Section) -> Section:
    """D with ell(D(phi_1, ..., phi_q)) = P(ell(phi_1), ..., ell(phi_q))."""
    _require_fwl(p)
    if len(phis) != p.q:
        raise ArityMismatch(f"expected {p.q} sections, got {len(phis)}")
    value = p.eval(*(phi.ell() for phi in phis))
    if set(value.fiber_degree_decompose()) - {1}:
        raise InvariantViolation(
            "evaluation on fiber-linear functions is not fiber-linear"
        )
    comps = tuple(
        value.partial(Var(VarKind.FIBER, a))
        for a in range(1, p.chart.fiber_rank + 1)
    )
    return Section(SectionRole.OF_ESTAR, p.chart, comps)


def multiderivation_l(p: SymMultivector, *args) -> Poly:
    """Symbol part: value on q-1 dual sections and one base function."""
    _require_fwl(p)
    return _multiderivation_l(p, *args)


def _require_fwl(p: SymMultivector):
    if not fwl_check_multivector(p):
        raise NotFWL("multiderivation pair needs a FWL multivector")


def _multiderivation_l(p: SymMultivector, *args) -> Poly:
    """multiderivation_l for a p already known to be FWL."""
    *phis, f = args
    if len(phis) != p.q - 1:
        raise ArityMismatch(f"expected {p.q - 1} sections, got {len(phis)}")
    if not f.is_base_only():
        raise SpaceMismatch("the function argument must be fiber-independent")
    value = p.eval(*(phi.ell() for phi in phis), f.with_space(Space.E))
    if not value.is_base_only():
        raise InvariantViolation("symbol value is not a base function")
    return value


def _dual_monomial(chart: Chart, mi: MultiIndex) -> Poly:
    """The dual-space monomial v_mi (1 for the empty multi-index)."""
    mono = tuple((dual_var(a), e) for a, e in mi.multiplicities().items())
    return Poly(chart, Space.ESTAR, {mono: 1})


def core_to_dualpoly(p: SymMultivector) -> Poly:
    """Core multivector as a polynomial on the dual space: table transcription.
    Reads only `.chart` and `.terms`, so a sum of core operators works too."""
    out = Poly.zero(p.chart, Space.ESTAR)
    for (mi_b, mi_f), coeff in p.terms.items():
        if len(mi_b) != 0 or not coeff.is_base_only():
            raise NotCore("table has a non-core term")
        out = out + coeff.with_space(Space.ESTAR) * _dual_monomial(p.chart, mi_f)
    return out


def hamiltonian_field(p: SymMultivector) -> DiffOp:
    """Derivation {P, -} of the core algebra, as a vector field on the dual
    space: a first-order operator on `Space.ESTAR` with no order-0 term.

    Mixed terms coeff(x) dx^i du^A give coeff * v_A d/dx^i; pure-fiber terms
    with fiber-linear coefficient sum_a c_a(x) u^a du^B give -c_a * v_B d/dv_a.
    Homogeneous of weight q-1.
    """
    if not fwl_check_multivector(p):
        raise NotFWL("hamiltonian fields are attached to FWL multivectors")
    chart = p.chart
    terms = {}
    for (mi_b, mi_f), coeff in p.terms.items():
        v_mono = _dual_monomial(chart, mi_f)
        if len(mi_b) == 1:
            add_into(terms, (mi_b, EMPTY_MI), coeff.with_space(Space.ESTAR) * v_mono)
        elif len(mi_b) == 0:
            for a in range(1, chart.fiber_rank + 1):
                c_a = coeff.partial(Var(VarKind.FIBER, a))
                if not c_a.is_zero():
                    piece = -c_a.with_space(Space.ESTAR) * v_mono
                    add_into(terms, (EMPTY_MI, MultiIndex([a])), piece)
        else:
            raise NotFWL("FWL tables cannot carry two base derivatives")
    return DiffOp._raw(chart, Space.ESTAR, terms)


# ---------------------------------------------------------------------------
# Laplacian of the fiber-wise linear metric built from a connection table.
# ---------------------------------------------------------------------------


def _det(matrix):
    """Exact determinant by cofactor expansion over nonzero entries only.

    Each minor expands along its row with the fewest nonzero entries, so a
    matrix with one nonzero permutation, such as the split metric, costs
    one product per row.
    """
    size = len(matrix)
    refuse_over(f"the determinant size {size}", size, MAX_DET_SIZE)
    chart, space = matrix[0][0].chart, matrix[0][0].space

    def minor(rows, cols):
        if not rows:
            return Poly.const(chart, space, 1)
        nonzero = [
            [k for k, col in enumerate(cols) if not matrix[row][col].is_zero()]
            for row in rows
        ]
        i = min(range(len(rows)), key=lambda r: len(nonzero[r]))
        rest = rows[:i] + rows[i + 1 :]
        out = Poly.zero(chart, space)
        for k in nonzero[i]:
            term = matrix[rows[i]][cols[k]] * minor(rest, cols[:k] + cols[k + 1 :])
            out = out - term if (i + k) % 2 else out + term
        return out

    return minor(tuple(range(size)), tuple(range(size)))


def fwl_metric_laplacian(chart: Chart, gamma) -> DiffOp:
    """Laplace-Beltrami operator of the fiber-wise linear split metric.

    `gamma` maps (k, i, j) to base-only polynomials, symmetric in (i, j);
    missing entries are zero.  With the convention a(.)b = a(x)b + b(x)a the
    metric matrix in the (x, u) coordinates is [[-2*Gamma.u, I], [I, 0]];
    its determinant is checked to be (-1)^n, the blockwise polynomial
    inverse [[0, I], [I, 2*Gamma.u]] is verified by multiplying out its
    nonzero entry pairs, and the constant-determinant Laplacian

        sum g^{mu nu} d_mu d_nu + sum (d_mu g^{mu nu}) d_nu

    is assembled and checked to be FWL of order 2.
    """
    n = chart.base_dim
    if chart.fiber_rank != n:
        raise RankMismatch("the fiber-wise linear metric needs fiber rank = base dim")
    # The same cap as _det's, checked before the 2n x 2n metric is built.
    refuse_over(f"the determinant size {2 * n}", 2 * n, MAX_DET_SIZE)
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

    one = Poly.const(chart, Space.E, 1)
    size = 2 * n
    g = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(1, n + 1):
                coeff = table.get((k, i + 1, j + 1))
                if coeff is not None:
                    acc = acc + coeff * Poly.var(chart, Space.E, Var(VarKind.FIBER, k))
            g[i][j] = acc.scale(-2)
        g[i][n + i] = one
        g[n + i][i] = one

    det = _det(g)
    if det != Poly.const(chart, Space.E, (-1) ** n):
        raise InvariantViolation(f"det(g) = {det!r}, not (-1)^{n}")

    ginv = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(n):
        ginv[i][n + i] = one
        ginv[n + i][i] = one
        for j in range(n):
            ginv[n + i][n + j] = -g[i][j]
    for row in range(size):
        for col in range(size):
            entry = sum(
                (
                    g[row][k] * ginv[k][col]
                    for k in range(size)
                    if not (g[row][k].is_zero() or ginv[k][col].is_zero())
                ),
                start=zero,
            )
            expected = one if row == col else zero
            if entry != expected:
                raise InvariantViolation("blockwise inverse failed verification")

    def coord(mu: int) -> Var:
        if mu < n:
            return Var(VarKind.BASE, mu + 1)
        return Var(VarKind.FIBER, mu - n + 1)

    def key_for(variables) -> tuple:
        mi_b = MultiIndex([v.index for v in variables if v.kind is VarKind.BASE])
        mi_f = MultiIndex([v.index for v in variables if v.kind is VarKind.FIBER])
        return (mi_b, mi_f)

    terms = {}
    for mu in range(size):
        for nu in range(size):
            add_into(terms, key_for((coord(mu), coord(nu))), ginv[mu][nu])
            add_into(terms, key_for((coord(nu),)), ginv[mu][nu].partial(coord(mu)))

    result = DiffOp(chart, Space.E, terms)
    if not result.is_fwl(2):
        raise InvariantViolation("metric Laplacian failed the FWL postcondition")
    return result

