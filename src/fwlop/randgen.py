"""Bounded random generators for charts, polynomials, operators and pairs.

All generators draw from a caller-supplied random.Random so that every
verification suite is reproducible from its seed.  The default bounds are
desk-scale: charts up to 2x2, orders up to 3, coefficients with numerator
and denominator up to 9, at most 4 terms per polynomial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import MAX_VERIFY_TABLE_KEYS, DocumentError, multi_index_count, refuse_over
from .lbundle import LPair
from .diffop import DiffOp
from .multivec import SymMultivector
from .symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    add_into,
    fiber_kind,
)


@dataclass(frozen=True)
class Bounds:
    n_max: int = 2
    m_max: int = 2
    order_max: int = 3
    coeff_max: int = 9
    terms_max: int = 4
    exp_max: int = 2

    @classmethod
    def parse(cls, text: str) -> "Bounds":
        """Read an "n,m,q" triple of positive integers within the size cap."""
        message = f"bounds must be three positive integers n,m,q, got {text!r}"
        try:
            n, m, q = (int(part) for part in text.split(","))
        except ValueError:
            raise DocumentError(message) from None
        if min(n, m, q) < 1:
            raise DocumentError(message)
        refuse_over(
            f"the table key count C(n+m+q-1, q) at bounds {n},{m},{q}",
            multi_index_count(n + m, q, MAX_VERIFY_TABLE_KEYS),
            MAX_VERIFY_TABLE_KEYS,
        )
        return cls(n_max=n, m_max=m, order_max=q)


def _rand_ratio(rng: random.Random, top: int, nonzero: bool) -> tuple:
    """(numerator, denominator) of a random coefficient, unreduced: the
    numerator within [-top, top], drawn again while zero if `nonzero`,
    then the denominator within [1, top]."""
    # randrange(a, b + 1) is the draw randint(a, b) makes, without its call
    numer = rng.randrange(-top, top + 1)
    while nonzero and numer == 0:
        numer = rng.randrange(-top, top + 1)
    return numer, rng.randrange(1, top + 1)


def rand_fraction(rng: random.Random, bounds: Bounds, nonzero=False) -> Fraction:
    return Fraction(*_rand_ratio(rng, bounds.coeff_max, nonzero))


def rand_chart(rng: random.Random, bounds: Bounds) -> Chart:
    return Chart(rng.randint(1, bounds.n_max), rng.randint(1, bounds.m_max))


def rand_poly(
    rng: random.Random,
    chart: Chart,
    space: Space,
    bounds: Bounds,
    base_only=False,
    fiber_degree=None,
) -> Poly:
    """Random polynomial; `fiber_degree` forces every monomial's degree in
    the fiber-type variables.  Exponents are drawn x1..xn first, then the
    fiber-type variables, straight into the packed exponent tuples; a
    repeated tuple adds its coefficients as integer (numerator,
    denominator) pairs.  The polynomial is built over the lcm of the
    denominators and reduced once, with no Fraction per term."""
    n, m = chart.base_dim, chart.fiber_rank
    randrange = rng.randrange
    exp_stop = bounds.exp_max + 1
    top = bounds.coeff_max
    terms = {}
    for _ in range(randrange(1, bounds.terms_max + 1)):
        exps = [randrange(exp_stop) for _ in range(n)] + [0] * m
        if not base_only:
            if fiber_degree is None:
                for a in range(n, n + m):
                    exps[a] = randrange(exp_stop)
            else:
                for _ in range(fiber_degree):
                    exps[n + randrange(m)] += 1
        numer, denom = _rand_ratio(rng, top, True)
        key = tuple(exps)
        old = terms.get(key)
        if old is not None:
            numer, denom = old[0] * denom + numer * old[1], old[1] * denom
        terms[key] = numer, denom
    den = lcm(*(d for _, d in terms.values()))
    terms = {mono: c * (den // d) for mono, (c, d) in terms.items() if c}
    return Poly._reduced(chart, space, terms, den)


def rand_base_multi_index(rng, chart, length) -> MultiIndex:
    return MultiIndex(rng.randint(1, chart.base_dim) for _ in range(length))


def rand_fiber_multi_index(rng, chart, length) -> MultiIndex:
    return MultiIndex(rng.randint(1, chart.fiber_rank) for _ in range(length))


def rand_key(rng, chart, nb: int, nf: int) -> tuple:
    """Operator-table key of nb base and nf fiber letters, base drawn first."""
    return rand_base_multi_index(rng, chart, nb), rand_fiber_multi_index(rng, chart, nf)


def rand_diffop(
    rng: random.Random,
    chart: Chart,
    space: Space,
    bounds: Bounds,
    max_keys=3,
    order=None,
) -> DiffOp:
    terms = {}
    top = bounds.order_max if order is None else order
    for _ in range(rng.randint(1, max_keys)):
        total = rng.randint(0, top)
        nb = rng.randint(0, total)
        key = rand_key(rng, chart, nb, total - nb)
        add_into(terms, key, rand_poly(rng, chart, space, bounds))
    return DiffOp(chart, space, terms)


def rand_core_op(rng, chart, bounds, q: int) -> DiffOp:
    """Core operator of order exactly q (nonzero)."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 2)):
            key = (EMPTY_MI, rand_fiber_multi_index(rng, chart, q))
            add_into(terms, key, rand_poly(rng, chart, Space.E, bounds, base_only=True))
        op = DiffOp(chart, Space.E, terms)
        if not op.is_zero():
            return op


def rand_fwl_op(rng, chart, bounds, q: int) -> DiffOp:
    """Operator in the order-q FWL normal form (possibly with zero parts)."""
    terms = {}
    for _ in range(rng.randint(0, 2)):
        if q >= 1:
            key = rand_key(rng, chart, 1, q - 1)
            add_into(terms, key, rand_poly(rng, chart, Space.E, bounds, base_only=True))
    for _ in range(rng.randint(0, 2)):
        key = (EMPTY_MI, rand_fiber_multi_index(rng, chart, q))
        add_into(terms, key, rand_poly(rng, chart, Space.E, bounds, fiber_degree=1))
    for _ in range(rng.randint(0, 2)):
        if q >= 1:
            key = (EMPTY_MI, rand_fiber_multi_index(rng, chart, q - 1))
            add_into(terms, key, rand_poly(rng, chart, Space.E, bounds, base_only=True))
    return DiffOp(chart, Space.E, terms)


def rand_multivector(rng, chart, space, bounds, q: int, max_keys=2) -> SymMultivector:
    terms = {}
    for _ in range(rng.randint(1, max_keys)):
        nb = rng.randint(0, q)
        key = rand_key(rng, chart, nb, q - nb)
        add_into(terms, key, rand_poly(rng, chart, space, bounds))
    return SymMultivector(chart, space, q, terms)


def rand_fwl_multivector(rng, chart, bounds, q: int) -> SymMultivector:
    op = rand_fwl_op(rng, chart, bounds, q)
    return SymMultivector(chart, Space.E, q, op.top_table(q))


def rand_core_multivector(rng, chart, bounds, q: int) -> SymMultivector:
    op = rand_core_op(rng, chart, bounds, q)
    return SymMultivector(chart, Space.E, q, dict(op.terms))


def rand_section(rng, chart, bounds, space=Space.E) -> Poly:
    """A section of E* (on E) or of E (on the dual space) as its
    fiber-linear function there: base-only components, drawn in frame
    order, times the fiber-type coordinates."""
    kind = fiber_kind(space)
    products = []
    for a in range(1, chart.fiber_rank + 1):
        comp = rand_poly(rng, chart, space, bounds, base_only=True)
        products.append((1, comp, Poly.var(chart, space, Var(kind, a))))
    return Poly.sum_of_products(chart, space, products)


def rand_fwl_pair(rng, chart, bounds, q: int) -> LPair:
    p = rand_fwl_multivector(rng, chart, bounds, q)
    rho_terms = {}
    for _ in range(rng.randint(0, 2)):
        key = (EMPTY_MI, rand_fiber_multi_index(rng, chart, q - 1))
        add_into(rho_terms, key, rand_poly(rng, chart, Space.E, bounds, base_only=True))
    rho = SymMultivector(chart, Space.E, q - 1, rho_terms)
    return LPair(p, rho)


def rand_homogeneous_field(rng, chart, bounds, degree: int) -> DiffOp:
    """Vector field on the dual space of weight `degree`: d/dx coefficients
    of dual-fiber degree `degree`, d/dv coefficients of degree `degree`+1."""
    terms = {}
    for i in range(1, chart.base_dim + 1):
        coeff = rand_poly(rng, chart, Space.ESTAR, bounds, fiber_degree=degree)
        terms[(MultiIndex([i]), EMPTY_MI)] = coeff
    for a in range(1, chart.fiber_rank + 1):
        coeff = rand_poly(rng, chart, Space.ESTAR, bounds, fiber_degree=degree + 1)
        terms[(EMPTY_MI, MultiIndex([a]))] = coeff
    return DiffOp(chart, Space.ESTAR, terms)


def rand_homogeneous_lderivation(rng, chart, bounds, degree: int) -> DiffOp:
    mult = rand_poly(rng, chart, Space.ESTAR, bounds, fiber_degree=degree)
    return rand_homogeneous_field(rng, chart, bounds, degree) + DiffOp.mult(mult)


def rand_linearizable_function(rng, chart, bounds) -> Poly:
    """Ambient function vanishing on the submanifold."""
    p = rand_poly(rng, chart, Space.AMBIENT, bounds)
    return p - p.restrict_fiber_zero()


def rand_second_order_function(rng, chart, bounds) -> Poly:
    """Ambient function vanishing to second transverse order: the parts of
    fiber degree at least 2 of one random polynomial."""
    p = rand_poly(rng, chart, Space.AMBIENT, bounds)
    out = Poly.zero(chart, Space.AMBIENT)
    for deg, part in p.fiber_degree_decompose().items():
        if deg >= 2:
            out = out + part
    return out


def rand_linearizable_multivector(rng, chart, bounds, q: int) -> SymMultivector:
    """Ambient multivector whose pure-fiber coefficients vanish at u = 0."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        nb = rng.randint(0, q)
        key = rand_key(rng, chart, nb, q - nb)
        coeff = rand_poly(rng, chart, Space.AMBIENT, bounds)
        if nb == 0:
            coeff = coeff - coeff.restrict_fiber_zero()
        add_into(terms, key, coeff)
    return SymMultivector(chart, Space.AMBIENT, q, terms)


def rand_order_q_linearizable_op(rng, chart, bounds, q: int) -> DiffOp:
    """Ambient operator of order <= q passing the order-q test."""
    top = rand_linearizable_multivector(rng, chart, bounds, q)
    terms = dict(top.terms)
    for _ in range(rng.randint(0, 2)):
        total = rng.randint(0, q - 1) if q > 0 else 0
        nb = rng.randint(0, total)
        key = rand_key(rng, chart, nb, total - nb)
        add_into(terms, key, rand_poly(rng, chart, Space.AMBIENT, bounds))
    return DiffOp(chart, Space.AMBIENT, terms)


def rand_linear_field_op(rng, chart, bounds) -> DiffOp:
    """A fiber-wise linear vector field as a first order operator."""
    terms = {}
    for i in range(1, chart.base_dim + 1):
        coeff = rand_poly(rng, chart, Space.E, bounds, base_only=True)
        if not coeff.is_zero():
            terms[(MultiIndex([i]), EMPTY_MI)] = coeff
    for a in range(1, chart.fiber_rank + 1):
        coeff = rand_poly(rng, chart, Space.E, bounds, fiber_degree=1)
        if not coeff.is_zero():
            terms[(EMPTY_MI, MultiIndex([a]))] = coeff
    return DiffOp(chart, Space.E, terms)


def rand_core_generators(rng, chart, bounds) -> list:
    """The coordinate multiplications x_i, the vertical fields d/du_a, and
    one random core operator: operators whose commutators with a FWL
    operator stay core."""
    gens = []
    for i in range(1, chart.base_dim + 1):
        gens.append(DiffOp.mult(Poly.var(chart, Space.E, Var(VarKind.BASE, i))))
    one = Poly.const(chart, Space.E, 1)
    for a in range(1, chart.fiber_rank + 1):
        gens.append(DiffOp.monomial(one, EMPTY_MI, MultiIndex([a])))
    gens.append(rand_core_op(rng, chart, bounds, rng.randint(1, bounds.order_max)))
    return gens


def rand_fwl_violation(rng, chart, bounds, op: DiffOp, q: int) -> DiffOp:
    """Add one term breaking the FWL normal form (graded parts cannot cancel)."""
    kind = rng.randrange(3)
    u1 = Poly.var(chart, Space.E, Var(VarKind.FIBER, 1))
    if kind == 0:
        # Not rand_key: the fiber length must be drawn after the base letters.
        key = (
            rand_base_multi_index(rng, chart, 2),
            rand_fiber_multi_index(rng, chart, rng.randint(0, 1)),
        )
        coeff = rand_poly(rng, chart, Space.E, bounds, base_only=True)
        fallback = Poly.const(chart, Space.E, 1)
    elif kind == 1:
        key = (EMPTY_MI, rand_fiber_multi_index(rng, chart, max(q, 1)))
        coeff = rand_poly(rng, chart, Space.E, bounds, fiber_degree=2)
        fallback = u1 * u1
    else:
        key = rand_key(rng, chart, 1, max(q - 1, 0))
        coeff = rand_poly(rng, chart, Space.E, bounds, fiber_degree=1)
        fallback = u1
    if coeff.is_zero():
        coeff = fallback
    return op + DiffOp.monomial(coeff, *key)


def rand_gamma(rng, chart, bounds) -> dict:
    """Symmetric connection coefficient table on a square chart."""
    n = chart.base_dim
    table = {}
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if rng.random() < 0.5:
                    continue
                coeff = rand_poly(rng, chart, Space.E, bounds, base_only=True)
                table[(k, i, j)] = coeff
                table[(k, j, i)] = coeff
    return table
