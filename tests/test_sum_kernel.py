"""The summation kernel against the `Poly`-level sums it replaced.

Every Leibniz, bracket and product sum passes its summands to
`symcore._sum_products` as term lists: each factor is a (monomial,
numerator) list over its own denominator, and each derivative is one
`symcore._term_partial`, with no `Poly` per summand.  The references below
build those summands the earlier way, each partial a checked, reduced
`Poly` (`Poly.partial`, `Poly.partial_multi`) and each sum one
`Poly.sum_of_products`.  The seeded draws cover E, Estar and Ambient,
charts up to (3,3) and fractional coefficients, and the new paths must
give the same summands per key, the same keys in the same order and the
same coefficients.
"""

import random

import pytest

from fwlop.diffop import _sum_pieces
from fwlop.lbundle import pair_bracket, pair_product
from fwlop.multivec import _poisson_pieces, _product_pieces, poisson, sym_product
from fwlop.randgen import Bounds, rand_diffop, rand_fwl_pair, rand_multivector, rand_poly
from fwlop.symcore import (
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    _term_partial,
    fiber_kind,
)

SPACES = [Space.E, Space.ESTAR, Space.AMBIENT]
CHARTS = [Chart(1, 1), Chart(1, 3), Chart(2, 2), Chart(3, 2), Chart(3, 3)]
BOUNDS = Bounds(n_max=3, m_max=3, exp_max=3)


def _ref_poisson_pieces(p1, p2, sign, pieces):
    """The summands (k, c1, d_z c2) of sign * {p1, p2} by key, each d_z c2
    a `Poly.partial` taken anew for every pair of terms."""
    fk = fiber_kind(p1.space)
    for a, b, s in ((p1, p2, sign), (p2, p1, -sign)):
        for (ia, ba), ca in a.terms.items():
            for (ib, bb), cb in b.terms.items():
                for z, mult in ia.multiplicities().items():
                    dz = cb.partial(Var(VarKind.BASE, z))
                    if not dz.is_zero():
                        key = (ia.remove(z).concat(ib), ba.concat(bb))
                        pieces.setdefault(key, []).append((s * mult, ca, dz))
                for z, mult in ba.multiplicities().items():
                    dz = cb.partial(Var(fk, z))
                    if not dz.is_zero():
                        key = (ia.concat(ib), ba.remove(z).concat(bb))
                        pieces.setdefault(key, []).append((s * mult, ca, dz))
    return pieces


def _ref_product_pieces(p1, p2, pieces):
    """The summands (1, c1, c2) of p1 p2 by key."""
    for (i1, b1), c1 in p1.terms.items():
        for (i2, b2), c2 in p2.terms.items():
            key = (i1.concat(i2), b1.concat(b2))
            pieces.setdefault(key, []).append((1, c1, c2))
    return pieces


def _ref_apply(op, f):
    """op(f) as one `Poly.sum_of_products` of the coefficients times two
    chained `Poly.partial_multi` calls per key."""
    fk = fiber_kind(op.space)
    products = []
    for (mi_b, mi_f), coeff in op.terms.items():
        g = f.partial_multi(mi_b, VarKind.BASE).partial_multi(mi_f, fk)
        if not g.is_zero():
            products.append((1, coeff, g))
    return Poly.sum_of_products(op.chart, op.space, products)


def _ref_summed(like, pieces):
    """[(key, coefficient)] of `Poly`-level pieces, in key order."""
    return list(_sum_pieces(like.chart, like.space, pieces, Poly.sum_of_products).items())


def _poly(like, terms, den):
    return Poly._reduced(like.chart, like.space, dict(terms), den)


def _same_pieces(like, got, ref):
    """The term-list pieces `got` hold the summands of `ref`, key by key in
    the same order, each as a (factor, terms, den, terms, den) product."""
    assert list(got) == list(ref)
    for key, products in got.items():
        assert len(products) == len(ref[key])
        for (k, a, da, b, db), (k_ref, a_ref, b_ref) in zip(products, ref[key]):
            assert type(k) is int and k == k_ref
            assert _poly(like, a, da) == a_ref
            assert _poly(like, b, db) == b_ref


def _draw_multivectors(rng, space, chart):
    qs = [rng.randint(0, 3), rng.randint(0, 3)]
    return [rand_multivector(rng, chart, space, BOUNDS, q, max_keys=3) for q in qs]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.value)
def test_poisson_and_product_match_the_poly_level_sums(space):
    rng = random.Random(2801)
    fractional = nonzero = 0
    for chart in CHARTS:
        for _ in range(6):
            p1, p2 = _draw_multivectors(rng, space, chart)
            _same_pieces(p1, _poisson_pieces(p1, p2, 1, {}), _ref_poisson_pieces(p1, p2, 1, {}))
            _same_pieces(p1, _product_pieces(p1, p2, {}), _ref_product_pieces(p1, p2, {}))
            bracket = poisson(p1, p2)
            if p1.q + p2.q >= 1:
                ref = _ref_summed(p1, _ref_poisson_pieces(p1, p2, 1, {}))
                assert list(bracket.terms.items()) == ref
            product = sym_product(p1, p2)
            assert list(product.terms.items()) == _ref_summed(
                p1, _ref_product_pieces(p1, p2, {})
            )
            fractional += any(c.den != 1 for c in bracket.terms.values())
            nonzero += bool(bracket.terms) and bool(product.terms)
    assert fractional >= 5 and nonzero >= 10


def test_pair_bracket_and_product_match_the_poly_level_sums():
    rng = random.Random(2802)
    live = 0
    for chart in CHARTS:
        for _ in range(4):
            q1, q2 = rng.randint(1, 3), rng.randint(1, 3)
            p1, p2 = rand_fwl_pair(rng, chart, BOUNDS, q1), rand_fwl_pair(rng, chart, BOUNDS, q2)
            bracket, product = pair_bracket(p1, p2), pair_product(p1, p2)
            pieces = _ref_poisson_pieces(p1.p, p2.rho, 1, {})
            _ref_poisson_pieces(p2.p, p1.rho, -1, pieces)
            assert list(bracket.rho.terms.items()) == _ref_summed(p1.p, pieces)
            pieces = _ref_product_pieces(p1.p, p2.rho, {})
            _ref_product_pieces(p2.p, p1.rho, pieces)
            assert list(product.rho.terms.items()) == _ref_summed(p1.p, pieces)
            live += bool(bracket.rho.terms) and bool(product.rho.terms)
    assert live >= 5


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.value)
def test_apply_matches_the_poly_level_sum(space):
    rng = random.Random(2803)
    fractional = 0
    for chart in CHARTS:
        for _ in range(8):
            op = rand_diffop(rng, chart, space, BOUNDS, max_keys=4)
            f = rand_poly(rng, chart, space, BOUNDS)
            got = op.apply(f)
            assert got == _ref_apply(op, f)
            fractional += got.den != 1
    assert fractional >= 10


def test_term_partial_is_the_unreduced_partial_multi():
    # d^S as a term list over the polynomial's own denominator, for S with
    # base and fiber letters, repeated letters and letters past an exponent
    rng = random.Random(2804)
    for space in SPACES:
        fk = fiber_kind(space)
        for chart in CHARTS:
            n, m = chart.base_dim, chart.fiber_rank
            p = rand_poly(rng, chart, space, BOUNDS)
            for _ in range(6):
                base = MultiIndex(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
                fiber = MultiIndex(rng.randint(1, m) for _ in range(rng.randint(0, 3)))
                counts = [(i - 1, k) for i, k in base.multiplicities().items()]
                counts += [(n + a - 1, k) for a, k in fiber.multiplicities().items()]
                got = _term_partial(p.terms.items(), counts)
                assert all(c for _, c in got)
                ref = p.partial_multi(base, VarKind.BASE).partial_multi(fiber, fk)
                assert _poly(p, got, p.den) == ref

