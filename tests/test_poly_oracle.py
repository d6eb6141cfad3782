"""Independent oracle for the polynomial kernel: sympy.

Random `randgen` polynomials and operators on E, Estar and Ambient are
converted to sympy expressions term by term, and every kernel operation is
checked against sympy's own arithmetic and derivatives.  The conversion
reads the printed text (`var_reading.by_vars`), not the packed layout, and
is cross-checked against sympy's own reading of that text.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from fwlop import randgen as rg  # noqa: E402
from fwlop._oracles import _scale_fiber  # noqa: E402
from fwlop.symcore import (  # noqa: E402
    Chart,
    Poly,
    Space,
    Var,
    VarKind,
    fiber_kind,
    parse_poly,
    poly_to_str,
)
from var_reading import by_vars, substitute  # noqa: E402

CHARTS = [Chart(1, 1), Chart(2, 1), Chart(1, 2), Chart(2, 2), Chart(3, 2)]
SPACES = [Space.E, Space.ESTAR, Space.AMBIENT]
BOUNDS = rg.Bounds(n_max=3, m_max=2, order_max=2, coeff_max=12, terms_max=4)


def _symbol(v: Var):
    return sympy.Symbol(str(v))


def to_sympy(p: Poly):
    expr = sympy.Integer(0)
    for mono, coeff in by_vars(p).items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in mono:
            assert e >= 1
            term *= _symbol(v) ** e
        expr += term
    return expr


def _vars(chart, space):
    return chart.vars_of(VarKind.BASE) + chart.vars_of(fiber_kind(space))


def _same(p: Poly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


@pytest.mark.parametrize("k", range(45))
def test_ring_operations_match_sympy(k):
    rng = random.Random(7000 + k)
    chart, space = CHARTS[k % len(CHARTS)], SPACES[k % len(SPACES)]
    a = rg.rand_poly(rng, chart, space, BOUNDS)
    b = rg.rand_poly(rng, chart, space, BOUNDS)
    c = rg.rand_fraction(rng, BOUNDS)
    sa, sb = to_sympy(a), to_sympy(b)
    sc = sympy.Rational(c.numerator, c.denominator)
    assert _same(a + b, sa + sb)
    assert _same(a - b, sa - sb)
    assert _same(a - a, 0) and (a - a).is_zero()
    assert _same(a * b, sa * sb)
    assert _same(a * a * b, sa * sa * sb)
    assert _same(a.scale(c), sc * sa)
    assert _same(-a, -sa)
    constant = sympy.Poly(sa, *[_symbol(v) for v in _vars(chart, space)]).coeff_monomial(1)
    at_origin = substitute(a, {v: Poly.zero(chart, space) for v in _vars(chart, space)})
    assert at_origin == Poly.const(chart, space, Fraction(str(constant)))


@pytest.mark.parametrize("k", range(30))
def test_sum_of_products_matches_sympy(k):
    rng = random.Random(7050 + k)
    chart, space = CHARTS[k % len(CHARTS)], SPACES[k % len(SPACES)]
    products = [
        (
            rng.randint(-4, 4),
            rg.rand_poly(rng, chart, space, BOUNDS),
            rg.rand_poly(rng, chart, space, BOUNDS),
        )
        for _ in range(rng.randint(1, 4))
    ]
    expected = sum(c * to_sympy(a) * to_sympy(b) for c, a, b in products)
    assert _same(Poly.sum_of_products(chart, space, products), expected)


@pytest.mark.parametrize("k", range(45))
def test_partials_match_sympy(k):
    rng = random.Random(7100 + k)
    chart, space = CHARTS[k % len(CHARTS)], SPACES[k % len(SPACES)]
    a = rg.rand_poly(rng, chart, space, BOUNDS)
    sa = to_sympy(a)
    for v in _vars(chart, space):
        assert _same(a.partial(v), sympy.diff(sa, _symbol(v)))


@pytest.mark.parametrize("k", range(45))
def test_printer_parser_and_conversion_agree(k):
    rng = random.Random(7200 + k)
    chart, space = CHARTS[k % len(CHARTS)], SPACES[k % len(SPACES)]
    a = rg.rand_poly(rng, chart, space, BOUNDS) * rg.rand_poly(rng, chart, space, BOUNDS)
    text = poly_to_str(a)
    assert parse_poly(text, chart, space) == a
    printed = sympy.sympify(text.replace("^", "**")) if text != "0" else sympy.Integer(0)
    assert sympy.expand(printed - to_sympy(a)) == 0


@pytest.mark.parametrize("k", range(30))
def test_fiber_operations_match_sympy(k):
    rng = random.Random(7300 + k)
    chart, space = CHARTS[k % len(CHARTS)], SPACES[k % len(SPACES)]
    a = rg.rand_poly(rng, chart, space, BOUNDS)
    sa = to_sympy(a)
    fibers = [_symbol(v) for v in chart.vars_of(fiber_kind(space))]
    t = rg.rand_fraction(rng, BOUNDS)
    st = sympy.Rational(t.numerator, t.denominator)
    assert _same(_scale_fiber(a, t), sa.subs({u: st * u for u in fibers}, simultaneous=True))
    parts = a.fiber_degree_decompose()
    total = sympy.Integer(0)
    for deg, part in parts.items():
        sp = to_sympy(part)
        scaled = sp.subs({u: 2 * u for u in fibers}, simultaneous=True)
        assert sympy.expand(scaled - 2**deg * sp) == 0
        total += sp
    assert sympy.expand(total - sa) == 0
    if space is not Space.ESTAR:
        assert _same(a.restrict_fiber_zero(), sa.subs({u: 0 for u in fibers}))


def _apply_sympy(op, expr, space):
    fk = fiber_kind(space)
    out = sympy.Integer(0)
    for (mi_b, mi_f), coeff in op.terms.items():
        letters = [_symbol(Var(VarKind.BASE, i)) for i in mi_b]
        letters += [_symbol(Var(fk, a)) for a in mi_f]
        out += to_sympy(coeff) * (sympy.diff(expr, *letters) if letters else expr)
    return out


@pytest.mark.parametrize("k", range(24))
def test_diffop_apply_and_compose_match_sympy(k):
    rng = random.Random(7400 + k)
    chart, space = CHARTS[k % len(CHARTS)], SPACES[k % len(SPACES)]
    a = rg.rand_diffop(rng, chart, space, BOUNDS, max_keys=2)
    b = rg.rand_diffop(rng, chart, space, BOUNDS, max_keys=2)
    f = rg.rand_poly(rng, chart, space, BOUNDS)
    sf = to_sympy(f)
    assert _same(a.apply(f), _apply_sympy(a, sf, space))
    assert _same(a.compose(b).apply(f), _apply_sympy(a, _apply_sympy(b, sf, space), space))
