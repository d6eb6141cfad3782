"""Polynomial core: arithmetic, calculus, grading, parse/print."""

import itertools
import random
import re
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, le, mul, sub

import pytest

from fwlop._oracles import _scale_fiber, all_multi_indices, unshuffles
from fwlop.errors import (
    ChartMismatch,
    IndexOutOfRange,
    PolySyntaxError,
    SpaceMismatch,
    UnknownVariable,
    multi_index_count,
)
from fwlop.randgen import Bounds, rand_chart, rand_poly
from fwlop.symcore import (
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    _sub_multisets,
    _sum_products,
    add_into,
    fiber_kind,
    parse_poly,
    poly_to_str,
)
from var_reading import by_vars, from_vars, substitute

CH = Chart(2, 2)


def P(text, space=Space.E, chart=CH):
    return parse_poly(text, chart, space)


def test_difference_of_squares():
    assert P("x1+u1") * P("x1-u1") == P("x1^2 - u1^2")


def test_additive_identity():
    p = P("3/2*x1^2*u2 - x1")
    assert p + Poly.zero(CH, Space.E) == p


def test_rational_coefficient_product():
    assert P("1/2*u1") * P("2/3*u1") == P("1/3*u1^2")
    # integer-scaled oracle: 6 * (1/2 u1) * (2/3 u1) = (3 u1) * (2/3 u1) = 2 u1^2
    assert (P("1/2*u1") * P("2/3*u1")).scale(6) == P("2*u1^2")


def test_partial_power_rule():
    assert P("u1^2*x1").partial(Var(VarKind.FIBER, 1)) == P("2*u1*x1")


def test_partial_independent_variable():
    assert P("u1").partial(Var(VarKind.BASE, 2)).is_zero()


def test_partial_iterated():
    once = P("u1^3").partial(Var(VarKind.FIBER, 1))
    assert once.partial(Var(VarKind.FIBER, 1)) == P("6*u1")


def test_restrict_fiber_zero():
    assert P("x1 + u1*x2 + u1^2").restrict_fiber_zero() == P("x1")
    assert P("x1^2").restrict_fiber_zero() == P("x1^2")
    with pytest.raises(SpaceMismatch):
        P("v1", Space.ESTAR).restrict_fiber_zero()


def test_fiber_degree_decompose():
    parts = P("x1 + u1*x2 + u1*u2").fiber_degree_decompose()
    assert {k: poly_to_str(v) for k, v in parts.items()} == {
        0: "x1",
        1: "x2*u1",
        2: "u1*u2",
    }


def test_decompose_zero_is_empty():
    assert Poly.zero(CH, Space.E).fiber_degree_decompose() == {}


def test_fwl_function_is_degree_one():
    ell = P("2*x1*u1 - u2")
    assert ell.fiber_degree_decompose() == {1: ell}


def test_parse_two_term():
    p = P("3/2*x1^2*u2 - x1")
    assert by_vars(p) == {
        ((Var(VarKind.BASE, 1), 2), (Var(VarKind.FIBER, 2), 1)): Fraction(3, 2),
        ((Var(VarKind.BASE, 1), 1),): Fraction(-1),
    }


def test_parse_rejects_zero_exponent():
    with pytest.raises(PolySyntaxError) as exc:
        P("u1^0")
    assert exc.value.offset == 3


def test_parse_canonicalizes():
    assert poly_to_str(P("x1+x1")) == "2*x1"


def test_parse_space_guards():
    with pytest.raises(UnknownVariable):
        P("v1")
    with pytest.raises(UnknownVariable):
        parse_poly("u1", CH, Space.ESTAR)
    parse_poly("v2", CH, Space.ESTAR)
    parse_poly("u2", CH, Space.AMBIENT)


def test_parse_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        P("x3")
    with pytest.raises(IndexOutOfRange):
        P("u3")


def test_parse_syntax_errors_carry_offsets():
    for text, offset in [("x1 + ", 5), ("* x1", 0), ("x1 ^", 4), ("3/", 2)]:
        with pytest.raises(PolySyntaxError) as exc:
            P(text)
        assert exc.value.offset == offset


def test_parse_whitespace_and_signs():
    assert P(" - x1 + 2 * u1 ") == P("2*u1") - P("x1")
    assert P("-3/4") == Poly.const(CH, Space.E, Fraction(-3, 4))


def test_equal_polys_hash_equal_however_built():
    parsed = P("x1*u1^2 + 3/2*x2")
    arith = P("x1*u1") * P("u1") + P("3/4*x2").scale(2)
    derived = P("1/3*x1*u1^3 + 3/2*x2*u1 + x1").partial(Var(VarKind.FIBER, 1))
    assert parsed == arith == derived
    assert hash(parsed) == hash(arith) == hash(derived)


def test_cached_hash_is_the_uncached_formula():
    rng = random.Random(47)
    bounds = Bounds()
    for _ in range(20):
        chart = rand_chart(rng, bounds)
        p = rand_poly(rng, chart, rng.choice(list(Space)), bounds)
        formula = hash((p.chart, p.space, p.den, frozenset(p.terms.items())))
        assert hash(p) == formula
        assert p._hash == formula
        assert hash(p) == formula


def test_hash_slot_is_read_only():
    p = P("x1 + u2")
    with pytest.raises(AttributeError):
        p._hash = 0
    hash(p)
    with pytest.raises(AttributeError):
        p._hash = 0
    assert hash(p) == hash(P("x1 + u2"))


def test_poly_has_no_public_constructor():
    with pytest.raises(TypeError):
        Poly(CH, Space.E, {})


def test_print_zero():
    assert poly_to_str(Poly.zero(CH, Space.E)) == "0"
    assert P("0").is_zero()


def test_multi_index_canonical():
    assert tuple(MultiIndex([2, 1, 2])) == (1, 2, 2)
    assert MultiIndex([2, 1, 2]) == MultiIndex([2, 2, 1])
    assert len(MultiIndex([2, 1, 2])) == 3


def test_multi_index_is_its_sorted_tuple():
    mi = MultiIndex([2, 1, 2])
    assert mi == (1, 2, 2) and hash(mi) == hash((1, 2, 2))
    assert repr(mi) == "MultiIndex([1, 2, 2])"
    assert repr(MultiIndex()) == "MultiIndex([])"
    assert type(MultiIndex._sorted((1, 2, 2))) is MultiIndex
    assert MultiIndex([2, 1, 1]) < MultiIndex([1, 2]) < MultiIndex([2])
    with pytest.raises(AttributeError):
        mi.entries = (3,)


def test_multi_index_factorial():
    assert MultiIndex([1, 1]).factorial() == 2
    assert MultiIndex([1, 1, 2]).factorial() == 2
    assert MultiIndex([1, 1, 1]).factorial() == 6
    assert MultiIndex().factorial() == 1


def test_multi_index_monoid():
    a, b, c = MultiIndex([1]), MultiIndex([2, 2]), MultiIndex([1, 2])
    assert a.concat(b) == b.concat(a)
    assert a.concat(b.concat(c)) == a.concat(b).concat(c)
    assert a.concat(MultiIndex()) == a


def test_sub_multisets_binomials():
    got = {sub: coeff for sub, coeff, *_ in _sub_multisets(MultiIndex([1, 1, 2]))}
    assert got[MultiIndex([1])] == 2
    assert got[MultiIndex([1, 2])] == 2
    assert got[MultiIndex([1, 1])] == 1
    assert got[MultiIndex()] == 1
    assert sum(got.values()) == 8


def test_sub_multiset_vectors_count_each_letter():
    for entries in [(), (1,), (2, 2), (1, 1, 3), (1, 2, 2, 3)]:
        for sub, _, rest, vector in _sub_multisets(MultiIndex(entries)):
            assert len(vector) == (entries[-1] if entries else 0)
            assert vector == tuple(sub.count(k) for k in range(1, len(vector) + 1))
            assert MultiIndex(sub + rest) == MultiIndex(entries)


def test_capped_sub_multisets_are_the_full_list_filtered():
    # the S within caps, listed directly, are the full list's entries whose
    # vector stays within the caps, in the same order, with J's binomials
    # and remainders
    for entries in [(1,), (2, 2), (1, 1, 3), (1, 2, 2, 3), (1, 1, 1, 2, 2)]:
        mi = MultiIndex(entries)
        whole = _sub_multisets(mi)
        for caps in itertools.product(*(range(k + 1) for k in whole[-1][3])):
            want = tuple(s for s in whole if all(map(le, s[3], caps)))
            assert _sub_multisets(mi, caps) == want


@pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
def test_max_exponents_match_the_var_reading(space):
    rng = random.Random(f"max-exponents/{space.value}")
    bounds = Bounds(n_max=3, m_max=3, terms_max=6, exp_max=4)
    for _ in range(60):
        chart = rand_chart(rng, bounds)
        p = rand_poly(rng, chart, space, bounds)
        tops = {v: 0 for kind in (VarKind.BASE, fiber_kind(space)) for v in chart.vars_of(kind)}
        for mono in by_vars(p):
            for v, e in mono:
                tops[v] = max(tops[v], e)
        base, fiber = p.max_exponents()
        assert base == tuple(tops[v] for v in chart.vars_of(VarKind.BASE))
        assert fiber == tuple(tops[v] for v in chart.vars_of(fiber_kind(space)))
    assert P("0").max_exponents() == ((0, 0), (0, 0))
    assert P("x1^3*u2 - 2*x1*u1^2").max_exponents() == ((3, 0), (2, 1))


def test_unshuffles_are_splits():
    pairs = list(unshuffles(2, 1))
    assert ((0, 1), (2,)) in pairs and len(pairs) == 3
    assert list(unshuffles(-1, 2)) == []
    assert list(unshuffles(0, 0)) == [((), ())]


def test_multi_index_count_matches_the_enumeration():
    for alphabet in range(1, 6):
        for length in range(-1, 6):
            listed = len(list(all_multi_indices(alphabet, length)))
            assert multi_index_count(alphabet, length, 10**6) == listed
            assert multi_index_count(alphabet, length, 7) == min(listed, 8)
    # Past the limit the running product stops: huge arguments are cheap.
    assert multi_index_count(10**4000, 10**4000, 200) == 201
    assert multi_index_count(40, 5, 10**9) == comb(44, 5)


def test_scale_fiber():
    p = P("x1 + u1*x2 + u1*u2")
    assert _scale_fiber(p, 2) == P("x1 + 2*u1*x2 + 4*u1*u2")
    assert _scale_fiber(p, 0) == P("x1")


def test_substitute():
    p = parse_poly("v1^2 + x1*v2", CH, Space.ESTAR)
    image = substitute(
        p,
        {
            Var(VarKind.DUAL_FIBER, 1): P("x2", Space.E),
            Var(VarKind.DUAL_FIBER, 2): P("u1", Space.E),
            Var(VarKind.BASE, 1): P("x1", Space.E),
        }
    )
    assert image == P("x2^2 + x1*u1")


def test_arithmetic_chart_and_space_guards():
    other_chart = parse_poly("x1", Chart(1, 1), Space.E)
    with pytest.raises(ChartMismatch):
        P("x1") + other_chart
    with pytest.raises(SpaceMismatch):
        P("x1") * P("x1", Space.AMBIENT)


def _general_combine(a, b, sign):
    """a + sign * b term by term over the lcm of the denominators, reduced
    once: the general path of `Poly._combine`."""
    den = lcm(a.den, b.den)
    terms = {mono: c * (den // a.den) for mono, c in a.terms.items()}
    for mono, c in b.terms.items():
        terms[mono] = terms.get(mono, 0) + sign * c * (den // b.den)
    terms = {mono: c for mono, c in terms.items() if c}
    return Poly._reduced(a.chart, a.space, terms, den)


def _general_product(a, b):
    product = (1, a.terms.items(), a.den, b.terms.items(), b.den)
    return _sum_products(a.chart, a.space, [product])


@pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
def test_zero_operands_match_the_general_path(space):
    # a zero operand returns at once: the result equals the general path's,
    # term order and denominator included, on both sides of + - *
    rng = random.Random(f"zero-operands/{space.value}")
    bounds = Bounds()
    fractional = 0
    for _ in range(40):
        chart = rand_chart(rng, bounds)
        zero = Poly.zero(chart, space)
        for p in (rand_poly(rng, chart, space, bounds), zero):
            fractional += p.den != 1
            for a, b in ((p, zero), (zero, p)):
                cases = [
                    (a + b, _general_combine(a, b, 1)),
                    (a - b, _general_combine(a, b, -1)),
                    (a * b, _general_product(a, b)),
                ]
                for got, want in cases:
                    assert list(got.terms.items()) == list(want.terms.items())
                    assert got.den == want.den
                    assert (got.chart, got.space) == (chart, space)
    assert fractional >= 20


@pytest.mark.parametrize("op", [add, sub, mul], ids=["add", "sub", "mul"])
def test_zero_operands_still_check_chart_and_space(op):
    p = P("3/2*x1*u1 - 1")
    other = Space.ESTAR
    for zero in (Poly.zero(CH, other), Poly.zero(Chart(1, 1), Space.E)):
        error = SpaceMismatch if zero.space is other else ChartMismatch
        for a, b in ((p, zero), (zero, p)):
            with pytest.raises(error):
                op(a, b)
    zero = Poly.zero(CH, Space.E)
    with pytest.raises(SpaceMismatch):
        op(zero, Poly.zero(CH, Space.AMBIENT))


def test_product_with_a_number_is_a_scaling():
    p = P("3/2*x1^2*u2 - x1 + 5")
    assert p * 3 == 3 * p == p.scale(3) == P("9/2*x1^2*u2 - 3*x1 + 15")
    assert p * Fraction(1, 2) == Fraction(1, 2) * p == p.scale(Fraction(1, 2))
    assert p * 0 == Poly.zero(CH, Space.E)
    with pytest.raises(TypeError):
        [1] * p


def test_product_across_charts_or_spaces_is_refused():
    with pytest.raises(ChartMismatch) as info:
        P("x1") * parse_poly("x1", Chart(1, 1), Space.E)
    assert str(info.value) == (
        "Chart(base_dim=2, fiber_rank=2) vs Chart(base_dim=1, fiber_rank=1)"
    )
    with pytest.raises(SpaceMismatch) as info:
        P("x1") * P("x1", Space.ESTAR)
    assert str(info.value) == "E vs Estar"


def test_partial_multi_equals_iterated_partials():
    rng = random.Random(4721)
    bounds = Bounds(exp_max=4)
    for _ in range(150):
        chart = rand_chart(rng, bounds)
        space = rng.choice(list(Space))
        p = rand_poly(rng, chart, space, bounds)
        kind = rng.choice([VarKind.BASE, fiber_kind(space)])
        bound = chart.base_dim if kind is VarKind.BASE else chart.fiber_rank
        mi = MultiIndex([rng.randint(1, bound) for _ in range(rng.randint(0, 4))])
        expected = p
        for letter in mi:
            expected = expected.partial(Var(kind, letter))
        got = p.partial_multi(mi, kind)
        assert got == expected
        assert got.den > 0 and (not got.terms or gcd(got.den, *got.terms.values()) == 1)


def test_partial_multi_refuses_as_partial_does():
    p = P("x1*u1^2")
    for mi, kind in (
        (MultiIndex([1, 3]), VarKind.BASE),
        (MultiIndex([0]), VarKind.FIBER),
        (MultiIndex([2, 1]), VarKind.DUAL_FIBER),
    ):
        first_bad = next(
            letter for letter in mi if not 1 <= letter <= 2 or kind is VarKind.DUAL_FIBER
        )
        with pytest.raises((SpaceMismatch, IndexOutOfRange)) as expected:
            p.partial(Var(kind, first_bad))
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            p.partial_multi(mi, kind)
    # the empty multi-index checks nothing
    assert p.partial_multi(MultiIndex(), VarKind.DUAL_FIBER) is p


def test_partial_wrong_kind_is_space_mismatch():
    with pytest.raises(SpaceMismatch):
        P("x1").partial(Var(VarKind.DUAL_FIBER, 1))
    with pytest.raises(SpaceMismatch):
        parse_poly("v1", CH, Space.ESTAR).partial(Var(VarKind.FIBER, 1))


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    bounds = Bounds()
    for _ in range(200):
        chart = rand_chart(rng, bounds)
        space = rng.choice(list(Space))
        a = rand_poly(rng, chart, space, bounds)
        b = rand_poly(rng, chart, space, bounds)
        c = rand_poly(rng, chart, space, bounds)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_partials_commute_and_leibniz_randomized():
    rng = random.Random(65537)
    bounds = Bounds()
    for _ in range(200):
        chart = rand_chart(rng, bounds)
        a = rand_poly(rng, chart, Space.E, bounds)
        b = rand_poly(rng, chart, Space.E, bounds)
        variables = chart.vars_of(VarKind.BASE) + chart.vars_of(VarKind.FIBER)
        v, w = rng.choice(variables), rng.choice(variables)
        assert a.partial(v).partial(w) == a.partial(w).partial(v)
        assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)


def test_decomposition_randomized():
    rng = random.Random(99)
    bounds = Bounds()
    for _ in range(200):
        chart = rand_chart(rng, bounds)
        space = rng.choice(list(Space))
        a = rand_poly(rng, chart, space, bounds)
        parts = a.fiber_degree_decompose()
        total = Poly.zero(chart, space)
        for deg, part in parts.items():
            total = total + part
            assert part.fiber_degree() == deg
            for t in (Fraction(2), Fraction(-1, 3)):
                assert _scale_fiber(part, t) == part.scale(t**deg)
        assert total == a


def test_print_parse_round_trip_randomized():
    rng = random.Random(4242)
    bounds = Bounds()
    for _ in range(300):
        chart = rand_chart(rng, bounds)
        space = rng.choice(list(Space))
        p = rand_poly(rng, chart, space, bounds)
        assert parse_poly(poly_to_str(p), chart, space) == p


# -- transcriptions between a space and its fiber monomials ------------------


def _split_by_vars(p, space):
    """The Var/Fraction reading that `fiber_parts` replaced: split p by the
    monomial of its fiber-type variables, the rest re-tagged onto space.
    Terms are taken in the order p stores them, each stored key read as an
    opaque monomial through a one-term polynomial."""
    fk = fiber_kind(p.space)
    coeffs = by_vars(p)
    out = {}
    for key in p.terms:
        (mono,) = by_vars(Poly._raw(p.chart, p.space, {key: 1}))
        coeff = coeffs[mono]
        letters, base = [], []
        for var, exp in mono:
            if var.kind is fk:
                letters.extend([var.index] * exp)
            else:
                base.append((var, exp))
        part = from_vars(p.chart, space, {tuple(base): coeff})
        add_into(out, MultiIndex(letters), part)
    return out


def _fiber_monomial(chart, space, mi):
    """The fiber monomial u_mi (v_mi on Estar): one `from_fiber_parts` call."""
    return Poly.from_fiber_parts(chart, space, [(1, Poly.const(chart, space, 1), mi)])


def _monomial_by_vars(chart, space, mi):
    """The Var/Fraction construction of the fiber monomial u_mi."""
    mono = tuple((Var(fiber_kind(space), a), e) for a, e in mi.multiplicities().items())
    return from_vars(chart, space, {mono: 1})


@pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
@pytest.mark.parametrize("target", list(Space), ids=lambda s: s.value)
def test_fiber_parts_match_the_var_reading(space, target):
    rng = random.Random(f"fiber-parts/{space.value}/{target.value}")
    bounds = Bounds(n_max=3, m_max=3, terms_max=6)
    for _ in range(60):
        chart = rand_chart(rng, bounds)
        p = rand_poly(rng, chart, space, bounds)
        parts = p.fiber_parts(target)
        expected = _split_by_vars(p, target)
        assert parts == expected
        assert list(parts) == list(expected)
        assert all(c.is_base_only() and c.space is target for c in parts.values())
        total = Poly.zero(chart, space)
        for mi, c in parts.items():
            total = total + c.with_space(space) * _fiber_monomial(chart, space, mi)
        assert total == p


def test_fiber_parts_of_zero_and_constants():
    zero = P("0", Space.ESTAR)
    assert zero.fiber_parts(Space.E) == _split_by_vars(zero, Space.E) == {}
    const = P("-3/4", Space.ESTAR)
    assert const.fiber_parts(Space.E) == {MultiIndex(): P("-3/4")}
    assert const.fiber_parts(Space.E) == _split_by_vars(const, Space.E)
    dual = P("2*x1*v1^2*v2 - x2*v1^2*v2 + 1/3*v2", Space.ESTAR)
    assert dual.fiber_parts(Space.E) == {
        MultiIndex([1, 1, 2]): P("2*x1 - x2"),
        MultiIndex([2]): P("1/3"),
    }
    ambient = P("x1*u2 + u2 + x2", Space.AMBIENT)
    assert ambient.fiber_parts(Space.AMBIENT) == {
        MultiIndex([2]): P("x1 + 1", Space.AMBIENT),
        MultiIndex(): P("x2", Space.AMBIENT),
    }


@pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
def test_fiber_monomial_matches_the_var_construction(space):
    chart = Chart(2, 3)
    for length in range(4):
        for mi in all_multi_indices(chart.fiber_rank, length):
            mono = _fiber_monomial(chart, space, mi)
            assert mono == _monomial_by_vars(chart, space, mi)
            assert mono.fiber_degree() == length and mono.space is space
    one = Poly.const(chart, space, 1)
    assert _fiber_monomial(chart, space, MultiIndex()) == one
    for bad in ([4], [1, 4], [0]):
        with pytest.raises(IndexOutOfRange):
            _fiber_monomial(chart, space, MultiIndex(bad))
        with pytest.raises(IndexOutOfRange):
            _monomial_by_vars(chart, space, MultiIndex(bad))


@pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
@pytest.mark.parametrize("target", list(Space), ids=lambda s: s.value)
def test_from_fiber_parts_inverts_fiber_parts(space, target):
    rng = random.Random(f"from-fiber-parts/{space.value}/{target.value}")
    bounds = Bounds(n_max=3, m_max=3, terms_max=6)
    for _ in range(60):
        chart = rand_chart(rng, bounds)
        p = rand_poly(rng, chart, space, bounds)
        parts = p.fiber_parts(target)
        got = Poly.from_fiber_parts(chart, space, [(1, c, mi) for mi, c in parts.items()])
        assert got == p
        # integer factors and repeated indices, against the product construction
        weighted = [(rng.randint(-3, 3), c, mi) for mi, c in parts.items() for _ in "ab"]
        expected = Poly.zero(chart, space)
        for k, c, mi in weighted:
            product = c.with_space(space) * _monomial_by_vars(chart, space, mi)
            expected = expected + product.scale(k)
        assert Poly.from_fiber_parts(chart, space, weighted) == expected


def test_from_fiber_parts_refusals():
    chart = Chart(2, 3)
    c = P("1/2*x1 - x2", Space.E, chart)
    with pytest.raises(ChartMismatch) as info:
        Poly.from_fiber_parts(Chart(3, 3), Space.ESTAR, [(1, c, MultiIndex([1]))])
    assert str(info.value) == (
        "Chart(base_dim=2, fiber_rank=3) vs Chart(base_dim=3, fiber_rank=3)"
    )
    with pytest.raises(IndexOutOfRange) as info:
        Poly.from_fiber_parts(chart, Space.ESTAR, [(1, c, MultiIndex([1, 4]))])
    assert str(info.value) == (
        "variable v4 out of range for chart Chart(base_dim=2, fiber_rank=3)"
    )
    # a fiber-linear part would lose its u exponent on the dual space
    linear = P("x1*u2 + 1", Space.E, chart)
    with pytest.raises(SpaceMismatch) as info:
        Poly.from_fiber_parts(chart, Space.ESTAR, [(1, c, ()), (2, linear, MultiIndex([1]))])
    assert str(info.value) == "the part at MultiIndex([1]) is not base-only"
    assert Poly.from_fiber_parts(chart, Space.ESTAR, []) == Poly.zero(chart, Space.ESTAR)


# -- sums of products ---------------------------------------------------------


def _naive_sum(chart, space, products):
    out = Poly.zero(chart, space)
    for k, a, b in products:
        out = out + (a * b).scale(k)
    return out


def test_sum_of_products_matches_the_naive_sum():
    rng = random.Random(4711)
    bounds = Bounds(n_max=3, m_max=2, coeff_max=12)
    for _ in range(150):
        chart = rand_chart(rng, bounds)
        space = rng.choice(list(Space))
        products = [
            (
                rng.randint(-3, 3),
                rand_poly(rng, chart, space, bounds),
                rand_poly(rng, chart, space, bounds),
            )
            for _ in range(rng.randint(0, 4))
        ]
        got = Poly.sum_of_products(chart, space, products)
        assert got == _naive_sum(chart, space, products)
        assert got.den > 0 and gcd(got.den, *got.terms.values()) == 1


def test_sum_of_products_with_constant_factors_matches_the_naive_sum():
    # a constant operand on either side, or on both, takes the path that
    # adds the other's numerators at their own monomials
    rng = random.Random(4713)
    bounds = Bounds(n_max=3, m_max=2, coeff_max=12)
    for _ in range(100):
        chart = rand_chart(rng, bounds)
        space = rng.choice(list(Space))

        def operand():
            if rng.random() < 0.5:
                return Poly.const(chart, space, Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
            return rand_poly(rng, chart, space, bounds)

        products = [(rng.randint(-3, 3), operand(), operand()) for _ in range(rng.randint(1, 4))]
        got = Poly.sum_of_products(chart, space, products)
        assert got == _naive_sum(chart, space, products)
        assert got.den > 0 and gcd(got.den, *got.terms.values()) == 1


def test_sum_of_products_mixed_denominators_and_cancellation():
    a, b, c = P("1/2*x1"), P("1/3*u1 + 1/6"), P("3/4*x1*u1 - 5/8")
    mixed = [(1, a, b), (-2, c, b), (3, a, c)]
    got = Poly.sum_of_products(CH, Space.E, mixed)
    assert got == _naive_sum(CH, Space.E, mixed)
    assert got.den == 48
    # full cancellation, the denominators included, leaves the zero {} / 1
    cancelling = [(1, a, b), (-1, b, a), (2, c, a), (-1, c, a.scale(2))]
    gone = Poly.sum_of_products(CH, Space.E, cancelling)
    assert gone.is_zero() and gone.den == 1 and gone == Poly.zero(CH, Space.E)
    assert Poly.sum_of_products(CH, Space.E, []) == Poly.zero(CH, Space.E)
    assert Poly.sum_of_products(CH, Space.E, [(0, a, b)]).is_zero()


def test_sum_of_products_checks_every_operand():
    good, estar = P("x1 + u1"), P("v1", Space.ESTAR)
    small = parse_poly("x1", Chart(1, 1), Space.E)
    for bad, error in ((estar, SpaceMismatch), (small, ChartMismatch)):
        for products in (
            [(1, bad, good)],
            [(1, good, bad)],
            [(1, good, good), (-1, good, bad)],
        ):
            with pytest.raises(error):
                Poly.sum_of_products(CH, Space.E, products)


@pytest.mark.parametrize("k", [Fraction(1, 2), 0.5, Fraction(2, 1), 2.0])
def test_sum_of_products_refuses_a_factor_that_is_not_an_int(k):
    # a Fraction or float factor would be stored as a numerator as it is:
    # (1/2, x1, u1) would read {(1, 1): 1/2} over 1, unequal to x1*u1/2
    x1, u1 = P("x1"), P("u1")
    with pytest.raises(TypeError, match="must be an int"):
        Poly.sum_of_products(CH, Space.E, [(1, x1, u1), (k, x1, u1)])


@pytest.mark.parametrize("k", [Fraction(1, 2), 0.5, Fraction(2, 1), 2.0])
def test_from_fiber_parts_refuses_a_factor_that_is_not_an_int(k):
    # the same for a crossing: (1/2, x1, u1) would store x1*u1 over 1 as 1/2
    x1 = P("x1")
    with pytest.raises(TypeError, match="must be an int"):
        Poly.from_fiber_parts(CH, Space.E, [(1, x1, MultiIndex()), (k, x1, MultiIndex([1]))])


def test_space_and_chart_refusals():
    with pytest.raises(SpaceMismatch) as info:
        Space.from_name("F")
    assert str(info.value) == "unknown space 'F'"
    for dims in ((0, 1), (1, 0)):
        with pytest.raises(ChartMismatch) as info:
            Chart(*dims)
        assert str(info.value) == "chart dimensions must be >= 1"


def test_with_space_refuses_a_fiber_variable_of_the_other_side():
    cases = [
        ("x1*u2 + 1", Space.E, Space.ESTAR, "variable u2 not allowed on space Estar"),
        ("x1*v1 - 3", Space.ESTAR, Space.AMBIENT, "variable v1 not allowed on space Ambient"),
    ]
    for text, space, target, message in cases:
        with pytest.raises(UnknownVariable) as info:
            parse_poly(text, CH, space).with_space(target)
        assert str(info.value) == message
    assert parse_poly("x2 + 1", CH, Space.E).with_space(Space.ESTAR).space is Space.ESTAR


def test_poly_repr():
    assert repr(parse_poly("u1*x1 + 1/2", CH, Space.E)) == "Poly('1/2 + x1*u1', space=E)"
    assert repr(Poly.zero(CH, Space.AMBIENT)) == "Poly('0', space=Ambient)"
