"""Operator algebra: action, composition, grading, classification, recovery."""

import json
import random
from fractions import Fraction

import pytest

from fwlop.diffop import (
    DiffOp,
    diffop_dumps,
    diffop_from_doc,
    diffop_loads,
    diffop_to_doc,
    nested_values,
)
from fwlop.errors import (
    DocumentError,
    InvariantViolation,
    RequestTooLarge,
    SpaceMismatch,
    ZeroOperator,
)
from fwlop.randgen import (
    Bounds,
    rand_chart,
    rand_core_op,
    rand_diffop,
    rand_fwl_op,
    rand_poly,
)
from fwlop.symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    fiber_kind,
    parse_poly,
)

CH1 = Chart(1, 1)
CH = Chart(2, 2)


def P(text, chart=CH1, space=Space.E):
    return parse_poly(text, chart, space)


def op_du(power, coeff="1", chart=CH1):
    return DiffOp.monomial(P(coeff, chart), EMPTY_MI, MultiIndex([1] * power))


def test_apply_iterated_power_rule():
    assert op_du(2).apply(P("u1^3")) == P("6*u1")


def test_apply_with_coefficient():
    assert op_du(2, "u1").apply(P("u1^2")) == P("2*u1")


def test_apply_identity():
    f = P("x1^2 + u1*x1")
    assert DiffOp.identity(CH1, Space.E).apply(f) == f


def test_apply_is_linear():
    rng = random.Random(5)
    bounds = Bounds()
    for _ in range(50):
        chart = rand_chart(rng, bounds)
        op = rand_diffop(rng, chart, Space.E, bounds)
        f = rand_poly(rng, chart, Space.E, bounds)
        g = rand_poly(rng, chart, Space.E, bounds)
        assert op.apply(f + g) == op.apply(f) + op.apply(g)


def test_mult_equals_the_validated_order_zero_table():
    rng = random.Random(6)
    bounds = Bounds()
    for _ in range(30):
        chart = rand_chart(rng, bounds)
        space = rng.choice([Space.E, Space.ESTAR, Space.AMBIENT])
        for p in (rand_poly(rng, chart, space, bounds), Poly.zero(chart, space)):
            built = DiffOp(p.chart, p.space, {(EMPTY_MI, EMPTY_MI): p})
            assert DiffOp.mult(p) == built
            assert DiffOp.mult(p).terms == built.terms


def test_repr_names_fiber_derivatives_by_space():
    assert repr(op_du(1, "x1")) == "DiffOp((x1) du[1])"
    star = DiffOp.monomial(P("v1", space=Space.ESTAR), EMPTY_MI, MultiIndex([1]))
    assert repr(star) == "DiffOp((v1) dv[1])"


def test_compose_leibniz_one_variable():
    du = op_du(1)
    mu = DiffOp.mult(P("u1"))
    assert du.compose(mu) == DiffOp.mult(P("u1")).compose(du) + DiffOp.identity(
        CH1, Space.E
    )


def test_compose_second_order():
    du = op_du(1)
    target = op_du(2, "u1")
    got = du.compose(target)
    expected = op_du(3, "u1") + op_du(2)
    assert got == expected


def test_compose_unit():
    rng = random.Random(11)
    bounds = Bounds()
    ident = DiffOp.identity(CH, Space.E)
    for _ in range(20):
        op = rand_diffop(rng, CH, Space.E, bounds)
        assert op.compose(ident) == op
        assert ident.compose(op) == op


def test_compose_matches_apply_oracle():
    rng = random.Random(17)
    bounds = Bounds()
    for _ in range(60):
        chart = rand_chart(rng, bounds)
        space = rng.choice([Space.E, Space.ESTAR])
        d1 = rand_diffop(rng, chart, space, bounds, max_keys=2)
        d2 = rand_diffop(rng, chart, space, bounds, max_keys=2)
        f = rand_poly(rng, chart, space, bounds)
        assert d1.compose(d2).apply(f) == d1.apply(d2.apply(f))


def test_compose_order_additive_bound():
    rng = random.Random(23)
    bounds = Bounds()
    for _ in range(40):
        d1 = rand_diffop(rng, CH, Space.E, bounds)
        d2 = rand_diffop(rng, CH, Space.E, bounds)
        composed = d1.compose(d2)
        if composed.order() is not None:
            assert composed.order() <= d1.order() + d2.order()


def test_commutator_canonical_relation():
    du = op_du(1)
    mu = DiffOp.mult(P("u1"))
    assert du.commutator(mu) == DiffOp.identity(CH1, Space.E)


def test_commutator_drops_order():
    du = op_du(1)
    assert du.commutator(op_du(2, "u1")) == op_du(2)


def test_commutator_antisymmetry():
    rng = random.Random(3)
    bounds = Bounds()
    for _ in range(20):
        op = rand_diffop(rng, CH, Space.E, bounds)
        assert op.commutator(op).is_zero()


def test_commutator_jacobi_randomized():
    rng = random.Random(31)
    bounds = Bounds(order_max=2)
    for _ in range(30):
        chart = rand_chart(rng, bounds)
        a = rand_diffop(rng, chart, Space.E, bounds, max_keys=2)
        b = rand_diffop(rng, chart, Space.E, bounds, max_keys=2)
        c = rand_diffop(rng, chart, Space.E, bounds, max_keys=1)
        jac = (
            a.commutator(b).commutator(c)
            + b.commutator(c).commutator(a)
            + c.commutator(a).commutator(b)
        )
        assert jac.is_zero()


SPACES = [Space.E, Space.ESTAR, Space.AMBIENT]


def test_commutator_with_function_matches_two_compositions():
    # [A, f] is one Leibniz pass without its S = empty part; the reference
    # is the difference of the two compositions
    rng = random.Random(71)
    bounds = Bounds()
    for space in SPACES:
        for order in range(4):
            for _ in range(8):
                chart = rand_chart(rng, bounds)
                a = rand_diffop(rng, chart, space, bounds, order=order)
                m = DiffOp.mult(rand_poly(rng, chart, space, bounds))
                assert a.commutator(m) == a.compose(m) - m.compose(a)


def test_commutator_with_zero_constant_and_order_zero_operands():
    rng = random.Random(73)
    bounds = Bounds()
    for space in SPACES:
        for _ in range(8):
            chart = rand_chart(rng, bounds)
            a = rand_diffop(rng, chart, space, bounds, order=3)
            zero = DiffOp.mult(Poly.zero(chart, space))
            const = DiffOp.mult(Poly.const(chart, space, Fraction(-3, 4)))
            assert a.commutator(zero).is_zero()
            assert a.commutator(const).is_zero()
            g = DiffOp.mult(rand_poly(rng, chart, space, bounds))
            m = DiffOp.mult(rand_poly(rng, chart, space, bounds))
            assert g.commutator(m).is_zero()


def test_commutator_with_function_runs_one_leibniz_pass(monkeypatch):
    passes = []
    leibniz = DiffOp._leibniz

    def counting(self, other, skip_empty):
        passes.append(skip_empty)
        return leibniz(self, other, skip_empty)

    monkeypatch.setattr(DiffOp, "_leibniz", counting)
    assert op_du(1).commutator(DiffOp.mult(P("u1"))) == DiffOp.identity(CH1, Space.E)
    assert passes == [True]
    passes.clear()
    assert op_du(1).commutator(op_du(2, "u1")) == op_du(2)
    assert passes == [False, False]


def test_function_commutator_keeps_the_order_bound_check(monkeypatch):
    # a Leibniz result of order 3 breaks the bound 2 + 0 - 1 for [d^2/du^2, u1]
    monkeypatch.setattr(DiffOp, "_leibniz", lambda self, other, skip: op_du(3))
    with pytest.raises(InvariantViolation, match="order bound"):
        op_du(2).commutator(DiffOp.mult(P("u1")))


def test_sub_multisets_returns_pairs():
    subs = MultiIndex([1, 1, 2]).sub_multisets()
    assert all(len(item) == 2 for item in subs)
    assert subs[0] == (EMPTY_MI, 1)
    assert (MultiIndex([1, 2]), 2) in subs


def test_order_of_zero_is_none():
    assert DiffOp.zero(CH, Space.E).order() is None


def test_operator_space_guards():
    op = DiffOp.identity(CH1, Space.E)
    with pytest.raises(SpaceMismatch):
        op.apply(parse_poly("v1", CH1, Space.ESTAR))
    with pytest.raises(SpaceMismatch):
        op.compose(DiffOp.identity(CH1, Space.ESTAR))
    with pytest.raises(SpaceMismatch):
        DiffOp.identity(CH1, Space.AMBIENT).grade_decompose()


def test_grade_decompose_examples():
    assert op_du(2, "u1").grade_decompose() == {-1: op_du(2, "u1")}
    assert op_du(2).grade_decompose() == {-2: op_du(2)}
    xdx = DiffOp.monomial(P("x1"), MultiIndex([1]), EMPTY_MI)
    assert xdx.grade_decompose() == {0: xdx}


def test_grade_conjugation_rational_t():
    rng = random.Random(41)
    bounds = Bounds()
    for _ in range(60):
        chart = rand_chart(rng, bounds)
        op = rand_diffop(rng, chart, Space.E, bounds)
        f = rand_poly(rng, chart, Space.E, bounds)
        t = rng.choice([Fraction(2), Fraction(-1, 2), Fraction(3)])
        for k, part in op.grade_decompose().items():
            lhs = part.apply(f.scale_fiber(1 / t)).scale_fiber(t)
            assert lhs == part.apply(f).scale(t**k)


def test_is_core_examples():
    assert op_du(2).is_core(2)
    assert not op_du(2, "u1").is_core(2)
    dx = DiffOp.monomial(P("1"), MultiIndex([1]), EMPTY_MI)
    assert not dx.is_core(1)
    assert not DiffOp.zero(CH1, Space.E).is_core(1)


def test_is_fwl_examples():
    assert op_du(2, "u1").is_fwl(2)
    assert op_du(1).is_fwl(2)  # first order core is FWL at order 2
    assert not op_du(1).is_fwl(1)
    assert not op_du(1, "u1*u2", CH).is_fwl(2)
    assert DiffOp.zero(CH1, Space.E).is_fwl(3)


def test_is_fwl_requires_space_e():
    op = DiffOp.identity(CH, Space.ESTAR)
    with pytest.raises(SpaceMismatch):
        op.is_fwl(1)


def test_first_order_fwl_is_linear_field_plus_function():
    terms = {
        (MultiIndex([1]), EMPTY_MI): P("x1"),
        (EMPTY_MI, MultiIndex([1])): P("2*u1"),
        (EMPTY_MI, EMPTY_MI): P("x1^2"),
    }
    op = DiffOp(CH1, Space.E, terms)
    assert op.is_fwl(1)


def test_recover_coefficients_dxx():
    dxx = DiffOp.monomial(
        Poly.const(CH, Space.E, 1), MultiIndex([1, 1]), EMPTY_MI
    )
    rec = dxx.recover_coefficients()
    assert rec == dxx.terms
    # by hand: [[op, x1], x1](1) = 2 and (11)! = 2
    x1 = Poly.var(CH, Space.E, Var(VarKind.BASE, 1))
    assert nested_values(dxx)([x1, x1]) == Poly.const(CH, Space.E, 2)


def test_recovery_refuses_an_over_cap_table():
    # C(61, 2) = 1830 order-2 keys on chart (30,30), over the cap of 1000.
    chart = Chart(30, 30)
    op = DiffOp.monomial(Poly.const(chart, Space.E, 1), MultiIndex([1]), MultiIndex([2]))
    with pytest.raises(RequestTooLarge, match="table key count .* n=30, m=30, q=2"):
        op.recover_coefficients()


def test_recover_identity():
    ident = DiffOp.identity(CH, Space.E)
    assert ident.recover_coefficients() == ident.terms


def test_recover_random_operators():
    rng = random.Random(59)
    bounds = Bounds()
    for _ in range(60):
        chart = rand_chart(rng, bounds)
        space = rng.choice([Space.E, Space.ESTAR, Space.AMBIENT])
        op = rand_diffop(rng, chart, space, bounds)
        assert op.recover_coefficients() == op.terms


def _plain_nested_value(op, fs):
    """[...[op, f1], ..., fk](1) by the definition A∘f - f∘A, left to right."""
    for f in fs:
        mult = DiffOp.mult(f)
        op = op.compose(mult) - mult.compose(op)
    return op.apply(Poly.const(op.chart, op.space, 1))


def test_nested_values_equal_a_plain_commutator_loop():
    rng = random.Random(61)
    small = Bounds(terms_max=2, exp_max=1)
    repeated = 0
    for _ in range(25):
        chart = rand_chart(rng, Bounds())
        space = rng.choice([Space.E, Space.ESTAR, Space.AMBIENT])
        op = rand_diffop(rng, chart, space, Bounds(), max_keys=5, order=3)
        coords = chart.vars_of(VarKind.BASE) + chart.vars_of(fiber_kind(space))
        letters = [
            Poly.var(chart, space, rng.choice(coords))
            + rand_poly(rng, chart, space, small)
            for _ in range(3)
        ]
        value = nested_values(op)
        # one map for many unsorted words with repeated letters, so later
        # words reuse the prefixes of earlier ones
        words = [
            [rng.choice(letters) for _ in range(rng.randint(0, 3))]
            for _ in range(6)
        ]
        f, g = letters[:2]
        for word in words + [[g, f, g], [g, f], [g, f, g, g]]:
            got = value(word)
            assert got == _plain_nested_value(op, word)
            repeated += len(word) != len(set(word)) and not got.is_zero()
    assert repeated >= 20


def test_recovery_shares_nested_commutator_prefixes(monkeypatch):
    # order 3 on chart (3,3): 84 keys, each one commutator past the key of
    # its first letters, 83 in all (216 if every key rebuilt its chain)
    op = rand_diffop(random.Random(0), Chart(3, 3), Space.E, Bounds(), order=3)
    assert op.order() == 3
    calls = []
    commutator = DiffOp.commutator

    def counting(self, other):
        calls.append(other)
        return commutator(self, other)

    monkeypatch.setattr(DiffOp, "commutator", counting)
    assert op.recover_coefficients() == op.terms
    assert len(calls) == 83


def test_symbol_extracts_top_order():
    op = op_du(2, "u1") + op_du(1)
    sym = op.symbol()
    assert sym.q == 2
    assert sym.terms == {(EMPTY_MI, MultiIndex([1, 1])): P("u1")}


def test_symbol_of_vector_field():
    dx = DiffOp.monomial(P("1"), MultiIndex([1]), EMPTY_MI)
    assert dx.symbol().terms == {(MultiIndex([1]), EMPTY_MI): P("1")}


def test_symbol_of_zero_raises():
    with pytest.raises(ZeroOperator):
        DiffOp.zero(CH, Space.E).symbol()


def test_symbol_satisfies_recovery_at_top():
    rng = random.Random(61)
    bounds = Bounds()
    for _ in range(30):
        chart = rand_chart(rng, bounds)
        op = rand_diffop(rng, chart, Space.E, bounds, order=3)
        order = op.order()
        if order is None:
            continue
        recovered = op.recover_coefficients()
        top = {k: v for k, v in recovered.items() if len(k[0]) + len(k[1]) == order}
        assert top == op.symbol().terms


def test_core_operators_commute():
    rng = random.Random(67)
    bounds = Bounds()
    for _ in range(40):
        chart = rand_chart(rng, bounds)
        f1 = rand_core_op(rng, chart, bounds, rng.randint(1, 3))
        f2 = rand_core_op(rng, chart, bounds, rng.randint(1, 3))
        assert f1.commutator(f2).is_zero()


def test_fwl_stabilizes_core():
    rng = random.Random(71)
    bounds = Bounds()
    for _ in range(40):
        chart = rand_chart(rng, bounds)
        op = rand_fwl_op(rng, chart, bounds, rng.randint(1, 3))
        core = rand_core_op(rng, chart, bounds, rng.randint(1, 2))
        assert op.commutator(core).is_core_sum()
        xi = DiffOp.mult(Poly.var(chart, Space.E, Var(VarKind.BASE, 1)))
        assert op.commutator(xi).is_core_sum()


def test_fwl_generated_from_core_module_generators():
    # every FWL operator is a core-coefficient combination of the identity,
    # fiber-linear functions and fiber-wise linear vector fields
    from fwlop.verify import _regenerate_fwl

    rng = random.Random(79)
    bounds = Bounds()
    for _ in range(40):
        chart = rand_chart(rng, bounds)
        q = rng.randint(1, 3)
        op = rand_fwl_op(rng, chart, bounds, q)
        assert _regenerate_fwl(chart, op, q) == op


def test_json_round_trip_examples():
    op = op_du(2, "u1") + op_du(1)
    text = diffop_dumps(op)
    assert diffop_loads(text) == op
    assert diffop_dumps(diffop_loads(text)) == text


def test_json_round_trip_randomized():
    rng = random.Random(73)
    bounds = Bounds()
    for _ in range(60):
        chart = rand_chart(rng, bounds)
        space = rng.choice([Space.E, Space.ESTAR, Space.AMBIENT])
        op = rand_diffop(rng, chart, space, bounds)
        text = diffop_dumps(op)
        assert diffop_loads(text) == op
        assert diffop_dumps(diffop_loads(text)) == text


def test_json_multiset_order_irrelevant():
    doc = {
        "chart": {"base_dim": 2, "fiber_rank": 2},
        "space": "E",
        "terms": [{"coeff": "1", "dx": [2, 1], "du": [1, 1]}],
    }
    op = diffop_from_doc(doc)
    assert (MultiIndex([1, 2]), MultiIndex([1, 1])) in op.terms


def test_json_rejects_unknown_keys():
    doc = json.loads(diffop_dumps(op_du(1)))
    doc["extra"] = True
    with pytest.raises(DocumentError):
        diffop_from_doc(doc)
    term_doc = json.loads(diffop_dumps(op_du(1)))
    term_doc["terms"][0]["note"] = "hi"
    with pytest.raises(DocumentError):
        diffop_from_doc(term_doc)


def test_json_merges_duplicate_keys():
    doc = {
        "chart": {"base_dim": 1, "fiber_rank": 1},
        "space": "E",
        "terms": [
            {"coeff": "u1", "dx": [], "du": [1]},
            {"coeff": "u1", "dx": [], "du": [1]},
        ],
    }
    assert diffop_from_doc(doc) == op_du(1, "2*u1")


def test_doc_deterministic_field_order():
    op = op_du(2, "u1") + op_du(1)
    doc = diffop_to_doc(op)
    assert list(doc) == ["chart", "space", "terms"]
    assert [t["du"] for t in doc["terms"]] == [[1], [1, 1]]
