"""Frame derivations, line-bundle derivations, pairs, and the bijection."""

import random

import pytest

from fwlop.diffop import DiffOp
from fwlop.errors import (
    IncompatiblePair,
    NotFWL,
    NotHomogeneous,
    OrderExceeded,
    SpaceMismatch,
)
from fwlop.lbundle import (
    FrameDerivation,
    LPair,
    a_inverse,
    a_iso,
    lderiv_commutator,
    lderivation_from_doc,
    lderivation_to_doc,
    pair_bracket,
    pair_product,
    pair_to_lderivation,
    psi_values,
)
from fwlop.multivec import (
    Section,
    SectionRole,
    SymMultivector,
    core_to_dualpoly,
    multiderivation_l,
    poisson,
    sym_product,
)
from fwlop.randgen import (
    Bounds,
    rand_chart,
    rand_core_op,
    rand_fwl_op,
    rand_fwl_pair,
    rand_homogeneous_lderivation,
    rand_linear_field_op,
    rand_multivector,
    rand_poly,
    rand_section,
)
from fwlop.symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    parse_poly,
)
from fwlop.verify import _unshuffle_pair_bracket, _unshuffle_pair_product

CH1 = Chart(1, 1)
CH = Chart(2, 2)
BOUNDS = Bounds()


def P(text, chart=CH1, space=Space.E):
    return parse_poly(text, chart, space)


def PS(text, chart=CH1):
    return parse_poly(text, chart, Space.ESTAR)


def deriv(dx, dv, mult, chart=CH1):
    """Line-bundle derivation on Estar from its d/dx, d/dv and order-0
    coefficients."""
    terms = {(EMPTY_MI, EMPTY_MI): PS(mult, chart)}
    for i, text in enumerate(dx, start=1):
        terms[(MultiIndex([i]), EMPTY_MI)] = PS(text, chart)
    for a, text in enumerate(dv, start=1):
        terms[(EMPTY_MI, MultiIndex([a]))] = PS(text, chart)
    return DiffOp(chart, Space.ESTAR, terms)


def coeff_of(d, mi_b, mi_f):
    """Coefficient of d at (mi_b, mi_f); () and () is the multiplication part."""
    return d.terms.get((MultiIndex(mi_b), MultiIndex(mi_f)), Poly.zero(d.chart, d.space))


def has_field(d):
    return bool(d.top_table(1))


def _frame(chart, symbol, matrix):
    return FrameDerivation.build(chart, chart.fiber_rank, symbol, matrix)


def test_dual_of_zero_matrix():
    d = _frame(CH1, [P("x1")], [[P("0")]])
    assert d.dual().matrix == ((P("0"),),)
    assert d.dual().symbol_field == d.symbol_field


def test_dual_single_entry():
    d = _frame(CH, [P("0", CH), P("0", CH)], [[P("0", CH), P("1", CH)], [P("0", CH), P("0", CH)]])
    dual = d.dual()
    assert dual.matrix == (
        (P("0", CH), P("0", CH)),
        (P("-1", CH), P("0", CH)),
    )


def test_dual_involutive_and_pairing():
    rng = random.Random(3)
    from fwlop.verify import _rand_frame_derivation

    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        d = _rand_frame_derivation(rng, chart, BOUNDS)
        assert d.dual().dual() == d
        phi = rand_section(rng, chart, BOUNDS, SectionRole.OF_ESTAR)
        e = rand_section(rng, chart, BOUNDS, SectionRole.OF_E)
        paired = Poly.zero(chart, Space.E)
        for a, b in zip(phi.components, e.components):
            paired = paired + a * b
        lhs = Poly.zero(chart, Space.E)
        for a, b in zip(d.dual().act(phi.components), e.components):
            lhs = lhs + a * b
        for a, b in zip(phi.components, d.act(e.components)):
            lhs = lhs + a * b
        rhs = Poly.zero(chart, Space.E)
        for i, coeff in enumerate(d.symbol_field, start=1):
            rhs = rhs + coeff * paired.partial(Var(VarKind.BASE, i))
        assert lhs == rhs


def test_dual_is_lie_map():
    rng = random.Random(5)
    from fwlop.verify import _rand_frame_derivation

    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        d1 = _rand_frame_derivation(rng, chart, BOUNDS)
        d2 = _rand_frame_derivation(rng, chart, BOUNDS)
        assert d1.commutator(d2).dual() == d1.dual().commutator(d2.dual())


def test_top_power_identity_matrix():
    ident = _frame(CH, [P("0", CH), P("0", CH)], [[P("1", CH), P("0", CH)], [P("0", CH), P("1", CH)]])
    assert ident.top_power().matrix[0][0] == P("2", CH)


def test_top_power_traceless():
    d = _frame(CH, [P("0", CH), P("0", CH)], [[P("x1", CH), P("1", CH)], [P("0", CH), P("-x1", CH)]])
    assert d.top_power().matrix[0][0].is_zero()


def test_lderiv_commutator():
    w1 = deriv(["v1"], ["0"], "0")
    w2 = deriv(["0"], ["v1^2"], "0")
    d1 = w1 + DiffOp.mult(PS("x1"))
    d2 = w2 + DiffOp.mult(PS("v1"))
    got = lderiv_commutator(d1, d2)
    assert coeff_of(got, [], []) == w1.apply(PS("v1")) - w2.apply(PS("x1"))
    assert not has_field(lderiv_commutator(d1, d1))
    assert coeff_of(lderiv_commutator(d1, d1), [], []).is_zero()


def test_lderiv_commutator_matches_action():
    rng = random.Random(7)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        d1 = rand_homogeneous_lderivation(rng, chart, BOUNDS, rng.randint(0, 2))
        d2 = rand_homogeneous_lderivation(rng, chart, BOUNDS, rng.randint(0, 2))
        f = rand_poly(rng, chart, Space.ESTAR, BOUNDS)
        bracket = lderiv_commutator(d1, d2)
        assert bracket.apply(f) == d1.apply(d2.apply(f)) - d2.apply(d1.apply(f))


def test_pure_multiplication_parts_commute():
    d1 = DiffOp.mult(PS("v1"))
    d2 = DiffOp.mult(PS("x1*v1"))
    bracket = lderiv_commutator(d1, d2)
    assert not has_field(bracket) and coeff_of(bracket, [], []).is_zero()


def test_pair_from_phi_table_validates_symbol():
    p = SymMultivector(CH1, Space.E, 1, {(MultiIndex([1]), EMPTY_MI): P("1")})
    with pytest.raises(IncompatiblePair):
        LPair.from_phi_table(p, {MultiIndex(): ((P("0"),), P("0"))})
    pair = LPair.from_phi_table(p, {MultiIndex(): ((P("1"),), P("x1"))})
    assert pair.rho.terms == {(EMPTY_MI, EMPTY_MI): P("x1")}


def test_phi_table_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        pair = rand_fwl_pair(rng, chart, BOUNDS, rng.randint(1, 3))
        table = pair.phi_table
        assert LPair.from_phi_table(pair.p, table) == pair


def test_pair_bracket_antisymmetric():
    rng = random.Random(13)
    for _ in range(10):
        chart = rand_chart(rng, BOUNDS)
        pair = rand_fwl_pair(rng, chart, BOUNDS, rng.randint(1, 2))
        auto = pair_bracket(pair, pair)
        assert auto.p.is_zero() and auto.rho.is_zero()


def test_pair_bracket_of_vector_field_pairs():
    # two order-1 pairs with zero multiplication parts bracket to the
    # pair of the field commutator
    p1 = LPair(
        SymMultivector(CH1, Space.E, 1, {(EMPTY_MI, MultiIndex([1])): P("u1")}),
        SymMultivector(CH1, Space.E, 0, {}),
    )
    p2 = LPair(
        SymMultivector(CH1, Space.E, 1, {(EMPTY_MI, MultiIndex([1])): P("1")}),
        SymMultivector(CH1, Space.E, 0, {}),
    )
    out = pair_bracket(p1, p2)
    assert out.p == _unshuffle_pair_bracket(p1, p2).p
    assert out.rho.is_zero()


def test_pair_bracket_and_product_projections():
    rng = random.Random(17)
    for _ in range(12):
        chart = rand_chart(rng, BOUNDS)
        pr1 = rand_fwl_pair(rng, chart, BOUNDS, rng.randint(1, 2))
        pr2 = rand_fwl_pair(rng, chart, BOUNDS, rng.randint(1, 2))
        # the library pair's P is built from poisson/sym_product, so compare
        # with the P of the unshuffle oracles
        bracket = pair_bracket(pr1, pr2)
        assert bracket.p == _unshuffle_pair_bracket(pr1, pr2).p
        assert bracket.is_fwl_pair()
        product = pair_product(pr1, pr2)
        assert product.p == _unshuffle_pair_product(pr1, pr2).p


def test_non_fwl_pairs_match_unshuffle_oracles():
    # general P of order q with general rho of order q-1: the verify suites
    # draw FWL pairs only
    rng = random.Random(47)
    non_fwl = 0
    for _ in range(12):
        chart = rand_chart(rng, BOUNDS)
        prs = []
        for q in (rng.randint(1, 2), rng.randint(1, 2)):
            p = rand_multivector(rng, chart, Space.E, BOUNDS, q)
            rho = rand_multivector(rng, chart, Space.E, BOUNDS, q - 1)
            prs.append(LPair(p, rho))
            non_fwl += not prs[-1].is_fwl_pair()
        assert pair_bracket(*prs) == _unshuffle_pair_bracket(*prs)
        assert pair_product(*prs) == _unshuffle_pair_product(*prs)
    assert non_fwl > 12


def test_pair_results_equal_the_validated_ones():
    # both rho summands collect into one table and are built unchecked; the
    # public constructor checks and canonicalises the same tables
    rng = random.Random(53)
    for _ in range(16):
        chart = rand_chart(rng, BOUNDS)
        prs = []
        for q in (rng.randint(1, 3), rng.randint(1, 3)):
            p = rand_multivector(rng, chart, Space.E, BOUNDS, q)
            rho = rand_multivector(rng, chart, Space.E, BOUNDS, q - 1)
            prs.append(LPair(p, rho))
        for got in (pair_bracket(*prs), pair_product(*prs)):
            for part in (got.p, got.rho):
                checked = SymMultivector(part.chart, part.space, part.q, part.terms)
                assert part == checked and part.to_operator() == checked.to_operator()
        p1, p2 = prs
        assert pair_bracket(*prs).rho == poisson(p1.p, p2.rho) - poisson(p2.p, p1.rho)
        assert pair_product(*prs).rho == sym_product(p1.p, p2.rho) + sym_product(
            p2.p, p1.rho
        )


def test_pair_to_lderivation_intertwines_bracket():
    rng = random.Random(19)
    for _ in range(12):
        chart = rand_chart(rng, BOUNDS)
        pr1 = rand_fwl_pair(rng, chart, BOUNDS, rng.randint(1, 2))
        pr2 = rand_fwl_pair(rng, chart, BOUNDS, rng.randint(1, 2))
        lhs = pair_to_lderivation(pair_bracket(pr1, pr2))
        rhs = lderiv_commutator(pair_to_lderivation(pr1), pair_to_lderivation(pr2))
        assert lhs == rhs


def test_pair_to_lderivation_generator_examples():
    # (X, D_X) for the Euler field: multiplication part is the trace action
    euler = SymMultivector(CH1, Space.E, 1, {(EMPTY_MI, MultiIndex([1])): P("u1")})
    pair = LPair.from_phi_table(
        euler, {MultiIndex(): ((P("0"),), P("-1"))}
    )
    image = pair_to_lderivation(pair)
    assert coeff_of(image, [], [1]) == PS("-v1")
    assert coeff_of(image, [], []) == PS("-1")

    # (0, identity endomorphism) goes to pure multiplication by 1
    zero = SymMultivector(CH1, Space.E, 1, {})
    pair = LPair.from_phi_table(zero, {MultiIndex(): ((P("0"),), P("1"))})
    image = pair_to_lderivation(pair)
    assert not has_field(image) and coeff_of(image, [], []) == PS("1")


def test_pair_derivation_bijection():
    rng = random.Random(53)
    from fwlop.lbundle import lderivation_to_pair

    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        pair = rand_fwl_pair(rng, chart, BOUNDS, q)
        image = pair_to_lderivation(pair)
        assert lderivation_to_pair(image, q) == pair
        degree = rng.randint(0, 2)
        deriv = rand_homogeneous_lderivation(rng, chart, BOUNDS, degree)
        assert pair_to_lderivation(lderivation_to_pair(deriv, degree + 1)) == deriv


def test_pair_to_lderivation_rejects_non_core_rho():
    p = SymMultivector(CH1, Space.E, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1")})
    rho = SymMultivector(CH1, Space.E, 1, {(EMPTY_MI, MultiIndex([1])): P("u1")})
    with pytest.raises(IncompatiblePair):
        pair_to_lderivation(LPair(p, rho))


def test_a_iso_generator_cases():
    ident = DiffOp.identity(CH1, Space.E)
    image = a_iso(ident, 1)
    assert not has_field(image) and coeff_of(image, [], []) == PS("1")

    ell = DiffOp.mult(P("x1*u1"))
    image = a_iso(ell, 0)
    assert coeff_of(image, [], []).is_zero()
    assert coeff_of(image, [1], []).is_zero()
    assert coeff_of(image, [], [1]) == PS("-x1")

    euler = DiffOp.monomial(P("u1"), EMPTY_MI, MultiIndex([1]))
    image = a_iso(euler, 1)
    assert coeff_of(image, [], [1]) == PS("-v1")
    assert coeff_of(image, [], []) == PS("-1")


def test_a_iso_worked_instance():
    # u1 d2/du1^2 + d/du1: the bundle-map route gives field -v1^2 d/dv1 and
    # multiplication part -v1 (table value v1 minus the trace divergence 2v1)
    op = DiffOp.monomial(P("u1"), EMPTY_MI, MultiIndex([1, 1])) + DiffOp.monomial(
        P("1"), EMPTY_MI, MultiIndex([1])
    )
    image = a_iso(op, 2)
    assert coeff_of(image, [], [1]) == PS("-v1^2")
    assert coeff_of(image, [], []) == PS("-v1")
    assert a_inverse(image, 2) == op


def test_a_iso_requires_fwl():
    with pytest.raises(NotFWL):
        a_iso(DiffOp.monomial(P("u1^2"), EMPTY_MI, MultiIndex([1])), 1)


def test_a_iso_work_counts(monkeypatch):
    import fwlop.lbundle as lb
    import fwlop.multivec as mv

    with pytest.raises(NotFWL):
        lb._a_iso_pair(DiffOp.monomial(P("1"), EMPTY_MI, MultiIndex([1, 1])), 2)
    # one whole a_iso call at chart (2,2) and q = 3, with 3 basis indices C:
    # the field once, P checked FWL by the field and by the bundle path, no
    # section or evaluation, and one nested-commutator table whose words u_C
    # and u_C + [u_alpha] share prefixes: 2 + 3 + 6 = 11 commutators
    calls = {
        "hamiltonian_field": 0,
        "fwl_check": 0,
        "symbol_field": 0,
        "ell": 0,
        "eval": 0,
        "commutator": 0,
    }

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    check = counting("fwl_check", mv.fwl_check_multivector)
    monkeypatch.setattr(mv, "fwl_check_multivector", check)
    monkeypatch.setattr(lb, "fwl_check_multivector", check)
    monkeypatch.setattr(
        lb, "hamiltonian_field", counting("hamiltonian_field", lb.hamiltonian_field)
    )
    monkeypatch.setattr(
        lb, "_symbol_field_on_basis", counting("symbol_field", lb._symbol_field_on_basis)
    )
    monkeypatch.setattr(Section, "ell", counting("ell", Section.ell))
    monkeypatch.setattr(
        mv.SymMultivector, "eval", counting("eval", mv.SymMultivector.eval)
    )
    monkeypatch.setattr(
        DiffOp, "commutator", counting("commutator", DiffOp.commutator)
    )
    op = rand_fwl_op(random.Random(5), CH, BOUNDS, 3)
    a_iso(op, 3)
    assert calls["hamiltonian_field"] == 1
    assert calls["fwl_check"] <= 2
    assert calls["symbol_field"] == 0
    assert calls["ell"] == 0
    assert calls["eval"] == 0
    assert calls["commutator"] <= 11


def test_a_inverse_examples():
    ident = a_inverse(DiffOp.identity(CH1, Space.ESTAR), 1)
    assert ident == DiffOp.identity(CH1, Space.E)

    field = deriv(["v1"], ["0"], "0")
    got = a_inverse(field, 2)
    assert got == DiffOp.monomial(P("1"), MultiIndex([1]), MultiIndex([1]))
    assert a_iso(got, 2) == field


def test_a_inverse_rejects_inhomogeneous():
    field = deriv(["v1 + v1^2"], ["0"], "0")
    with pytest.raises(NotHomogeneous):
        a_inverse(field, 2)


def test_a_inverse_refuses_operators_that_are_not_derivations():
    # A second-order term of weight 0 passes the degree-0 homogeneity test,
    # so only the order guard keeps it from being dropped silently.
    second = DiffOp.monomial(PS("v1^2"), EMPTY_MI, MultiIndex([1, 1]))
    with pytest.raises(OrderExceeded):
        a_inverse(DiffOp.identity(CH1, Space.ESTAR) + second, 1)
    with pytest.raises(SpaceMismatch):
        a_inverse(DiffOp.identity(CH1, Space.E), 1)


def test_a_round_trips_randomized():
    rng = random.Random(23)
    for _ in range(30):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rand_fwl_op(rng, chart, BOUNDS, q)
        assert a_inverse(a_iso(op, q), q) == op
        degree = rng.randint(0, 2)
        deriv = rand_homogeneous_lderivation(rng, chart, BOUNDS, degree)
        assert a_iso(a_inverse(deriv, degree + 1), degree + 1) == deriv


def test_a_iso_lie_morphism():
    rng = random.Random(29)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
        d1 = rand_fwl_op(rng, chart, BOUNDS, q1)
        d2 = rand_fwl_op(rng, chart, BOUNDS, q2)
        lhs = a_iso(d1.commutator(d2), q1 + q2 - 1)
        rhs = lderiv_commutator(a_iso(d1, q1), a_iso(d2, q2))
        assert lhs == rhs


def test_a_iso_module_morphism():
    rng = random.Random(31)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 2)
        p = rng.randint(1, 2)
        op = rand_fwl_op(rng, chart, BOUNDS, q)
        core = rand_core_op(rng, chart, BOUNDS, p)
        lhs = a_iso(core.compose(op), p + q)
        rhs = DiffOp.mult(core_to_dualpoly(core.symbol())).compose(a_iso(op, q))
        assert lhs == rhs


def test_a_iso_of_core_is_multiplication():
    rng = random.Random(37)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        p = rng.randint(1, 2)
        core = rand_core_op(rng, chart, BOUNDS, p)
        image = a_iso(core, p + 1)
        assert not has_field(image)
        assert coeff_of(image, [], []) == core_to_dualpoly(core.symbol())


def test_psi_leibniz():
    rng = random.Random(41)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(2, 3)
        op = rand_fwl_op(rng, chart, BOUNDS, q)
        phis = [rand_section(rng, chart, BOUNDS) for _ in range(q - 1)]
        f = rand_poly(rng, chart, Space.E, BOUNDS, base_only=True)
        scaled = phis[:-1] + [phis[-1].scale(f)]
        lhs = psi_values(op, scaled)
        rhs = f * psi_values(op, phis) + multiderivation_l(op.symbol_at(q), *phis, f)
        assert lhs == rhs


def test_lderivation_doc_round_trip():
    rng = random.Random(43)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        deriv = rand_homogeneous_lderivation(rng, chart, BOUNDS, rng.randint(0, 2))
        doc = lderivation_to_doc(deriv)
        assert lderivation_from_doc(doc) == deriv


def test_linear_generator_matches_expected_trace():
    op = rand_linear_field_op(random.Random(47), CH, BOUNDS)
    image = a_iso(op, 1)
    trace = Poly.zero(CH, Space.ESTAR)
    for alpha in range(1, 3):
        coeff = op.terms.get((EMPTY_MI, MultiIndex([alpha])))
        if coeff is not None:
            trace = trace - coeff.partial(Var(VarKind.FIBER, alpha)).with_space(
                Space.ESTAR
            )
    assert coeff_of(image, [], []) == trace
