"""Frame derivations as linear vector fields, line-bundle derivations,
pairs, and the bijection."""

import random
from fractions import Fraction

import pytest

from fwlop._oracles import (
    _dual,
    _pairing,
    _unshuffle_pair_bracket,
    _unshuffle_pair_product,
    _wedge_coefficient,
    all_multi_indices,
)
from fwlop.diffop import DiffOp, nested_values
from fwlop.errors import (
    ChartMismatch,
    DocumentError,
    IncompatiblePair,
    NotFWL,
    NotHomogeneous,
    OrderExceeded,
    SpaceMismatch,
)
from fwlop.lbundle import (
    LPair,
    _a_iso_pair,
    a_inverse,
    a_iso,
    lderiv_commutator,
    lderivation_from_doc,
    lderivation_to_doc,
    pair_bracket,
    pair_product,
    pair_to_lderivation,
)
from fwlop.multivec import (
    SymMultivector,
    _is_fiber_linear,
    core_to_dualpoly,
    fwl_check_multivector,
    is_core_multivector,
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
from fwlop.verify import _rand_frame_derivation

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
    """The frame derivation with symbol X and matrix A as its linear vector
    field X + sum A_ab v_a d/dv_b on the dual space."""
    op = DiffOp.zero(chart, Space.ESTAR)
    for i, text in enumerate(symbol, start=1):
        op = op + DiffOp.monomial(PS(text, chart), MultiIndex([i]), EMPTY_MI)
    for a, row in enumerate(matrix, start=1):
        for b, text in enumerate(row, start=1):
            coeff = PS(text, chart) * PS(f"v{a}", chart)
            op = op + DiffOp.monomial(coeff, EMPTY_MI, MultiIndex([b]))
    return op


def _top_power(d):
    """The top-power action of a frame derivation: a_iso of its dual."""
    return a_iso(_dual(d), 1)


def test_dual_of_zero_matrix():
    d = _frame(CH1, ["x1"], [["0"]])
    assert _dual(d) == DiffOp.monomial(P("x1"), MultiIndex([1]), EMPTY_MI)


def test_dual_single_entry():
    # A = [[0, 1], [0, 0]]: the dual's matrix -A^T has -1 at row 2, column 1
    d = _frame(CH, ["0", "0"], [["0", "1"], ["0", "0"]])
    assert d == DiffOp.monomial(PS("v1", CH), EMPTY_MI, MultiIndex([2]))
    assert _dual(d) == DiffOp.monomial(P("-u2", CH), EMPTY_MI, MultiIndex([1]))


def test_dual_involutive_and_pairing():
    # X<phi, e> = <D* phi, e> + <phi, D e>, with X read off the d/dx terms
    rng = random.Random(3)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        d = _rand_frame_derivation(rng, chart, BOUNDS)
        assert _dual(_dual(d)) == d
        phi = rand_section(rng, chart, BOUNDS)
        e = rand_section(rng, chart, BOUNDS, Space.ESTAR)
        lhs = _pairing(_dual(d).apply(phi), e) + _pairing(phi, d.apply(e))
        paired = _pairing(phi, e)
        rhs = Poly.zero(chart, Space.E)
        for (mi_b, _), coeff in d.terms.items():
            if mi_b:
                x_i = Var(VarKind.BASE, mi_b[0])
                rhs = rhs + coeff.with_space(Space.E) * paired.partial(x_i)
        assert lhs == rhs


def test_dual_is_lie_map():
    rng = random.Random(5)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        d1 = _rand_frame_derivation(rng, chart, BOUNDS)
        d2 = _rand_frame_derivation(rng, chart, BOUNDS)
        assert _dual(d1.commutator(d2)) == _dual(d1).commutator(_dual(d2))


def test_top_power_identity_matrix():
    ident = _frame(CH, ["0", "0"], [["1", "0"], ["0", "1"]])
    assert _top_power(ident) == ident + DiffOp.mult(PS("2", CH))
    assert _wedge_coefficient(ident, 0) + _wedge_coefficient(ident, 1) == P("2", CH)


def test_top_power_traceless():
    d = _frame(CH, ["0", "0"], [["x1", "1"], ["0", "-x1"]])
    assert _top_power(d) == d
    assert (_wedge_coefficient(d, 0) + _wedge_coefficient(d, 1)).is_zero()


def test_top_power_is_the_trace_action():
    # f -> X(f) + tr(A) f on base functions, the trace read by the wedge
    # expansion
    rng = random.Random(9)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        d = _rand_frame_derivation(rng, chart, BOUNDS)
        trace = sum(
            (_wedge_coefficient(d, i) for i in range(chart.fiber_rank)),
            Poly.zero(chart, Space.E),
        ).with_space(Space.ESTAR)
        f = rand_poly(rng, chart, Space.ESTAR, BOUNDS, base_only=True)
        assert _top_power(d).apply(f) == d.apply(f) + trace * f


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
        assert fwl_check_multivector(bracket.p) and is_core_multivector(bracket.rho)
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
            non_fwl += not (fwl_check_multivector(p) and is_core_multivector(rho))
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
    pair = LPair(euler, SymMultivector(CH1, Space.E, 0, {(EMPTY_MI, EMPTY_MI): P("-1")}))
    image = pair_to_lderivation(pair)
    assert coeff_of(image, [], [1]) == PS("-v1")
    assert coeff_of(image, [], []) == PS("-1")

    # (0, identity endomorphism) goes to pure multiplication by 1
    zero = SymMultivector(CH1, Space.E, 1, {})
    pair = LPair(zero, SymMultivector(CH1, Space.E, 0, {(EMPTY_MI, EMPTY_MI): P("1")}))
    image = pair_to_lderivation(pair)
    assert not has_field(image) and coeff_of(image, [], []) == PS("1")


def test_pair_derivation_bijection():
    # a derivation goes back to its pair through a_inverse and the
    # bundle-map path of a_iso
    def to_pair(d, q):
        op = a_inverse(d, q)
        return _a_iso_pair(op, q, op.symbol_at(q))

    rng = random.Random(53)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        pair = rand_fwl_pair(rng, chart, BOUNDS, q)
        image = pair_to_lderivation(pair)
        assert to_pair(image, q) == pair
        degree = rng.randint(0, 2)
        deriv = rand_homogeneous_lderivation(rng, chart, BOUNDS, degree)
        assert pair_to_lderivation(to_pair(deriv, degree + 1)) == deriv


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

    # one whole a_iso call at chart (2,2) and q = 3, with 3 basis indices C:
    # the symbol built once and shared by the field and the bundle path, P
    # not checked FWL again (the operand's FWL test covers it), no
    # multivector evaluation, and one
    # walk of live words u_C that sweeps the root and the live words of one
    # letter (at most 1 + 2 = 3 sweeps) and reads each trace column off its
    # leaf: no commutator
    calls = {
        "hamiltonian_field": 0,
        "symbol_at": 0,
        "fwl_check": 0,
        "eval": 0,
        "commutator": 0,
        "sweep": 0,
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
        lb, "_hamiltonian_field", counting("hamiltonian_field", lb._hamiltonian_field)
    )
    monkeypatch.setattr(
        mv.SymMultivector, "eval", counting("eval", mv.SymMultivector.eval)
    )
    monkeypatch.setattr(DiffOp, "symbol_at", counting("symbol_at", DiffOp.symbol_at))
    monkeypatch.setattr(
        DiffOp, "_function_bracket", counting("commutator", DiffOp._function_bracket)
    )
    monkeypatch.setattr(DiffOp, "_shifts", counting("sweep", DiffOp._shifts))
    op = rand_fwl_op(random.Random(5), CH, BOUNDS, 3)
    a_iso(op, 3)
    assert calls["hamiltonian_field"] == 1
    assert calls["symbol_at"] == 1
    assert calls["fwl_check"] == 0
    assert calls["eval"] == 0
    assert calls["commutator"] == 0
    assert calls["sweep"] == 3


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


def _a_inverse_by_basis_walk(d, q):
    """a_inverse as a walk over every basis multi-index C, |C| = q-1: the
    order-(q-1) coefficient at C is the multiplication part at C minus
    sum_b (C[b]+1) times the part at C + b of Y_b, the d/dv_b coefficient."""
    chart, zero = d.chart, Poly.zero(d.chart, Space.ESTAR)
    terms = {}
    for i in range(1, chart.base_dim + 1):
        comp = d.terms.get((MultiIndex([i]), EMPTY_MI), zero)
        for mi, base_part in comp.fiber_parts(Space.E).items():
            terms[(MultiIndex([i]), mi)] = base_part
    parts, fiber_coeffs = {}, {}
    for alpha in range(1, chart.fiber_rank + 1):
        comp = d.terms.get((EMPTY_MI, MultiIndex([alpha])), zero)
        for mi, base_part in comp.fiber_parts(Space.E).items():
            fiber_coeffs[(mi, alpha)] = base_part
            parts.setdefault(mi, []).append((-1, base_part, (alpha,)))
    mult_parts = d.terms.get((EMPTY_MI, EMPTY_MI), zero).fiber_parts(Space.E)
    for mi in all_multi_indices(chart.fiber_rank, q - 1):
        key_parts = parts.setdefault(mi, [])
        if mi in mult_parts:
            key_parts.append((1, mult_parts[mi], EMPTY_MI))
        for beta in range(1, chart.fiber_rank + 1):
            top = fiber_coeffs.get((mi.concat(MultiIndex([beta])), beta))
            if top is not None:
                key_parts.append((-(mi.count(beta) + 1), top, EMPTY_MI))
    for mi, key_parts in parts.items():
        terms[(EMPTY_MI, mi)] = Poly.from_fiber_parts(chart, Space.E, key_parts)
    return DiffOp(chart, Space.E, terms)


def test_a_inverse_matches_the_basis_walk():
    rng = random.Random(97)
    for _ in range(60):
        chart = Chart(rng.randint(1, 3), rng.randint(1, 3))
        q = rng.randint(1, 4)
        d = rand_homogeneous_lderivation(rng, chart, BOUNDS, q - 1)
        assert a_inverse(d, q) == _a_inverse_by_basis_walk(d, q)
    # q = 0: a field with base-only d/dv coefficients and nothing else
    field = DiffOp(CH, Space.ESTAR, {
        (EMPTY_MI, MultiIndex([a])): rand_poly(rng, CH, Space.ESTAR, BOUNDS, base_only=True)
        for a in (1, 2)
    })
    assert a_inverse(field, 0) == _a_inverse_by_basis_walk(field, 0)
    # C(9, 5) = 126 basis multi-indices at m = 5, q = 6: over the cap of
    # 100 that a_iso keeps, while a_inverse reads the derivation's parts
    for _ in range(3):
        d = rand_homogeneous_lderivation(rng, Chart(1, 5), BOUNDS, 5)
        assert a_inverse(d, 6) == _a_inverse_by_basis_walk(d, 6)


def _a_iso_rho_by_basis_walk(op, q):
    """rho of the bundle-map path as a walk over every basis multi-index C,
    |C| = q-1, through one `nested_values` table: Psi(C) plus the trace
    action, whose column alpha is the value at u_C + [u_alpha], divided
    by C!."""
    chart = op.chart
    value = nested_values(op)
    coords = [Poly.var(chart, Space.E, v) for v in chart.vars_of(VarKind.FIBER)]
    rho_terms = {}
    for c_idx in all_multi_indices(chart.fiber_rank, q - 1):
        word = [coords[a - 1] for a in c_idx]
        mult = value(word)
        assert mult.is_base_only()
        for alpha, u_alpha in enumerate(coords, start=1):
            column = value(word + [u_alpha])
            assert _is_fiber_linear(column)
            mult = mult - column.partial(Var(VarKind.FIBER, alpha))
        if mult.terms:
            rho_terms[(EMPTY_MI, c_idx)] = mult.scale(Fraction(1, c_idx.factorial()))
    return SymMultivector._unchecked(chart, Space.E, q - 1, rho_terms)


def test_a_iso_pair_matches_the_basis_walk():
    rng = random.Random(98)
    nonzero = 0
    for _ in range(80):
        chart = Chart(rng.randint(1, 3), rng.randint(1, 3))
        q = rng.randint(1, 4)
        op = rand_fwl_op(rng, chart, BOUNDS, q)
        rho = _a_iso_pair(op, q, op.symbol_at(q)).rho
        assert rho == _a_iso_rho_by_basis_walk(op, q)
        nonzero += not rho.is_zero()
    assert nonzero >= 40
    # C(9, 5) = 126 basis multi-indices at m = 5, q = 6: over the cap of
    # 100 that a_iso once had
    for _ in range(3):
        op = rand_fwl_op(rng, Chart(1, 5), BOUNDS, 6)
        assert _a_iso_pair(op, 6, op.symbol_at(6)).rho == _a_iso_rho_by_basis_walk(op, 6)


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
        psi = nested_values(op)
        lhs = psi(phis[:-1] + [f * phis[-1]])
        rhs = f * psi(phis) + multiderivation_l(op.symbol_at(q), *phis, f)
        assert lhs.is_base_only() and lhs == rhs


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


def test_pair_refusals():
    p = SymMultivector(CH1, Space.E, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1")})
    rho = SymMultivector.zero(CH1, Space.E, 1)
    cases = [
        (CH, Space.E, 1, ChartMismatch, "pair components on different charts"),
        (CH1, Space.ESTAR, 1, SpaceMismatch, "pairs live over the total space"),
        (CH1, Space.E, 2, IncompatiblePair, "rho must have order q-1"),
    ]
    for chart, space, q, error, message in cases:
        with pytest.raises(error) as info:
            LPair(p, SymMultivector.zero(chart, space, q))
        assert str(info.value) == message
    with pytest.raises(IncompatiblePair) as info:
        LPair(p, rho).apply([P("x1"), P("u1")], P("u1"))
    assert str(info.value) == "expected 1 function slots"
    # u1^2 d_u1^2 has weight 0, not 1 - 2
    not_fwl = SymMultivector(CH1, Space.E, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1^2")})
    with pytest.raises(IncompatiblePair) as info:
        pair_to_lderivation(LPair(not_fwl, rho))
    assert str(info.value) == "pair_to_lderivation needs a FWL multivector part"


@pytest.mark.parametrize(
    "field, mult, message",
    [
        ({"dx": "x1", "dv": ["0"]}, "0", "field components must be lists of polynomials"),
        ({"dx": ["x1", "0"], "dv": ["0"]}, "0", "field component counts must match the chart"),
        ({"dx": ["x1"], "dv": ["0"]}, 0, "mult must be a polynomial string"),
    ],
    ids=["not-a-list", "wrong-count", "mult-not-a-string"],
)
def test_lderivation_doc_refusals(field, mult, message):
    doc = {"chart": {"base_dim": 1, "fiber_rank": 1}, "field": field, "mult": mult}
    with pytest.raises(DocumentError) as info:
        lderivation_from_doc(doc)
    assert str(info.value) == message


def test_pair_is_immutable_and_prints_its_parts():
    p = SymMultivector(CH1, Space.E, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1")})
    pair = LPair(p, SymMultivector.zero(CH1, Space.E, 1))
    with pytest.raises(AttributeError) as info:
        pair.rho = p
    assert str(info.value) == "LPair is immutable"
    assert repr(pair) == (
        "LPair(P=SymMultivector(q=2, DiffOp((u1) du[1, 1])), "
        "rho=SymMultivector(q=1, DiffOp(0)))"
    )
