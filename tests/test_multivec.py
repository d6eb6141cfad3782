"""Multivectors: evaluation, Poisson bracket, multiderivations, Laplacian."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from fwlop.diffop import DiffOp, nested_values
from fwlop._oracles import (
    _det,
    _pairing,
    _recover_table,
    _unshuffle_poisson,
    unshuffles,
    vars_of,
)
from fwlop.errors import (
    MAX_LAPLACIAN_DIM,
    ArityMismatch,
    AsymmetricGamma,
    ChartMismatch,
    NotCore,
    NotFWL,
    RankMismatch,
    RequestTooLarge,
    SpaceMismatch,
)
from fwlop.multivec import (
    SymMultivector,
    core_to_dualpoly,
    fwl_check_multivector,
    fwl_metric_laplacian,
    hamiltonian_field,
    is_core_multivector,
    multiderivation_D,
    multiderivation_l,
    poisson,
    sym_product,
)
from fwlop.randgen import (
    Bounds,
    rand_chart,
    rand_core_multivector,
    rand_diffop,
    rand_fwl_multivector,
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
    poly_to_str,
)
from var_reading import substitute

CH1 = Chart(1, 1)
CH = Chart(2, 2)
BOUNDS = Bounds()


def P(text, chart=CH1, space=Space.E):
    return parse_poly(text, chart, space)


def PS(text, chart=CH1):
    return parse_poly(text, chart, Space.ESTAR)


def mv(chart, q, table):
    return SymMultivector(chart, Space.E, q, table)


def _unshuffle_sym_product(p1: SymMultivector, p2: SymMultivector) -> SymMultivector:
    """The defining formula of the symmetric product, the oracle of its
    table formula: the sum over (q1, q2)-unshuffles of p1(block1)
    p2(block2), evaluated on coordinate functions and recovered into a
    table."""
    q = p1.q + p2.q

    def value(args):
        out = Poly.zero(p1.chart, p1.space)
        for first, second in unshuffles(p1.q, p2.q):
            out = out + p1.eval(*(args[i] for i in first)) * p2.eval(
                *(args[i] for i in second)
            )
        return out

    terms = _recover_table(p1.chart, p1.space, q, value)
    return SymMultivector(p1.chart, p1.space, q, terms)


def test_eval_by_nested_commutators():
    p = mv(CH1, 2, {(MultiIndex([1, 1]), EMPTY_MI): P("1")})
    assert p.eval(P("x1"), P("x1")) == P("2")


def test_eval_kills_core_slot_for_core_multivector():
    p = mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("1")})
    assert p.eval(P("u1"), P("x1^2")).is_zero()


def test_eval_symmetric():
    rng = random.Random(2)
    for _ in range(30):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        p = rand_multivector(rng, chart, Space.E, BOUNDS, q)
        args = [rand_poly(rng, chart, Space.E, BOUNDS) for _ in range(q)]
        shuffled = list(args)
        rng.shuffle(shuffled)
        assert p.eval(*args) == p.eval(*shuffled)


def _count_commutators(monkeypatch):
    calls = [0]
    bracket = DiffOp._function_bracket

    def counting(self, f):
        calls[0] += 1
        return bracket(self, f)

    monkeypatch.setattr(DiffOp, "_function_bracket", counting)
    return calls


def test_eval_shares_prefixes(monkeypatch):
    # The 20 sorted words of length 3 over x1, x2, u1, u2 have 4 + 10 + 20
    # distinct prefixes, one commutator each unless the prefix one shorter
    # is already zero: 16 in all; a second pass reads the trie.
    p = rand_multivector(random.Random(17), CH, Space.E, BOUNDS, 3)
    coords = [P(name, CH) for name in ("x1", "x2", "u1", "u2")]
    words = list(itertools.combinations_with_replacement(coords, 3))
    assert len(words) == 20
    calls = _count_commutators(monkeypatch)
    first = [p.eval(*word) for word in words]
    assert calls[0] == 16
    assert [p.eval(*word) for word in reversed(words)] == first[::-1]
    assert calls[0] == 16


def test_eval_equals_a_fresh_nested_values_map(monkeypatch):
    rng = random.Random(23)
    calls = _count_commutators(monkeypatch)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        space = rng.choice([Space.E, Space.ESTAR])
        q = rng.randint(1, 3)
        p = rand_multivector(rng, chart, space, BOUNDS, q)
        pool = [rand_poly(rng, chart, space, BOUNDS) for _ in range(2)]
        for _ in range(4):
            args = [rng.choice(pool) for _ in range(q)]
            expected = nested_values(p.to_operator())(args)
            shuffled = list(args)
            rng.shuffle(shuffled)
            assert p.eval(*shuffled) == expected
            # equal but distinct objects find the same trie nodes
            copies = [parse_poly(poly_to_str(f), chart, space) for f in args]
            before = calls[0]
            assert p.eval(*copies) == expected
            assert calls[0] == before
    # a copy of a multivector starts with an empty map of its own
    before = calls[0]
    copy = SymMultivector(p.chart, p.space, p.q, p.terms)
    assert copy.eval(*args) == expected
    assert calls[0] == before + q


def test_eval_arity_guard():
    p = mv(CH1, 2, {(MultiIndex([1, 1]), EMPTY_MI): P("1")})
    with pytest.raises(ArityMismatch):
        p.eval(P("x1"))


def test_eval_multiderivation_in_each_slot():
    rng = random.Random(8)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 2)
        p = rand_multivector(rng, chart, Space.E, BOUNDS, q)
        f = rand_poly(rng, chart, Space.E, BOUNDS)
        g = rand_poly(rng, chart, Space.E, BOUNDS)
        rest = [rand_poly(rng, chart, Space.E, BOUNDS) for _ in range(q - 1)]
        assert p.eval(f * g, *rest) == f * p.eval(g, *rest) + g * p.eval(f, *rest)


def test_poisson_vector_fields_is_lie_bracket():
    du = mv(CH1, 1, {(EMPTY_MI, MultiIndex([1])): P("1")})
    udu = mv(CH1, 1, {(EMPTY_MI, MultiIndex([1])): P("u1")})
    assert poisson(du, udu) == du


def test_poisson_disjoint_constant_coefficients_vanish():
    dx = mv(CH, 1, {(MultiIndex([1]), EMPTY_MI): P("1", CH)})
    du = mv(CH, 1, {(EMPTY_MI, MultiIndex([2])): P("1", CH)})
    assert poisson(dx, du).is_zero()


def test_poisson_symbol_compatibility():
    rng = random.Random(13)
    for _ in range(40):
        chart = rand_chart(rng, BOUNDS)
        space = rng.choice([Space.E, Space.ESTAR])
        d1 = rand_diffop(rng, chart, space, BOUNDS, max_keys=2)
        d2 = rand_diffop(rng, chart, space, BOUNDS, max_keys=2)
        q1, q2 = d1.order(), d2.order()
        if q1 is None or q2 is None:
            continue
        bracket = d1.commutator(d2)
        if q1 + q2 == 0:
            assert bracket.is_zero()
            assert poisson(d1.symbol(), d2.symbol()).is_zero()
            continue
        assert poisson(d1.symbol(), d2.symbol()) == bracket.symbol_at(q1 + q2 - 1)


def test_poisson_graded_jacobi():
    rng = random.Random(19)
    for _ in range(15):
        chart = rand_chart(rng, BOUNDS)
        ps = [
            rand_multivector(rng, chart, Space.E, BOUNDS, rng.randint(1, 2), 1)
            for _ in range(3)
        ]
        lhs = poisson(ps[0], poisson(ps[1], ps[2]))
        rhs = poisson(poisson(ps[0], ps[1]), ps[2]) + poisson(
            ps[1], poisson(ps[0], ps[2])
        )
        assert lhs == rhs


def test_order_zero_operands_match_unshuffle_oracles():
    # an order-0 operand in every case; the verify suites draw them rarely
    rng = random.Random(41)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        space = rng.choice([Space.E, Space.ESTAR])
        f = rand_multivector(rng, chart, space, BOUNDS, 0)
        p = rand_multivector(rng, chart, space, BOUNDS, rng.randint(0, 2))
        for a, b in ((f, p), (p, f)):
            assert poisson(a, b) == _unshuffle_poisson(a, b)
            assert sym_product(a, b) == _unshuffle_sym_product(a, b)


def test_estar_brackets_and_products_match_unshuffle_oracles():
    # the verify suites take symmetric products on E only
    rng = random.Random(43)
    for _ in range(15):
        chart = rand_chart(rng, BOUNDS)
        p1 = rand_multivector(rng, chart, Space.ESTAR, BOUNDS, rng.randint(1, 2))
        p2 = rand_multivector(rng, chart, Space.ESTAR, BOUNDS, rng.randint(1, 2))
        assert sym_product(p1, p2) == _unshuffle_sym_product(p1, p2)
        assert poisson(p1, p2) == _unshuffle_poisson(p1, p2)


def test_order_zero_multivector_is_its_coefficient():
    f = mv(CH1, 0, {(EMPTY_MI, EMPTY_MI): P("x1*u1")})
    assert f.eval() == P("x1*u1")


def test_poisson_with_function_is_minus_derivative():
    # bracketing a function against a vector field returns minus the
    # derivative of the function along the field
    f = mv(CH1, 0, {(EMPTY_MI, EMPTY_MI): P("x1*u1")})
    field = mv(CH1, 1, {(MultiIndex([1]), EMPTY_MI): P("1")})
    got = poisson(f, field)
    assert got.q == 0
    assert got.eval() == P("-u1")
    assert poisson(field, f).eval() == P("u1")


def test_fwl_check_examples():
    assert fwl_check_multivector(mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1")}))
    assert not fwl_check_multivector(mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("1")}))
    mixed = mv(CH1, 2, {(MultiIndex([1]), MultiIndex([1])): P("x1")})
    assert fwl_check_multivector(mixed)


def test_fwl_check_lives_on_space_e():
    p = SymMultivector(CH1, Space.ESTAR, 1, {(EMPTY_MI, MultiIndex([1])): PS("v1")})
    with pytest.raises(SpaceMismatch) as info:
        fwl_check_multivector(p)
    assert str(info.value) == "FWL classification lives on space E"


def test_fwl_check_against_value_conditions():
    rng = random.Random(29)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(2, 3)
        p = rand_multivector(rng, chart, Space.E, BOUNDS, q)
        ells = [rand_section(rng, chart, BOUNDS) for _ in range(q)]
        cores = [
            rand_poly(rng, chart, Space.E, BOUNDS, base_only=True) for _ in range(2)
        ]
        by_values = (
            set(p.eval(*ells).fiber_degree_decompose()) <= {1}
            and p.eval(*ells[: q - 1], cores[0]).is_base_only()
            and p.eval(*ells[: q - 2], cores[0], cores[1]).is_zero()
        )
        if fwl_check_multivector(p):
            assert by_values
        # a weight-mixed table may still kill these particular randomized
        # arguments, so only the forward implication is asserted here; the
        # spanning-set converse is the next test


def test_fwl_check_forward_is_exact_on_spanning_values():
    # weight test true <=> conditions hold for all dual/core arguments;
    # exercise the converse on the coordinate spanning set
    rng = random.Random(31)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 2)
        p = rand_multivector(rng, chart, Space.E, BOUNDS, q)
        from fwlop._oracles import all_multi_indices
        from fwlop.symcore import Var, VarKind

        ok = True
        for mi in all_multi_indices(chart.fiber_rank, q):
            args = [Poly.var(chart, Space.E, Var(VarKind.FIBER, a)) for a in mi]
            if set(p.eval(*args).fiber_degree_decompose()) - {1}:
                ok = False
        for mi in all_multi_indices(chart.fiber_rank, q - 1):
            ells = [Poly.var(chart, Space.E, Var(VarKind.FIBER, a)) for a in mi]
            for i in range(1, chart.base_dim + 1):
                xi = Poly.var(chart, Space.E, Var(VarKind.BASE, i))
                if not p.eval(*ells, xi).is_base_only():
                    ok = False
                if q >= 2:
                    for j in range(1, chart.base_dim + 1):
                        xj = Poly.var(chart, Space.E, Var(VarKind.BASE, j))
                        if not p.eval(*ells[: q - 2], xi, xj).is_zero():
                            ok = False
        assert fwl_check_multivector(p) == ok


def _fwl_multivector_by_parts(p):
    """The FWL test on every fiber-degree part of every coefficient."""
    return all(
        deg - len(mi_f) == 1 - p.q
        for (_, mi_f), coeff in p.terms.items()
        for deg in coeff.fiber_degree_decompose()
    )


def _fwl_op_by_parts(op, q):
    """The FWL normal-form shape test on every fiber-degree part."""

    def shape(key, deg):
        nb, nf = len(key[0]), len(key[1])
        if nb == 1 and nf == q - 1 or nb == 0 and nf == q - 1:
            return deg == 0
        return nb == 0 and nf == q and deg == 1

    return op.is_zero() or op.order() <= q and all(
        shape(key, deg)
        for key, coeff in op.terms.items()
        for deg in coeff.fiber_degree_decompose()
    )


def test_degree_checks_agree_with_the_decomposition():
    # the FWL tests and the fiber-linearity check read one fiber degree per
    # coefficient; the references split every coefficient into its parts
    from fwlop.multivec import _is_fiber_linear
    from fwlop.randgen import rand_fwl_op

    rng = random.Random(37)
    seen = Counter()
    for _ in range(40):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(0, 3)
        fwl = rand_fwl_op(rng, chart, BOUNDS, q)
        key = next(iter(fwl.terms), (EMPTY_MI, EMPTY_MI))
        mixed = fwl + DiffOp.monomial(rand_poly(rng, chart, Space.E, BOUNDS), *key)
        other = rand_diffop(rng, chart, Space.E, BOUNDS)
        ops = [fwl, mixed, other, DiffOp.zero(chart, Space.E)]
        for op in ops:
            for order in range(4):
                verdict = op.is_fwl(order)
                assert verdict == _fwl_op_by_parts(op, order)
                seen["is_fwl", verdict] += 1
            p = op.symbol_at(q)
            assert fwl_check_multivector(p) == _fwl_multivector_by_parts(p)
            seen["multivector", fwl_check_multivector(p)] += 1
        ell = rand_section(rng, chart, BOUNDS)
        for f in (rand_poly(rng, chart, Space.E, BOUNDS), ell):
            for g in (f, f + P("1", chart), Poly.zero(chart, Space.E)):
                by_parts = not set(g.fiber_degree_decompose()) - {1}
                assert _is_fiber_linear(g) == by_parts
                seen["linear", _is_fiber_linear(g)] += 1
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


def test_multiderivation_D_example():
    # the dual basis section eps_1 is the fiber coordinate u1
    p = mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1")})
    eps = P("u1")
    assert multiderivation_D(p, eps, eps) == P("2*u1")


def test_multiderivation_l_examples():
    p = mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1")})
    eps = P("u1")
    assert multiderivation_l(p, eps, P("x1").restrict_fiber_zero()).is_zero()
    mixed = mv(CH1, 2, {(MultiIndex([1]), MultiIndex([1])): P("1")})
    assert multiderivation_l(mixed, eps, P("x1")) == P("1")
    assert multiderivation_l(mixed, eps, P("5")).is_zero()


def test_multiderivation_requires_fwl():
    core = mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("1")})
    eps = P("u1")
    with pytest.raises(NotFWL):
        multiderivation_D(core, eps, eps)


def test_multiderivation_arguments_are_checked():
    # sections of E* are fiber-linear functions on E, and l_P takes one
    # base function after them; a wrong argument is the caller's error,
    # not a broken invariant
    p = mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1")})
    for bad in (P("u1^2"), P("x1"), P("u1 + 1"), PS("v1")):
        with pytest.raises(SpaceMismatch):
            multiderivation_D(p, P("u1"), bad)
        with pytest.raises(SpaceMismatch):
            multiderivation_l(p, bad, P("x1"))
    with pytest.raises(SpaceMismatch):
        multiderivation_l(p, P("u1"), P("x1*u1"))
    for args in ((), (P("u1"),), (P("u1"),) * 3):
        with pytest.raises(ArityMismatch):
            multiderivation_D(p, *args)
    for args in ((), (P("x1"),), (P("u1"),) * 2 + (P("x1"),)):
        with pytest.raises(ArityMismatch):
            multiderivation_l(p, *args)


def test_multiderivation_leibniz_property():
    rng = random.Random(37)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        p = rand_fwl_multivector(rng, chart, BOUNDS, q)
        phis = [rand_section(rng, chart, BOUNDS) for _ in range(q)]
        f = rand_poly(rng, chart, Space.E, BOUNDS, base_only=True)
        lhs = multiderivation_D(p, *phis[:-1], f * phis[-1])
        d_all = multiderivation_D(p, *phis)
        symbol = multiderivation_l(p, *phis[:-1], f)
        assert lhs == f * d_all + symbol * phis[-1]


def test_q1_multiderivation_is_dual_derivation_of_field():
    # a linear vector field acts on dual sections through its evaluation
    # on fiber-linear functions
    x_op = DiffOp(
        CH1,
        Space.E,
        {
            (MultiIndex([1]), EMPTY_MI): P("x1"),
            (EMPTY_MI, MultiIndex([1])): P("2*u1"),
        },
    )
    p = SymMultivector(CH1, Space.E, 1, dict(x_op.terms))
    phi = P("x1*u1")
    assert x_op.apply(phi) == multiderivation_D(p, phi)


def test_core_to_dualpoly_examples():
    p = mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("1")})
    assert core_to_dualpoly(p) == parse_poly("v1^2", CH1, Space.ESTAR)
    f = mv(CH1, 0, {(EMPTY_MI, EMPTY_MI): P("x1^2")})
    assert core_to_dualpoly(f) == parse_poly("x1^2", CH1, Space.ESTAR)
    lift = mv(CH, 1, {(EMPTY_MI, MultiIndex([2])): P("x1", CH)})
    assert core_to_dualpoly(lift) == parse_poly("x1*v2", CH, Space.ESTAR)


def test_core_to_dualpoly_rejects_non_core():
    bad = mv(CH1, 1, {(MultiIndex([1]), EMPTY_MI): P("1")})
    with pytest.raises(NotCore):
        core_to_dualpoly(bad)


def test_core_to_dualpoly_matches_evaluation_formula():
    rng = random.Random(43)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        p = rand_core_multivector(rng, chart, BOUNDS, q)
        phi = rand_section(rng, chart, BOUNDS)
        value = p.eval(*[phi] * q).scale(Fraction(1, MultiIndex([1] * q).factorial()))
        substitution = {
            Var(VarKind.DUAL_FIBER, a): phi.partial(Var(VarKind.FIBER, a))
            for a in range(1, chart.fiber_rank + 1)
        }
        for i in range(1, chart.base_dim + 1):
            substitution[Var(VarKind.BASE, i)] = Poly.var(
                chart, Space.E, Var(VarKind.BASE, i)
            )
        assert substitute(core_to_dualpoly(p), substitution) == value


def test_core_product_is_dual_product():
    rng = random.Random(47)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        p1 = rand_core_multivector(rng, chart, BOUNDS, rng.randint(1, 2))
        p2 = rand_core_multivector(rng, chart, BOUNDS, rng.randint(1, 2))
        prod = sym_product(p1, p2)
        assert is_core_multivector(prod)
        assert core_to_dualpoly(prod) == core_to_dualpoly(p1) * core_to_dualpoly(p2)


def test_hamiltonian_field_examples():
    p = mv(CH1, 2, {(EMPTY_MI, MultiIndex([1, 1])): P("u1")})
    h = hamiltonian_field(p)
    assert (MultiIndex([1]), EMPTY_MI) not in h.terms
    assert h.terms[(EMPTY_MI, MultiIndex([1]))] == parse_poly("-v1^2", CH1, Space.ESTAR)

    mixed = mv(CH1, 2, {(MultiIndex([1]), MultiIndex([1])): P("1")})
    h2 = hamiltonian_field(mixed)
    assert h2.terms[(MultiIndex([1]), EMPTY_MI)] == parse_poly("v1", CH1, Space.ESTAR)
    assert (EMPTY_MI, MultiIndex([1])) not in h2.terms


def test_hamiltonian_field_refuses_a_table_that_is_not_fwl():
    # Two base derivatives at order 2 would need fiber degree -1; a constant
    # coefficient there is weight 0, not 1 - q = -1.
    for key in ((MultiIndex([1, 1]), EMPTY_MI), (EMPTY_MI, MultiIndex([1, 1]))):
        with pytest.raises(NotFWL) as info:
            hamiltonian_field(mv(CH1, 2, {key: P("1")}))
        assert str(info.value) == "hamiltonian fields are attached to FWL multivectors"


def test_hamiltonian_defining_property():
    rng = random.Random(53)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        p = rand_fwl_multivector(rng, chart, BOUNDS, q)
        core = rand_core_multivector(rng, chart, BOUNDS, rng.randint(1, 2))
        assert hamiltonian_field(p).apply(core_to_dualpoly(core)) == core_to_dualpoly(
            poisson(p, core)
        )
        field = hamiltonian_field(p)
        assert field.is_zero() or field.weight() == q - 1


def test_hamiltonian_lie_morphism():
    rng = random.Random(59)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        p1 = rand_fwl_multivector(rng, chart, BOUNDS, rng.randint(1, 2))
        p2 = rand_fwl_multivector(rng, chart, BOUNDS, rng.randint(1, 2))
        lhs = hamiltonian_field(poisson(p1, p2))
        assert lhs == hamiltonian_field(p1).commutator(hamiltonian_field(p2))


def test_linear_field_maps_to_dual_linear_field():
    # Euler field goes to minus the dual Euler field
    p = mv(CH1, 1, {(EMPTY_MI, MultiIndex([1])): P("u1")})
    h = hamiltonian_field(p)
    assert h.terms[(EMPTY_MI, MultiIndex([1]))] == parse_poly("-v1", CH1, Space.ESTAR)


def test_exact_sequence_shapes():
    rng = random.Random(61)
    for _ in range(20):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        phi = rand_section(rng, chart, BOUNDS)
        cores = [rand_core_multivector(rng, chart, BOUNDS, 1) for _ in range(q)]
        prod = cores[0]
        for extra in cores[1:]:
            prod = sym_product(prod, extra)
        injected = SymMultivector(
            chart,
            Space.E,
            q,
            {key: phi * coeff for key, coeff in prod.terms.items()},
        )
        assert fwl_check_multivector(injected)
        assert all(len(mi_b) == 0 for mi_b, _ in injected.terms)


def test_pairing():
    # the oracle's pairing of a section of E* (on E) with one of E (on the
    # dual space): sum of products of the frame components
    phi = P("x1*u1 + u2", CH)
    e = PS("x2*v1 + x1*v2", CH)
    assert _pairing(phi, e) == P("x1*x2 + x1", CH)


def _permutation_det(matrix):
    """sum over permutations of sign * product, the sign by inversions."""
    size = len(matrix)
    chart, space = matrix[0][0].chart, matrix[0][0].space
    out = Poly.zero(chart, space)
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            perm[i] > perm[j] for i in range(size) for j in range(i + 1, size)
        )
        term = Poly.const(chart, space, (-1) ** inversions)
        for row in range(size):
            term = term * matrix[row][perm[row]]
        out = out + term
    return out


def test_det_equals_the_permutation_sum():
    rng = random.Random(67)
    small = Bounds(terms_max=2, exp_max=1)
    zero = Poly.zero(CH, Space.E)
    for size in range(1, 6):
        for density in (0.25, 0.6, 1.0):
            for _ in range(3):
                matrix = [
                    [
                        rand_poly(rng, CH, Space.E, small)
                        if rng.random() < density
                        else zero
                        for _ in range(size)
                    ]
                    for _ in range(size)
                ]
                assert _det(matrix) == _permutation_det(matrix)
    # a zero row, and the split metric with its one nonzero permutation
    assert _det([[zero, zero], [P("x1", CH), P("u1", CH)]]).is_zero()
    gamma = [[P("u1 - x2", CH), P("3*u2", CH)], [P("3*u2", CH), zero]]
    one = Poly.const(CH, Space.E, 1)
    metric = [
        gamma[0] + [one, zero],
        gamma[1] + [zero, one],
        [one, zero, zero, zero],
        [zero, one, zero, zero],
    ]
    assert _det(metric) == _permutation_det(metric) == one


def test_permutation_determinants_are_capped():
    one = Poly.const(CH1, Space.E, 1)
    with pytest.raises(RequestTooLarge, match="determinant size 9 exceeds the cap of 8"):
        _det([[one] * 9 for _ in range(9)])


def test_flat_laplacian():
    lap = fwl_metric_laplacian(CH1, {})
    expected = DiffOp.monomial(P("2"), MultiIndex([1]), MultiIndex([1]))
    assert lap == expected


def test_laplacian_with_connection_is_fwl():
    lap = fwl_metric_laplacian(CH1, {(1, 1, 1): P("x1")})
    assert lap.is_fwl(2)
    assert lap == (
        DiffOp.monomial(P("2"), MultiIndex([1]), MultiIndex([1]))
        + DiffOp.monomial(P("2*x1*u1"), EMPTY_MI, MultiIndex([1, 1]))
        + DiffOp.monomial(P("2*x1"), EMPTY_MI, MultiIndex([1]))
    )


def test_laplacian_guards():
    with pytest.raises(RankMismatch, match="fiber rank = base dim"):
        fwl_metric_laplacian(Chart(2, 1), {})
    with pytest.raises(AsymmetricGamma, match=r"Gamma\^1_\{12\} != Gamma\^1_\{21\}"):
        fwl_metric_laplacian(
            CH, {(1, 1, 2): P("x1", CH), (1, 2, 1): P("x2", CH)}
        )
    with pytest.raises(RankMismatch, match=r"connection index \(1,1,2\) out of range"):
        fwl_metric_laplacian(CH1, {(1, 1, 2): P("x1")})
    with pytest.raises(SpaceMismatch, match="base-only"):
        fwl_metric_laplacian(CH1, {(1, 1, 1): P("x1*u1")})
    # The cap is checked before Gamma is read, so even an out-of-range
    # entry on an over-cap chart gives RequestTooLarge.
    n = MAX_LAPLACIAN_DIM + 1
    big = Chart(n, n)
    with pytest.raises(
        RequestTooLarge,
        match=f"the Laplacian chart dimension {n} exceeds the cap of {MAX_LAPLACIAN_DIM}",
    ):
        fwl_metric_laplacian(big, {(n + 1, 1, 1): Poly.var(big, Space.E, Var(VarKind.BASE, 1))})


def test_laplacian_randomized():
    rng = random.Random(67)
    from fwlop.randgen import rand_gamma

    for _ in range(15):
        n = rng.randint(1, 2)
        chart = Chart(n, n)
        lap = fwl_metric_laplacian(chart, rand_gamma(rng, chart, BOUNDS))
        assert lap.is_fwl(2)


def _dense_laplacian(chart, gamma):
    """sum g^{mu nu} d_mu d_nu + (d_mu g^{mu nu}) d_nu over every one of the
    (2n)^2 entries of g^-1 = [[0, I], [I, 2 Gamma.u]], zero ones included."""
    n = chart.base_dim
    coords = vars_of(chart, VarKind.BASE) + vars_of(chart, VarKind.FIBER)
    zero, one = Poly.zero(chart, Space.E), Poly.const(chart, Space.E, 1)
    ginv = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        ginv[i][n + i] = ginv[n + i][i] = one
        for j in range(n):
            for k in range(n):
                coeff = gamma.get((k + 1, i + 1, j + 1), zero)
                u_k = Poly.var(chart, Space.E, coords[n + k])
                ginv[n + i][n + j] = ginv[n + i][n + j] + (coeff * u_k).scale(2)

    def d(*variables):
        return DiffOp.monomial(
            one,
            MultiIndex([v.index for v in variables if v.kind is VarKind.BASE]),
            MultiIndex([v.index for v in variables if v.kind is VarKind.FIBER]),
        )

    out = DiffOp.zero(chart, Space.E)
    for mu, row in enumerate(ginv):
        for nu, entry in enumerate(row):
            out = out + DiffOp.mult(entry).compose(d(coords[mu], coords[nu]))
            out = out + DiffOp.mult(entry.partial(coords[mu])).compose(d(coords[nu]))
    return out


def test_laplacian_matches_a_dense_assembly():
    # the assembly visits only the nonzero entries of g^-1 and adds
    # d_mu g^{mu nu} only where it is nonzero
    from fwlop.randgen import rand_gamma

    rng = random.Random(71)
    connected = 0
    for n in range(1, 7):
        chart = Chart(n, n)
        bounds = Bounds(n_max=n, m_max=n)
        for _ in range(4 if n < 4 else 2 if n == 4 else 1):
            gamma = rand_gamma(rng, chart, bounds)
            lap = fwl_metric_laplacian(chart, gamma)
            assert lap == _dense_laplacian(chart, gamma)
            connected += any(len(i) + len(b) == 1 for i, b in lap.terms)
    assert connected >= 8


def test_canonical_results_equal_the_validated_ones():
    # poisson and sym_product build their results without re-validation;
    # the public constructor checks and canonicalises the same table
    rng = random.Random(73)
    nonzero = 0
    for _ in range(40):
        chart = rand_chart(rng, BOUNDS)
        space = rng.choice([Space.E, Space.ESTAR, Space.AMBIENT])
        p1, p2 = (
            rand_multivector(rng, chart, space, BOUNDS, rng.randint(0, 3))
            for _ in range(2)
        )
        args = [rand_poly(rng, chart, space, BOUNDS) for _ in range(6)]
        for got in (poisson(p1, p2), sym_product(p1, p2)):
            checked = SymMultivector(got.chart, got.space, got.q, got.terms)
            assert got == checked and got.terms == checked.terms
            assert got.to_operator() == checked.to_operator()
            assert got.eval(*args[: got.q]) == checked.eval(*args[: got.q])
            nonzero += not got.is_zero()
    assert nonzero >= 40


def test_multivector_refusals():
    u1 = P("u1")
    with pytest.raises(ArityMismatch) as info:
        SymMultivector(CH1, Space.E, -1)
    assert str(info.value) == "multivector order must be >= 0"
    one = SymMultivector(CH1, Space.E, 1, {(EMPTY_MI, MultiIndex([1])): u1})
    two = SymMultivector(CH1, Space.E, 2, {(EMPTY_MI, MultiIndex([1, 1])): u1})
    with pytest.raises(ArityMismatch) as info:
        one + two
    assert str(info.value) == "can only add multivectors of equal order"


def test_bracket_and_product_refuse_mismatched_operands():
    one = SymMultivector(CH1, Space.E, 1, {(EMPTY_MI, MultiIndex([1])): P("u1")})
    dual = SymMultivector(CH1, Space.ESTAR, 1, {(EMPTY_MI, MultiIndex([1])): PS("v1")})
    wide = SymMultivector.zero(CH, Space.E, 1)
    cases = [
        (poisson, dual, SpaceMismatch, "poisson operands on different spaces"),
        (sym_product, wide, ChartMismatch, "product operands on different charts"),
        (sym_product, dual, SpaceMismatch, "product operands on different spaces"),
    ]
    for function, other, error, message in cases:
        with pytest.raises(error) as info:
            function(one, other)
        assert str(info.value) == message


def test_multivector_hash_immutability_and_repr():
    key = (EMPTY_MI, MultiIndex([1, 1]))
    p = SymMultivector(CH1, Space.E, 2, {key: P("x1*u1 + 1/2")})
    same = SymMultivector(CH1, Space.E, 2, {key: P("1/2 + u1*x1")})
    assert p == same and p is not same and hash(p) == hash(same)
    assert len({p, same, SymMultivector.zero(CH1, Space.E, 2)}) == 2
    with pytest.raises(AttributeError) as info:
        p.q = 3
    assert str(info.value) == "SymMultivector is immutable"
    assert repr(p) == "SymMultivector(q=2, DiffOp((1/2 + x1*u1) du[1, 1]))"
    assert repr(SymMultivector.zero(CH1, Space.E, 1)) == "SymMultivector(q=1, DiffOp(0))"
