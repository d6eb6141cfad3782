"""Linearization around the zero locus of the transverse coordinates."""

import random
from fractions import Fraction

import pytest

from fwlop._oracles import all_multi_indices
from fwlop.diffop import DiffOp, nested_values
from fwlop.errors import NotLinearizable, OrderExceeded, SpaceMismatch
from fwlop.linearize import (
    is_linearizable_multivector,
    is_order_q_linearizable,
    linearize_do,
    linearize_function,
    linearize_multivector,
)
from fwlop.multivec import SymMultivector, poisson
from fwlop.randgen import (
    Bounds,
    rand_chart,
    rand_fiber_multi_index,
    rand_fwl_op,
    rand_linearizable_function,
    rand_linearizable_multivector,
    rand_order_q_linearizable_op,
    rand_poly,
    rand_second_order_function,
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

CH1 = Chart(1, 1)
CH = Chart(2, 2)
BOUNDS = Bounds()


def A(text, chart=CH1):
    return parse_poly(text, chart, Space.AMBIENT)


def E(text, chart=CH1):
    return parse_poly(text, chart, Space.E)


def test_linearize_function_examples():
    assert linearize_function(A("u1 + u1^2")) == E("u1")
    assert linearize_function(A("x1*u2", CH)) == E("x1*u2", CH)
    with pytest.raises(NotLinearizable):
        linearize_function(A("1"))


def test_linearize_function_first_order_truncation():
    rng = random.Random(3)
    for _ in range(40):
        chart = rand_chart(rng, BOUNDS)
        f = rand_linearizable_function(rng, chart, BOUNDS)
        lin = linearize_function(f)
        assert lin.is_zero() or set(lin.fiber_degree_decompose()) == {1}
        # adding second-order terms does not change the linearization
        assert linearize_function(
            f + rand_second_order_function(rng, chart, BOUNDS)
        ) == lin


def test_linearize_function_product_rule():
    rng = random.Random(5)
    for _ in range(40):
        chart = rand_chart(rng, BOUNDS)
        f = rand_poly(rng, chart, Space.AMBIENT, BOUNDS)
        g = rand_linearizable_function(rng, chart, BOUNDS)
        lhs = linearize_function(f * g)
        rhs = f.restrict_fiber_zero().with_space(Space.E) * linearize_function(g)
        assert lhs == rhs


def test_is_linearizable_multivector_examples():
    p = SymMultivector(CH1, Space.AMBIENT, 2, {(EMPTY_MI, MultiIndex([1, 1])): A("u1")})
    assert is_linearizable_multivector(p)
    bad = SymMultivector(CH1, Space.AMBIENT, 2, {(EMPTY_MI, MultiIndex([1, 1])): A("1")})
    assert not is_linearizable_multivector(bad)
    mixed = SymMultivector(CH1, Space.AMBIENT, 2, {(MultiIndex([1]), MultiIndex([1])): A("1")})
    assert is_linearizable_multivector(mixed)


def test_linearize_multivector_examples():
    p = SymMultivector(CH1, Space.AMBIENT, 2, {(EMPTY_MI, MultiIndex([1, 1])): A("u1")})
    assert linearize_multivector(p) == SymMultivector(
        CH1, Space.E, 2, {(EMPTY_MI, MultiIndex([1, 1])): E("u1")}
    )
    vanishing = SymMultivector(CH1, Space.AMBIENT, 1, {(MultiIndex([1]), EMPTY_MI): A("u1")})
    assert linearize_multivector(vanishing).is_zero()
    mixed = SymMultivector(CH1, Space.AMBIENT, 2, {(MultiIndex([1]), MultiIndex([1])): A("1")})
    assert linearize_multivector(mixed) == SymMultivector(
        CH1, Space.E, 2, {(MultiIndex([1]), MultiIndex([1])): E("1")}
    )


def test_linearize_multivector_drops_double_base_terms():
    p = SymMultivector(
        CH1,
        Space.AMBIENT,
        2,
        {
            (MultiIndex([1, 1]), EMPTY_MI): A("x1 + u1"),
            (MultiIndex([1]), MultiIndex([1])): A("x1^2"),
        },
    )
    lin = linearize_multivector(p)
    assert lin.terms == {(MultiIndex([1]), MultiIndex([1])): E("x1^2")}


def test_linearize_multivector_defining_identity():
    rng = random.Random(7)
    for _ in range(30):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 2)
        p = rand_linearizable_multivector(rng, chart, BOUNDS, q)
        fs = [rand_linearizable_function(rng, chart, BOUNDS) for _ in range(q)]
        value = p.eval(*fs)
        assert value.restrict_fiber_zero().is_zero()
        lhs = linearize_multivector(p).eval(*(linearize_function(f) for f in fs))
        assert lhs == linearize_function(value)


def test_linearize_multivector_preserves_poisson():
    rng = random.Random(11)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        p = rand_linearizable_multivector(rng, chart, BOUNDS, rng.randint(1, 2))
        q = rand_linearizable_multivector(rng, chart, BOUNDS, rng.randint(1, 2))
        bracket = poisson(p, q)
        assert is_linearizable_multivector(bracket)
        assert linearize_multivector(bracket) == poisson(
            linearize_multivector(p), linearize_multivector(q)
        )


def test_is_order_q_linearizable_examples():
    op = DiffOp.monomial(A("u1"), EMPTY_MI, MultiIndex([1, 1])) + DiffOp.monomial(
        A("u1^2"), MultiIndex([1]), EMPTY_MI
    )
    assert is_order_q_linearizable(op, 2)
    assert not is_order_q_linearizable(
        DiffOp.monomial(A("1"), EMPTY_MI, MultiIndex([1, 1])), 2
    )
    assert is_order_q_linearizable(DiffOp.monomial(A("1"), MultiIndex([1]), EMPTY_MI), 2)
    with pytest.raises(OrderExceeded):
        is_order_q_linearizable(DiffOp.monomial(A("1"), EMPTY_MI, MultiIndex([1, 1])), 1)


def test_linearize_do_examples():
    op = DiffOp.monomial(A("u1"), EMPTY_MI, MultiIndex([1, 1])) + DiffOp.monomial(
        A("u1^2"), MultiIndex([1]), EMPTY_MI
    )
    assert linearize_do(op, 2) == DiffOp.monomial(E("u1"), EMPTY_MI, MultiIndex([1, 1]))

    assert linearize_do(DiffOp.monomial(A("u1"), MultiIndex([1]), EMPTY_MI), 1).is_zero()

    with pytest.raises(NotLinearizable):
        linearize_do(DiffOp.monomial(A("1"), EMPTY_MI, MultiIndex([1, 1])), 2)


def test_zero_section_idempotence():
    rng = random.Random(13)
    for _ in range(30):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rand_fwl_op(rng, chart, BOUNDS, q)
        assert linearize_do(op.with_space(Space.AMBIENT), q) == op


def test_linearize_do_is_fwl():
    rng = random.Random(17)
    for _ in range(30):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rand_order_q_linearizable_op(rng, chart, BOUNDS, q)
        assert linearize_do(op, q).is_fwl(q)


def test_linearize_do_symbol_consistency():
    rng = random.Random(19)
    for _ in range(30):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rand_order_q_linearizable_op(rng, chart, BOUNDS, q)
        assert linearize_do(op, q).symbol_at(q) == linearize_multivector(op.symbol_at(q))


def test_representative_independence():
    rng = random.Random(23)
    for _ in range(30):
        chart = rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rand_order_q_linearizable_op(rng, chart, BOUNDS, q)
        c_idx = rand_fiber_multi_index(rng, chart, q - 1)
        canonical = [
            Poly.var(chart, Space.AMBIENT, Var(VarKind.FIBER, c)) for c in c_idx
        ]
        perturbed = [
            rep + rand_second_order_function(rng, chart, BOUNDS) for rep in canonical
        ]
        value = nested_values(op)
        lhs = value(canonical).restrict_fiber_zero()
        rhs = value(perturbed).restrict_fiber_zero()
        assert lhs == rhs


def test_linearize_do_matches_the_nested_commutator_definition():
    # The definition: the coefficient at ((), C), |C| = q-1, is psi_C / C!
    # with psi_C = [...[op, u_c1], ..., u_c(q-1)](1) at u = 0, less the same
    # value of the linearized top part; psi_C does not depend on the
    # representatives of the u_c modulo second-order functions.
    rng = random.Random(37)
    bounds = Bounds(n_max=3, m_max=3)
    lower = 0
    for _ in range(40):
        chart = rand_chart(rng, bounds)
        q = rng.randint(1, 3)
        op = rand_order_q_linearizable_op(rng, chart, bounds, q)
        c_top = rand_fiber_multi_index(rng, chart, q - 1)
        coeff = rand_poly(rng, chart, Space.AMBIENT, bounds)
        coeff = coeff + rand_poly(rng, chart, Space.AMBIENT, bounds, base_only=True)
        op = op + DiffOp.monomial(coeff, EMPTY_MI, c_top)
        lin = linearize_do(op, q)
        value = nested_values(op)
        value_top = nested_values(lin.symbol_at(q).to_operator())
        for c_idx in all_multi_indices(chart.fiber_rank, q - 1):
            reps = [Poly.var(chart, Space.AMBIENT, Var(VarKind.FIBER, c)) for c in c_idx]
            psi = value(reps).restrict_fiber_zero()
            perturbed = [rep + rand_second_order_function(rng, chart, bounds) for rep in reps]
            assert value(perturbed).restrict_fiber_zero() == psi
            lifted = [Poly.var(chart, Space.E, Var(VarKind.FIBER, c)) for c in c_idx]
            assert value_top(lifted).is_zero()
            want = psi.with_space(Space.E).scale(Fraction(1, c_idx.factorial()))
            assert lin.terms.get((EMPTY_MI, c_idx), Poly.zero(chart, Space.E)) == want
            lower += not want.is_zero()
        assert all(
            len(mi_b) + len(mi_f) == q or (not mi_b and len(mi_f) == q - 1)
            for mi_b, mi_f in lin.terms
        )
    assert lower >= 40


def test_commutator_preservation():
    rng = random.Random(29)
    for _ in range(25):
        chart = rand_chart(rng, BOUNDS)
        q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
        d1 = rand_order_q_linearizable_op(rng, chart, BOUNDS, q1)
        d2 = rand_order_q_linearizable_op(rng, chart, BOUNDS, q2)
        bracket = d1.commutator(d2)
        qc = q1 + q2 - 1
        assert is_order_q_linearizable(bracket, qc)
        assert linearize_do(bracket, qc) == linearize_do(d1, q1).commutator(
            linearize_do(d2, q2)
        )


def test_linearization_refusals():
    key = (EMPTY_MI, MultiIndex([1]))
    ambient_top = SymMultivector(CH1, Space.AMBIENT, 1, {key: A("x1 + u1")})
    on_e = SymMultivector(CH1, Space.E, 1, {key: E("x1 + u1")})
    cases = [
        (lambda: linearize_function(E("u1")), SpaceMismatch,
         "function linearization expects ambient data"),
        (lambda: is_linearizable_multivector(on_e), SpaceMismatch,
         "linearizability is asked of ambient multivectors"),
        (lambda: is_order_q_linearizable(DiffOp.mult(E("u1")), 1), SpaceMismatch,
         "linearizability is asked of ambient operators"),
        (lambda: linearize_multivector(ambient_top), NotLinearizable,
         "a pure-fiber top coefficient survives at u = 0"),
        (lambda: linearize_do(ambient_top.to_operator(), 1), NotLinearizable,
         "operator is not order-1 linearizable"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
