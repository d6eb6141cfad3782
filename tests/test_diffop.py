"""Operator algebra: action, composition, grading, classification, recovery."""

import gc
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from fwlop._oracles import _recover_table, _scale_fiber
from fwlop.diffop import (
    _ORDER_ZERO,
    _SHORT_KEY,
    DiffOp,
    _live_words,
    _refuse_sub_multisets,
    diffop_dumps,
    diffop_from_doc,
    diffop_loads,
    diffop_to_doc,
    nested_values,
)
from fwlop import diffop, verify
from fwlop.errors import (
    MAX_SUB_MULTISETS,
    ArityMismatch,
    ChartMismatch,
    DocumentError,
    RequestTooLarge,
    SpaceMismatch,
    ZeroOperator,
)
from fwlop.lbundle import a_inverse, a_iso
from fwlop.multivec import SymMultivector, hamiltonian_field, poisson, sym_product
from fwlop.randgen import (
    Bounds,
    rand_chart,
    rand_core_op,
    rand_diffop,
    rand_fwl_multivector,
    rand_fwl_op,
    rand_key,
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
    _sub_multisets,
    add_into,
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


def test_commutator_matches_two_compositions():
    # [A, B] is two Leibniz passes without their S = empty parts; the
    # reference is the difference of the two compositions
    rng = random.Random(79)
    bounds = Bounds()
    for space in SPACES:
        for order_a in range(4):
            for order_b in range(4):
                chart = rand_chart(rng, bounds)
                a = rand_diffop(rng, chart, space, bounds, order=order_a)
                b = rand_diffop(rng, chart, space, bounds, order=order_b)
                zero = DiffOp.zero(chart, space)
                for x, y in ((a, b), (b, a), (a, zero), (zero, b), (zero, zero)):
                    assert x.commutator(y) == x.compose(y) - y.compose(x)
                    assert x.commutator(y) == -y.commutator(x)


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

    def counting(self, other, skip_empty, sign, pieces):
        passes.append(skip_empty)
        return leibniz(self, other, skip_empty, sign, pieces)

    monkeypatch.setattr(DiffOp, "_leibniz", counting)
    assert op_du(1).commutator(DiffOp.mult(P("u1"))) == DiffOp.identity(CH1, Space.E)
    assert passes == [True]
    passes.clear()
    assert op_du(1).commutator(op_du(2, "u1")) == op_du(2)
    assert passes == [True, True]


def _plain_leibniz(a, b, skip_empty):
    """The Leibniz expansion of a∘b term by term, each partial taken anew."""
    fk = fiber_kind(a.space)
    out = DiffOp.zero(a.chart, a.space)
    for (i1, b1), c1 in a.terms.items():
        for (i2, b2), c2 in b.terms.items():
            for s_b, n_b, *_ in _sub_multisets(i1):
                for s_f, n_f, *_ in _sub_multisets(b1):
                    if skip_empty and not len(s_b) + len(s_f):
                        continue
                    rest_b, rest_f = i1, b1
                    for letter in s_b:
                        rest_b = rest_b.remove(letter)
                    for letter in s_f:
                        rest_f = rest_f.remove(letter)
                    dc = c2.partial_multi(s_b, VarKind.BASE).partial_multi(s_f, fk)
                    key = (rest_b.concat(i2), rest_f.concat(b2))
                    piece = (c1 * dc).scale(n_b * n_f)
                    out = out + DiffOp(a.chart, a.space, {key: piece})
    return out


def test_leibniz_takes_each_partial_once_per_pass(monkeypatch):
    # the terms of a share their sub-multisets S of (2), (1, 1), (1) and
    # (2), (1, 1); each coefficient of b depends on x1 and x2, so no base
    # partial vanishes and every (term of b, S) pair is reached
    c = P("x1*x2*u1^2 + x2^2*u1 - 3", CH)
    a = DiffOp(
        CH,
        Space.E,
        {
            (EMPTY_MI, MultiIndex([1, 1])): c,
            (MultiIndex([1]), MultiIndex([1, 1])): P("u2 + x1", CH),
            (MultiIndex([2]), MultiIndex([1, 1])): P("x2*u1*u2", CH),
        },
    )
    b = DiffOp(
        CH,
        Space.E,
        {
            (EMPTY_MI, EMPTY_MI): P("x1*x2*u1^3 + u2", CH),
            (MultiIndex([1]), EMPTY_MI): P("x1^2*x2*u1*u2", CH),
            (EMPTY_MI, MultiIndex([2])): P("x1*x2^2*u1^2 - 2*x1*x2", CH),
        },
    )
    subsets = {
        (s_b, s_f)
        for i1, b1 in a.terms
        for s_b, *_ in _sub_multisets(i1)
        for s_f, *_ in _sub_multisets(b1)
    }
    assert len(subsets) == 9
    calls = []
    term_partial = diffop._term_partial

    def counting(terms, counts):
        calls.append((id(terms), tuple(counts)))
        return term_partial(terms, counts)

    for skip_empty in (False, True):
        expected = _plain_leibniz(a, b, skip_empty)
        calls.clear()
        monkeypatch.setattr(diffop, "_term_partial", counting)
        got = a._summed(a._leibniz(b.terms.items(), skip_empty, 1, {}))
        monkeypatch.undo()
        assert got == expected
        # one term-list partial per (term of b, S), its base and fiber
        # parts together, the empty S left out when skipped; the second
        # term of b is linear in u1, so its 3 pairs with S fiber part
        # (u1, u1) are pruned unvisited
        pairs = len(b.terms) * (len(subsets) - skip_empty) - 3
        assert len(calls) == len(set(calls)) == pairs


def test_pruned_leibniz_matches_the_plain_expansion():
    # a pass skips every S that takes a letter more often than c2's largest
    # exponent; the reference takes every S, against random operands with
    # exponents up to 4 and against multiplication by each coordinate
    rng = random.Random(83)
    bounds = Bounds(exp_max=4)
    pruned = 0
    for space in SPACES:
        for _ in range(8):
            chart = rand_chart(rng, bounds)
            a = rand_diffop(rng, chart, space, bounds, max_keys=4, order=3)
            b = rand_diffop(rng, chart, space, bounds, order=rng.randint(0, 3))
            coords = chart.vars_of(VarKind.BASE) + chart.vars_of(fiber_kind(space))
            others = [b] + [DiffOp.mult(Poly.var(chart, space, v)) for v in coords]
            for other in others:
                for x, y in ((a, other), (other, a)):
                    for skip_empty in (False, True):
                        got = x._summed(x._leibniz(y.terms.items(), skip_empty, 1, {}))
                        assert got == _plain_leibniz(x, y, skip_empty)
                    pruned += _prunes(x, y)
    assert pruned >= 50


def test_compose_and_commutator_match_the_plain_expansion():
    # the term-list partials and the summation kernel against the
    # expansion with a reduced `Poly` per partial and per summand, on
    # every space, charts up to (3,3) and fractional coefficients
    rng = random.Random(2806)
    bounds = Bounds(n_max=3, m_max=3, exp_max=3)
    fractional = 0
    for space in SPACES:
        for chart in (Chart(1, 2), Chart(2, 2), Chart(3, 2), Chart(3, 3)):
            for _ in range(3):
                a = rand_diffop(rng, chart, space, bounds, max_keys=4)
                b = rand_diffop(rng, chart, space, bounds, max_keys=4)
                got = a.compose(b)
                assert got == _plain_leibniz(a, b, False)
                bracket = a.commutator(b)
                assert bracket == _plain_leibniz(a, b, True) - _plain_leibniz(b, a, True)
                fractional += any(c.den != 1 for c in bracket.terms.values())
    assert fractional >= 10


def test_function_bracket_matches_the_plain_expansion():
    # [A, f] is one pass against the single coefficient f at the empty key:
    # it equals the reference expansion of A∘f without its S = ∅ terms and
    # A∘f - f∘A, for multi-term f, for zero f and on every space, and its
    # keys are canonical multi-indices
    rng = random.Random(101)
    bounds = Bounds(exp_max=3)
    nonzero = 0
    for space in SPACES:
        for _ in range(10):
            chart = rand_chart(rng, bounds)
            a = rand_diffop(rng, chart, space, bounds, max_keys=5, order=3)
            fs = [rand_poly(rng, chart, space, bounds) for _ in range(3)]
            for f in fs + [Poly.zero(chart, space)]:
                mult = DiffOp.mult(f)
                got = a._function_bracket(f)
                assert got == _plain_leibniz(a, mult, True)
                assert got == a.compose(mult) - mult.compose(a)
                assert got == a.commutator(mult)
                assert all(
                    type(mi) is MultiIndex and mi == tuple(sorted(mi))
                    for key in got.terms
                    for mi in key
                )
                nonzero += len(f.terms) > 1 and not got.is_zero()
    assert nonzero >= 40


def _coordinates(chart, space):
    vs = chart.vars_of(VarKind.BASE) + chart.vars_of(fiber_kind(space))
    return [(v, Poly.var(chart, space, v)) for v in vs]


def test_coordinate_bracket_is_the_pruned_leibniz_pass():
    # for a coordinate z the bracket is the shift c_J d^J -> mult_z(J) c_J
    # d^(J - z), taken without `_leibniz`; it gives the pass's values, its
    # exact MultiIndex keys and its key order
    rng = random.Random(307)
    bounds = Bounds(exp_max=3)
    shifted = 0
    for space in SPACES:
        for chart in (Chart(2, 2), Chart(3, 3)):
            for _ in range(4):
                a = rand_diffop(rng, chart, space, bounds, max_keys=6, order=3)
                for v, z in _coordinates(chart, space):
                    assert z.as_var() == v
                    got = a._function_bracket(z)
                    ref = a._summed(a._leibniz([(_ORDER_ZERO, z)], True, 1, {}))
                    assert list(got.terms.items()) == list(ref.terms.items())
                    _check_keys(Counter(), "shift", got.terms)
                    part = v.kind is not VarKind.BASE
                    shifted += any(key[part].count(v.index) > 1 for key in a.terms)
    assert shifted >= 10


def test_near_coordinates_take_the_leibniz_pass(monkeypatch):
    passes = []
    leibniz = DiffOp._leibniz

    def counting(self, *args):
        passes.append(self)
        return leibniz(self, *args)

    monkeypatch.setattr(DiffOp, "_leibniz", counting)
    rng = random.Random(311)
    for space in SPACES:
        u = "v1" if space is Space.ESTAR else "u1"
        a = rand_diffop(rng, CH, space, Bounds(), max_keys=5, order=3)
        near = [f"2*{u}", f"1/2*{u}", f"-{u}", f"{u} + 1", f"x1*{u}", f"{u}^2"]
        for text in near + ["1"]:
            f = P(text, CH, space)
            assert f.as_var() is None
            passes.clear()
            got = a._function_bracket(f)
            assert passes == [a]
            assert got == a.compose(DiffOp.mult(f)) - DiffOp.mult(f).compose(a)


def test_zero_function_takes_no_leibniz_pass(monkeypatch):
    # [A, 0] = 0: the bracket returns the zero operator without a pass,
    # and still refuses a zero of another chart or space
    passes = []
    leibniz = DiffOp._leibniz

    def counting(self, *args):
        passes.append(self)
        return leibniz(self, *args)

    monkeypatch.setattr(DiffOp, "_leibniz", counting)
    rng = random.Random(311)
    for space in SPACES:
        a = rand_diffop(rng, CH, space, Bounds(), max_keys=5, order=3)
        zero = Poly.zero(CH, space)
        passes.clear()
        got = a._function_bracket(zero)
        assert passes == []
        assert got.is_zero() and (got.chart, got.space) == (CH, space)
        assert got == a.compose(DiffOp.mult(zero)) - DiffOp.mult(zero).compose(a)
        other = Space.ESTAR if space is Space.E else Space.E
        with pytest.raises(ChartMismatch):
            a._function_bracket(Poly.zero(CH1, space))
        with pytest.raises(SpaceMismatch):
            a._function_bracket(Poly.zero(CH, other))


def test_plain_tuple_keys_become_multi_indices():
    x1u1 = P("x1*u1")
    op = DiffOp(CH1, Space.E, {((1,), ()): x1u1})
    ref = DiffOp.monomial(x1u1, MultiIndex([1]), EMPTY_MI)
    assert op == ref and op.compose(op) == ref.compose(ref)
    assert all(type(mi) is MultiIndex for key in op.terms for mi in key)
    # an unsorted plain key is the sorted multi-index; keys that coincide
    # after sorting add up, and a zero sum is dropped after its letters
    # are checked
    x1, x2 = P("x1", CH), P("x2", CH)
    ref = DiffOp.monomial(x1, MultiIndex([1, 2]), EMPTY_MI)
    assert DiffOp(CH, Space.E, {((2, 1), ()): x1}) == ref
    summed = {((2, 1), ()): x1, (MultiIndex([1, 2]), EMPTY_MI): x2}
    assert DiffOp(CH, Space.E, summed) == DiffOp.monomial(
        x1 + x2, MultiIndex([1, 2]), EMPTY_MI
    )
    cancelled = {((2, 1), (1,)): x1, ((1, 2), (1,)): -x1}
    assert DiffOp(CH, Space.E, cancelled).is_zero()
    wide = Chart(1, 2)
    cancelled = {((2, 1), ()): P("x1", wide), ((1, 2), ()): P("-x1", wide)}
    with pytest.raises(ChartMismatch, match="base index 2 out of range"):
        DiffOp(wide, Space.E, cancelled)


def _check_keys(seen: Counter, path: str, keys):
    """Count the keys of one table-building path, checking that each of
    their multi-indices is an exact, sorted MultiIndex: a stray plain tuple
    compares equal to one and would only fail later, at
    `.multiplicities()`."""
    for key in keys:
        for mi in key:
            assert type(mi) is MultiIndex and mi == tuple(sorted(mi)), (path, key)
        seen[path] += 1


def test_every_table_path_keys_by_exact_sorted_multi_indices():
    rng = random.Random(211)
    bounds = Bounds()
    seen = Counter()
    for _ in range(8):
        chart = rand_chart(rng, bounds)
        for space in SPACES:
            a = rand_diffop(rng, chart, space, bounds, max_keys=4, order=3)
            b = rand_diffop(rng, chart, space, bounds, max_keys=3, order=2)
            f = rand_poly(rng, chart, space, bounds)
            doc = diffop_to_doc(a)
            for term in doc["terms"]:
                term["dx"].reverse()
                term["du"].reverse()
            _check_keys(seen, "compose", a.compose(b).terms)
            _check_keys(seen, "commutator", a.commutator(b).terms)
            _check_keys(seen, "function bracket", a._function_bracket(f).terms)
            _check_keys(seen, "recover", a.recover_coefficients())
            _check_keys(seen, "document", diffop_from_doc(doc).terms)
            _check_keys(seen, "fiber parts", ((mi,) for mi in f.fiber_parts(space)))
            if space is not Space.AMBIENT:
                for part in a.grade_decompose().values():
                    _check_keys(seen, "grade", part.terms)
        q = rng.randint(1, 3)
        p1 = rand_fwl_multivector(rng, chart, bounds, q)
        p2 = rand_fwl_multivector(rng, chart, bounds, rng.randint(1, 3))
        derivation = a_iso(rand_fwl_op(rng, chart, bounds, q), q)
        _check_keys(seen, "poisson", poisson(p1, p2).terms)
        _check_keys(seen, "sym_product", sym_product(p1, p2).terms)
        _check_keys(seen, "hamiltonian_field", hamiltonian_field(p1).terms)
        _check_keys(seen, "a_inverse", a_inverse(derivation, q).terms)
    assert len(seen) == 11 and min(seen.values()) >= 5


def test_function_bracket_checks_the_function():
    a = op_du(1)
    with pytest.raises(ChartMismatch):
        a._function_bracket(P("x1", CH))
    with pytest.raises(SpaceMismatch):
        a._function_bracket(P("v1", CH1, Space.ESTAR))
    with pytest.raises(SpaceMismatch):
        a._function_bracket(Poly.zero(CH1, Space.ESTAR))


def _prunes(x, y):
    """Whether some term of x has a letter more often than some
    coefficient of y has that variable, so that its pass skips an S."""
    for i1, b1 in x.terms:
        for c2 in y.terms.values():
            for mi, tops in zip((i1, b1), c2.max_exponents()):
                if any(k > tops[letter - 1] for letter, k in mi.multiplicities().items()):
                    return True
    return False


def _counting_sweeps(monkeypatch):
    """Record (node, tables) for each `DiffOp._shifts` sweep."""
    sweeps = []
    shifts = DiffOp._shifts

    def counting(self, where, start):
        tables = shifts(self, where, start)
        sweeps.append((self, tables))
        return tables

    monkeypatch.setattr(DiffOp, "_shifts", counting)
    return sweeps


def test_no_commutator_is_taken_below_a_zero_nested_commutator(monkeypatch):
    # [d/dx1, x2] = 0, so every word that starts with x2 costs only that one
    # commutator; recovery sweeps no zero node and builds no zero child
    taken = []
    bracket = DiffOp._function_bracket

    def counting(self, f):
        taken.append(self)
        return bracket(self, f)

    monkeypatch.setattr(DiffOp, "_function_bracket", counting)
    x1, x2, u1 = P("x1", CH), P("x2", CH), P("u1", CH)
    value = nested_values(DiffOp.monomial(P("1", CH), MultiIndex([1]), EMPTY_MI))
    assert value([x2, x1, u1]).is_zero() and len(taken) == 1
    assert value([x2, u1, x1, x1]).is_zero() and len(taken) == 1
    assert value([x1]) == P("1", CH) and len(taken) == 2
    assert nested_values(DiffOp.zero(CH, Space.E))([x1, u1]).is_zero()
    assert len(taken) == 2
    sweeps = _counting_sweeps(monkeypatch)
    rng = random.Random(89)
    for space in SPACES:
        for _ in range(6):
            chart = rand_chart(rng, Bounds())
            op = rand_diffop(rng, chart, space, Bounds(), order=3)
            assert op.recover_coefficients() == op.terms
    assert len(taken) == 2 and len(sweeps) > 50
    assert not any(node.is_zero() for node, _ in sweeps)
    assert all(table for _, tables in sweeps for table in tables.values())


def test_letters_below_a_zero_nested_commutator_are_still_checked():
    value = nested_values(DiffOp.monomial(P("1", CH), MultiIndex([1]), EMPTY_MI))
    x2 = P("x2", CH)
    with pytest.raises(ChartMismatch):
        value([x2, P("x1", Chart(3, 3))])
    with pytest.raises(SpaceMismatch):
        value([x2, P("x1", CH, Space.ESTAR)])
    with pytest.raises(SpaceMismatch):
        nested_values(DiffOp.zero(CH, Space.E))([P("v1", CH, Space.ESTAR)])


def test_nested_values_make_no_apply_call(monkeypatch):
    # d^J 1 = 0 for J != ∅, so a value is the order-0 coefficient of its
    # nested commutator, read off the table
    rng = random.Random(97)
    applied = []
    apply = DiffOp.apply
    monkeypatch.setattr(
        DiffOp, "apply", lambda self, f: applied.append(self) or apply(self, f)
    )
    cases = []
    for space in SPACES:
        for _ in range(6):
            chart = rand_chart(rng, Bounds())
            op = rand_diffop(rng, chart, space, Bounds(), max_keys=5, order=3)
            words = [
                [rand_poly(rng, chart, space, Bounds()) for _ in range(rng.randint(0, 3))]
                for _ in range(4)
            ]
            value = nested_values(op)
            cases += [(op, word, value(word)) for word in words]
            assert op.recover_coefficients() == op.terms
    assert applied == []
    monkeypatch.undo()
    assert sum(not got.is_zero() for _, _, got in cases) >= 20
    for op, word, got in cases:
        assert got == _plain_nested_value(op, word)


def test_symbol_bracket_suite_checks_the_commutator_order_bound(monkeypatch):
    # a Leibniz pass that adds d^3/du1^3 breaks the bound q + r - 1 of every
    # commutator of orders q + r <= 3; the library takes the result as it is
    # and verify's `commutator-order-bound` names it
    leibniz = DiffOp._leibniz

    def cubic(self, others, skip_empty, sign, pieces):
        leibniz(self, others, skip_empty, sign, pieces)
        one = list(Poly.const(self.chart, self.space, 1).terms.items())
        pieces.setdefault((EMPTY_MI, MultiIndex([1, 1, 1])), []).append((1, one, 1, one, 1))
        return pieces

    monkeypatch.setattr(DiffOp, "_leibniz", cubic)
    assert op_du(2).commutator(DiffOp.mult(P("u1"))).order() == 3
    report = verify.run_suite("symbol-bracket", 10, 1)
    assert "commutator-order-bound" in {f["identity"] for f in report.failures}


def test_sub_multisets_returns_pairs():
    items = _sub_multisets(MultiIndex([1, 1, 2]))
    assert all(type(sub) is type(rest) is MultiIndex for sub, _, rest, _ in items)
    subs = [(sub, coeff) for sub, coeff, *_ in items]
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


def test_weight_is_the_single_grade():
    # weight() reads fiber degrees; the definition is the one key of
    # grade_decompose() when there is exactly one
    rng = random.Random(43)
    bounds = Bounds()
    for space in (Space.E, Space.ESTAR):
        for _ in range(40):
            chart = rand_chart(rng, bounds)
            w = rng.randint(-3, 2)
            homogeneous = {}
            for _ in range(rng.randint(1, 3)):
                nf = rng.randint(max(0, -w), 3)
                key = rand_key(rng, chart, rng.randint(0, 3 - nf), nf)
                coeff = rand_poly(rng, chart, space, bounds, fiber_degree=w + nf)
                add_into(homogeneous, key, coeff)
            ops = [
                DiffOp.zero(chart, space),
                rand_diffop(rng, chart, space, bounds),
                DiffOp(chart, space, homogeneous),
            ]
            if space is Space.E:
                ops.append(rand_fwl_op(rng, chart, bounds, rng.randint(0, 3)))
                ops.append(rand_core_op(rng, chart, bounds, rng.randint(1, 3)))
            for op in ops:
                grades = op.grade_decompose()
                expected = next(iter(grades)) if len(grades) == 1 else None
                assert op.weight() == expected
    with pytest.raises(SpaceMismatch):
        DiffOp.identity(CH1, Space.AMBIENT).weight()


def test_grade_conjugation_rational_t():
    rng = random.Random(41)
    bounds = Bounds()
    for _ in range(60):
        chart = rand_chart(rng, bounds)
        op = rand_diffop(rng, chart, Space.E, bounds)
        f = rand_poly(rng, chart, Space.E, bounds)
        t = rng.choice([Fraction(2), Fraction(-1, 2), Fraction(3)])
        for k, part in op.grade_decompose().items():
            lhs = _scale_fiber(part.apply(_scale_fiber(f, 1 / t)), t)
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


def test_recovery_is_exact_past_the_old_table_cap():
    # Tables of C(61, 2) = 1830, C(22, 3) = 1540 and C(62, 4) = 595665 keys,
    # over the cap of 1000 keys that recovery once had: the walk visits only
    # the live words, sub-multisets of the operator's keys.
    cases = [
        (Chart(30, 30), "1", [1], [2]),
        (Chart(10, 10), "1", [1, 2], [3]),
        (Chart(1, 60), "x1*u7 + 2", [1], [2, 3, 60]),
    ]
    for chart, coeff, dx, du in cases:
        op = DiffOp.monomial(
            parse_poly(coeff, chart, Space.E), MultiIndex(dx), MultiIndex(du)
        )
        assert op.recover_coefficients() == op.terms


def test_leibniz_cap_counts_letters_per_part_and_pairs_per_key():
    # One letter 1023 times: 1024 sub-multisets x 1023 letters fit the cap;
    # 1024 times does not.  Ten distinct letters in each part pair 2^10 x 2^10
    # sub-multisets, at the cap; eleven fiber letters are over it.
    ten, eleven = MultiIndex(range(1, 11)), MultiIndex(range(1, 12))
    _refuse_sub_multisets(MultiIndex([1] * 1023), EMPTY_MI)
    _refuse_sub_multisets(ten, ten)
    with pytest.raises(RequestTooLarge) as info:
        _refuse_sub_multisets(MultiIndex([1] * 1024), EMPTY_MI)
    assert str(info.value) == (
        "the letter count 1025 x 1024 of a key part's sub-multisets exceeds the "
        f"cap of {MAX_SUB_MULTISETS}"
    )
    with pytest.raises(RequestTooLarge) as info:
        _refuse_sub_multisets(ten, eleven)
    assert str(info.value) == (
        "the pair count 1024 x 2048 of a key's base and fiber sub-multisets "
        f"exceeds the cap of {MAX_SUB_MULTISETS}"
    )
    # a key no longer than _SHORT_KEY passes both checks unexamined
    assert 2**_SHORT_KEY * _SHORT_KEY <= MAX_SUB_MULTISETS


@pytest.mark.parametrize(
    "chart, key",
    [
        (Chart(20, 1), (MultiIndex(range(1, 21)), EMPTY_MI)),
        (Chart(1, 1), (MultiIndex([1] * 4000), EMPTY_MI)),
        (Chart(16, 16), (MultiIndex(range(1, 17)), MultiIndex(range(1, 17)))),
    ],
    ids=["20-distinct-letters", "one-letter-4000-times", "16-by-16-pairs"],
)
def test_leibniz_pass_refuses_an_over_cap_key_before_enumerating(chart, key):
    op = DiffOp(chart, Space.E, {key: Poly.const(chart, Space.E, 1)})
    x1 = DiffOp.mult(Poly.var(chart, Space.E, Var(VarKind.BASE, 1)))
    _sub_multisets(EMPTY_MI)  # the key of x1, enumerated in x1's own pass
    cached = _sub_multisets.cache_info().currsize
    two_x1 = x1.terms[_ORDER_ZERO].scale(2)
    for call, arg in (
        (op.compose, x1),
        (op.commutator, x1),
        (x1.commutator, op),
        (op._function_bracket, two_x1),
    ):
        with pytest.raises(RequestTooLarge):
            call(arg)
    assert _sub_multisets.cache_info().currsize == cached


def test_large_sub_multisets_live_for_one_pass():
    # dx^(1..12) has 4096 sub-multisets of 12 letters: built for the pass
    # and dropped after it, while a small key part stays memoised
    chart = Chart(12, 1)
    key = MultiIndex(range(1, 13))
    op = DiffOp(chart, Space.E, {(key, EMPTY_MI): Poly.const(chart, Space.E, 1)})
    x1 = Poly.var(chart, Space.E, Var(VarKind.BASE, 1))
    _sub_multisets(EMPTY_MI)  # the key's fiber part, which is small
    cached = _sub_multisets.cache_info().currsize
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = op.compose(DiffOp.mult(x1))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert _sub_multisets.cache_info().currsize == cached
    one = Poly.const(chart, Space.E, 1)
    assert got.terms == {(key, EMPTY_MI): x1, (key.remove(1), EMPTY_MI): one}
    small = MultiIndex([1, 1, 2, 3])
    DiffOp(chart, Space.E, {(small, EMPTY_MI): one}).compose(DiffOp.mult(x1))
    assert _sub_multisets.cache_info().currsize > cached


def test_recovery_refuses_before_any_bracket(monkeypatch):
    # a key of 20 distinct letters has 2^20 sub-multisets, each a possible
    # live word: the sub-multiset rule refuses the walk before its first
    # bracket
    brackets = []
    bracket = DiffOp._function_bracket
    monkeypatch.setattr(
        DiffOp, "_function_bracket", lambda self, f: brackets.append(f) or bracket(self, f)
    )
    chart = Chart(20, 1)
    op = DiffOp.monomial(Poly.const(chart, Space.E, 1), MultiIndex(range(1, 21)), EMPTY_MI)
    with pytest.raises(RequestTooLarge) as info:
        op.recover_coefficients()
    assert str(info.value) == (
        f"the letter count {2**20} x 20 of a key part's sub-multisets exceeds the "
        f"cap of {MAX_SUB_MULTISETS}"
    )
    assert brackets == []


def _per_letter_walk(op, letters, depth):
    """Reference for `_live_words`: the same depth-first walk, but each
    child is its own pruned Leibniz pass of the parent with one coordinate,
    tried for every letter from the word's last letter on, and a zero child
    is dropped."""
    kinds = (VarKind.BASE, fiber_kind(op.space))
    coords = [Poly.var(op.chart, op.space, Var(kinds[part], i)) for part, i in letters]
    stack = [((), op)] if op.terms else []
    while stack:
        word, node = stack.pop()
        yield word, node
        if len(word) < depth:
            for place in range(word[-1] if word else 0, len(coords)):
                pieces = node._leibniz([(_ORDER_ZERO, coords[place])], True, 1, {})
                child = node._summed(pieces)
                if child.terms:
                    stack.append((word + (place,), child))


def _all_letters(chart):
    base = [(0, i) for i in range(1, chart.base_dim + 1)]
    return base + [(1, a) for a in range(1, chart.fiber_rank + 1)]


SIXTY = DiffOp.monomial(
    P("x1*u7 + 2", Chart(1, 60)), MultiIndex([1]), MultiIndex([2, 3, 60])
)


def test_recovery_walk_yields_the_nodes_of_the_per_letter_walk():
    # one sweep per node gives the per-letter walk's (word, node) sequence,
    # each node with the same keys in the same order: on random operators
    # over all letters (and recovery agrees with per-key enumeration), on
    # FWL operators over the fiber letters as a_iso walks them, and on a
    # one-term operator at fiber rank 60
    rng = random.Random(107)
    cases = []
    for k in range(90):
        space = SPACES[k % 3]
        chart = rand_chart(rng, Bounds())
        op = rand_diffop(rng, chart, space, Bounds(), order=3)
        value = nested_values(op)
        by_key = {}
        for q in range((op.order() or 0) + 1):
            by_key.update(_recover_table(chart, space, q, value))
        assert op.recover_coefficients() == by_key == op.terms
        cases.append((op, _all_letters(chart), op.order() or 0))
    for k in range(24):
        chart, q = rand_chart(rng, Bounds()), k % 4 + 1
        fiber = [(1, a) for a in range(1, chart.fiber_rank + 1)]
        cases.append((rand_fwl_op(rng, chart, Bounds(), q), fiber, q - 1))
    cases.append((SIXTY, _all_letters(SIXTY.chart), 4))
    nodes = repeated = 0
    for op, letters, depth in cases:
        got = list(_live_words(op, letters, depth))
        ref = list(_per_letter_walk(op, letters, depth))
        assert [word for word, _ in got] == [word for word, _ in ref]
        for (_, node), (_, want) in zip(got, ref):
            assert list(node.terms.items()) == list(want.terms.items())
        nodes += len(got)
        repeated += any(len(set(word)) < len(word) for word, _ in got)
    assert nodes >= 500 and repeated >= 40


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
    # order 3 on chart (3,3), whose tables up to order 3 have 84 keys: the
    # walk yields 13 live nodes, each built once from its prefix, and takes
    # one sweep of the terms for each of the 11 shorter than the order, and
    # no bracket (the per-letter walk took 35 brackets, and 216 if every
    # key rebuilt its chain)
    op = rand_diffop(random.Random(0), Chart(3, 3), Space.E, Bounds(), order=3)
    assert op.order() == 3
    words = [word for word, _ in _live_words(op, _all_letters(op.chart), 3)]
    assert len(words) == 13 and sum(len(word) < 3 for word in words) == 11
    sweeps = _counting_sweeps(monkeypatch)
    assert op.recover_coefficients() == op.terms
    assert len(sweeps) == 11


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


def test_symbol_at_equals_the_checked_multivector():
    # the level-q table of a canonical operator is built unchecked; it must
    # equal what the checking constructor builds, and a negative q is
    # refused with the constructor's message
    rng = random.Random(62)
    bounds = Bounds()
    for space in SPACES:
        for _ in range(10):
            chart = rand_chart(rng, bounds)
            op = rand_diffop(rng, chart, space, bounds, order=3)
            for q in range(5):
                got = op.symbol_at(q)
                checked = SymMultivector(chart, space, q, op.top_table(q))
                assert got == checked and got.terms == checked.terms
                assert (got.chart, got.space, got.q) == (chart, space, q)
    with pytest.raises(ArityMismatch) as info:
        op.symbol_at(-1)
    assert str(info.value) == "multivector order must be >= 0"


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


def test_zero_terms_have_their_letters_checked():
    zero = P("0")
    with pytest.raises(ChartMismatch, match="fiber index 5 out of range"):
        DiffOp(CH1, Space.E, {(EMPTY_MI, MultiIndex([5])): zero})
    # a zero term, given as zero or summed to zero, is range-checked too
    for coeffs in (["0"], ["x1", "-x1"]):
        doc = {
            "chart": {"base_dim": 1, "fiber_rank": 1},
            "space": "E",
            "terms": [{"coeff": "1", "dx": [], "du": [1]}]
            + [{"coeff": c, "dx": [7], "du": [5]} for c in coeffs],
        }
        with pytest.raises(ChartMismatch, match="base index 7 out of range"):
            diffop_from_doc(doc)
    # an in-range zero term is dropped
    doc["terms"][1:] = [{"coeff": "x1", "dx": [1], "du": []}, {"coeff": "-x1", "dx": [1], "du": []}]
    assert diffop_from_doc(doc) == op_du(1)


@pytest.mark.parametrize(
    "text, error, message",
    [
        (
            "1" * 5000,
            RequestTooLarge,
            "an integer in the document is over Python's limit of "
            f"{sys.get_int_max_str_digits()} digits",
        ),
        ("[" * 100000 + "]" * 100000, RequestTooLarge, "the document is nested too deeply to read"),
        (
            b"\x80{}",
            DocumentError,
            "invalid JSON in the document: 'utf-8' codec can't decode byte 0x80 in "
            "position 0: invalid start byte",
        ),
    ],
    ids=["integer-past-the-conversion-limit", "nested-too-deeply", "not-utf8"],
)
def test_loads_raises_only_typed_errors(text, error, message):
    with pytest.raises(error) as info:
        diffop_loads(text)
    assert str(info.value) == message


def test_loads_refuses_a_repeated_key():
    text = (
        '{"chart": {"base_dim": 1, "fiber_rank": 1}, "space": "E", "space": "Estar", '
        '"terms": [{"coeff": "1", "dx": [], "du": [1]}]}'
    )
    with pytest.raises(DocumentError, match="repeated key 'space'"):
        diffop_loads(text)
    nested = diffop_dumps(op_du(1)).replace('"dx": []', '"dx": [], "dx": [1]')
    with pytest.raises(DocumentError, match="repeated key 'dx'"):
        diffop_loads(nested)


def test_doc_deterministic_field_order():
    op = op_du(2, "u1") + op_du(1)
    doc = diffop_to_doc(op)
    assert list(doc) == ["chart", "space", "terms"]
    assert [t["du"] for t in doc["terms"]] == [[1], [1, 1]]


def test_operator_refusals():
    two = Poly.const(CH1, Space.E, 2)
    cases = [
        (lambda: DiffOp(CH1, Space.E, {_ORDER_ZERO: P("1", CH)}), ChartMismatch,
         "coefficient chart differs from operator chart"),
        (lambda: DiffOp(CH1, Space.E, {_ORDER_ZERO: P("1", CH1, Space.ESTAR)}), SpaceMismatch,
         "coefficient space differs from operator space"),
        (lambda: DiffOp.mult(two).apply(P("x1", CH)), ChartMismatch,
         "function chart differs from operator chart"),
        (lambda: DiffOp.mult(two).apply(P("x1", CH1, Space.AMBIENT)), SpaceMismatch,
         "function space differs from operator space"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("space", 1, "space must be a string"),
        ("terms", {}, "terms must be a list"),
        ("terms", [{"coeff": 1, "dx": [], "du": []}], "coeff must be a polynomial string"),
    ],
    ids=["space-not-a-string", "terms-not-a-list", "coeff-not-a-string"],
)
def test_operator_doc_refusals(field, value, message):
    doc = {"chart": {"base_dim": 1, "fiber_rank": 1}, "space": "E", "terms": []}
    doc[field] = value
    with pytest.raises(DocumentError) as info:
        diffop_from_doc(doc)
    assert str(info.value) == message


def test_zero_operator_recovers_the_empty_table():
    assert DiffOp.zero(CH, Space.E).recover_coefficients() == {}


def test_operator_is_immutable_and_prints_its_table():
    op = DiffOp.monomial(P("x1*u1 + 1/2"), MultiIndex([1]), MultiIndex([1, 1]))
    op = op + DiffOp.mult(Poly.const(CH1, Space.E, 2))
    with pytest.raises(AttributeError) as info:
        op.terms = {}
    assert str(info.value) == "DiffOp is immutable"
    assert repr(op) == "DiffOp((2) + (1/2 + x1*u1) dx[1] du[1, 1])"
    dual = DiffOp.monomial(P("x1*v1 - 3", CH1, Space.ESTAR), EMPTY_MI, MultiIndex([1]))
    assert repr(dual) == "DiffOp((-3 + x1*v1) dv[1])"
    assert repr(DiffOp.zero(CH1, Space.E)) == "DiffOp(0)"
