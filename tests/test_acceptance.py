"""Acceptance criteria.

Every criterion runs at its stated trial count with exact rational
arithmetic (zero tolerance) and prints one pass/fail line.  Run with
`pytest -s tests/test_acceptance.py` to see the lines as they complete.
"""

import random
import time
from fractions import Fraction

from fwlop._oracles import _scale_fiber
from fwlop.diffop import DiffOp, nested_values
from fwlop.lbundle import (
    _a_iso_pair,
    _closed_form_mult,
    a_inverse,
    a_iso,
    lderiv_commutator,
    pair_bracket,
    pair_to_lderivation,
)
from fwlop.linearize import (
    is_linearizable_multivector,
    is_order_q_linearizable,
    linearize_do,
    linearize_function,
    linearize_multivector,
)
from fwlop.multivec import (
    core_to_dualpoly,
    fwl_metric_laplacian,
    hamiltonian_field,
    poisson,
)
from fwlop import randgen as rg
from fwlop.symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
)

BOUNDS = rg.Bounds()
CH22 = Chart(2, 2)


def _report(label, ok, started):
    elapsed = time.time() - started
    print(f"{'PASS' if ok else 'FAIL'}  {label}  ({elapsed:.1f}s)")
    assert ok, label


def test_criterion_01_coefficient_recovery():
    started = time.time()
    rng = random.Random(1001)
    ok = True
    for _ in range(500):
        space = rng.choice([Space.E, Space.ESTAR, Space.AMBIENT])
        op = rg.rand_diffop(rng, CH22, space, BOUNDS, max_keys=3, order=3)
        ok = ok and op.recover_coefficients() == op.terms
    ok = ok and (time.time() - started) < 10.0
    _report("1. coefficient recovery, 500 trials, exact, <10s", ok, started)


def test_criterion_02_symbol_bracket_compatibility():
    started = time.time()
    rng = random.Random(1002)
    ok = True
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        space = rng.choice([Space.E, Space.ESTAR])
        d1 = rg.rand_diffop(rng, chart, space, BOUNDS, max_keys=2, order=3)
        d2 = rg.rand_diffop(rng, chart, space, BOUNDS, max_keys=2, order=3)
        q1, q2 = d1.order(), d2.order()
        if q1 is None or q2 is None or q1 + q2 == 0:
            continue
        lhs = poisson(d1.symbol(), d2.symbol())
        rhs = d1.commutator(d2).symbol_at(q1 + q2 - 1)
        ok = ok and lhs == rhs
    ok = ok and (time.time() - started) < 30.0
    _report("2. symbol/Poisson compatibility, 200 pairs, exact, <30s", ok, started)


def test_criterion_03_stabilizer_characterization():
    started = time.time()
    rng = random.Random(1003)
    ok = True
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rg.rand_fwl_op(rng, chart, BOUNDS, q)
        gens = rg.rand_core_generators(rng, chart, BOUNDS)
        ok = ok and all(op.commutator(g).is_core_sum() for g in gens)
        bad = rg.rand_fwl_violation(rng, chart, BOUNDS, op, q)
        witnesses = rg.rand_core_generators(rng, chart, BOUNDS)
        ok = ok and any(not bad.commutator(g).is_core_sum() for g in witnesses)
    _report("3. stabilizer characterization, 200 instances, both directions", ok, started)


def test_criterion_04_exact_sequence():
    started = time.time()
    rng = random.Random(1004)
    ok = True
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        p = rng.randint(1, 2)
        core = rg.rand_core_op(rng, chart, BOUNDS, p)
        ok = ok and not a_iso(core, p + 1).top_table(1)
        q = rng.randint(1, 3)
        op = rg.rand_fwl_op(rng, chart, BOUNDS, q)
        if not a_iso(op, q).top_table(1):
            ok = ok and op.is_core_sum()
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        degree = rng.randint(0, 2)
        v = rg.rand_homogeneous_field(rng, chart, BOUNDS, degree)
        built = a_inverse(v, degree + 1)
        ok = ok and hamiltonian_field(built.symbol_at(degree + 1)) == v
    _report("4. exact sequence: kernel = core and ad surjective, 200+200 trials", ok, started)


def test_criterion_05_a_isomorphism():
    started = time.time()
    rng = random.Random(1005)
    ok = True
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rg.rand_fwl_op(rng, chart, BOUNDS, q)
        ok = ok and a_inverse(a_iso(op, q), q) == op

        degree = rng.randint(0, 2)
        deriv = rg.rand_homogeneous_lderivation(rng, chart, BOUNDS, degree)
        ok = ok and a_iso(a_inverse(deriv, degree + 1), degree + 1) == deriv

        q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
        d1 = rg.rand_fwl_op(rng, chart, BOUNDS, q1)
        d2 = rg.rand_fwl_op(rng, chart, BOUNDS, q2)
        ok = ok and a_iso(d1.commutator(d2), q1 + q2 - 1) == lderiv_commutator(
            a_iso(d1, q1), a_iso(d2, q2)
        )

        p = rng.randint(1, 2)
        core = rg.rand_core_op(rng, chart, BOUNDS, p)
        ok = ok and a_iso(core.compose(d1), p + q1) == DiffOp.mult(
            core_to_dualpoly(core.symbol())
        ).compose(a_iso(d1, q1))

        # generator cases: identity, fiber-linear function, linear field
        ident = a_iso(DiffOp.identity(chart, Space.E), 1)
        ok = ok and ident == DiffOp.identity(chart, Space.ESTAR)
        phi = rg.rand_section(rng, chart, BOUNDS)
        img = a_iso(DiffOp.mult(phi), 0)
        dual_field = {
            (EMPTY_MI, MultiIndex([a])): -phi.partial(u).with_space(Space.ESTAR)
            for a, u in enumerate(chart.vars_of(VarKind.FIBER), start=1)
        }
        ok = ok and img == DiffOp(chart, Space.ESTAR, dual_field)
        lin = rg.rand_linear_field_op(rng, chart, BOUNDS)
        img = a_iso(lin, 1)
        trace = Poly.zero(chart, Space.ESTAR)
        for alpha in range(1, chart.fiber_rank + 1):
            coeff = lin.terms.get((EMPTY_MI, MultiIndex([alpha])))
            if coeff is not None:
                trace = trace - coeff.partial(Var(VarKind.FIBER, alpha)).with_space(
                    Space.ESTAR
                )
        ok = ok and img == hamiltonian_field(lin.symbol_at(1)) + DiffOp.mult(trace)
    _report("5. A-isomorphism: round trips, bracket, module, generators, 200 trials", ok, started)


def test_criterion_06_a_iso_internal_redundancy():
    started = time.time()
    rng = random.Random(1006)
    ok = True
    for _ in range(50):
        chart = rg.rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rg.rand_fwl_op(rng, chart, BOUNDS, q)
        via_pair = pair_to_lderivation(_a_iso_pair(op, q, op.symbol_at(q)))
        closed = hamiltonian_field(op.symbol_at(q)) + DiffOp.mult(
            _closed_form_mult(op, q)
        )
        ok = ok and via_pair == closed == a_iso(op, q)
    _report("6. bundle-map path equals closed coordinate path (inline assert)", ok, started)


def test_criterion_07_rank1_pair_algebra():
    started = time.time()
    rng = random.Random(1007)
    ok = True
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
        p1 = rg.rand_fwl_pair(rng, chart, BOUNDS, q1)
        p2 = rg.rand_fwl_pair(rng, chart, BOUNDS, q2)
        bracket = pair_bracket(p1, p2)
        leibniz = p1.p.to_operator().commutator(p2.p.to_operator())
        ok = ok and bracket.p == leibniz.symbol_at(q1 + q2 - 1)
        ok = ok and pair_to_lderivation(bracket) == lderiv_commutator(
            pair_to_lderivation(p1), pair_to_lderivation(p2)
        )
    _report("7. rank-1 pairs: Poisson projection and intertwining, 200 trials", ok, started)


def test_criterion_08_fwl_metric_laplacian():
    started = time.time()
    rng = random.Random(1008)
    ok = True
    flat = fwl_metric_laplacian(Chart(1, 1), {})
    expected = DiffOp.monomial(
        Poly.const(Chart(1, 1), Space.E, 2), MultiIndex([1]), MultiIndex([1])
    )
    ok = ok and flat == expected
    for _ in range(50):
        n = rng.choice([1, 2])
        chart = Chart(n, n)
        lap = fwl_metric_laplacian(chart, rg.rand_gamma(rng, chart, BOUNDS))
        ok = ok and lap.is_fwl(2)
    _report("8. metric Laplacian: 50 random tables FWL, flat case exact", ok, started)


def test_criterion_09_multivector_linearization():
    started = time.time()
    rng = random.Random(1009)
    ok = True
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        q = rng.randint(1, 2)
        p = rg.rand_linearizable_multivector(rng, chart, BOUNDS, q)
        fs = [rg.rand_linearizable_function(rng, chart, BOUNDS) for _ in range(q)]
        lhs = linearize_multivector(p).eval(*(linearize_function(f) for f in fs))
        ok = ok and lhs == linearize_function(p.eval(*fs))
        q2 = rng.randint(1, 2)
        p2 = rg.rand_linearizable_multivector(rng, chart, BOUNDS, q2)
        bracket = poisson(p, p2)
        ok = ok and is_linearizable_multivector(bracket)
        ok = ok and linearize_multivector(bracket) == poisson(
            linearize_multivector(p), linearize_multivector(p2)
        )
    _report("9. multivector linearization: defining identity and bracket, 200 trials", ok, started)


def test_criterion_10_operator_linearization():
    started = time.time()
    rng = random.Random(1010)
    ok = True
    for _ in range(100):
        chart = rg.rand_chart(rng, BOUNDS)
        q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
        d1 = rg.rand_order_q_linearizable_op(rng, chart, BOUNDS, q1)
        d2 = rg.rand_order_q_linearizable_op(rng, chart, BOUNDS, q2)
        bracket = d1.commutator(d2)
        qc = q1 + q2 - 1
        ok = ok and is_order_q_linearizable(bracket, qc)
        ok = ok and linearize_do(bracket, qc) == linearize_do(d1, q1).commutator(
            linearize_do(d2, q2)
        )
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rg.rand_order_q_linearizable_op(rng, chart, BOUNDS, q)
        c_idx = rg.rand_fiber_multi_index(rng, chart, q - 1)
        canonical = [
            Poly.var(chart, Space.AMBIENT, Var(VarKind.FIBER, c)) for c in c_idx
        ]
        perturbed = [
            rep + rg.rand_second_order_function(rng, chart, BOUNDS)
            for rep in canonical
        ]
        value = nested_values(op)
        ok = ok and value(canonical).restrict_fiber_zero() == value(
            perturbed
        ).restrict_fiber_zero()
    for _ in range(100):
        chart = rg.rand_chart(rng, BOUNDS)
        q = rng.randint(1, 3)
        op = rg.rand_fwl_op(rng, chart, BOUNDS, q)
        ok = ok and linearize_do(op.with_space(Space.AMBIENT), q) == op
    _report(
        "10. operator linearization: commutator 100, representatives 200, zero-section 100",
        ok,
        started,
    )


def test_criterion_11_grading_coherence():
    started = time.time()
    rng = random.Random(1011)
    ok = True
    for _ in range(200):
        chart = rg.rand_chart(rng, BOUNDS)
        space = rng.choice([Space.E, Space.ESTAR])
        op = rg.rand_diffop(rng, chart, space, BOUNDS)
        f = rg.rand_poly(rng, chart, space, BOUNDS)
        t = rng.choice([Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 7)])
        total = DiffOp.zero(chart, space)
        for k, part in op.grade_decompose().items():
            total = total + part
            lhs = _scale_fiber(part.apply(_scale_fiber(f, 1 / t)), t)
            ok = ok and lhs == part.apply(f).scale(t**k)
        ok = ok and total == op
    _report("11. grading: term weights equal rescaling conjugation, 200 trials", ok, started)
