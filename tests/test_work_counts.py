"""Work-count guards: the kernel calls that the table algebra must not make.

Composition, commutators, `DiffOp.apply`, the Poisson bracket, the
symmetric product and the bracket and product of line-bundle pairs sum
through the summation kernel `symcore._sum_products`, one reduced sum per
output coefficient, so they make no `Poly` product, scaling or addition
per summand.  Their partials are term lists (`symcore._term_partial`), so
they make no `Poly.partial` or `Poly.partial_multi` call either.  A
commutator reads one order, its second operand's.  A Leibniz pass lists only the
sub-multisets within the other coefficient's largest exponents, and a
commutator with the zero function takes no pass.
Coefficient recovery and the bundle-map path of `a_iso` build no
coordinate and take no bracket: each live node's children come from one
sweep of its terms, and only live nodes are built.  A fiber-linear
coefficient is split once, not differentiated per fiber letter, and the
FWL and core tests read at most one fiber degree per coefficient.  The
linearization, the Laplacian and `a_iso` test no class of their own
results.  Parsing collects
its terms in one table and reduces once, with no `Poly` per factor.  The
unshuffle oracles of `verify` evaluate each word of an operand once per
call.  The metric Laplacian forms no determinant, builds no coordinate,
multiplies no two polynomials and takes no partial: it is one
`Poly.from_fiber_parts` per key of its fiber-derivative part.  The
crossings between E and the dual space, and the linearization of a
function, move exponents through `Poly.from_fiber_parts` and multiply or
differentiate no polynomials.  The linearization of an operator reads its
table, takes no nested commutator, and builds and tests its level-q
symbol once; the inverse of `a_iso` reads the derivation's parts, and
neither `a_iso` nor its inverse walks the basis multi-indices.  Each
crossing builds one `Poly` per output coefficient and none per part:
`a_inverse`, the hamiltonian field, the closed form and the bundle-map
path of `a_iso`, which builds no `Fraction` either.  A join of
multi-indices with an empty side returns the other side itself.
"""

import random
from fractions import Fraction

import pytest

from fwlop import _oracles, diffop, lbundle, linearize, multivec, verify
from fwlop._oracles import (
    _unshuffle_pair_bracket,
    _unshuffle_pair_product,
    _unshuffle_poisson,
)
from fwlop.diffop import DiffOp, nested_values
from fwlop.lbundle import (
    LPair,
    _bundle_map_mult,
    _closed_form_mult,
    a_inverse,
    a_iso,
    pair_bracket,
    pair_product,
)
from fwlop.linearize import linearize_do, linearize_function
from fwlop.multivec import (
    SymMultivector,
    core_to_dualpoly,
    fwl_metric_laplacian,
    hamiltonian_field,
    poisson,
    sym_product,
)
from fwlop.randgen import (
    Bounds,
    rand_core_op,
    rand_diffop,
    rand_fwl_op,
    rand_fwl_pair,
    rand_gamma,
    rand_homogeneous_lderivation,
    rand_multivector,
    rand_order_q_linearizable_op,
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
    parse_poly,
    poly_to_str,
)

CH = Chart(2, 2)
BOUNDS = Bounds(n_max=2, m_max=2, order_max=3)


def _counting(monkeypatch, cls, names):
    """Wrap cls.<name> for each name; return the call counts by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    return counts


def _operators(seed, order):
    """Two fixed operators of exactly this order with fractional coefficients."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < 2:
        op = rand_diffop(rng, CH, Space.E, BOUNDS, max_keys=3, order=order)
        if op.order() == order and any(c.den != 1 for c in op.terms.values()):
            ops.append(op)
    return ops


ARITHMETIC = ["__mul__", "__rmul__", "scale", "__add__", "__sub__", "__neg__"]
# every summand reaches the summation kernel as term lists: no partial is
# a `Poly`
POLY_SUMS = ["partial", "partial_multi"]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_table_algebra_makes_no_poly_arithmetic_per_summand(monkeypatch, order):
    a, b = _operators(900 + order, order)
    rng = random.Random(920 + order)
    f = rand_poly(rng, CH, Space.E, BOUNDS)
    while a.apply(f).is_zero():
        f = rand_poly(rng, CH, Space.E, BOUNDS)
    while True:
        p1, p2 = (rand_fwl_pair(rng, CH, BOUNDS, q) for q in (order, order + 1))
        if pair_bracket(p1, p2).rho.terms and pair_product(p1, p2).rho.terms:
            break
    counts = _counting(monkeypatch, Poly, ARITHMETIC + POLY_SUMS)
    composed = a.compose(b)
    got = a.commutator(b)
    bracket = poisson(a.symbol(), b.symbol())
    product = sym_product(a.symbol(), b.symbol())
    pairs = pair_bracket(p1, p2), pair_product(p1, p2)
    applied = a.apply(f)
    assert counts == dict.fromkeys(ARITHMETIC + POLY_SUMS, 0)
    monkeypatch.undo()
    assert not got.is_zero() and got == composed - b.compose(a)
    assert not bracket.is_zero() and bracket == got.symbol_at(2 * order - 1)
    assert not product.is_zero() and product == composed.symbol_at(2 * order)
    assert all(pair.rho.terms for pair in pairs)
    assert not applied.is_zero() and composed.apply(f) == a.apply(b.apply(f))
    assert applied == a.compose(DiffOp.mult(f)).apply(Poly.const(CH, Space.E, 1))


def test_commutator_reads_each_order_once(monkeypatch):
    a, b = _operators(903, 3)
    counts = _counting(monkeypatch, DiffOp, ["order"])
    a.commutator(b)
    # other's, to skip the pass of other∘self for an order-0 operand; the
    # order bound q + r - 1 is verify's `commutator-order-bound`
    assert counts == {"order": 1}


def test_recovery_builds_no_coordinate_polynomial(monkeypatch):
    op = rand_diffop(random.Random(0), Chart(3, 3), Space.E, Bounds(), order=3)
    counts = _counting(monkeypatch, Poly, ["var", "as_var"])
    assert op.recover_coefficients() == op.terms
    # the walk takes its letters as (key part, index)
    assert counts == {"var": 0, "as_var": 0}


def test_coordinate_brackets_make_no_leibniz_pass(monkeypatch):
    # recovery and the bundle-map path of a_iso take no bracket at all:
    # every node's children come from one sweep of its terms, and a_iso
    # builds its symbol once per call and does not check it FWL again: the
    # operand's FWL test covers it
    rng = random.Random(5)
    ops = [rand_diffop(rng, Chart(3, 3), space, Bounds(), order=3) for space in Space]
    fwl = [(rand_fwl_op(rng, CH, BOUNDS, q), q) for q in (1, 2, 3)]
    names = ["_leibniz", "_function_bracket", "_shifts", "symbol_at"]
    counts = _counting(monkeypatch, DiffOp, names)
    # lbundle imported the name too
    checks = [
        _counting(monkeypatch, module, ["fwl_check_multivector"])
        for module in (lbundle, multivec)
    ]
    for op in ops:
        assert op.recover_coefficients() == op.terms
    recovery_sweeps = counts["_shifts"]
    derivations = [a_iso(op, q) for op, q in fwl]
    assert counts["_leibniz"] == counts["_function_bracket"] == 0
    assert recovery_sweeps > 20 and counts["_shifts"] > recovery_sweeps
    assert counts["symbol_at"] == len(fwl)
    assert sum(check["fwl_check_multivector"] for check in checks) == 0
    monkeypatch.undo()
    assert [a_inverse(d, q) for d, (_, q) in zip(derivations, fwl)] == [
        op for op, _ in fwl
    ]


def test_leibniz_lists_only_the_sub_multisets_within_the_caps(monkeypatch):
    # dx[1..16] has 65536 sub-multisets, but x1 admits only S within {x1}:
    # the pass lists the 2 of them (the caps are min(J, tops) per letter)
    # and never the whole list
    chart = Chart(16, 1)
    key = MultiIndex(range(1, 17))
    one = Poly.const(chart, Space.E, 1)
    op = DiffOp.monomial(one, key, EMPTY_MI)
    x1 = Poly.var(chart, Space.E, Var(VarKind.BASE, 1))
    listed = []
    pass_sub_multisets = diffop._pass_sub_multisets

    def listing(*args):
        subs = pass_sub_multisets(*args)
        listed.append(len(subs))
        return subs

    monkeypatch.setattr(diffop, "_pass_sub_multisets", listing)
    got = op.compose(DiffOp.mult(x1))
    assert listed and max(listed) <= 2
    assert got.terms == {(key, EMPTY_MI): x1, (key.remove(1), EMPTY_MI): one}


def test_pair_bracket_suite_takes_no_pass_against_a_zero_function(monkeypatch):
    # [A, 0] = 0 returns at once: the suite's oracles ask for such brackets,
    # and none of them runs a Leibniz pass
    zero_brackets, zero_passes = [0], []
    bracket, leibniz = DiffOp._function_bracket, DiffOp._leibniz

    def bracketing(self, f):
        zero_brackets[0] += f.is_zero()
        return bracket(self, f)

    def passing(self, others, *rest):
        others = list(others)
        zero_passes.extend(c for _, c in others if c.is_zero())
        return leibniz(self, others, *rest)

    monkeypatch.setattr(DiffOp, "_function_bracket", bracketing)
    monkeypatch.setattr(DiffOp, "_leibniz", passing)
    assert verify.run_suite("pair-bracket", 50, 1).ok
    assert zero_brackets[0] > 0
    assert zero_passes == []


def test_recovery_builds_only_the_live_nodes(monkeypatch):
    # (x1*u7 + 2) dx[1] du[2,3,60] has 16 live words, the sub-multisets of
    # its key: the walk builds the 15 below the root, sweeping each node
    # shorter than the order once (the per-letter walk tried all 61
    # letters at every such node: 479 brackets, 15 of them nonzero)
    chart = Chart(1, 60)
    op = DiffOp.monomial(
        parse_poly("x1*u7 + 2", chart, Space.E), MultiIndex([1]), MultiIndex([2, 3, 60])
    )
    built = []
    shifts = DiffOp._shifts

    def sweeping(self, where, start):
        tables = shifts(self, where, start)
        built.extend(tables.values())
        return tables

    monkeypatch.setattr(DiffOp, "_shifts", sweeping)
    counts = _counting(monkeypatch, DiffOp, ["_shifts", "_function_bracket", "_leibniz"])
    assert op.recover_coefficients() == op.terms
    assert counts == {"_shifts": 15, "_function_bracket": 0, "_leibniz": 0}
    assert len(built) == 15 and all(built)


def test_fiber_linear_coefficients_are_split_once(monkeypatch):
    # the d/du_a of a fiber-linear top coefficient is its part at (a,):
    # neither the hamiltonian field nor the closed form differentiates
    rng = random.Random(75)
    ops = [rand_fwl_op(rng, CH, BOUNDS, q) for q in (1, 2, 3, 3)]
    counts = _counting(monkeypatch, Poly, ["partial", "fiber_parts"])
    fields = [hamiltonian_field(op.symbol_at(q)) for op, q in zip(ops, (1, 2, 3, 3))]
    mults = [_closed_form_mult(op, q) for op, q in zip(ops, (1, 2, 3, 3))]
    assert counts["partial"] == 0 and counts["fiber_parts"] > 0
    monkeypatch.undo()
    assert any(key[1] for field in fields for key in field.terms if not key[0])
    for op, q, field, mult in zip(ops, (1, 2, 3, 3), fields, mults):
        assert field + DiffOp.mult(mult) == a_iso(op, q)


def test_classification_reads_one_fiber_degree_per_coefficient(monkeypatch):
    rng = random.Random(76)
    fwl = rand_fwl_op(rng, CH, BOUNDS, 3)
    core = rand_core_op(rng, CH, BOUNDS, 2)
    counts = _counting(monkeypatch, Poly, ["fiber_degree", "is_base_only"])
    assert fwl.is_fwl(3) and not fwl.is_fwl(2)
    assert core.is_core(2) and not core.is_core(3)
    # one fiber degree per coefficient for the weight of a call that passes
    # the order test, none for a call that fails it
    assert counts == {
        "fiber_degree": len(fwl.terms) + len(core.terms),
        "is_base_only": 0,
    }


def _receivers(monkeypatch, cls, names):
    """Wrap cls.<name> for each name; return the receivers of the calls by
    name."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(cls, name)

        def wrapper(self, *args, _name=name, _original=original):
            calls[_name].append(self)
            return _original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_constructions_classify_no_result(monkeypatch):
    rng = random.Random(77)
    fwl = [(rand_fwl_op(rng, CH, BOUNDS, q), q) for q in (1, 2, 3)]
    ambient = [(rand_order_q_linearizable_op(rng, CH, BOUNDS, q), q) for q in (1, 2, 3)]
    gamma = rand_gamma(rng, CH, BOUNDS)
    calls = _receivers(monkeypatch, DiffOp, ["is_fwl", "weight"])
    lins = [linearize_do(op, q) for op, q in ambient]
    lap = fwl_metric_laplacian(CH, gamma)
    assert calls == {"is_fwl": [], "weight": []}
    images = [a_iso(op, q) for op, q in fwl]
    # one FWL test of the operand, its precondition, which covers the
    # symbol's table too, so the hamiltonian field makes none; the image's
    # weight is not read
    assert [r for r in calls["is_fwl"] if any(r is op for op, _ in fwl)] == [
        op for op, _ in fwl
    ]
    assert len(calls["is_fwl"]) == len(fwl)
    assert all(r.space is Space.E for r in calls["weight"])
    monkeypatch.undo()
    assert all(lin.is_fwl(q) for lin, (_, q) in zip(lins, ambient)) and lap.is_fwl(2)
    assert all(d.weight() == q - 1 for d, (_, q) in zip(images, fwl) if d.terms)


def test_eval_on_functions_makes_one_leibniz_pass_per_new_node(monkeypatch):
    rng = random.Random(6)
    p = rand_multivector(rng, CH, Space.E, BOUNDS, 2, max_keys=3)
    texts = ("x1*u2 + u1^2", "x2 + u1*u2", "2*u2", "x1 + x2")
    f, g, h, k = (parse_poly(t, CH, Space.E) for t in texts)
    counts = _counting(monkeypatch, DiffOp, ["_leibniz", "_function_bracket"])
    values = [p.eval(f, g), p.eval(h, k), p.eval(g, f)]
    # two words with distinct letters make four trie nodes, so four
    # brackets, each one pass; the repeated word reads the trie
    assert counts == {"_leibniz": 4, "_function_bracket": 4}
    monkeypatch.undo()
    word = sorted([f, g], key=Poly.sort_key)
    assert values[0] == values[2] == nested_values(p.to_operator())(word)


@pytest.mark.parametrize("n", [2, 3])
def test_laplacian_is_one_fiber_parts_sum_per_key(monkeypatch, n):
    # The Laplacian is a transcription of Gamma's table: each coefficient
    # of a d_u key is summed from Gamma's entries as fiber parts, with no
    # determinant, no coordinate, no product and no partial.
    chart = Chart(n, n)
    gamma = rand_gamma(random.Random(41 + n), chart, Bounds(n_max=n, m_max=n))
    dets = _counting(monkeypatch, _oracles, ["_det"])
    names = ["__mul__", "__rmul__", "var", "partial", "from_fiber_parts"]
    counts = _counting(monkeypatch, Poly, names)
    lap = fwl_metric_laplacian(chart, gamma)
    assert dets == {"_det": 0}
    fiber_keys = [mi_f for mi_b, mi_f in lap.terms if not mi_b]
    none = dict.fromkeys(["__mul__", "__rmul__", "var", "partial"], 0)
    assert counts == {**none, "from_fiber_parts": len(fiber_keys)}
    monkeypatch.undo()
    assert len(gamma) >= n and lap.is_fwl(2)
    assert any(len(mi_f) == 2 and mi_f[0] != mi_f[1] for mi_f in fiber_keys)
    assert any(len(mi_f) == 1 for mi_f in fiber_keys)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_crossings_multiply_no_polynomials(monkeypatch, q):
    rng = random.Random(70 + q)
    op = rand_fwl_op(rng, CH, BOUNDS, q)
    while not op.symbol_at(q).terms or not _closed_form_mult(op, q).terms:
        op = rand_fwl_op(rng, CH, BOUNDS, q)
    rho = rand_fwl_pair(rng, CH, BOUNDS, q + 1).rho
    while rho.is_zero():
        rho = rand_fwl_pair(rng, CH, BOUNDS, q + 1).rho
    d = a_iso(op, q)
    f = parse_poly("3/2*x1*u1 - u2^2*x2 + 1/3*u2 - u1*u2", CH, Space.AMBIENT)
    # nor does a crossing, or the linearization of a function, take a partial
    names = ["__mul__", "__rmul__", "partial"]
    counts = _counting(monkeypatch, Poly, names)
    got = (
        hamiltonian_field(op.symbol_at(q)),
        core_to_dualpoly(rho),
        _closed_form_mult(op, q),
        a_inverse(d, q),
        linearize_function(f),
    )
    assert counts == dict.fromkeys(names, 0)
    monkeypatch.undo()
    field, dual, mult, back, linear = got
    assert not field.is_zero() and field + DiffOp.mult(mult) == d
    assert not dual.is_zero() and dual.fiber_degree() == q
    assert back == op
    assert linear == parse_poly("3/2*x1*u1 + 1/3*u2", CH, Space.E)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_linearize_do_takes_no_nested_commutator(monkeypatch, q):
    rng = random.Random(80 + q)
    ops = []
    for letter in (1, 2):
        op = rand_order_q_linearizable_op(rng, CH, BOUNDS, q)
        coeff = rand_poly(rng, CH, Space.AMBIENT, BOUNDS)
        coeff = coeff + rand_poly(rng, CH, Space.AMBIENT, BOUNDS, base_only=True)
        ops.append(op + DiffOp.monomial(coeff, EMPTY_MI, MultiIndex([letter] * (q - 1))))
    counts = _counting(monkeypatch, DiffOp, ["_function_bracket", "_leibniz"])
    got = [linearize_do(op, q) for op in ops]
    assert counts == {"_function_bracket": 0, "_leibniz": 0}
    monkeypatch.undo()
    for op, lin in zip(ops, got):
        assert lin.is_fwl(q)
        assert any(len(mi_f) == q - 1 and not mi_b for mi_b, mi_f in lin.terms)


def test_linearize_do_builds_and_tests_its_level_symbol_once(monkeypatch):
    rng = random.Random(90)
    ops = [(rand_order_q_linearizable_op(rng, CH, BOUNDS, q), q) for q in (1, 2, 3) * 10]
    symbols = _counting(monkeypatch, DiffOp, ["symbol_at"])
    tests = _counting(monkeypatch, linearize, ["is_linearizable_multivector"])
    got = [linearize_do(op, q) for op, q in ops]
    assert symbols == {"symbol_at": len(ops)}
    assert tests == {"is_linearizable_multivector": len(ops)}
    monkeypatch.undo()
    assert all(lin.is_fwl(q) for lin, (_, q) in zip(got, ops))
    assert sum(op.order() == q for op, q in ops) >= 20


def _counting_basis_walks(monkeypatch):
    """Count the calls of `_oracles.all_multi_indices`, also through a name
    that `lbundle` imported, which is patched whether or not it exists."""
    counts = {"all_multi_indices": 0}
    original = _oracles.all_multi_indices

    def wrapper(*args):
        counts["all_multi_indices"] += 1
        return original(*args)

    for module in (lbundle, _oracles):
        monkeypatch.setattr(module, "all_multi_indices", wrapper, raising=False)
    return counts


def test_a_inverse_walks_no_basis(monkeypatch):
    rng = random.Random(90)
    cases = [(rand_homogeneous_lderivation(rng, CH, BOUNDS, q - 1), q) for q in (1, 2, 3)]
    walks = _counting_basis_walks(monkeypatch)
    got = [a_inverse(d, q) for d, q in cases]
    assert walks == {"all_multi_indices": 0}
    monkeypatch.undo()
    assert [a_iso(op, q) for op, (_, q) in zip(got, cases)] == [d for d, _ in cases]


def test_a_iso_walks_no_basis(monkeypatch):
    rng = random.Random(91)
    cases = [(rand_fwl_op(rng, CH, BOUNDS, q), q) for q in (1, 2, 3, 4)]
    walks = _counting_basis_walks(monkeypatch)
    got = [a_iso(op, q) for op, q in cases]
    assert walks == {"all_multi_indices": 0}
    monkeypatch.undo()
    assert [a_inverse(d, q) for d, (_, q) in zip(got, cases)] == [op for op, _ in cases]
    assert any(d.terms.get((EMPTY_MI, EMPTY_MI)) for d in got)


def test_parsing_builds_one_poly(monkeypatch):
    text = "3/4*x1^2*u2 - 5/6*u1*-2 + x2*x2*7/10 - u1 + 2/9*x1*x2*u1*u2 + -1/3"
    names = ["__mul__", "_combine", "__neg__", "var", "const", "_reduced"]
    counts = _counting(monkeypatch, Poly, names)
    got = parse_poly(text, CH, Space.E)
    assert counts == dict(dict.fromkeys(names, 0), _reduced=1)
    monkeypatch.undo()
    assert poly_to_str(got) == (
        "-1/3 + 2/9*x1*x2*u1*u2 + 3/4*x1^2*u2 + 7/10*x2^2 + 2/3*u1"
    )


def _spying_on_evaluations(monkeypatch):
    """Record each `SymMultivector.eval` and `LPair.apply` call made from
    outside `LPair.apply` as (kind, instance id, arguments); an apply's own
    evaluations of P and rho are its business, not the caller's."""
    calls = []
    inside = [0]
    evaluate, apply = SymMultivector.eval, LPair.apply

    def spy_eval(self, *args):
        if not inside[0]:
            calls.append(("eval", id(self), args))
        return evaluate(self, *args)

    def spy_apply(self, fs, g):
        calls.append(("apply", id(self), tuple(fs), g))
        inside[0] += 1
        try:
            return apply(self, fs, g)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(SymMultivector, "eval", spy_eval)
    monkeypatch.setattr(LPair, "apply", spy_apply)
    return calls


def _oracle_cases():
    rng = random.Random(11)
    m1, m2 = (rand_multivector(rng, CH, Space.E, BOUNDS, q) for q in (2, 3))
    p1, p2 = (rand_fwl_pair(rng, CH, BOUNDS, q) for q in (2, 3))
    return [
        (_unshuffle_poisson, poisson, m1, m2),
        (_unshuffle_pair_bracket, pair_bracket, p1, p2),
        (_unshuffle_pair_product, pair_product, p1, p2),
    ]


@pytest.mark.parametrize("case", range(3))
def test_unshuffle_oracles_evaluate_each_word_once(monkeypatch, case):
    oracle, library, a, b = _oracle_cases()[case]
    calls = _spying_on_evaluations(monkeypatch)
    got = oracle(a, b)
    assert len(calls) > 50
    assert len(set(calls)) == len(calls)
    monkeypatch.undo()
    assert got == library(a, b)
    tables = [got] if isinstance(got, SymMultivector) else [got.p, got.rho]
    assert any(table.terms for table in tables)


@pytest.mark.parametrize(
    "suite, most",
    [("pair-bracket", {"eval": 6600, "apply": 2800}), ("symbol-bracket", {"eval": 1200})],
)
def test_oracle_suites_evaluation_counts(monkeypatch, suite, most):
    evals = _counting(monkeypatch, SymMultivector, ["eval"])
    applies = _counting(monkeypatch, LPair, ["apply"])
    assert verify.run_suite(suite, 50, 1).ok
    assert evals["eval"] <= most["eval"]
    assert applies["apply"] <= most.get("apply", 0)


def test_crossings_build_one_poly_per_output_key(monkeypatch):
    # the parts are term lists: a_inverse, the hamiltonian field and the
    # closed form build each output coefficient once, and the bundle-map
    # path builds nothing per node and one polynomial in all (its walk's
    # shifts scale coefficients, which is the walk's business)
    rng = random.Random(79)
    fwl = [(rand_fwl_op(rng, CH, BOUNDS, q), q) for q in (1, 2, 3, 3)]
    derivations = [(rand_homogeneous_lderivation(rng, CH, BOUNDS, q - 1), q) for q in (1, 2, 3)]
    symbols = [op.symbol_at(q) for op, q in fwl]
    built = _counting(monkeypatch, Poly, ["_raw", "from_fiber_parts"])
    per_node = []
    parts = lbundle._bundle_map_parts

    def node_parts(node, c_idx):
        before = built["_raw"]
        out = parts(node, c_idx)
        per_node.append(built["_raw"] - before)
        return out

    monkeypatch.setattr(lbundle, "_bundle_map_parts", node_parts)

    def made(fn, *args):
        built.update(_raw=0, from_fiber_parts=0)
        return fn(*args), built["_raw"], built["from_fiber_parts"]

    inverses = [made(a_inverse, d, q) for d, q in derivations]
    fields = [made(multivec._hamiltonian_field, p) for p in symbols]
    closed = [made(_closed_form_mult, op, q) for op, q in fwl]
    bundle = [made(_bundle_map_mult, op, q)[2] for op, q in fwl]
    monkeypatch.undo()
    for value, polys, sums in inverses + fields:
        assert polys == sums == len(value.terms) > 0
    assert [(polys, sums) for _, polys, sums in closed] == [(1, 1)] * len(fwl)
    assert bundle == [1] * len(fwl)
    assert len(per_node) >= len(fwl) and set(per_node) == {0}
    for (op, q), (mult, _, _) in zip(fwl, closed):
        assert _bundle_map_mult(op, q) == mult


def test_a_iso_builds_no_fraction(monkeypatch):
    rng = random.Random(92)
    cases = [(rand_fwl_op(rng, CH, BOUNDS, q), q) for q in (1, 2, 3, 4)]
    made = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    got = [a_iso(op, q) for op, q in cases]
    assert made == [0]
    monkeypatch.undo()
    assert [a_inverse(d, q) for d, (_, q) in zip(got, cases)] == [op for op, _ in cases]
    assert any(d.terms.get((EMPTY_MI, EMPTY_MI)) for d in got)


def test_a_join_with_an_empty_side_returns_its_other_operand():
    word = MultiIndex([2, 1, 2])
    assert word.concat(EMPTY_MI) is word and EMPTY_MI.concat(word) is word
    assert word.concat(MultiIndex([1])) == (1, 1, 2, 2)
    assert MultiIndex([3]).remove(3) is EMPTY_MI
    assert word.remove(2) == (1, 2) and type(word.remove(1)) is MultiIndex
    with pytest.raises(ValueError):
        word.remove(3)
    # a Leibniz pass past an order-0 operand keeps the other's key parts
    x1 = Poly.var(CH, Space.E, Var(VarKind.BASE, 1))
    op = DiffOp.monomial(x1, MultiIndex([1, 2]), MultiIndex([2]))
    ((key, _),) = DiffOp.mult(x1).compose(op).terms.items()
    ((stored, _),) = op.terms.items()
    assert key[0] is stored[0] and key[1] is stored[1]
