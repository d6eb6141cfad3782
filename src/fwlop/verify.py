"""Seeded randomized verification suites.

Each suite checks one cluster of algebraic identities on randomly
generated bounded instances.  A suite is a trial function, which makes
the draws and checks of one trial; `run_suite` calls it once per trial on
one seeded generator.  A failure names its identity and, as JSON
documents, the operands that identity documents; a trial that raises a
`FwlopError` is a failure of identity `raised`, with the error's
`Type: message`.  A `RequestTooLarge` is not: a size refusal ends the
run.  Reports are deterministic functions of (suite, trials, seed,
bounds).  The suite <-> invariant mapping is documented in the README.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import randgen as rg
from ._oracles import (
    _core_shape,
    _dense_laplacian,
    _dual,
    _fwl_shape,
    _metric_determinant,
    _pairing,
    _scale_fiber,
    _unshuffle_pair_bracket,
    _unshuffle_pair_product,
    _unshuffle_poisson,
    _wedge_coefficient,
    all_multi_indices,
    vars_of,
)
from .diffop import DiffOp, diffop_to_doc, nested_values
from .lbundle import (
    LPair,
    a_inverse,
    a_iso,
    pair_bracket,
    pair_product,
    pair_to_lderivation,
)
from .linearize import (
    is_linearizable_multivector,
    is_order_q_linearizable,
    linearize_do,
    linearize_function,
    linearize_multivector,
)
from .multivec import (
    SymMultivector,
    _is_fiber_linear,
    _require_fwl,
    core_to_dualpoly,
    fwl_check_multivector,
    fwl_metric_laplacian,
    hamiltonian_field,
    multiderivation_D,
    multiderivation_l,
    poisson,
    sym_product,
)
from .errors import FwlopError, NotLinearizable, RequestTooLarge, UnknownSuite
from .symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    add_into,
    fiber_kind,
    parse_poly,
    poly_to_str,
)


@dataclass
class VerifyReport:
    """One suite run: what it has checked so far and what failed."""

    suite: str
    trials: int
    seed: int
    failures: list = field(default_factory=list)
    # {identity: how many times it was checked}, in the order first checked
    executed: dict = field(default_factory=dict)
    # {identity: how many of those checks had a zero operand}, same keys
    vacuous: dict = field(default_factory=dict)
    # the trial being run, which `run_suite` sets and a failure records
    trial: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, identity: str, ok: bool, **docs):
        self.executed[identity] = self.executed.get(identity, 0) + 1
        zero = any(map(_is_zero, docs.values()))
        self.vacuous[identity] = self.vacuous.get(identity, 0) + zero
        if not ok:
            self.failures.append(
                {
                    "trial": self.trial,
                    "identity": identity,
                    "counterexample": {k: _doc(v) for k, v in sorted(docs.items())},
                }
            )

    def lines(self):
        import json

        out = [
            f"suite: {self.suite}",
            f"trials: {self.trials}",
            f"seed: {self.seed}",
            f"failures: {len(self.failures)}",
        ]
        for failure in self.failures:
            out.append(f"  trial {failure['trial']}: {failure['identity']}")
            doc = json.dumps(failure["counterexample"], sort_keys=True)
            out.append(f"    counterexample: {doc}")
        return out


def _is_zero(obj) -> bool:
    """A zero operator, multivector or polynomial, a pair of zeros, or a
    connection table with no nonzero entry."""
    if isinstance(obj, LPair):
        return obj.p.is_zero() and obj.rho.is_zero()
    if isinstance(obj, dict):
        return all(coeff.is_zero() for coeff in obj.values())
    return isinstance(obj, (DiffOp, SymMultivector, Poly)) and obj.is_zero()


def _doc(obj):
    if isinstance(obj, DiffOp):
        return diffop_to_doc(obj)
    if isinstance(obj, SymMultivector):
        return diffop_to_doc(obj.to_operator())
    if isinstance(obj, LPair):
        return {"p": _doc(obj.p), "rho": _doc(obj.rho)}
    if isinstance(obj, Poly):
        return poly_to_str(obj)
    if isinstance(obj, dict):
        # a connection table, as the entries of a `laplacian` document
        return [dict(zip("kij", key), coeff=poly_to_str(c)) for key, c in sorted(obj.items())]
    if isinstance(obj, (int, str, Fraction)):
        return str(obj)
    return repr(obj)


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


def _trial_recovery(s: VerifyReport, rng, bounds):
    """Operator table recovery, polynomial ring axioms, grading coherence."""
    chart = rg.rand_chart(rng, bounds)
    space = rng.choice([Space.E, Space.ESTAR, Space.AMBIENT])
    a = rg.rand_poly(rng, chart, space, bounds)
    b = rg.rand_poly(rng, chart, space, bounds)
    c = rg.rand_poly(rng, chart, space, bounds)
    s.check("ring-associativity", (a + b) + c == a + (b + c), a=a, b=b, c=c)
    s.check("ring-commutativity", a * b == b * a, a=a, b=b)
    s.check("ring-distributivity", a * (b + c) == a * b + a * c, a=a, b=b, c=c)
    variables = vars_of(chart, VarKind.BASE) + vars_of(chart, fiber_kind(space))
    v, w = rng.choice(variables), rng.choice(variables)
    s.check(
        "partials-commute",
        a.partial(v).partial(w) == a.partial(w).partial(v),
        a=a,
    )
    s.check(
        "leibniz",
        (a * b).partial(v) == a.partial(v) * b + a * b.partial(v),
        a=a,
        b=b,
    )
    parts = a.fiber_degree_decompose()
    total = Poly.zero(chart, space)
    homogeneous = True
    for deg, part in parts.items():
        total = total + part
        if part.fiber_degree() != deg:
            homogeneous = False
        if _scale_fiber(part, 5) != part.scale(Fraction(5) ** deg):
            homogeneous = False
    s.check("decompose-sums", total == a, a=a)
    s.check("decompose-homogeneous", homogeneous, a=a)
    s.check("print-parse", parse_poly(poly_to_str(a), chart, space) == a, a=a)

    op = rg.rand_diffop(rng, chart, space, bounds)
    recovered = op.recover_coefficients()
    s.check("coefficient-recovery", recovered == op.terms, op=op)

    graded_space = space if space is not Space.AMBIENT else Space.E
    graded = op.with_space(graded_space)
    f = rg.rand_poly(rng, chart, graded_space, bounds)
    t = rng.choice([Fraction(2), Fraction(-3), Fraction(1, 2)])
    grades = graded.grade_decompose()
    regrouped = DiffOp.zero(chart, graded_space)
    conjugation = True
    for k, part in grades.items():
        regrouped = regrouped + part
        lhs = _scale_fiber(part.apply(_scale_fiber(f, 1 / t)), t)
        rhs = part.apply(f).scale(t**k)
        if lhs != rhs:
            conjugation = False
    s.check("grade-sums", regrouped == graded, op=graded)
    s.check("grade-conjugation", conjugation, op=graded, f=f, t=t)


def _trial_symbol_bracket(s: VerifyReport, rng, bounds):
    """Symbol/Poisson compatibility, commutator and bracket Jacobi laws."""
    chart = rg.rand_chart(rng, bounds)
    space = rng.choice([Space.E, Space.ESTAR])
    d1 = rg.rand_diffop(rng, chart, space, bounds, max_keys=2)
    d2 = rg.rand_diffop(rng, chart, space, bounds, max_keys=2)
    q1, q2 = d1.order(), d2.order()
    if q1 is None or q2 is None:
        return
    bracket = d1.commutator(d2)
    s.check(
        "commutator-order-bound",
        bracket.is_zero() or bracket.order() <= q1 + q2 - 1,
        d1=d1,
        d2=d2,
    )
    sym1, sym2 = d1.symbol(), d2.symbol()
    lhs = poisson(sym1, sym2)
    oracle = _unshuffle_poisson(sym1, sym2)
    s.check("poisson-oracle", lhs == oracle, d1=d1, d2=d2)
    if q1 + q2 == 0:
        s.check(
            "symbol-poisson-compat",
            lhs.is_zero() and bracket.is_zero(),
            d1=d1,
            d2=d2,
        )
    else:
        rhs = bracket.symbol_at(q1 + q2 - 1)
        s.check("symbol-poisson-compat", lhs == rhs, d1=d1, d2=d2)

    d3 = rg.rand_diffop(rng, chart, space, bounds, max_keys=1)
    bracket23 = d2.commutator(d3)
    jac = (
        bracket.commutator(d3)
        + bracket23.commutator(d1)
        + d3.commutator(d1).commutator(d2)
    )
    s.check("commutator-jacobi", jac.is_zero(), d1=d1, d2=d2, d3=d3)
    s.check(
        "commutator-bilinear",
        (d1 + d2).commutator(d3) == d1.commutator(d3) + bracket23,
        d1=d1,
        d2=d2,
        d3=d3,
    )

    if s.trial % 5 == 0:
        orders = [rng.randint(1, 2) for _ in range(3)]
        ps = [
            rg.rand_multivector(rng, chart, space, bounds, q, max_keys=1)
            for q in orders
        ]
        lhs = poisson(ps[0], poisson(ps[1], ps[2]))
        rhs = poisson(poisson(ps[0], ps[1]), ps[2]) + poisson(
            ps[1], poisson(ps[0], ps[2])
        )
        s.check("poisson-jacobi", lhs == rhs, p1=ps[0], p2=ps[1], p3=ps[2])

    qa, qb = rng.randint(1, 2), rng.randint(1, 2)
    pa = rg.rand_fwl_multivector(rng, chart, bounds, qa)
    pb = rg.rand_fwl_multivector(rng, chart, bounds, qb)
    lhs = hamiltonian_field(poisson(pa, pb))
    rhs = hamiltonian_field(pa).commutator(hamiltonian_field(pb))
    s.check("hamiltonian-lie-morphism", lhs == rhs, p1=pa, p2=pb)


def _trial_stabilizer(s: VerifyReport, rng, bounds):
    """Stabilizer characterization, abelian core, generation of FWL operators."""
    chart = rg.rand_chart(rng, bounds)
    q = rng.randint(1, bounds.order_max)
    op = rg.rand_fwl_op(rng, chart, bounds, q)
    gens = rg.rand_core_generators(rng, chart, bounds)
    s.check(
        "fwl-stabilizes-core",
        all(op.commutator(F).is_core_sum() for F in gens),
        op=op,
    )

    bad = rg.rand_fwl_violation(rng, chart, bounds, op, q)
    witnesses = rg.rand_core_generators(rng, chart, bounds)[
        : chart.base_dim + chart.fiber_rank
    ]
    s.check(
        "violation-witnessed",
        any(not bad.commutator(F).is_core_sum() for F in witnesses),
        op=bad,
    )
    s.check(
        "fwl-weight-shape",
        op.is_fwl(q) and all(t.is_fwl(q) == _fwl_shape(t, q) for t in (op, bad)),
        op=op,
        bad=bad,
    )

    p1 = rng.randint(1, bounds.order_max)
    f1 = rg.rand_core_op(rng, chart, bounds, p1)
    p2 = rng.randint(1, bounds.order_max)
    f2 = rg.rand_core_op(rng, chart, bounds, p2)
    s.check("core-abelian", f1.commutator(f2).is_zero(), f1=f1, f2=f2)
    s.check(
        "core-weight-shape",
        all(f.is_core(p) and _core_shape(f, p) for f, p in ((f1, p1), (f2, p2))),
        f1=f1,
        f2=f2,
    )

    s.check("fwl-generation", _regenerate_fwl(chart, op, q) == op, op=op)


def _regenerate_fwl(chart: Chart, op: DiffOp, q: int) -> DiffOp:
    """Rebuild a FWL operator as core-coefficient combinations of the
    identity, fiber-linear functions and fiber-wise linear vector fields."""
    out = DiffOp.zero(chart, Space.E)
    ident = DiffOp.identity(chart, Space.E)
    for (mi_b, mi_f), coeff in op.terms.items():
        if len(mi_b) == 1:
            core = DiffOp.monomial(coeff, EMPTY_MI, mi_f)
            field = DiffOp.monomial(Poly.const(chart, Space.E, 1), mi_b, EMPTY_MI)
            out = out + core.compose(field)
        elif len(mi_f) == q:
            beta = mi_f[0]
            rest = mi_f.remove(beta)
            for alpha in range(1, chart.fiber_rank + 1):
                c_a = coeff.partial(Var(VarKind.FIBER, alpha))
                if c_a.is_zero():
                    continue
                u_alpha = Poly.var(chart, Space.E, Var(VarKind.FIBER, alpha))
                lin_field = DiffOp.monomial(u_alpha, EMPTY_MI, MultiIndex([beta]))
                core = DiffOp.monomial(c_a, EMPTY_MI, rest)
                piece = core.compose(lin_field)
                out = out + piece
                overshoot = piece - DiffOp.monomial(c_a * u_alpha, EMPTY_MI, mi_f)
                out = out - overshoot.compose(ident)
        else:
            out = out + DiffOp.monomial(coeff, EMPTY_MI, mi_f).compose(ident)
    return out


def _trial_exact_seq(s: VerifyReport, rng, bounds):
    """Kernel/core identification, surjectivity onto homogeneous fields,
    and the multivector exact-sequence shape."""
    chart = rg.rand_chart(rng, bounds)
    p = rng.randint(1, 2)
    core = rg.rand_core_op(rng, chart, bounds, p)
    image = a_iso(core, p + 1)
    s.check("core-in-kernel", not image.top_table(1), core=core)

    q = rng.randint(1, bounds.order_max)
    third_only = DiffOp(
        chart,
        Space.E,
        {
            (EMPTY_MI, rg.rand_fiber_multi_index(rng, chart, q - 1)): rg.rand_poly(
                rng, chart, Space.E, bounds, base_only=True
            )
        },
    )
    if not third_only.is_zero():
        s.check(
            "kernel-is-core",
            not a_iso(third_only, q).top_table(1) and third_only.is_core_sum(),
            op=third_only,
        )
    op = rg.rand_fwl_op(rng, chart, bounds, q)
    if not a_iso(op, q).top_table(1):
        s.check("kernel-is-core", op.is_core_sum(), op=op)

    degree = rng.randint(0, 2)
    v = rg.rand_homogeneous_field(rng, chart, bounds, degree)
    built = a_inverse(v, degree + 1)
    s.check(
        "ad-surjective",
        hamiltonian_field(built.symbol_at(degree + 1)) == v,
        field=v,
        op=built,
    )

    qm = rng.randint(1, bounds.order_max)
    pm = rg.rand_fwl_multivector(rng, chart, bounds, qm)
    pure_fiber = all(len(mi_b) == 0 for mi_b, _ in pm.terms)
    s.check("ses-kernel-shape", _symbol_vanishes(pm) == pure_fiber, p=pm)

    phi = rg.rand_section(rng, chart, bounds)
    qs = rng.randint(1, 2)
    cores = [rg.rand_core_multivector(rng, chart, bounds, 1) for _ in range(qs)]
    prod = cores[0]
    for extra in cores[1:]:
        prod = sym_product(prod, extra)
    injected = SymMultivector(
        chart,
        Space.E,
        qs,
        {key: phi * coeff for key, coeff in prod.terms.items()},
    )
    sym_still_zero = _symbol_vanishes(injected)
    s.check(
        "ses-injection",
        fwl_check_multivector(injected) and sym_still_zero,
        p=injected,
    )


def _symbol_vanishes(p: SymMultivector) -> bool:
    """l_P is zero on every tuple of dual basis sections u_C and coordinate."""
    _require_fwl(p)
    chart = p.chart
    u = [Poly.var(chart, Space.E, v) for v in vars_of(chart, VarKind.FIBER)]
    xs = [Poly.var(chart, Space.E, v) for v in vars_of(chart, VarKind.BASE)]
    return all(
        multiderivation_l(p, *(u[a - 1] for a in c_idx), x).is_zero()
        for c_idx in all_multi_indices(chart.fiber_rank, p.q - 1)
        for x in xs
    )


def _trial_iso_a(s: VerifyReport, rng, bounds):
    """Round trips, bracket and module morphisms, anchor, generator cases."""
    chart = rg.rand_chart(rng, bounds)
    q = rng.randint(1, bounds.order_max)
    op = rg.rand_fwl_op(rng, chart, bounds, q)
    image = a_iso(op, q)
    # a_inverse refuses an image that is not homogeneous of degree q-1
    homogeneous = image.is_zero() or image.weight() == q - 1
    s.check("image-homogeneous", homogeneous, op=op)
    s.check("round-trip-operator", homogeneous and a_inverse(image, q) == op, op=op)

    degree = rng.randint(0, 2)
    deriv = rg.rand_homogeneous_lderivation(rng, chart, bounds, degree)
    s.check(
        "round-trip-derivation",
        a_iso(a_inverse(deriv, degree + 1), degree + 1) == deriv,
        derivation=deriv,
    )

    q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
    d1 = rg.rand_fwl_op(rng, chart, bounds, q1)
    d2 = rg.rand_fwl_op(rng, chart, bounds, q2)
    bracket = d1.commutator(d2)
    lhs = a_iso(bracket, q1 + q2 - 1)
    image1 = a_iso(d1, q1)
    rhs = image1.commutator(a_iso(d2, q2))
    s.check("lie-morphism", lhs == rhs, d1=d1, d2=d2)

    p = rng.randint(1, 2)
    core = rg.rand_core_op(rng, chart, bounds, p)
    lhs = a_iso(core.compose(d1), p + q1)
    rhs = DiffOp.mult(core_to_dualpoly(core.symbol())).compose(image1)
    s.check("module-morphism", lhs == rhs, core=core, op=d1)

    lhs = nested_values(image1)([core_to_dualpoly(core)])
    comm = d1.commutator(core)
    s.check(
        "anchor-compat",
        comm.is_core_sum() and lhs == core_to_dualpoly(comm),
        core=core,
        op=d1,
    )

    if q >= 2:
        phis = [
            rg.rand_section(rng, chart, bounds) for _ in range(q - 1)
        ]
        f = rg.rand_poly(rng, chart, Space.E, bounds, base_only=True)
        psi = nested_values(op)
        lhs = psi(phis[:-1] + [f * phis[-1]])
        rhs = f * psi(phis) + multiderivation_l(op.symbol_at(q), *phis, f)
        s.check("psi-leibniz", lhs == rhs, op=op, f=f)

    s.check(
        "generator-identity",
        a_iso(DiffOp.identity(chart, Space.E), 1)
        == DiffOp.identity(chart, Space.ESTAR),
        chart=str(chart),
    )
    phi = rg.rand_section(rng, chart, bounds)
    expected = {
        (EMPTY_MI, MultiIndex([a])): -phi.partial(u).with_space(Space.ESTAR)
        for a, u in enumerate(vars_of(chart, VarKind.FIBER), start=1)
    }
    s.check(
        "generator-function",
        a_iso(DiffOp.mult(phi), 0) == DiffOp(chart, Space.ESTAR, expected),
        phi=phi,
    )
    lin = rg.rand_linear_field_op(rng, chart, bounds)
    expected = {}
    for i in range(1, chart.base_dim + 1):
        coeff = lin.terms.get((MultiIndex([i]), EMPTY_MI))
        if coeff is not None:
            expected[(MultiIndex([i]), EMPTY_MI)] = coeff.with_space(Space.ESTAR)
    for alpha in range(1, chart.fiber_rank + 1):
        coeff = lin.terms.get((EMPTY_MI, MultiIndex([alpha])))
        if coeff is None:
            continue
        v_alpha = Poly.var(chart, Space.ESTAR, Var(VarKind.DUAL_FIBER, alpha))
        for beta in range(1, chart.fiber_rank + 1):
            x_ab = coeff.partial(Var(VarKind.FIBER, beta)).with_space(Space.ESTAR)
            add_into(expected, (EMPTY_MI, MultiIndex([beta])), -x_ab * v_alpha)
            if alpha == beta:
                add_into(expected, (EMPTY_MI, EMPTY_MI), -x_ab)
    expected = DiffOp(chart, Space.ESTAR, expected)
    s.check("generator-field", a_iso(lin, 1) == expected, op=lin)


def _trial_pair_bracket(s: VerifyReport, rng, bounds):
    """Rank-1 bundle multivector Poisson algebra and its two projections."""
    chart = rg.rand_chart(rng, bounds)
    q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
    p1 = rg.rand_fwl_pair(rng, chart, bounds, q1)
    p2 = rg.rand_fwl_pair(rng, chart, bounds, q2)
    bracket = pair_bracket(p1, p2)
    oracle = _unshuffle_pair_bracket(p1, p2)
    s.check("pair-bracket-oracle", bracket == oracle, p1=p1, p2=p2)
    s.check(
        "bracket-projection-poisson",
        oracle.p == poisson(p1.p, p2.p),
        p1=p1,
        p2=p2,
    )
    s.check(
        "bracket-intertwines",
        pair_to_lderivation(bracket)
        == pair_to_lderivation(p1).commutator(pair_to_lderivation(p2)),
        p1=p1,
        p2=p2,
    )
    auto = pair_bracket(p1, p1)
    s.check(
        "bracket-antisymmetric",
        auto.p.is_zero() and auto.rho.is_zero(),
        p1=p1,
    )
    product = pair_product(p1, p2)
    oracle = _unshuffle_pair_product(p1, p2)
    s.check("pair-product-oracle", product == oracle, p1=p1, p2=p2)
    s.check(
        "product-projection",
        oracle.p == sym_product(p1.p, p2.p),
        p1=p1,
        p2=p2,
    )

    qa, qb = rng.randint(1, 2), rng.randint(1, 2)
    ca = rg.rand_core_multivector(rng, chart, bounds, qa)
    cb = rg.rand_core_multivector(rng, chart, bounds, qb)
    s.check(
        "core-product-iso",
        core_to_dualpoly(sym_product(ca, cb))
        == core_to_dualpoly(ca) * core_to_dualpoly(cb),
        p1=ca,
        p2=cb,
    )

    qd = rng.randint(1, bounds.order_max)
    pd = rg.rand_fwl_multivector(rng, chart, bounds, qd)
    phis = [rg.rand_section(rng, chart, bounds) for _ in range(qd)]
    f = rg.rand_poly(rng, chart, Space.E, bounds, base_only=True)
    lhs = multiderivation_D(pd, *phis[:-1], f * phis[-1])
    first = multiderivation_D(pd, *phis)
    symbol = multiderivation_l(pd, *phis[:-1], f)
    rhs = f * first + symbol * phis[-1]
    s.check("multiderivation-leibniz", lhs == rhs, p=pd, f=f)
    s.check(
        "multiderivation-classes",
        _is_fiber_linear(first) and symbol.is_base_only(),
        p=pd,
        f=f,
    )


def _trial_dual_deriv(s: VerifyReport, rng, bounds):
    """Frame derivation duality, top-power action, derivation commutators.

    A frame derivation is its linear vector field on the dual space, so it
    acts on sections of E, functions there, by `apply`; the dual, the
    pairing and the wedge expansion of the top power are the oracles'."""
    chart = rg.rand_chart(rng, bounds)
    m = chart.fiber_rank
    d = _rand_frame_derivation(rng, chart, bounds)
    d2 = _rand_frame_derivation(rng, chart, bounds)
    phi = rg.rand_section(rng, chart, bounds)
    e = rg.rand_section(rng, chart, bounds, Space.ESTAR)

    paired = _pairing(phi, e)
    dual = _dual(d)
    lhs = _pairing(dual.apply(phi), e) + _pairing(phi, d.apply(e))
    rhs = d.apply(paired.with_space(Space.ESTAR)).with_space(Space.E)
    s.check("duality-pairing", lhs == rhs, d=d)
    s.check("duality-involutive", _dual(dual) == d, d=d)
    s.check(
        "duality-lie-map",
        _dual(d.commutator(d2)) == dual.commutator(_dual(d2)),
        d1=d,
        d2=d2,
    )

    expansion = Poly.zero(chart, Space.E)
    for i in range(m):
        expansion = expansion + _wedge_coefficient(d, i)
    s.check(
        "top-power-trace",
        a_iso(dual, 1) == d + DiffOp.mult(expansion.with_space(Space.ESTAR)),
        d=d,
    )

    fsec = rg.rand_section(rng, chart, bounds, Space.ESTAR)
    g = rg.rand_poly(rng, chart, Space.ESTAR, bounds, base_only=True)
    lhs_leib = d.apply(g * fsec)
    rhs_leib = g * d.apply(fsec) + d.apply(g) * fsec
    s.check("frame-leibniz", lhs_leib == rhs_leib, d=d, g=g)

    da = rg.rand_homogeneous_lderivation(rng, chart, bounds, rng.randint(0, 2))
    db = rg.rand_homogeneous_lderivation(rng, chart, bounds, rng.randint(0, 2))
    f = rg.rand_poly(rng, chart, Space.ESTAR, bounds)
    lhs_act = da.commutator(db).apply(f)
    rhs_act = da.apply(db.apply(f)) - db.apply(da.apply(f))
    s.check("lderiv-commutator-action", lhs_act == rhs_act, d1=da, d2=db, f=f)


def _rand_frame_derivation(rng, chart, bounds) -> DiffOp:
    """Frame derivation with random base-only symbol X and matrix A, drawn
    X first and A row by row, as X + sum A_ab v_a d/dv_b on the dual space."""
    terms = {}
    for i in range(1, chart.base_dim + 1):
        x_i = rg.rand_poly(rng, chart, Space.ESTAR, bounds, base_only=True)
        add_into(terms, (MultiIndex([i]), EMPTY_MI), x_i)
    v = [Poly.var(chart, Space.ESTAR, w) for w in vars_of(chart, VarKind.DUAL_FIBER)]
    for v_a in v:
        for b in range(1, chart.fiber_rank + 1):
            a_ab = rg.rand_poly(rng, chart, Space.ESTAR, bounds, base_only=True)
            add_into(terms, (EMPTY_MI, MultiIndex([b])), a_ab * v_a)
    return DiffOp(chart, Space.ESTAR, terms)


def _trial_laplacian(s: VerifyReport, rng, bounds):
    """The Laplacian's FWL classification and its coefficients against a
    dense assembly from g^-1, and the split-metric determinant; the fixed
    flat case is trial 0's first check, made before any draw."""
    if s.trial == 0:
        flat = fwl_metric_laplacian(Chart(1, 1), {})
        expected = DiffOp.monomial(
            Poly.const(Chart(1, 1), Space.E, 2), MultiIndex([1]), MultiIndex([1])
        )
        s.check("flat-laplacian", flat == expected)
    n = rng.randint(1, 2)
    chart = Chart(n, n)
    gamma = rg.rand_gamma(rng, chart, bounds)
    lap = fwl_metric_laplacian(chart, gamma)
    s.check("laplacian-fwl", lap.is_fwl(2), op=lap)
    s.check("laplacian-dense", lap == _dense_laplacian(chart, gamma), gamma=gamma, n=n)
    det = _metric_determinant(chart, gamma)
    unit = Poly.const(chart, Space.E, (-1) ** n)
    s.check("metric-determinant", det == unit, gamma=gamma, n=n)


def _trial_lin_fn(s: VerifyReport, rng, bounds):
    """Function linearization: linearity, the product rule, error cases."""
    chart = rg.rand_chart(rng, bounds)
    f = rg.rand_linearizable_function(rng, chart, bounds)
    g = rg.rand_linearizable_function(rng, chart, bounds)
    any_f = rg.rand_poly(rng, chart, Space.AMBIENT, bounds)
    s.check(
        "linearize-additive",
        linearize_function(f + g)
        == linearize_function(f) + linearize_function(g),
        f=f,
        g=g,
    )
    lin = linearize_function(f)
    s.check(
        "linearize-fiber-linear",
        lin.is_zero() or set(lin.fiber_degree_decompose()) == {1},
        f=f,
    )
    product_rule = linearize_function(any_f * g) == any_f.restrict_fiber_zero().with_space(
        Space.E
    ) * linearize_function(g)
    s.check("linearize-product-rule", product_rule, f=any_f, g=g)
    bad = any_f + Poly.const(chart, Space.AMBIENT, 1)
    try:
        linearize_function(bad - bad.restrict_fiber_zero() + Poly.const(chart, Space.AMBIENT, 1))
        s.check("linearize-rejects", False, f=bad)
    except NotLinearizable:
        pass


def _trial_lin_mv(s: VerifyReport, rng, bounds):
    """Multivector linearization: defining identity and bracket preservation."""
    chart = rg.rand_chart(rng, bounds)
    q = rng.randint(1, 2)
    p = rg.rand_linearizable_multivector(rng, chart, bounds, q)
    fs = [rg.rand_linearizable_function(rng, chart, bounds) for _ in range(q)]
    value = p.eval(*fs)
    s.check(
        "values-linearizable",
        value.restrict_fiber_zero().is_zero(),
        p=p,
    )
    lhs = linearize_multivector(p).eval(*(linearize_function(f) for f in fs))
    rhs = linearize_function(value)
    s.check("defining-identity", lhs == rhs, p=p)

    q2 = rng.randint(1, 2)
    p2 = rg.rand_linearizable_multivector(rng, chart, bounds, q2)
    bracket = poisson(p, p2)
    s.check("bracket-linearizable", is_linearizable_multivector(bracket), p1=p, p2=p2)
    s.check(
        "bracket-preserved",
        linearize_multivector(bracket)
        == poisson(linearize_multivector(p), linearize_multivector(p2)),
        p1=p,
        p2=p2,
    )


def _trial_lin_do(s: VerifyReport, rng, bounds):
    """Operator linearization: commutator preservation, representative
    independence, symbol consistency."""
    chart = rg.rand_chart(rng, bounds)
    q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
    d1 = rg.rand_order_q_linearizable_op(rng, chart, bounds, q1)
    d2 = rg.rand_order_q_linearizable_op(rng, chart, bounds, q2)
    bracket = d1.commutator(d2)
    qc = q1 + q2 - 1
    s.check(
        "bracket-linearizable",
        is_order_q_linearizable(bracket, qc),
        d1=d1,
        d2=d2,
    )
    lhs = linearize_do(bracket, qc)
    rhs = linearize_do(d1, q1).commutator(linearize_do(d2, q2))
    s.check("commutator-preserved", lhs == rhs, d1=d1, d2=d2)

    q = rng.randint(1, bounds.order_max)
    op = rg.rand_order_q_linearizable_op(rng, chart, bounds, q)
    c_idx = rg.rand_fiber_multi_index(rng, chart, q - 1)
    canonical = [
        Poly.var(chart, Space.AMBIENT, Var(VarKind.FIBER, c)) for c in c_idx
    ]
    perturbed = [
        rep + rg.rand_second_order_function(rng, chart, bounds)
        for rep in canonical
    ]
    value = nested_values(op)
    psi_c = value(canonical).restrict_fiber_zero()
    psi_p = value(perturbed).restrict_fiber_zero()
    s.check("representative-independence", psi_c == psi_p, op=op)

    lin = linearize_do(op, q)
    s.check("linearization-fwl", lin.is_fwl(q), op=op)
    s.check(
        "symbol-consistency",
        lin.symbol_at(q) == linearize_multivector(op.symbol_at(q)),
        op=op,
    )


def _trial_zero_section(s: VerifyReport, rng, bounds):
    """FWL operators are fixed points of their own linearization."""
    chart = rg.rand_chart(rng, bounds)
    q = rng.randint(1, bounds.order_max)
    op = rg.rand_fwl_op(rng, chart, bounds, q)
    ambient = op.with_space(Space.AMBIENT)
    s.check(
        "zero-section-idempotent",
        linearize_do(ambient, q) == op,
        op=op,
    )


SUITES = {
    "recovery": _trial_recovery,
    "symbol-bracket": _trial_symbol_bracket,
    "stabilizer": _trial_stabilizer,
    "exact-seq": _trial_exact_seq,
    "iso-a": _trial_iso_a,
    "pair-bracket": _trial_pair_bracket,
    "dual-deriv": _trial_dual_deriv,
    "laplacian": _trial_laplacian,
    "lin-fn": _trial_lin_fn,
    "lin-mv": _trial_lin_mv,
    "lin-do": _trial_lin_do,
    "zero-section": _trial_zero_section,
}


def run_suite(name: str, trials: int, seed: int, bounds=None) -> VerifyReport:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; pick one of {sorted(SUITES)} or 'all'")
    bounds = bounds or rg.Bounds()
    rng = random.Random(f"{seed}/{name}")
    report = VerifyReport(name, trials, seed)
    for report.trial in range(trials):
        try:
            SUITES[name](report, rng, bounds)
        except RequestTooLarge:
            # a size refusal is the request's, not a failing identity
            raise
        except FwlopError as exc:
            # a domain error ends this trial, not the run; the next trial
            # draws on from wherever the generator stopped
            report.check("raised", False, error=f"{type(exc).__name__}: {exc}")
    report.failures.sort(key=lambda f: (f["trial"], f["identity"]))
    return report


def run_all(trials: int, seed: int, bounds=None):
    return [run_suite(name, trials, seed, bounds) for name in SUITES]
