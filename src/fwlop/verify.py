"""Seeded randomized verification suites.

Each suite checks one cluster of algebraic identities on randomly
generated bounded instances and reports counterexamples as re-runnable
JSON documents.  Reports are deterministic functions of (suite, trials,
seed, bounds).  The suite <-> invariant mapping is documented in the
README.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import randgen as rg
from .diffop import DiffOp, _recover_table, diffop_to_doc, nested_values
from .lbundle import (
    FrameDerivation,
    LDerivation,
    LPair,
    _base_field_apply,
    _symbol_field_on_basis,
    a_inverse,
    a_iso,
    lderiv_commutator,
    lderivation_to_doc,
    pair_bracket,
    pair_product,
    pair_to_lderivation,
    psi_values,
)
from .linearize import (
    is_linearizable_multivector,
    is_order_q_linearizable,
    linearize_do,
    linearize_function,
    linearize_multivector,
)
from .multivec import (
    PolyVectorField,
    Section,
    SectionRole,
    SymMultivector,
    _det,
    _require_fwl,
    core_to_dualpoly,
    fwl_check_multivector,
    fwl_metric_laplacian,
    hamiltonian_field,
    multiderivation_D,
    multiderivation_l,
    pairing,
    poisson,
    sym_product,
)
from .errors import NotLinearizable, UnknownSuite
from .symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    all_multi_indices,
    dual_var,
    parse_poly,
    poly_to_str,
    unshuffles,
)


@dataclass
class VerifyReport:
    suite: str
    trials: int
    seed: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

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


class _Session:
    def __init__(self, rng, bounds):
        self.rng = rng
        self.bounds = bounds
        self.failures = []
        self.trial = 0

    def check(self, identity: str, ok: bool, **docs):
        if not ok:
            self.failures.append(
                {
                    "trial": self.trial,
                    "identity": identity,
                    "counterexample": {k: _doc(v) for k, v in sorted(docs.items())},
                }
            )


def _doc(obj):
    if isinstance(obj, DiffOp):
        return diffop_to_doc(obj)
    if isinstance(obj, SymMultivector):
        return diffop_to_doc(obj.to_operator())
    if isinstance(obj, LDerivation):
        return lderivation_to_doc(obj)
    if isinstance(obj, LPair):
        return {"p": _doc(obj.p), "rho": _doc(obj.rho)}
    if isinstance(obj, Poly):
        return poly_to_str(obj)
    if isinstance(obj, Section):
        return [poly_to_str(c) for c in obj.components]
    if isinstance(obj, PolyVectorField):
        return {
            "dx": [poly_to_str(c) for c in obj.base_coeffs],
            "dv": [poly_to_str(c) for c in obj.dual_coeffs],
        }
    if isinstance(obj, FrameDerivation):
        return {
            "symbol": [poly_to_str(c) for c in obj.symbol_field],
            "matrix": [[poly_to_str(e) for e in row] for row in obj.matrix],
        }
    if isinstance(obj, (int, str, Fraction)):
        return str(obj)
    return repr(obj)


# ---------------------------------------------------------------------------
# Unshuffle oracles: the defining sums of the brackets and products, evaluated
# on coordinate functions and recovered into tables.  The library reads the
# same results off the tables directly.
# ---------------------------------------------------------------------------


def _unshuffle_poisson(p1: SymMultivector, p2: SymMultivector) -> SymMultivector:
    """For orders k1+1, k2+1: the sum over (k2+1, k1)-unshuffles of
    p1(p2(block1), block2) minus the sum over (k1+1, k2)-unshuffles of
    p2(p1(block1), block2)."""
    k1, k2 = p1.q - 1, p2.q - 1
    q = k1 + k2 + 1
    if q < 0:
        return SymMultivector.zero(p1.chart, p1.space, 0)

    def value(args):
        out = Poly.zero(p1.chart, p1.space)
        for first, second in unshuffles(k2 + 1, k1):
            inner = p2.eval(*(args[i] for i in first))
            out = out + p1.eval(inner, *(args[i] for i in second))
        for first, second in unshuffles(k1 + 1, k2):
            inner = p1.eval(*(args[i] for i in first))
            out = out - p2.eval(inner, *(args[i] for i in second))
        return out

    terms = _recover_table(p1.chart, p1.space, q, value)
    return SymMultivector(p1.chart, p1.space, q, terms)


def _unshuffle_sym_product(p1: SymMultivector, p2: SymMultivector) -> SymMultivector:
    """Sum over (q1, q2)-unshuffles of p1(block1) p2(block2)."""
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


def _recover_pair(chart, q: int, apply_fn) -> LPair:
    """Rebuild (P, rho) tables of orders q, q-1 from an action functional."""
    one = Poly.const(chart, Space.E, 1)

    def p_value(args):
        *fs, g = args
        return apply_fn(fs, g) - g * apply_fn(fs, one)

    rho_table = _recover_table(chart, Space.E, q - 1, lambda fs: apply_fn(fs, one))
    rho = SymMultivector(chart, Space.E, q - 1, rho_table)
    p = SymMultivector(chart, Space.E, q, _recover_table(chart, Space.E, q, p_value))
    return LPair(p, rho)


def _unshuffle_pair_bracket(p1: LPair, p2: LPair) -> LPair:
    """D1*D2 - D2*D1 where, on (f_1, ..., f_{k1+k2} | v),

      D1*D2 = sum over (k1, k2)-unshuffles   of D1(block1 | D2(block2 | v))
            + sum over (k1-1, k2+1)-unshuffles of D1(block1, P2(block2) | v).
    """
    k1, k2 = p1.q - 1, p2.q - 1

    def bullet(a: LPair, b: LPair, ka: int, kb: int, fs, g: Poly):
        out = Poly.zero(a.chart, Space.E)
        for first, second in unshuffles(ka, kb):
            inner = b.apply([fs[i] for i in second], g)
            out = out + a.apply([fs[i] for i in first], inner)
        for first, second in unshuffles(ka - 1, kb + 1):
            symbol_arg = b.p.eval(*(fs[i] for i in second))
            out = out + a.apply([fs[i] for i in first] + [symbol_arg], g)
        return out

    def apply_fn(fs, g):
        return bullet(p1, p2, k1, k2, fs, g) - bullet(p2, p1, k2, k1, fs, g)

    return _recover_pair(p1.chart, p1.q + p2.q - 1, apply_fn)


def _unshuffle_pair_product(p1: LPair, p2: LPair) -> LPair:
    """On (f_1, ..., f_{k1+k2+1} | v),

      D1.D2 = sum over (k1+1, k2)-unshuffles of P1(block1) D2(block2 | v)
            + sum over (k2+1, k1)-unshuffles of P2(block1) D1(block2 | v).
    """
    k1, k2 = p1.q - 1, p2.q - 1

    def apply_fn(fs, g):
        out = Poly.zero(p1.chart, Space.E)
        for first, second in unshuffles(k1 + 1, k2):
            out = out + p1.p.eval(*(fs[i] for i in first)) * p2.apply(
                [fs[i] for i in second], g
            )
        for first, second in unshuffles(k2 + 1, k1):
            out = out + p2.p.eval(*(fs[i] for i in first)) * p1.apply(
                [fs[i] for i in second], g
            )
        return out

    return _recover_pair(p1.chart, p1.q + p2.q, apply_fn)


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


def _suite_recovery(s: _Session, trials: int):
    """Operator table recovery, polynomial ring axioms, grading coherence."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
        chart = rg.rand_chart(rng, bounds)
        space = rng.choice([Space.E, Space.ESTAR, Space.AMBIENT])
        a = rg.rand_poly(rng, chart, space, bounds)
        b = rg.rand_poly(rng, chart, space, bounds)
        c = rg.rand_poly(rng, chart, space, bounds)
        s.check("ring-associativity", (a + b) + c == a + (b + c), a=a, b=b, c=c)
        s.check("ring-commutativity", a * b == b * a, a=a, b=b)
        s.check("ring-distributivity", a * (b + c) == a * b + a * c, a=a, b=b, c=c)
        variables = chart.vars_of(VarKind.BASE) + chart.vars_of(
            rg.fiber_kind(space)
        )
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
            if part.scale_fiber(5) != part.scale(Fraction(5) ** deg):
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
            lhs = part.apply(f.scale_fiber(1 / t)).scale_fiber(t)
            rhs = part.apply(f).scale(t**k)
            if lhs != rhs:
                conjugation = False
        s.check("grade-sums", regrouped == graded, op=graded)
        s.check("grade-conjugation", conjugation, op=graded, f=f, t=t)


def _suite_symbol_bracket(s: _Session, trials: int):
    """Symbol/Poisson compatibility, commutator and bracket Jacobi laws."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
        chart = rg.rand_chart(rng, bounds)
        space = rng.choice([Space.E, Space.ESTAR])
        d1 = rg.rand_diffop(rng, chart, space, bounds, max_keys=2)
        d2 = rg.rand_diffop(rng, chart, space, bounds, max_keys=2)
        q1, q2 = d1.order(), d2.order()
        if q1 is None or q2 is None:
            continue
        bracket = d1.commutator(d2)
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
        jac = (
            d1.commutator(d2).commutator(d3)
            + d2.commutator(d3).commutator(d1)
            + d3.commutator(d1).commutator(d2)
        )
        s.check("commutator-jacobi", jac.is_zero(), d1=d1, d2=d2, d3=d3)
        s.check(
            "commutator-bilinear",
            (d1 + d2).commutator(d3) == d1.commutator(d3) + d2.commutator(d3),
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


def _suite_stabilizer(s: _Session, trials: int):
    """Stabilizer characterization, abelian core, generation of FWL operators."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
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

        f1 = rg.rand_core_op(rng, chart, bounds, rng.randint(1, bounds.order_max))
        f2 = rg.rand_core_op(rng, chart, bounds, rng.randint(1, bounds.order_max))
        s.check("core-abelian", f1.commutator(f2).is_zero(), f1=f1, f2=f2)

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
            beta = mi_f.entries[0]
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


def _suite_exact_seq(s: _Session, trials: int):
    """Kernel/core identification, surjectivity onto homogeneous fields,
    and the multivector exact-sequence shape."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
        chart = rg.rand_chart(rng, bounds)
        p = rng.randint(1, 2)
        core = rg.rand_core_op(rng, chart, bounds, p)
        image = a_iso(core, p + 1)
        s.check("core-in-kernel", image.field.is_zero(), core=core)

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
                a_iso(third_only, q).field.is_zero() and third_only.is_core_sum(),
                op=third_only,
            )
        op = rg.rand_fwl_op(rng, chart, bounds, q)
        w = a_iso(op, q).field
        if w.is_zero():
            s.check("kernel-is-core", op.is_core_sum(), op=op)

        degree = rng.randint(0, 2)
        v = rg.rand_homogeneous_field(rng, chart, bounds, degree)
        built = a_inverse(LDerivation(v, Poly.zero(chart, Space.ESTAR)), degree + 1)
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
        ell = phi.ell()
        injected = SymMultivector(
            chart,
            Space.E,
            qs,
            {key: ell * coeff for key, coeff in prod.terms.items()},
        )
        sym_still_zero = _symbol_vanishes(injected)
        s.check(
            "ses-injection",
            fwl_check_multivector(injected) and sym_still_zero,
            p=injected,
        )


def _symbol_vanishes(p: SymMultivector) -> bool:
    """l_P is zero on every tuple of dual basis sections and coordinate."""
    _require_fwl(p)
    return all(
        f.is_zero()
        for c_idx in all_multi_indices(p.chart.fiber_rank, p.q - 1)
        for f in _symbol_field_on_basis(p, c_idx)
    )


def _suite_iso_a(s: _Session, trials: int):
    """Round trips, bracket and module morphisms, anchor, generator cases."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
        chart = rg.rand_chart(rng, bounds)
        q = rng.randint(1, bounds.order_max)
        op = rg.rand_fwl_op(rng, chart, bounds, q)
        image = a_iso(op, q)
        s.check("round-trip-operator", a_inverse(image, q) == op, op=op)

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
        rhs = lderiv_commutator(a_iso(d1, q1), a_iso(d2, q2))
        s.check("lie-morphism", lhs == rhs, d1=d1, d2=d2)

        p = rng.randint(1, 2)
        core = rg.rand_core_op(rng, chart, bounds, p)
        lhs = a_iso(core.compose(d1), p + q1)
        rhs = a_iso(d1, q1).scale_by_poly(core_to_dualpoly(core.symbol()))
        s.check("module-morphism", lhs == rhs, core=core, op=d1)

        lhs = a_iso(d1, q1).field.apply(core_to_dualpoly(core))
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
            scaled = phis[:-1] + [phis[-1].scale(f)]
            lhs = psi_values(op, scaled)
            rhs = f * psi_values(op, phis) + multiderivation_l(
                op.symbol_at(q), *phis, f
            )
            s.check("psi-leibniz", lhs == rhs, op=op, f=f)

        s.check(
            "generator-identity",
            a_iso(DiffOp.identity(chart, Space.E), 1)
            == LDerivation(
                PolyVectorField.zero(chart), Poly.const(chart, Space.ESTAR, 1)
            ),
            chart=str(chart),
        )
        phi = rg.rand_section(rng, chart, bounds)
        expected = LDerivation(
            PolyVectorField(
                chart,
                tuple(
                    Poly.zero(chart, Space.ESTAR) for _ in range(chart.base_dim)
                ),
                tuple(
                    -c.with_space(Space.ESTAR) for c in phi.components
                ),
            ),
            Poly.zero(chart, Space.ESTAR),
        )
        s.check(
            "generator-function",
            a_iso(DiffOp.mult(phi.ell()), 0) == expected,
            phi=phi,
        )
        lin = rg.rand_linear_field_op(rng, chart, bounds)
        image = a_iso(lin, 1)
        trace = Poly.zero(chart, Space.ESTAR)
        dual = [Poly.zero(chart, Space.ESTAR)] * chart.fiber_rank
        base = []
        for i in range(1, chart.base_dim + 1):
            coeff = lin.terms.get((MultiIndex([i]), EMPTY_MI))
            base.append(
                Poly.zero(chart, Space.ESTAR)
                if coeff is None
                else coeff.with_space(Space.ESTAR)
            )
        for alpha in range(1, chart.fiber_rank + 1):
            coeff = lin.terms.get((EMPTY_MI, MultiIndex([alpha])))
            if coeff is None:
                continue
            for beta in range(1, chart.fiber_rank + 1):
                x_ab = coeff.partial(Var(VarKind.FIBER, beta))
                if x_ab.is_zero():
                    continue
                piece = x_ab.with_space(Space.ESTAR) * Poly.var(
                    chart, Space.ESTAR, dual_var(alpha)
                )
                dual[beta - 1] = dual[beta - 1] - piece
                if alpha == beta:
                    trace = trace - x_ab.with_space(Space.ESTAR)
        expected = LDerivation(PolyVectorField(chart, tuple(base), tuple(dual)), trace)
        s.check("generator-field", image == expected, op=lin)


def _suite_pair_bracket(s: _Session, trials: int):
    """Rank-1 bundle multivector Poisson algebra and its two projections."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
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
            == lderiv_commutator(pair_to_lderivation(p1), pair_to_lderivation(p2)),
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
        lhs = multiderivation_D(pd, *phis[:-1], phis[-1].scale(f))
        first = multiderivation_D(pd, *phis)
        symbol = multiderivation_l(pd, *phis[:-1], f)
        rhs_components = tuple(
            f * c1 + symbol * c2
            for c1, c2 in zip(first.components, phis[-1].components)
        )
        s.check(
            "multiderivation-leibniz",
            lhs.components == rhs_components,
            p=pd,
            f=f,
        )


def _suite_dual_deriv(s: _Session, trials: int):
    """Frame derivation duality, top-power action, derivation commutators."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
        chart = rg.rand_chart(rng, bounds)
        m = chart.fiber_rank
        d = _rand_frame_derivation(rng, chart, bounds)
        d2 = _rand_frame_derivation(rng, chart, bounds)
        phi = rg.rand_section(rng, chart, bounds, SectionRole.OF_ESTAR)
        e = rg.rand_section(rng, chart, bounds, SectionRole.OF_E)

        paired = pairing(phi, e)
        dual = d.dual()
        d_phi = dual.act(phi.components)
        d_e = d.act(e.components)
        lhs = pairing(Section(SectionRole.OF_ESTAR, chart, d_phi), e) + pairing(
            phi, Section(SectionRole.OF_E, chart, d_e)
        )
        rhs = _base_field_apply(chart, d.symbol_field, paired)
        s.check("duality-pairing", lhs == rhs, d=d)
        s.check("duality-involutive", dual.dual() == d, d=d)
        s.check(
            "duality-lie-map",
            d.commutator(d2).dual() == d.dual().commutator(d2.dual()),
            d1=d,
            d2=d2,
        )

        top = d.top_power()
        expansion = Poly.zero(chart, Space.E)
        for i in range(m):
            expansion = expansion + _wedge_coefficient(d, i)
        s.check("top-power-trace", expansion == top.matrix[0][0], d=d)

        fsec = tuple(
            rg.rand_poly(rng, chart, Space.E, bounds, base_only=True)
            for _ in range(d.rank)
        )
        g = rg.rand_poly(rng, chart, Space.E, bounds, base_only=True)
        lhs_leib = d.act(tuple(g * c for c in fsec))
        rhs_leib = tuple(
            g * c + _base_field_apply(chart, d.symbol_field, g) * sc
            for c, sc in zip(d.act(fsec), fsec)
        )
        s.check("frame-leibniz", lhs_leib == rhs_leib, d=d, g=g)

        da = rg.rand_homogeneous_lderivation(rng, chart, bounds, rng.randint(0, 2))
        db = rg.rand_homogeneous_lderivation(rng, chart, bounds, rng.randint(0, 2))
        f = rg.rand_poly(rng, chart, Space.ESTAR, bounds)
        lhs_act = lderiv_commutator(da, db).act(f)
        rhs_act = da.act(db.act(f)) - db.act(da.act(f))
        s.check("lderiv-commutator-action", lhs_act == rhs_act, d1=da, d2=db, f=f)


def _rand_frame_derivation(rng, chart, bounds) -> FrameDerivation:
    m = chart.fiber_rank
    symbol = tuple(
        rg.rand_poly(rng, chart, Space.E, bounds, base_only=True)
        for _ in range(chart.base_dim)
    )
    matrix = tuple(
        tuple(
            rg.rand_poly(rng, chart, Space.E, bounds, base_only=True)
            for _ in range(m)
        )
        for _ in range(m)
    )
    return FrameDerivation(chart, m, symbol, matrix)


def _wedge_coefficient(d: FrameDerivation, slot: int) -> Poly:
    """Coefficient of the basis volume in e_1 ^ ... ^ D(e_slot) ^ ... ^ e_m."""
    m = d.rank
    basis = [
        tuple(
            Poly.const(d.chart, Space.E, 1 if a == b else 0) for a in range(m)
        )
        for b in range(m)
    ]
    image = d.act(basis[slot])
    return _det([image if i == slot else basis[i] for i in range(m)])


def _suite_laplacian(s: _Session, trials: int):
    """Split-metric determinant and the FWL classification of its Laplacian."""
    rng, bounds = s.rng, s.bounds
    flat = fwl_metric_laplacian(Chart(1, 1), {})
    expected = DiffOp.monomial(
        Poly.const(Chart(1, 1), Space.E, 2), MultiIndex([1]), MultiIndex([1])
    )
    s.check("flat-laplacian", flat == expected)
    for s.trial in range(trials):
        n = rng.randint(1, 2)
        chart = Chart(n, n)
        gamma = rg.rand_gamma(rng, chart, bounds)
        lap = fwl_metric_laplacian(chart, gamma)
        s.check("laplacian-fwl", lap.is_fwl(2), op=lap)


def _suite_lin_fn(s: _Session, trials: int):
    """Function linearization: linearity, the product rule, error cases."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
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


def _suite_lin_mv(s: _Session, trials: int):
    """Multivector linearization: defining identity and bracket preservation."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
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


def _suite_lin_do(s: _Session, trials: int):
    """Operator linearization: commutator preservation, representative
    independence, symbol consistency."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
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
        s.check(
            "symbol-consistency",
            lin.symbol_at(q) == linearize_multivector(op.symbol_at(q)),
            op=op,
        )


def _suite_zero_section(s: _Session, trials: int):
    """FWL operators are fixed points of their own linearization."""
    rng, bounds = s.rng, s.bounds
    for s.trial in range(trials):
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
    "recovery": _suite_recovery,
    "symbol-bracket": _suite_symbol_bracket,
    "stabilizer": _suite_stabilizer,
    "exact-seq": _suite_exact_seq,
    "iso-a": _suite_iso_a,
    "pair-bracket": _suite_pair_bracket,
    "dual-deriv": _suite_dual_deriv,
    "laplacian": _suite_laplacian,
    "lin-fn": _suite_lin_fn,
    "lin-mv": _suite_lin_mv,
    "lin-do": _suite_lin_do,
    "zero-section": _suite_zero_section,
}


def run_suite(name: str, trials: int, seed: int, bounds=None) -> VerifyReport:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; pick one of {sorted(SUITES)} or 'all'")
    bounds = bounds or rg.Bounds()
    rng = random.Random(f"{seed}/{name}")
    session = _Session(rng, bounds)
    SUITES[name](session, trials)
    session.failures.sort(key=lambda f: (f["trial"], f["identity"]))
    return VerifyReport(name, trials, seed, session.failures)


def run_all(trials: int, seed: int, bounds=None):
    return [run_suite(name, trials, seed, bounds) for name in SUITES]
