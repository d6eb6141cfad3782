"""Independent second computations for the `verify` suites.

Only `verify` imports this module.  The unshuffle sums are the defining
formulas of the Poisson bracket and of the pair bracket and product,
evaluated on coordinate functions and recovered into tables; the library
reads the same results off the tables directly.  Each oracle call keeps one
memo of whole evaluations (`_memo`), so a word that recurs across blocks
and table keys is evaluated once; every value is still the defining sum.

The frame transcriptions read a section of E* as its fiber-linear
function on E and a section of E as one on the dual space, and a frame
derivation of E, symbol X and matrix A, as the linear vector field
X + sum A_ab v_a d/dv_b on the dual space.  They read components off those
functions, transcribe the dual derivation (minus the transposed matrix)
term by term, and expand the top-power action as a sum of wedge products,
each a determinant, where the library reads a trace.  The split metric's
determinant, which the library's Laplacian never forms, is one too.

The normal-form shape tests of the FWL and core classes read each term's
key lengths and fiber degree, where the library reads one weight.  The
fiber rescaling u -> t*u, which multiplies the part of each fiber
monomial u^B by t^|B|, is the definition of the fiber degree and of an
operator's weight that verify checks the library's readings against.
`all_multi_indices` enumerates the basis words that the table recovery
and verify's symbol test walk, where the library walks only live ones.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .diffop import DiffOp
from .errors import MAX_DET_SIZE, MAX_TABLE_KEYS, multi_index_count, refuse_over
from .lbundle import LPair
from .multivec import SymMultivector
from .symcore import (
    EMPTY_MI,
    MultiIndex,
    Poly,
    Space,
    Var,
    VarKind,
    add_into,
    fiber_kind,
)


def all_multi_indices(alphabet_size: int, length: int):
    """All sorted words of the given length over 1..alphabet_size (none
    when the length is negative)."""
    if length < 0:
        return
    for combo in itertools.combinations_with_replacement(
        range(1, alphabet_size + 1), length
    ):
        yield MultiIndex(combo)


def _scale_fiber(p: Poly, t) -> Poly:
    """p with u -> t*u substituted (the fiber-rescaling pull-back on
    functions): the part of each fiber monomial u^B scaled by t^|B|."""
    t = Fraction(t)
    parts = p.fiber_parts(p.space)
    scaled = [(1, c.scale(t ** len(mi)), mi) for mi, c in parts.items()]
    return Poly.from_fiber_parts(p.chart, p.space, scaled)


def unshuffles(k: int, h: int):
    """(k, h)-unshuffles of 0..k+h-1 as (first block, second block) pairs.

    Permutations increasing on the first k and on the last h positions,
    i.e. exactly the ways to split k+h slots into an ordered k-subset and
    its ordered complement.
    """
    if k < 0 or h < 0:
        return
    positions = range(k + h)
    for first in itertools.combinations(positions, k):
        chosen = set(first)
        second = tuple(p for p in positions if p not in chosen)
        yield first, second


def _memo():
    """One oracle call's cache of whole evaluations: `evaluate(fn, *args)`
    returns fn(*args), computed once per bound method (so per operand) and
    argument tuple.  The keys need no sort: `_recover_table` builds each
    word in canonical order and unshuffle blocks are subsequences of it, so
    equal multisets give equal tuples.  It lives for one call only."""
    cache = {}

    def evaluate(fn, *args):
        key = (fn, args)
        value = cache.get(key)
        if value is None:
            value = cache[key] = fn(*args)
        return value

    return evaluate


def _recover_table(chart, space, q, value_fn) -> dict:
    """Build an order-q table from symmetric evaluations on coordinates.

    value_fn(args) must return the value on the q coordinate functions of
    each key, base letters before fiber letters; division by I!B! undoes
    the multiplicities.  A table of more than MAX_TABLE_KEYS keys is
    refused before any is evaluated.
    """
    n, m = chart.base_dim, chart.fiber_rank
    refuse_over(
        f"the table key count C(n+m+q-1, q) at n={n}, m={m}, q={q}",
        multi_index_count(n + m, q, MAX_TABLE_KEYS),
        MAX_TABLE_KEYS,
    )
    base = [Poly.var(chart, space, v) for v in chart.vars_of(VarKind.BASE)]
    fiber = [Poly.var(chart, space, v) for v in chart.vars_of(fiber_kind(space))]
    terms = {}
    for nb in range(q + 1):
        for mi_b in all_multi_indices(n, nb):
            for mi_f in all_multi_indices(m, q - nb):
                args = [base[i - 1] for i in mi_b] + [fiber[a - 1] for a in mi_f]
                value = value_fn(args)
                if value.is_zero():
                    continue
                scale = Fraction(1, mi_b.factorial() * mi_f.factorial())
                terms[(mi_b, mi_f)] = value.scale(scale)
    return terms


def _unshuffle_poisson(p1: SymMultivector, p2: SymMultivector) -> SymMultivector:
    """For orders k1+1, k2+1: the sum over (k2+1, k1)-unshuffles of
    p1(p2(block1), block2) minus the sum over (k1+1, k2)-unshuffles of
    p2(p1(block1), block2)."""
    k1, k2 = p1.q - 1, p2.q - 1
    q = k1 + k2 + 1
    if q < 0:
        return SymMultivector.zero(p1.chart, p1.space, 0)

    evaluate = _memo()

    def value(args):
        out = Poly.zero(p1.chart, p1.space)
        for first, second in unshuffles(k2 + 1, k1):
            inner = evaluate(p2.eval, *(args[i] for i in first))
            out = out + evaluate(p1.eval, inner, *(args[i] for i in second))
        for first, second in unshuffles(k1 + 1, k2):
            inner = evaluate(p1.eval, *(args[i] for i in first))
            out = out - evaluate(p2.eval, inner, *(args[i] for i in second))
        return out

    terms = _recover_table(p1.chart, p1.space, q, value)
    return SymMultivector(p1.chart, p1.space, q, terms)


def _recover_pair(chart, q: int, apply_fn, evaluate) -> LPair:
    """Rebuild (P, rho) tables of orders q, q-1 from an action functional;
    the rho table and P share one `apply_fn(fs, 1)` per word."""
    one = Poly.const(chart, Space.E, 1)

    def rho_value(fs):
        return evaluate(apply_fn, tuple(fs), one)

    def p_value(args):
        *fs, g = args
        return apply_fn(fs, g) - g * rho_value(fs)

    rho_table = _recover_table(chart, Space.E, q - 1, rho_value)
    rho = SymMultivector(chart, Space.E, q - 1, rho_table)
    p = SymMultivector(chart, Space.E, q, _recover_table(chart, Space.E, q, p_value))
    return LPair(p, rho)


def _unshuffle_pair_bracket(p1: LPair, p2: LPair) -> LPair:
    """D1*D2 - D2*D1 where, on (f_1, ..., f_{k1+k2} | v),

      D1*D2 = sum over (k1, k2)-unshuffles   of D1(block1 | D2(block2 | v))
            + sum over (k1-1, k2+1)-unshuffles of D1(block1, P2(block2) | v).
    """
    k1, k2 = p1.q - 1, p2.q - 1
    evaluate = _memo()

    def bullet(a: LPair, b: LPair, ka: int, kb: int, fs, g: Poly):
        out = Poly.zero(a.chart, Space.E)
        for first, second in unshuffles(ka, kb):
            inner = evaluate(b.apply, tuple(fs[i] for i in second), g)
            out = out + evaluate(a.apply, tuple(fs[i] for i in first), inner)
        for first, second in unshuffles(ka - 1, kb + 1):
            symbol_arg = evaluate(b.p.eval, *(fs[i] for i in second))
            word = tuple(fs[i] for i in first) + (symbol_arg,)
            out = out + evaluate(a.apply, word, g)
        return out

    def apply_fn(fs, g):
        return bullet(p1, p2, k1, k2, fs, g) - bullet(p2, p1, k2, k1, fs, g)

    return _recover_pair(p1.chart, p1.q + p2.q - 1, apply_fn, evaluate)


def _unshuffle_pair_product(p1: LPair, p2: LPair) -> LPair:
    """On (f_1, ..., f_{k1+k2+1} | v),

      D1.D2 = sum over (k1+1, k2)-unshuffles of P1(block1) D2(block2 | v)
            + sum over (k2+1, k1)-unshuffles of P2(block1) D1(block2 | v).
    """
    k1, k2 = p1.q - 1, p2.q - 1
    evaluate = _memo()

    def apply_fn(fs, g):
        out = Poly.zero(p1.chart, Space.E)
        for a, b, ka, kb in ((p1, p2, k1, k2), (p2, p1, k2, k1)):
            for first, second in unshuffles(ka + 1, kb):
                symbol = evaluate(a.p.eval, *(fs[i] for i in first))
                action = evaluate(b.apply, tuple(fs[i] for i in second), g)
                out = out + symbol * action
        return out

    return _recover_pair(p1.chart, p1.q + p2.q, apply_fn, evaluate)


def _components(ell: Poly) -> list:
    """The frame components of a section, read off its fiber-linear
    function: one base-only polynomial on E per fiber coordinate."""
    kind = fiber_kind(ell.space)
    return [
        ell.partial(Var(kind, a)).with_space(Space.E)
        for a in range(1, ell.chart.fiber_rank + 1)
    ]


def _pairing(phi: Poly, e: Poly) -> Poly:
    """Duality pairing sum_a phi_a e_a of a section of E* (a function on
    E) with a section of E (a function on the dual space), on E."""
    out = Poly.zero(phi.chart, Space.E)
    for phi_a, e_a in zip(_components(phi), _components(e)):
        out = out + phi_a * e_a
    return out


def _dual(d: DiffOp) -> DiffOp:
    """The dual frame derivation, on the other side: the d/dx terms are
    kept, and X + sum M_ab w_a d/dw_b becomes X - sum M_ab w'_b d/dw'_a,
    the matrix minus its transpose."""
    space = Space.E if d.space is Space.ESTAR else Space.ESTAR
    terms = {}
    for (mi_b, mi_f), coeff in d.terms.items():
        if not mi_f:
            terms[(mi_b, mi_f)] = coeff.with_space(space)
            continue
        w_b = Poly.var(d.chart, space, Var(fiber_kind(space), mi_f[0]))
        for mi_a, m_ab in coeff.fiber_parts(space).items():
            add_into(terms, (EMPTY_MI, mi_a), -m_ab * w_b)
    return DiffOp(d.chart, space, terms)


def _det(matrix):
    """Exact determinant by cofactor expansion over nonzero entries only.

    Each minor expands along its row with the fewest nonzero entries, so a
    matrix with one nonzero permutation, such as the split metric, costs
    one product per row.
    """
    size = len(matrix)
    refuse_over(f"the determinant size {size}", size, MAX_DET_SIZE)
    chart, space = matrix[0][0].chart, matrix[0][0].space

    def minor(rows, cols):
        if not rows:
            return Poly.const(chart, space, 1)
        nonzero = [
            [k for k, col in enumerate(cols) if not matrix[row][col].is_zero()]
            for row in rows
        ]
        i = min(range(len(rows)), key=lambda r: len(nonzero[r]))
        rest = rows[:i] + rows[i + 1 :]
        out = Poly.zero(chart, space)
        for k in nonzero[i]:
            term = matrix[rows[i]][cols[k]] * minor(rest, cols[:k] + cols[k + 1 :])
            out = out - term if (i + k) % 2 else out + term
        return out

    return minor(tuple(range(size)), tuple(range(size)))


def _metric_determinant(chart, gamma) -> Poly:
    """det [[-2*Gamma.u, I], [I, 0]] for a connection table on chart (n, n):
    the split metric written out entry by entry, expanded by cofactors."""
    n = chart.base_dim
    zero, one = Poly.zero(chart, Space.E), Poly.const(chart, Space.E, 1)
    g = [
        [one if abs(row - col) == n else zero for col in range(2 * n)] for row in range(2 * n)
    ]
    for (k, i, j), coeff in gamma.items():
        u_k = Poly.var(chart, Space.E, Var(VarKind.FIBER, k))
        g[i - 1][j - 1] = g[i - 1][j - 1] - (coeff * u_k).scale(2)
    return _det(g)


def _wedge_coefficient(d: DiffOp, slot: int) -> Poly:
    """Coefficient of the basis volume in e_1 ^ ... ^ D(e_slot) ^ ... ^ e_m
    for a frame derivation D on the dual space, where e_b is v_b."""
    chart, m = d.chart, d.chart.fiber_rank
    basis = [
        [Poly.const(chart, Space.E, 1 if a == b else 0) for a in range(m)]
        for b in range(m)
    ]
    v_slot = Poly.var(chart, Space.ESTAR, Var(VarKind.DUAL_FIBER, slot + 1))
    image = _components(d.apply(v_slot))
    return _det([image if i == slot else basis[i] for i in range(m)])


def _fwl_shape(op: DiffOp, q: int) -> bool:
    """Every term of op has a FWL normal-form shape of order q: d_x d^(q-1)/du
    or d^(q-1)/du with a base-only coefficient, or d^q/du with a
    fiber-linear one.  The zero operator passes."""
    shapes = {(1, q - 1): 0, (0, q): 1, (0, q - 1): 0}
    return all(
        shapes.get((len(mi_b), len(mi_f)), -1) == coeff.fiber_degree()
        for (mi_b, mi_f), coeff in op.terms.items()
    )


def _core_shape(op: DiffOp, q: int) -> bool:
    """op is nonzero and every term is d^q/du with a base-only coefficient."""
    return bool(op.terms) and all(
        not mi_b and len(mi_f) == q and coeff.is_base_only()
        for (mi_b, mi_f), coeff in op.terms.items()
    )
