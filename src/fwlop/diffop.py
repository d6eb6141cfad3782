"""Scalar differential operators with fiber-wise polynomial coefficients.

An operator is a finite table mapping a pair of multi-indices (I over base
coordinates, B over fiber coordinates) to a nonzero polynomial coefficient:

    op = sum over (I, B) of  coeff_{I,B} * d^|I|/dx^I * d^|B|/du^B

On the dual space the B indices refer to d/dv derivatives instead; there a
first-order operator is a derivation of the pulled-back determinant line
in the Vol_u frame (see `fwlop.lbundle`).  The representation is unique
once multi-indices are canonical, so equality is table equality.
Composition expands derivative-past-coefficient by the multiset Leibniz
rule, in one kernel, `_leibniz`, which takes the other operand as its
(key, coefficient) pairs and builds `MultiIndex` keys; a pass lists only
the S that stay within the largest exponents of c2 (`Poly.max_exponents`),
because d^S c2 = 0 for the others: all of them when J fits, else those
within the caps min(J, exponents) per letter.  A commutator [A, B] is two
passes of the same expansion, of A∘B and of B∘A, each without its S = ∅
terms c1·c2 d^(J1+J2), which are equal on both sides and cancel; when B
has order 0 its pass is empty.  So a commutator [A, f] with a function is
one pass against the single coefficient f at the empty key, where every
output key is a remainder J1 - S, already sorted, and [A, 0] = 0 takes no
pass.  For a coordinate z (`Poly.as_var`) only S = {z} stays within the
largest exponents, d_z z = 1
and binom(J, {z}) = mult_z(J), so that pass is the shift c_J d^J ->
mult_z(J) c_J d^(J - z), taken by `_shifts` with no pass.  The passes
collect their summands k c1 (d^S c2) per output key, each d^S c2 a term
list (`symcore._term_partial`) taken once per term of the other operand
and S, and each coefficient is one sum of the summation kernel
`symcore._sum_products`, reduced once, as is each value of `apply`.
Every value [...[op, f1], ..., fk](1) in the package, from multivector
evaluation to the bundle map of `a_iso`, comes from nested function
commutators.  `nested_values(op)` builds each once, from the one of its
prefix, so a repeated word costs only dictionary lookups; it takes no
commutator below a zero one, since [0, f] = 0, and reads a value off
the order-0 coefficient, since d^J 1 = 0 for J != ∅.  Coefficient
recovery and the bundle-map path of `a_iso` take their nested
commutators with coordinates from one walker,
`_live_words`, over the sorted words of coordinates, depth first, by the
same two rules.  There every child of a node comes from one sweep of the
node's terms (`DiffOp._shifts`), and a letter that no key of the node
holds makes no child, so only the live nodes are built.  Recovery reads
the table only through the order-0 coefficients of the nodes, which makes it an
independent oracle for the whole representation.  The live words are
sub-multisets of the operand's keys, so the walk is bounded by the
operand and refused by the same sub-multiset rule as a Leibniz pass.

The weight of a homogeneous term is (fiber degree of the coefficient)
minus |B|; it matches the exponent picked up under conjugation by the
fiber rescaling u -> t*u.  Core operators of order q are the weight -q
part, fiber-wise linear (FWL) operators of order q the weight 1-q part.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import prod
from operator import le

from .errors import (
    MAX_CHART_DIM,
    MAX_SUB_MULTISETS,
    ArityMismatch,
    ChartMismatch,
    DocumentError,
    RequestTooLarge,
    SpaceMismatch,
    ZeroOperator,
    refuse_over,
)
from .symcore import (
    EMPTY_MI,
    Chart,
    MultiIndex,
    Poly,
    Space,
    VarKind,
    _letter_counts,
    _pass_sub_multisets,
    _sum_products,
    _term_partial,
    add_into,
    parse_poly,
    poly_to_str,
)


class DiffOp:
    """Immutable scalar differential operator on one chart/space."""

    __slots__ = ("chart", "space", "terms")

    def __init__(self, chart: Chart, space: Space, terms=None):
        _set_chart(self, chart)
        _set_space(self, space)
        canon = {}
        for (mi_base, mi_fiber), coeff in (terms or {}).items():
            if coeff.chart != chart:
                raise ChartMismatch("coefficient chart differs from operator chart")
            if coeff.space != space:
                raise SpaceMismatch("coefficient space differs from operator space")
            # A key part given as a plain tuple is sorted into a MultiIndex;
            # keys that coincide then add up, as repeated document terms do.
            if type(mi_base) is not MultiIndex:
                mi_base = MultiIndex(mi_base)
            if type(mi_fiber) is not MultiIndex:
                mi_fiber = MultiIndex(mi_fiber)
            # A zero term's letters are checked too, before it is dropped.
            for letter in mi_base:
                if not 1 <= letter <= chart.base_dim:
                    raise ChartMismatch(f"base index {letter} out of range")
            for letter in mi_fiber:
                if not 1 <= letter <= chart.fiber_rank:
                    raise ChartMismatch(f"fiber index {letter} out of range")
            key = (mi_base, mi_fiber)
            canon[key] = canon[key] + coeff if key in canon else coeff
        _set_terms(self, {k: c for k, c in canon.items() if not c.is_zero()})

    def __setattr__(self, *a):
        raise AttributeError("DiffOp is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, chart, space, terms):
        """Bypass validation for already-canonical term tables (internal);
        the slots are set through their descriptors."""
        self = object.__new__(cls)
        _set_chart(self, chart)
        _set_space(self, space)
        _set_terms(self, terms)
        return self

    @classmethod
    def zero(cls, chart, space):
        return cls(chart, space, {})

    @classmethod
    def identity(cls, chart, space):
        one = Poly.const(chart, space, 1)
        return cls(chart, space, {(EMPTY_MI, EMPTY_MI): one})

    @classmethod
    def mult(cls, p: Poly):
        """Multiplication by p, as an order-zero operator (zero if p is)."""
        terms = {} if p.is_zero() else {(EMPTY_MI, EMPTY_MI): p}
        return cls._raw(p.chart, p.space, terms)

    @classmethod
    def monomial(cls, coeff: Poly, mi_base: MultiIndex, mi_fiber: MultiIndex):
        return cls(coeff.chart, coeff.space, {(mi_base, mi_fiber): coeff})

    def _check_compatible(self, other: "DiffOp"):
        if self.chart != other.chart:
            raise ChartMismatch(f"{self.chart} vs {other.chart}")
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space.value} vs {other.space.value}")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            add_into(terms, key, coeff)
        return DiffOp._raw(self.chart, self.space, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "DiffOp":
        if c == 0:
            return DiffOp._raw(self.chart, self.space, {})
        return DiffOp._raw(
            self.chart, self.space, {k: p.scale(c) for k, p in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, DiffOp)
            and self.chart == other.chart
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.chart, self.space, tuple(sorted(self.terms.items(), key=_term_key)))
        )

    def __repr__(self):
        if not self.terms:
            return "DiffOp(0)"
        bits = []
        fiber = " dv" if self.space is Space.ESTAR else " du"
        for (mi_b, mi_f), coeff in sorted(self.terms.items(), key=_term_key):
            part = f"({poly_to_str(coeff)})"
            if len(mi_b):
                part += " dx" + str(list(mi_b))
            if len(mi_f):
                part += fiber + str(list(mi_f))
            bits.append(part)
        return "DiffOp(" + " + ".join(bits) + ")"

    def is_zero(self) -> bool:
        return not self.terms

    def order(self):
        """Max |I|+|B| over stored keys; None for the zero operator."""
        if not self.terms:
            return None
        return max(len(i) + len(b) for i, b in self.terms)

    # -- action and composition ---------------------------------------------

    def apply(self, f: Poly) -> Poly:
        if f.chart != self.chart:
            raise ChartMismatch("function chart differs from operator chart")
        if f.space != self.space:
            raise SpaceMismatch("function space differs from operator space")
        # One term-list partial per key, its slots read off the key, which
        # the constructor checked.
        n = self.chart.base_dim
        f_terms = f.terms.items()
        products = []
        for (mi_b, mi_f), coeff in self.terms.items():
            counts = [(i - 1, k) for i, k in mi_b.multiplicities().items()]
            counts += [(n + a - 1, k) for a, k in mi_f.multiplicities().items()]
            g = _term_partial(f_terms, counts)
            if g:
                products.append((1, coeff.terms.items(), coeff.den, g, f.den))
        return _sum_products(self.chart, self.space, products)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self after other; derivatives expand past coefficients by the
        multiset Leibniz rule with multinomial(J, S) = prod_i C(J[i], S[i])."""
        self._check_compatible(other)
        return self._summed(self._leibniz(other.terms.items(), False, 1, {}))

    def commutator(self, other: "DiffOp") -> "DiffOp":
        # A∘B and B∘A share their S = ∅ terms c1·c2 d^(J1+J2) (coefficients
        # commute), so [A, B] is the two expansions without them.  For B of
        # order 0 (multiplication by f) the pass of B∘A has nothing left.
        self._check_compatible(other)
        pieces = self._leibniz(other.terms.items(), True, 1, {})
        if other.order() != 0:
            other._leibniz(self.terms.items(), True, -1, pieces)
        return self._summed(pieces)

    def _function_bracket(self, f: Poly) -> "DiffOp":
        """[self, f] for f acting by multiplication: the one pass of
        self∘f without its S = ∅ terms, against the single coefficient f
        at the empty key, so no key is sorted.  Every output key is some
        J1 - S with S nonempty, so the order drops by at least one.

        For a coordinate z that pass keeps only S = {z}, where d_z z = 1
        and binom(J, {z}) is the multiplicity of z in J, so it is the
        shift c_J d^J -> mult_z(J) c_J d^(J - z), taken by `_shifts` with
        z the one placed letter: the same values, keys and key order.
        [self, 0] = 0 takes no pass."""
        self._check_compatible(f)
        if not f.terms:
            return DiffOp._raw(self.chart, self.space, {})
        z = f.as_var()
        if z is None:
            return self._summed(self._leibniz([(_ORDER_ZERO, f)], True, 1, {}))
        where = ({}, {})
        where[0 if z.kind is VarKind.BASE else 1][z.index] = 0
        terms = self._shifts(where, 0).get(0, {})
        return DiffOp._raw(self.chart, self.space, terms)

    def _shifts(self, where, start: int) -> dict:
        """The shifts c_J d^J -> mult_z(J) c_J d^(J - z) of self by every
        coordinate z placed at or after `start`, from one sweep of the
        terms.  `where` is a pair of dicts, for the base and the fiber
        part of a key, from a letter to its place.  Each key adds its
        shifted term to the table of each distinct placed letter it holds,
        so the result {place: terms} has a table only for the letters that
        some key holds, each in the order of self's terms; J -> J - z is
        injective, so no keys collide."""
        tables = {}
        for key, coeff in self.terms.items():
            for part in 0, 1:
                mi, places = key[part], where[part]
                previous = None
                for at, letter in enumerate(mi):
                    if letter == previous:
                        continue
                    previous = letter
                    place = places.get(letter, -1)
                    if place < start:
                        continue
                    mult = mi.count(letter)
                    rest = MultiIndex._sorted(mi[:at] + mi[at + 1 :])
                    shifted = (rest, key[1]) if part == 0 else (key[0], rest)
                    table = tables.get(place)
                    if table is None:
                        table = tables[place] = {}
                    table[shifted] = coeff if mult == 1 else coeff.scale(mult)
        return tables

    def _leibniz(self, others, skip_empty: bool, sign: int, pieces: dict):
        """Collect sign * binom(J1, S) c1 (d^S c2) d^(J1 - S + J2) over the
        terms c1 d^J1 of self, the (J2, c2) pairs of `others` and S <= J1,
        leaving out S = ∅ if skip_empty, into pieces: {key: [products of
        `symcore._sum_products`]}, each product (integer factor, c1's
        terms, c1's denominator, d^S c2 as a term list, c2's denominator);
        returns pieces.  Each part of a key is the remainder J1 - S as it
        is when J2's part is empty, and the sorted J1 - S + J2 otherwise.
        An S that takes some letter more often than c2's largest exponent
        of that variable gives d^S c2 = 0 and is never listed: when J1 fits
        within those exponents every S does, and otherwise only the S
        within the caps min(J1, exponents) are enumerated; the others keep
        their order.  Each d^S c2 is one `_term_partial` per
        (term of others, S) per call, its base and fiber slots read in one
        pass off the multiplicity vectors of S: terms of self share their
        sub-multisets S.  A key of self whose sub-multisets are over
        MAX_SUB_MULTISETS is refused before the pass starts."""
        _refuse_long_keys(self.terms)
        n = self.chart.base_dim
        # (index of c2's term, S base part, S fiber part) -> d^S c2
        partials = {}
        other_terms = [
            (n2, j2_base, j2_fib, c2.terms.items(), c2.den, *c2.max_exponents())
            for n2, ((j2_base, j2_fib), c2) in enumerate(others)
        ]
        memo = {}  # sub-multisets too large for the process-wide memo
        for (i1, b1), c1 in self.terms.items():
            counts_base, counts_fib = _letter_counts(i1), _letter_counts(b1)
            whole_base = whole_fib = None  # all sub-multisets, on first use
            c1_terms, c1_den = c1.terms.items(), c1.den
            for n2, j2_base, j2_fib, c2_terms, c2_den, top_base, top_fib in other_terms:
                if all(map(le, counts_fib, top_fib)):
                    fibs_all = whole_fib = whole_fib or _pass_sub_multisets(b1, memo)
                else:
                    caps = tuple(map(min, counts_fib, top_fib))
                    fibs_all = _pass_sub_multisets(b1, memo, caps)
                if all(map(le, counts_base, top_base)):
                    bases = whole_base = whole_base or _pass_sub_multisets(i1, memo)
                else:
                    caps = tuple(map(min, counts_base, top_base))
                    bases = _pass_sub_multisets(i1, memo, caps)
                for s_base, n_base, rest_base, v_base in bases:
                    key_base = MultiIndex(rest_base + j2_base) if j2_base else rest_base
                    fibs = fibs_all
                    if skip_empty and not s_base:
                        fibs = fibs[1:]
                    for s_fib, n_fib, rest_fib, v_fib in fibs:
                        at = (n2, s_base, s_fib)
                        dc = partials.get(at)
                        if dc is None:
                            counts = [(i, k) for i, k in enumerate(v_base) if k]
                            counts += [(n + a, k) for a, k in enumerate(v_fib) if k]
                            dc = partials[at] = _term_partial(c2_terms, counts)
                        if not dc:
                            continue
                        key_fib = MultiIndex(rest_fib + j2_fib) if j2_fib else rest_fib
                        piece = (sign * n_base * n_fib, c1_terms, c1_den, dc, c2_den)
                        pieces.setdefault((key_base, key_fib), []).append(piece)
        return pieces

    def _summed(self, pieces: dict) -> "DiffOp":
        """The operator of `_leibniz` pieces, one `symcore._sum_products`
        per key."""
        terms = _sum_pieces(self.chart, self.space, pieces, _sum_products)
        return DiffOp._raw(self.chart, self.space, terms)

    # -- grading and classification -------------------------------------------

    def grade_decompose(self) -> dict:
        """Split into weight-homogeneous operators; parts sum to self."""
        if self.space is Space.AMBIENT:
            raise SpaceMismatch("weight grading lives on the bundle spaces")
        parts = {}
        for key, coeff in self.terms.items():
            # Distinct degrees of one coefficient give distinct weights, so
            # each (weight, key) slot is filled once.
            for deg, piece in coeff.fiber_degree_decompose().items():
                parts.setdefault(deg - len(key[1]), {})[key] = piece
        return {
            w: DiffOp._raw(self.chart, self.space, terms)
            for w, terms in sorted(parts.items())
        }

    def weight(self):
        """Weight if homogeneous, else None; zero operator gives None.

        The weights are read off the coefficients' fiber degrees, without
        building the parts of `grade_decompose`, and the reading stops at
        the first coefficient that is not homogeneous."""
        if self.space is Space.AMBIENT:
            raise SpaceMismatch("weight grading lives on the bundle spaces")
        return _weight((key, coeff.fiber_degree()) for key, coeff in self.terms.items())

    def is_core(self, q: int) -> bool:
        """Nonzero, order q and homogeneous of weight -q, which is to say
        that every term is d^q/du^B with a base-only coefficient."""
        if self.space is not Space.E:
            raise SpaceMismatch("core classification lives on space E")
        return self.order() == q and self.weight() == -q

    def is_core_sum(self) -> bool:
        """Member of the span of core operators of any orders (zero included)."""
        return all(
            len(mi_b) == 0 and coeff.is_base_only()
            for (mi_b, mi_f), coeff in self.terms.items()
        )

    def is_fwl(self, q: int) -> bool:
        """Order at most q and homogeneous of weight 1-q: the definition.
        The FWL normal-form shapes follow from it; the zero operator passes
        at every q."""
        if self.space is not Space.E:
            raise SpaceMismatch("FWL classification lives on space E")
        if self.is_zero():
            return True
        return self.order() <= q and self.weight() == 1 - q

    # -- coefficient recovery and symbol ------------------------------------

    def recover_coefficients(self) -> dict:
        """Rebuild the table from nested commutators with the coordinates.

        coeff_{I,B} = [...[op, z_{j1}], ..., z_{jk}](1) / (I! * B!), the
        letters z running over the I and B coordinate functions.  This is
        the independent oracle for the representation; past order 0 it
        never reads the stored table directly, only the order-0
        coefficients of the nested commutators that `_live_words` yields
        over all n+m coordinates, base letters before fiber letters, down
        to the order.
        """
        order = self.order()
        if order is None:
            return {}
        n, m = self.chart.base_dim, self.chart.fiber_rank
        letters = [(0, i) for i in range(1, n + 1)] + [(1, a) for a in range(1, m + 1)]
        out = {}
        for word, node in _live_words(self, letters, order):
            value = node.terms.get(_ORDER_ZERO)
            if value is not None:
                cut = sum(letter < n for letter in word)
                mi_b = MultiIndex._sorted(tuple(i + 1 for i in word[:cut]))
                mi_f = MultiIndex._sorted(tuple(a - n + 1 for a in word[cut:]))
                scale = Fraction(1, mi_b.factorial() * mi_f.factorial())
                out[(mi_b, mi_f)] = value.scale(scale)
        return out

    def top_table(self, q: int) -> dict:
        """Terms of total length exactly q (the level-q table)."""
        return {
            key: coeff
            for key, coeff in self.terms.items()
            if len(key[0]) + len(key[1]) == q
        }

    def symbol(self):
        """Top-order coefficient table, packaged as a symmetric multivector."""
        order = self.order()
        if order is None:
            raise ZeroOperator("the zero operator has no symbol")
        return self.symbol_at(order)

    def symbol_at(self, q: int):
        """Level-q table as a multivector (empty when the order is below q).
        The level-q table of a canonical operator is canonical, so it is
        not checked again; only a negative q is refused."""
        from .multivec import SymMultivector

        if q < 0:
            raise ArityMismatch("multivector order must be >= 0")
        return SymMultivector._unchecked(self.chart, self.space, q, self.top_table(q))

    def with_space(self, space: Space) -> "DiffOp":
        return DiffOp(
            space=space,
            chart=self.chart,
            terms={k: c.with_space(space) for k, c in self.terms.items()},
        )


_set_chart = DiffOp.chart.__set__
_set_space = DiffOp.space.__set__
_set_terms = DiffOp.terms.__set__


# A key part of L letters has at most 2^L sub-multisets, so a key of at
# most 16 letters passes both checks of `_refuse_sub_multisets`.
_SHORT_KEY = 16


def _refuse_sub_multisets(i1: MultiIndex, b1: MultiIndex):
    """RequestTooLarge when the sub-multisets of the key (i1, b1) are over
    MAX_SUB_MULTISETS: in letters for one part, or in pairs of a base and a
    fiber part; nothing is enumerated first."""
    counts = [prod(k + 1 for k in part.multiplicities().values()) for part in (i1, b1)]
    for part, count in zip((i1, b1), counts):
        refuse_over(
            f"the letter count {count} x {len(part)} of a key part's sub-multisets",
            count * len(part),
            MAX_SUB_MULTISETS,
        )
    refuse_over(
        f"the pair count {counts[0]} x {counts[1]} of a key's base and fiber "
        "sub-multisets",
        counts[0] * counts[1],
        MAX_SUB_MULTISETS,
    )


def _refuse_long_keys(keys):
    """`_refuse_sub_multisets` on each key longer than `_SHORT_KEY`."""
    for i1, b1 in keys:
        if len(i1) + len(b1) > _SHORT_KEY:
            _refuse_sub_multisets(i1, b1)


def _sum_pieces(chart, space, pieces: dict, build) -> dict:
    """{key: build(chart, space, its list)} of {key: [...]}, `build` being
    the summation kernel `symcore._sum_products` or
    `Poly.from_fiber_parts`; keys kept in the order they first appeared,
    zero sums dropped."""
    terms = {}
    for key, products in pieces.items():
        coeff = build(chart, space, products)
        if coeff.terms:
            terms[key] = coeff
    return terms


def _weight(degrees):
    """The one weight (fiber degree minus |B|) of the (key, fiber degree)
    pairs `degrees`, or None when they have several or none."""
    weights = set()
    for (_, mi_f), deg in degrees:
        if deg is None:
            # two fiber degrees in one coefficient are two weights
            return None
        weights.add(deg - len(mi_f))
    return weights.pop() if len(weights) == 1 else None


def _term_key(item):
    (mi_b, mi_f), _ = item
    return (len(mi_b) + len(mi_f), mi_b, mi_f)


def nested_values(op: DiffOp):
    """The map fs -> [...[op, f1], ..., fk](1), the f's acting by
    multiplication.  Each nested commutator is one function commutator
    (`DiffOp._function_bracket`, a table shift when f is a coordinate) of
    the one of its prefix, kept in a trie of words for as long as the map
    lives.  Two rules skip work whose result is zero: [0, f] = 0, so below
    a zero nested commutator no node is built and no commutator taken (the
    letters are still checked against the chart and space); and d^J 1 = 0
    for J != ∅, so a node's value is its order-0 coefficient, read off its
    table without applying it."""
    zero = Poly.zero(op.chart, op.space)
    # A node is [nested commutator, children by next letter]; a zero
    # nested commutator is the node None.
    root = [op, {}] if op.terms else None

    def value(fs) -> Poly:
        node = root
        for f in fs:
            if node is None:
                op._check_compatible(f)
                continue
            children = node[1]
            child = children.get(f, _MISSING)
            if child is _MISSING:
                nested = node[0]._function_bracket(f)
                child = children[f] = [nested, {}] if nested.terms else None
            node = child
        if node is None:
            return zero
        return node[0].terms.get(_ORDER_ZERO, zero)

    return value


_MISSING = object()
_ORDER_ZERO = (EMPTY_MI, EMPTY_MI)


def _live_words(op: DiffOp, letters, depth: int):
    """Yield (word, [...[op, z_w1], ..., z_wk]) depth first for the
    non-decreasing words w of positions into the coordinates `letters`,
    given as (key part, index) with part 0 for the base and 1 for the
    fiber, of length at most `depth`, whose nested commutator is nonzero,
    the empty word first.  The children of a node, one per letter at or
    after the word's last letter, come from one sweep of its terms
    (`DiffOp._shifts`): a letter that no key holds makes no child and
    costs nothing, so only live nodes are built, and a zero nested
    commutator is never extended, since [0, z] = 0.  A live word is a
    sub-multiset of a key of op, so a key whose sub-multisets are over
    MAX_SUB_MULTISETS is refused before any node is built."""
    _refuse_long_keys(op.terms)
    where = ({}, {})
    for place, (part, index) in enumerate(letters):
        where[part][index] = place
    chart, space = op.chart, op.space
    stack = [((), op)] if op.terms else []
    while stack:
        word, node = stack.pop()
        yield word, node
        if len(word) < depth:
            tables = node._shifts(where, word[-1] if word else 0)
            for place in sorted(tables):
                child = DiffOp._raw(chart, space, tables[place])
                stack.append((word + (place,), child))


# ---------------------------------------------------------------------------
# Operator document (UTF-8 JSON, bit-exact round-trip).  dx/du arrays are
# multisets: order irrelevant, duplicates mean multiplicity.  Unknown keys
# are rejected.
# ---------------------------------------------------------------------------


def _require_keys(doc: dict, keys, what: str):
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be a JSON object")
    if set(doc) != set(keys):
        raise DocumentError(
            f"{what} must have exactly the keys {sorted(keys)}, got {sorted(doc)}"
        )


def chart_to_doc(chart: Chart) -> dict:
    return {"base_dim": chart.base_dim, "fiber_rank": chart.fiber_rank}


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def chart_from_doc(doc) -> Chart:
    _require_keys(doc, ("base_dim", "fiber_rank"), "chart")
    n, m = doc["base_dim"], doc["fiber_rank"]
    if not (_is_int(n) and _is_int(m)):
        raise DocumentError("chart dimensions must be integers")
    refuse_over(f"the chart dimension {max(n, m)}", max(n, m), MAX_CHART_DIM)
    return Chart(n, m)


def _indices_from_doc(entry, what: str) -> MultiIndex:
    if not isinstance(entry, list) or not all(_is_int(i) for i in entry):
        raise DocumentError(f"{what} must be a list of integers")
    return MultiIndex(entry)


def diffop_to_doc(op: DiffOp) -> dict:
    terms = []
    for (mi_b, mi_f), coeff in sorted(op.terms.items(), key=_term_key):
        terms.append(
            {
                "coeff": poly_to_str(coeff),
                "dx": list(mi_b),
                "du": list(mi_f),
            }
        )
    return {
        "chart": chart_to_doc(op.chart),
        "space": op.space.value,
        "terms": terms,
    }


def diffop_from_doc(doc) -> DiffOp:
    _require_keys(doc, ("chart", "space", "terms"), "operator document")
    chart = chart_from_doc(doc["chart"])
    if not isinstance(doc["space"], str):
        raise DocumentError("space must be a string")
    space = Space.from_name(doc["space"])
    if not isinstance(doc["terms"], list):
        raise DocumentError("terms must be a list")
    terms = {}
    for entry in doc["terms"]:
        _require_keys(entry, ("coeff", "dx", "du"), "operator term")
        if not isinstance(entry["coeff"], str):
            raise DocumentError("coeff must be a polynomial string")
        coeff = parse_poly(entry["coeff"], chart, space)
        key = (
            _indices_from_doc(entry["dx"], "dx"),
            _indices_from_doc(entry["du"], "du"),
        )
        # Repeated terms add up.  A zero sum stays in the table, so that
        # `DiffOp` still checks its letters before dropping it.
        terms[key] = terms[key] + coeff if key in terms else coeff
    return DiffOp(chart, space, terms)


def diffop_dumps(op: DiffOp) -> str:
    return dumps_json(diffop_to_doc(op))


def dumps_json(doc) -> str:
    """The one JSON rendering of every document fwlop prints."""
    return json.dumps(doc, separators=(", ", ": "))


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key it names twice is a DocumentError,
    where `json.load` alone would keep the last value."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise DocumentError(f"repeated key {repeated!r} in a JSON object")
    return doc


def loads_json(source, name: str = "the document"):
    """The JSON value of `source`: text, bytes (strict UTF-8, as the CLI
    reads files), or a text file, read whole.  Every failure is typed, and
    `name` says in the message where the text came from.  Besides
    JSONDecodeError, reading raises UnicodeDecodeError for bytes that are
    not UTF-8, a bare ValueError for an integer past Python's int/str
    conversion limit, and RecursionError for arrays or objects nested past
    the recursion limit.  A repeated key raises DocumentError, which is not
    a ValueError."""
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        text = source if isinstance(source, str) else source.read()
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DocumentError(f"invalid JSON in {name}: {exc}") from exc
    except ValueError:
        raise RequestTooLarge(
            f"an integer in {name} is over Python's limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise RequestTooLarge(f"{name} is nested too deeply to read") from None


def diffop_loads(text: str | bytes) -> DiffOp:
    return diffop_from_doc(loads_json(text))
