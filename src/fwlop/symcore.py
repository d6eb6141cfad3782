"""Exact sparse polynomial arithmetic over the rationals, in tagged variables.

A polynomial is stored packed: a dictionary keyed by monomial, of nonzero
integer numerators over one common denominator.  A monomial is a tuple of
exponents of fixed length, x1..xn first and then the fiber-type variables
of the polynomial's space, so multiplication adds tuples slot by slot and
a partial derivative decrements one slot.  The denominator is positive and
shares no factor with every numerator; the zero polynomial stores no terms
over 1.  This exact canonical form makes every identity test in the package
a literal comparison.  A zero operand costs no arithmetic: `+`, `-` and
`*` check chart and space, then return the other operand, its negative or
zero.  Only this module reads the terms: other code uses
`Poly`'s methods, or hands a polynomial's `terms.items()` and `den`
unread to the two private kernels of the table algebra, naming a
variable by its slot (x_i at i - 1, fiber letter a at n + a - 1).
`_term_partial`
takes a derivative as a list of (monomial, numerator) pairs over the
polynomial's own denominator, with no `Poly` and no gcd; `_sum_products`,
the one summation kernel, adds up k * a * b over a list of products of
such term lists as integer numerators over one common denominator and
reduces once.  Every Leibniz, bracket and product sum goes through it:
composition, commutators and `DiffOp.apply`, the Poisson bracket and the
symmetric product, and the bracket and product of line-bundle pairs.
`Poly.sum_of_products` is its checked public wrapper.  Three more methods
serve the table algebra and the crossings between a space and its dual:
`max_exponents` gives each variable's largest exponent, past which a
derivative is zero; `fiber_parts` splits a polynomial by the monomial of
its fiber-type variables into base-only parts, and `from_fiber_parts`,
the crossing constructor, is its inverse: it moves each part's exponents
next to a multi-index's fiber exponents, with no product.  There is no
second view of the terms: polynomials are built by `parse_poly`,
`Poly.zero`, `Poly.const`, `Poly.var`, `Poly.from_fiber_parts`,
`Poly.sum_of_products` and `_sum_products`, and read by the methods and
`poly_to_str`.

Variables are tagged by kind: base coordinates x1..xn, fiber coordinates
u1..um on the total space (or transverse coordinates on an ambient chart),
and dual-fiber coordinates v1..vm on the dual total space.  Which kinds a
polynomial may contain is decided by its `space` tag:

  E       base + fiber        (total space of the bundle)
  Estar   base + dual fiber   (total space of the dual bundle)
  Ambient base + fiber        (chart around a submanifold {u=0})

A multi-index is a word modulo letter permutations, and `MultiIndex` is
the sorted tuple of its letters: tables, the Leibniz kernel and documents
all read that one value.  Multi-indices index iterated partial
derivatives everywhere downstream.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm, prod
from operator import add

from .errors import (
    ChartMismatch,
    IndexOutOfRange,
    PolySyntaxError,
    RequestTooLarge,
    SpaceMismatch,
    UnknownVariable,
)

class VarKind(IntEnum):
    BASE = 0
    FIBER = 1
    DUAL_FIBER = 2


_KIND_LETTER = {VarKind.BASE: "x", VarKind.FIBER: "u", VarKind.DUAL_FIBER: "v"}
_LETTER_KIND = {v: k for k, v in _KIND_LETTER.items()}


@dataclass(frozen=True, order=True)
class Var:
    kind: VarKind
    index: int  # 1-based

    def __str__(self):
        return f"{_KIND_LETTER[self.kind]}{self.index}"


class Space(Enum):
    E = "E"
    ESTAR = "Estar"
    AMBIENT = "Ambient"

    @classmethod
    def from_name(cls, name: str) -> "Space":
        for sp in cls:
            if sp.value == name:
                return sp
        raise SpaceMismatch(f"unknown space {name!r}")


def fiber_kind(space: Space) -> VarKind:
    """The fiber-type variable kind of a space: base and this kind are the
    variables admitted there, and its exponents define the fiber degree."""
    # An identity test, not a dict keyed by the enum: this runs on the hot
    # paths and Enum hashing is Python-level.
    return VarKind.DUAL_FIBER if space is Space.ESTAR else VarKind.FIBER


@dataclass(frozen=True)
class Chart:
    base_dim: int
    fiber_rank: int

    def __post_init__(self):
        if self.base_dim < 1 or self.fiber_rank < 1:
            raise ChartMismatch("chart dimensions must be >= 1")

    def vars_of(self, kind: VarKind):
        bound = self.base_dim if kind is VarKind.BASE else self.fiber_rank
        return [Var(kind, i) for i in range(1, bound + 1)]


class MultiIndex(tuple):
    """A word in positive integers modulo letter permutations.

    A multi-index is the sorted tuple of its letters, so it equals, hashes
    and orders as that tuple does.  Concatenation is the commutative monoid
    operation with the empty multi-index as unit.
    """

    __slots__ = ()

    def __new__(cls, entries=()):
        return tuple.__new__(cls, sorted(entries))

    @classmethod
    def _sorted(cls, entries: tuple) -> "MultiIndex":
        """The multi-index of a tuple already in sorted order (internal)."""
        return tuple.__new__(cls, entries)

    def __repr__(self):
        return f"MultiIndex({list(self)})"

    def multiplicities(self) -> dict:
        out = {}
        for letter in self:
            out[letter] = out.get(letter, 0) + 1
        return out

    def factorial(self) -> int:
        """Product of the factorials of the letter multiplicities."""
        out = 1
        for mult in self.multiplicities().values():
            out *= factorial(mult)
        return out

    def concat(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(self + other)

    def remove(self, letter: int) -> "MultiIndex":
        entries = list(self)
        entries.remove(letter)
        return MultiIndex(entries)


@functools.cache
def _sub_multisets(mi: MultiIndex, caps: tuple = None) -> tuple:
    """(S, multiset binomial, remainder J - S, multiplicity vector of S) for
    all S <= J = mi, S and J - S multi-indices; the empty S comes first.
    The vector's i-th entry is the multiplicity of letter i+1 in S, up to
    J's largest letter.  With `caps`, a vector of that length, only the S
    that take letter i+1 at most caps[i] times are listed, in the same
    order; binomials and remainders still come from J.  Memoised on (J,
    caps) for the process: callers go through `_pass_sub_multisets`, which
    keeps only small ones here."""
    items = sorted(mi.multiplicities().items())
    width = mi[-1] if mi else 0
    out = []
    tops = (mult if caps is None else caps[letter - 1] for letter, mult in items)
    for picks in itertools.product(*(range(top + 1) for top in tops)):
        coeff = 1
        chosen = []
        rest = []
        vector = [0] * width
        for (letter, mult), k in zip(items, picks):
            coeff *= comb(mult, k)
            chosen.extend([letter] * k)
            rest.extend([letter] * (mult - k))
            vector[letter - 1] = k
        out.append(
            (
                MultiIndex._sorted(tuple(chosen)),
                coeff,
                MultiIndex._sorted(tuple(rest)),
                tuple(vector),
            )
        )
    return tuple(out)


# The sub-multisets of a key part are kept for the process when all of them
# hold at most this many letters in all (their count times the part's
# length), as those of every part of at most four letters do.
_CACHED_SUB_LETTERS = 64


def _pass_sub_multisets(mi: MultiIndex, memo: dict, caps: tuple = None) -> tuple:
    """`_sub_multisets(mi, caps)`: from the process-wide memo when all the
    sub-multisets of mi are few, else built once into `memo`, which the
    caller keeps for one pass only."""
    if len(mi) > 4:
        count = prod(k + 1 for k in mi.multiplicities().values())
        if count * len(mi) > _CACHED_SUB_LETTERS:
            subs = memo.get((mi, caps))
            if subs is None:
                subs = memo[mi, caps] = _sub_multisets.__wrapped__(mi, caps)
            return subs
    # The whole list is asked for as `_sub_multisets(mi)`, its one memo key.
    return _sub_multisets(mi) if caps is None else _sub_multisets(mi, caps)


@functools.cache
def _letter_counts(mi: MultiIndex) -> tuple:
    """The multiplicity vector of mi: the i-th entry is the multiplicity of
    letter i+1, up to mi's largest letter."""
    counts = [0] * (mi[-1] if mi else 0)
    for letter in mi:
        counts[letter - 1] += 1
    return tuple(counts)


EMPTY_MI = MultiIndex()


Monomial = tuple  # exponents of x1..xn, then of the space's fiber-type variables


def _slot(chart: Chart, space: Space, v: Var) -> int:
    """Position of v in the exponent tuples of chart/space; validates v."""
    kind, index = v.kind, v.index
    if kind is VarKind.BASE:
        if 1 <= index <= chart.base_dim:
            return index - 1
    elif kind is fiber_kind(space):
        if 1 <= index <= chart.fiber_rank:
            return chart.base_dim + index - 1
    else:
        raise UnknownVariable(f"variable {v} not allowed on space {space.value}")
    raise IndexOutOfRange(f"variable {v} out of range for chart {chart}")


@functools.cache
def _slot_names(base_dim: int, fiber_rank: int, dual: bool) -> tuple:
    letter = "v" if dual else "u"
    return tuple(f"x{i}" for i in range(1, base_dim + 1)) + tuple(
        f"{letter}{a}" for a in range(1, fiber_rank + 1)
    )


def _mono_pairs(mono: Monomial) -> tuple:
    """(slot, exponent) pairs of the nonzero exponents: the printing order."""
    return tuple((i, e) for i, e in enumerate(mono) if e)


class Poly:
    """Immutable multivariate polynomial over Q on a tagged chart/space.

    `terms` maps exponent tuples to nonzero integer numerators over the one
    common denominator `den`.  Canonical form: den > 0 and
    gcd(den, *numerators) == 1; the zero polynomial is {} over 1.  This
    class is the only code that reads the layout; everything else goes
    through the methods.  It has no public constructor: the classmethods
    and `parse_poly` build polynomials, and `Poly(...)` raises TypeError.
    The hash is computed on the first `hash()` and kept in the `_hash`
    slot, so the caches keyed by polynomials hash each one once and no
    constructor pays for it.
    """

    __slots__ = ("chart", "space", "terms", "den", "_hash")

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "build a Poly with parse_poly or Poly.zero, const, var, "
            "from_fiber_parts or sum_of_products"
        )

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, chart, space, terms, den=1):
        """Bypass validation for terms already in canonical form (internal).

        The slots are set through their descriptors, which is about twice
        as fast as `object.__setattr__` with its lookup by name."""
        self = object.__new__(cls)
        _set_chart(self, chart)
        _set_space(self, space)
        _set_terms(self, terms)
        _set_den(self, den)
        return self

    @classmethod
    def _reduced(cls, chart, space, terms, den):
        """Canonicalise integer numerators (nonzero) over a positive den."""
        if den != 1:
            if not terms:
                den = 1
            else:
                g = gcd(den, *terms.values())
                if g != 1:
                    terms = {mono: c // g for mono, c in terms.items()}
                    den //= g
        return cls._raw(chart, space, terms, den)

    @classmethod
    def zero(cls, chart, space):
        return cls._raw(chart, space, {})

    @classmethod
    def const(cls, chart, space, value):
        value = Fraction(value)
        if not value:
            return cls._raw(chart, space, {})
        mono = (0,) * (chart.base_dim + chart.fiber_rank)
        return cls._raw(chart, space, {mono: value.numerator}, value.denominator)

    @classmethod
    def var(cls, chart, space, v: Var):
        mono = [0] * (chart.base_dim + chart.fiber_rank)
        mono[_slot(chart, space, v)] = 1
        return cls._raw(chart, space, {tuple(mono): 1})

    @classmethod
    def from_fiber_parts(cls, chart, space, parts) -> "Poly":
        """Sum of k * c * w^mi over the list `parts` of (k, c, mi), c a
        base-only polynomial on chart (of any space) and w the fiber-type
        variables of `space`: the inverse of `fiber_parts`.  Base exponents
        join mi's over one common denominator, reduced once, with no
        product; a part with a fiber variable is refused."""
        n, m = chart.base_dim, chart.fiber_rank
        den = 1
        for k, c, _ in parts:
            if not isinstance(k, int):
                raise TypeError(f"a part's factor must be an int, not {k!r}")
            if c.chart is not chart and c.chart != chart:
                raise ChartMismatch(f"{c.chart} vs {chart}")
            if den % c.den:
                den = lcm(den, c.den)
        blank = (0,) * m
        terms = {}
        get = terms.get
        for k, c, mi in parts:
            fiber = [0] * m
            for letter in mi:
                if not 1 <= letter <= m:
                    v = Var(fiber_kind(space), letter)
                    raise IndexOutOfRange(f"variable {v} out of range for chart {chart}")
                fiber[letter - 1] += 1
            fiber = tuple(fiber)
            f = k * (den // c.den)
            for mono, coeff in c.terms.items():
                if mono[n:] != blank:
                    raise SpaceMismatch(f"the part at {mi!r} is not base-only")
                mono = mono[:n] + fiber
                terms[mono] = get(mono, 0) + coeff * f
        if 0 in terms.values():
            terms = {mono: c for mono, c in terms.items() if c}
        return cls._reduced(chart, space, terms, den)

    @classmethod
    def sum_of_products(cls, chart, space, products) -> "Poly":
        """Sum of k * a * b over the list `products` of (k, a, b), k an
        integer and a, b polynomials on chart/space: the checked wrapper
        of the summation kernel `_sum_products`, which gets each operand's
        terms and denominator as they are stored."""
        lists = []
        for k, a, b in products:
            if not isinstance(k, int):
                raise TypeError(f"a product's factor must be an int, not {k!r}")
            if (a.chart is not chart and a.chart != chart) or (
                b.chart is not chart and b.chart != chart
            ):
                raise ChartMismatch(f"{a.chart} * {b.chart} vs {chart}")
            if a.space is not space or b.space is not space:
                raise SpaceMismatch(
                    f"{a.space.value} * {b.space.value} vs {space.value}"
                )
            lists.append((k, a.terms.items(), a.den, b.terms.items(), b.den))
        return _sum_products(chart, space, lists)

    def _check_compatible(self, other: "Poly"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch(f"{self.chart} vs {other.chart}")
        if self.space is not other.space:
            raise SpaceMismatch(f"{self.space.value} vs {other.space.value}")

    # -- reading -----------------------------------------------------------

    def sort_key(self) -> tuple:
        """Total order on polynomials of one chart/space, read off the
        packed form: the denominator, then the sorted (exponent tuple,
        numerator) pairs.  It builds no Fraction and, unlike an order by
        `hash()`, is the same in every process."""
        return self.den, sorted(self.terms.items())

    # -- ring structure ----------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the least common denominator; a zero
        operand costs no arithmetic."""
        self._check_compatible(other)
        if not other.terms:
            return self
        if not self.terms:
            return other if sign == 1 else -other
        d1, d2 = self.den, other.den
        if d1 == d2:
            terms = dict(self.terms)
            f2 = sign
        else:
            g = gcd(d1, d2)
            f1, f2 = d2 // g, sign * (d1 // g)
            terms = {mono: c * f1 for mono, c in self.terms.items()}
            d1 *= f1
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = c * f2
            else:
                total = acc + c * f2
                if total:
                    terms[mono] = total
                else:
                    del terms[mono]
        return Poly._reduced(self.chart, self.space, terms, d1)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return Poly._raw(self.chart, self.space, {})
        product = (1, self.terms.items(), self.den, other.terms.items(), other.den)
        return _sum_products(self.chart, self.space, [product])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __neg__(self):
        return Poly._raw(
            self.chart, self.space, {m: -c for m, c in self.terms.items()}, self.den
        )

    def scale(self, c) -> "Poly":
        if type(c) is not int:
            c = Fraction(c)
            numer, denom = c.numerator, c.denominator
        else:
            numer, denom = c, 1
        if numer == 0:
            return Poly._raw(self.chart, self.space, {})
        return Poly._reduced(
            self.chart,
            self.space,
            {m: v * numer for m, v in self.terms.items()},
            self.den * denom,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and (self.chart is other.chart or self.chart == other.chart)
            and self.space is other.space
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.chart, self.space, self.den, frozenset(self.terms.items())))
            _set_hash(self, h)
            return h

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r}, space={self.space.value})"

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus ----------------------------------------------------------

    def partial(self, v: Var) -> "Poly":
        """Exact formal partial derivative with respect to v."""
        if v.kind is not VarKind.BASE and v.kind is not fiber_kind(self.space):
            raise SpaceMismatch(
                f"cannot differentiate by {v} on space {self.space.value}"
            )
        slot = _slot(self.chart, self.space, v)
        terms = _term_partial(self.terms.items(), ((slot, 1),))
        return Poly._reduced(self.chart, self.space, dict(terms), self.den)

    def partial_multi(self, mi: MultiIndex, kind: VarKind) -> "Poly":
        """d^mi by the variables of `kind`, one `_term_partial` pass over
        the terms, reduced once.  The empty multi-index returns self
        unchecked; otherwise the letters are checked in order as `partial`
        checks one."""
        if not mi:
            return self
        chart = self.chart
        if kind is VarKind.BASE:
            offset, bound = 0, chart.base_dim
        elif kind is fiber_kind(self.space):
            offset, bound = chart.base_dim, chart.fiber_rank
        else:
            v = Var(kind, mi[0])
            raise SpaceMismatch(
                f"cannot differentiate by {v} on space {self.space.value}"
            )
        for letter in mi:
            if not 1 <= letter <= bound:
                v = Var(kind, letter)
                raise IndexOutOfRange(f"variable {v} out of range for chart {chart}")
        counts = [(offset + letter - 1, k) for letter, k in mi.multiplicities().items()]
        terms = _term_partial(self.terms.items(), counts)
        return Poly._reduced(chart, self.space, dict(terms), self.den)

    def max_exponents(self) -> tuple:
        """(base, fiber): the largest exponent of x1..xn and of each
        fiber-type variable of the space over the terms, as tuples indexed
        by the letter minus one (all zero for the zero polynomial).  A
        derivative d^S of self is zero as soon as S takes some letter more
        often than its bound."""
        chart, terms = self.chart, self.terms
        n = chart.base_dim
        if len(terms) > 1:
            tops = tuple(map(max, *terms))
        else:
            tops = next(iter(terms), (0,) * (n + chart.fiber_rank))
        return tops[:n], tops[n:]

    def as_var(self):
        """The coordinate when self is exactly one (one term, numerator 1
        over 1, exponent 1 in one slot), else None."""
        if self.den != 1 or len(self.terms) != 1:
            return None
        ((mono, c),) = self.terms.items()
        if c != 1 or sum(mono) != 1:
            return None
        slot, n = mono.index(1), self.chart.base_dim
        if slot < n:
            return Var(VarKind.BASE, slot + 1)
        return Var(fiber_kind(self.space), slot - n + 1)

    def fiber_parts(self, space: Space) -> dict:
        """Split by the monomial of the fiber-type variables: {fiber
        multi-index B: base-only part c_B, re-tagged onto `space`}, so that
        self is the sum of c_B times the fiber monomial of B.  Keys are in
        the order of their first term; zero maps to {}."""
        n, chart, den = self.chart.base_dim, self.chart, self.den
        blank = (0,) * chart.fiber_rank
        groups = {}
        for mono, c in self.terms.items():
            groups.setdefault(mono[n:], {})[mono[:n] + blank] = c
        return {
            MultiIndex(
                [a for a, e in enumerate(fiber, start=1) for _ in range(e)]
            ): Poly._reduced(chart, space, terms, den)
            for fiber, terms in groups.items()
        }

    def fiber_degree_decompose(self) -> dict:
        """Split into fiber-degree homogeneous parts; zero maps to {}."""
        n = self.chart.base_dim
        parts = {}
        for mono, c in self.terms.items():
            parts.setdefault(sum(mono[n:]), {})[mono] = c
        return {
            deg: Poly._reduced(self.chart, self.space, terms, self.den)
            for deg, terms in sorted(parts.items())
        }

    def fiber_degree(self):
        """Degree if homogeneous in fiber degree, else None; zero gives None."""
        n = self.chart.base_dim
        degs = {sum(mono[n:]) for mono in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def restrict_fiber_zero(self) -> "Poly":
        """Set all fiber variables to zero (evaluation on the base)."""
        if self.space is Space.ESTAR:
            raise SpaceMismatch("restriction to the zero section needs E or Ambient")
        n = self.chart.base_dim
        terms = {mono: c for mono, c in self.terms.items() if not any(mono[n:])}
        return Poly._reduced(self.chart, self.space, terms, self.den)

    def is_base_only(self) -> bool:
        n = self.chart.base_dim
        return not any(any(mono[n:]) for mono in self.terms)

    def with_space(self, space: Space) -> "Poly":
        """Re-tag onto another space; every variable must stay legal."""
        if (space is Space.ESTAR) is not (self.space is Space.ESTAR):
            n = self.chart.base_dim
            for mono in self.terms:
                for slot in range(n, len(mono)):
                    if mono[slot]:
                        v = Var(fiber_kind(self.space), slot - n + 1)
                        raise UnknownVariable(
                            f"variable {v} not allowed on space {space.value}"
                        )
        return Poly._raw(self.chart, space, self.terms, self.den)


_set_chart = Poly.chart.__set__
_set_space = Poly.space.__set__
_set_terms = Poly.terms.__set__
_set_den = Poly.den.__set__
_set_hash = Poly._hash.__set__


def _term_partial(terms, counts) -> list:
    """d^S of a polynomial given by its (monomial, numerator) pairs
    `terms`, as such a list over the same denominator, unreduced; `counts`
    holds (slot, k) for each variable that S takes k > 0 times.  One pass:
    a term keeps the falling factorials of its exponents, or drops out
    when S takes some variable more often than its exponent, so no
    numerator of the result is zero.  Nothing is checked: the slots come
    from canonical keys."""
    out = []
    for mono, c in terms:
        for slot, k in counts:
            if mono[slot] < k:
                break
        else:
            shifted = list(mono)
            for slot, k in counts:
                e = shifted[slot]
                c *= perm(e, k)
                shifted[slot] = e - k
            out.append((tuple(shifted), c))
    return out


def _sum_products(chart, space, products) -> Poly:
    """The summation kernel: the sum of k * a * b over the list `products`
    of (k, a's terms, a's denominator, b's terms, b's denominator), k an
    integer and the terms sized iterables of (monomial, numerator) pairs
    on chart/space, such as a `Poly`'s `terms.items()` or a
    `_term_partial` list.

    Every product is scaled onto the least common denominator of the
    products' denominators, so the numerators add up as integers in one
    table, and the sum is reduced once: no polynomial is built per
    product, per partial or per partial sum.  Nothing is checked;
    `Poly.sum_of_products` is the checked wrapper."""
    den = 1
    for _, _, da, _, db in products:
        d = da * db
        if den % d:
            den = lcm(den, d)
    terms = {}
    get = terms.get
    unit = (0,) * (chart.base_dim + chart.fiber_rank)
    for k, a, da, b, db in products:
        f = k * (den // (da * db))
        # A constant factor adds its multiple of the other's numerators at
        # their own monomials.
        if len(b) == 1 and next(iter(b))[0] == unit:
            a, b = b, a
        if len(a) == 1 and next(iter(a))[0] == unit:
            f *= next(iter(a))[1]
            for mono, c in b:
                terms[mono] = get(mono, 0) + c * f
            continue
        for m1, c1 in a:
            c1 *= f
            for m2, c2 in b:
                mono = tuple(map(add, m1, m2))
                terms[mono] = get(mono, 0) + c1 * c2
    if 0 in terms.values():
        terms = {mono: c for mono, c in terms.items() if c}
    return Poly._reduced(chart, space, terms, den)


def add_into(table: dict, key, coeff) -> None:
    """Add coeff to table[key], a missing entry counting as zero; the entry
    is dropped when the sum is zero.  Values are Poly-like (`is_zero()`)."""
    acc = table.get(key)
    total = coeff if acc is None else acc + coeff
    if total.is_zero():
        table.pop(key, None)
    else:
        table[key] = total


# ---------------------------------------------------------------------------
# Textual format.  Grammar; whitespace may stand between any two tokens,
# also inside a variable (`x 1`) and after a sign:
#
#   expr     := ['-'] term { ('+'|'-') term }
#   term     := factor { '*' factor }
#   factor   := rational | var [ '^' nat ]
#   var      := ('x'|'u'|'v') nat          nat >= 1
#   rational := ['-'] int [ '/' nat ]      denominator > 0
#
# So a unary minus comes only at the start of the text or before a number.
# Digits are Unicode decimal digits (`str.isdecimal`, what `int` reads) and
# whitespace is what `str.isspace` accepts: `\d` and `\s` match exactly
# these.  A token is a run of digits or one other non-space character.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|\S)")


@functools.cache
def _name_slots(base_dim: int, fiber_rank: int, dual: bool) -> dict:
    """{name: slot} for the variables of a chart as the printer spells
    them; any other spelling (`x01`, `u1` on Estar) goes through `_slot`."""
    names = _slot_names(base_dim, fiber_rank, dual)
    return {name: slot for slot, name in enumerate(names)}


def _syntax_error(text: str, message: str, index: int, past: bool = False):
    """PolySyntaxError at token `index` of text: at its start, or just past
    it when `past`; at len(text) for the end sentinel."""
    for k, match in enumerate(_TOKEN.finditer(text)):
        if k == index:
            return PolySyntaxError(message, match.end(1) if past else match.start(1))
    return PolySyntaxError(message, len(text))


def _digits(text: str, tokens: list, i: int) -> int:
    """The value of token i, which must be a run of digits no longer than
    Python's int/str conversion limit."""
    tok = tokens[i]
    if not tok.isdecimal():
        raise _syntax_error(text, "expected digits", i)
    try:
        return int(tok)
    except ValueError:
        raise RequestTooLarge(
            f"an integer literal of {len(tok)} digits is over Python's limit "
            f"of {sys.get_int_max_str_digits()} digits"
        ) from None


def _nat(text: str, tokens: list, i: int) -> int:
    """The positive integer in token i + 1, after the one-character token i
    (a variable letter, '^' or '/')."""
    value = _digits(text, tokens, i + 1)
    if value < 1:
        raise _syntax_error(text, "expected a positive integer", i, True)
    return value


def parse_poly(text: str, chart: Chart, space: Space) -> Poly:
    """Parse polynomial text in one pass over its tokens.

    Each term accumulates an exponent list and an integer numerator and
    denominator into one table by monomial; the table is summed over the
    least common denominator and reduced once, with no Poly per factor."""
    tokens = _TOKEN.findall(text)
    tokens.append("")
    names = _name_slots(chart.base_dim, chart.fiber_rank, space is Space.ESTAR)
    width = chart.base_dim + chart.fiber_rank
    table = {}
    sign, i = (-1, 1) if tokens[0] == "-" else (1, 0)
    while True:
        exps = [0] * width
        numer, denom = sign, 1
        while True:
            tok = tokens[i]
            if tok in _LETTER_KIND:
                slot = names.get(tok + tokens[i + 1])
                if slot is None:
                    v = Var(_LETTER_KIND[tok], _nat(text, tokens, i))
                    slot = _slot(chart, space, v)
                i += 2
                if tokens[i] == "^":
                    exps[slot] += _nat(text, tokens, i)
                    i += 2
                else:
                    exps[slot] += 1
            else:
                if tok == "-":
                    numer, i = -numer, i + 1
                elif not tok.isdecimal():
                    raise _syntax_error(text, "expected a rational or a variable", i)
                numer *= _digits(text, tokens, i)
                i += 1
                if tokens[i] == "/":
                    denom *= _nat(text, tokens, i)
                    i += 2
            if tokens[i] != "*":
                break
            i += 1
        table.setdefault(tuple(exps), []).append((numer, denom))
        tok = tokens[i]
        if not tok:
            break
        if tok != "+" and tok != "-":
            raise _syntax_error(text, "trailing input", i)
        sign, i = (1 if tok == "+" else -1), i + 1
    den = lcm(*(d for pairs in table.values() for _, d in pairs))
    terms = {}
    for mono, pairs in table.items():
        c = sum(n * (den // d) for n, d in pairs)
        if c:
            terms[mono] = c
    return Poly._reduced(chart, space, terms, den)


def poly_to_str(p: Poly) -> str:
    """Canonical rendering; parse(poly_to_str(p)) == p.

    Terms are sorted by their (slot, exponent) pairs, which is the order of
    the variables x1..xn before the fiber-type ones; no Var is built.  A
    numerator or denominator longer than Python's int/str conversion limit
    raises RequestTooLarge.
    """
    if not p.terms:
        return "0"
    names = _slot_names(p.chart.base_dim, p.chart.fiber_rank, p.space is Space.ESTAR)
    den = p.den
    pieces = []
    for pairs, c in sorted((_mono_pairs(mono), c) for mono, c in p.terms.items()):
        body = "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in pairs)
        g = gcd(c, den)
        numer, denom = abs(c) // g, den // g
        try:
            mag = str(numer) if denom == 1 else f"{numer}/{denom}"
        except ValueError:
            raise RequestTooLarge(
                "a coefficient is too long to print: over Python's limit of "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if not body:
            text = mag
        elif numer == 1 and denom == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        pieces.append((c < 0, text))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for neg, text in pieces[1:]:
        out += (" - " if neg else " + ") + text
    return out
