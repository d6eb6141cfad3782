"""Scalar differential operators with fiber-wise polynomial coefficients.

An operator is a finite table mapping a pair of multi-indices (I over base
coordinates, B over fiber coordinates) to a nonzero polynomial coefficient:

    op = sum over (I, B) of  coeff_{I,B} * d^|I|/dx^I * d^|B|/du^B

On the dual space the B indices refer to d/dv derivatives instead; there a
first-order operator is a derivation of the pulled-back determinant line
in the Vol_u frame (see `fwlop.lbundle`).  The representation is unique
once multi-indices are canonical, so equality is table equality.
Composition expands derivative-past-coefficient by the multiset Leibniz
rule.  A commutator [A, f] with a multiplication operator
is one pass of the same expansion of A∘f without its S = ∅ terms, which
are f∘A; any other commutator is A∘B - B∘A.  Every value
[...[op, f1], ..., fk](1) in the package, from multivector evaluation to
the bundle map of `a_iso`, comes from `nested_values(op)`, which builds
each nested commutator once, from the one of its prefix, and memoises
its value, so a repeated word costs only dictionary lookups.  Coefficient
recovery reads the table only through these values, which makes it an
independent oracle for the whole representation.

The weight of a homogeneous term is (fiber degree of the coefficient)
minus |B|; it matches the exponent picked up under conjugation by the
fiber rescaling u -> t*u.  Core operators of order q are the weight -q
part, fiber-wise linear (FWL) operators of order q the weight 1-q part.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import (
    MAX_CHART_DIM,
    MAX_TABLE_KEYS,
    ChartMismatch,
    DocumentError,
    InvariantViolation,
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
    Var,
    VarKind,
    _sub_multisets,
    add_into,
    all_multi_indices,
    fiber_kind,
    multi_index_count,
    parse_poly,
    poly_to_str,
)


class DiffOp:
    """Immutable scalar differential operator on one chart/space."""

    __slots__ = ("chart", "space", "terms")

    def __init__(self, chart: Chart, space: Space, terms=None):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "space", space)
        canon = {}
        for (mi_base, mi_fiber), coeff in (terms or {}).items():
            if coeff.chart != chart:
                raise ChartMismatch("coefficient chart differs from operator chart")
            if coeff.space != space:
                raise SpaceMismatch("coefficient space differs from operator space")
            if coeff.is_zero():
                continue
            for letter in mi_base:
                if not 1 <= letter <= chart.base_dim:
                    raise ChartMismatch(f"base index {letter} out of range")
            for letter in mi_fiber:
                if not 1 <= letter <= chart.fiber_rank:
                    raise ChartMismatch(f"fiber index {letter} out of range")
            canon[(mi_base, mi_fiber)] = coeff
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, *a):
        raise AttributeError("DiffOp is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, chart, space, terms):
        """Bypass validation for already-canonical term tables (internal)."""
        self = object.__new__(cls)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", terms)
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
            acc = terms.get(key)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total
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
                part += " dx" + str(list(mi_b.entries))
            if len(mi_f):
                part += fiber + str(list(mi_f.entries))
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
        fk = fiber_kind(self.space)
        out = Poly.zero(self.chart, self.space)
        for (mi_b, mi_f), coeff in self.terms.items():
            g = f.partial_multi(mi_b, VarKind.BASE).partial_multi(mi_f, fk)
            if not g.is_zero():
                out = out + coeff * g
        return out

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self after other; derivatives expand past coefficients by the
        multiset Leibniz rule with multinomial(J, S) = prod_i C(J[i], S[i])."""
        self._check_compatible(other)
        return self._leibniz(other, False)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        if other.order() == 0:
            # [A, f] for multiplication by f: f∘A is exactly the S = ∅ part
            # of the Leibniz expansion of A∘f (coefficients commute), so the
            # commutator is that expansion without it.
            self._check_compatible(other)
            out = self._leibniz(other, True)
        else:
            out = self.compose(other) - other.compose(self)
        orders = [self.order(), other.order(), out.order()]
        if None not in orders and orders[2] > orders[0] + orders[1] - 1:
            raise InvariantViolation("commutator order bound q+r-1 violated")
        return out

    def _leibniz(self, other: "DiffOp", skip_empty: bool) -> "DiffOp":
        """Sum of binom(J1, S) c1 (d^S c2) d^(J1 - S + J2) over the terms
        c1 d^J1 of self, c2 d^J2 of other and S <= J1, leaving out S = ∅ if
        skip_empty.  Terms accumulate on sorted entry tuples, which hash in C."""
        fk = fiber_kind(self.space)
        terms = {}
        for (i1, b1), c1 in self.terms.items():
            subs_base = _sub_multisets(i1.entries)
            subs_fib = _sub_multisets(b1.entries)
            for (i2, b2), c2 in other.terms.items():
                e2_base, e2_fib = i2.entries, b2.entries
                for s_base, n_base, rest_base in subs_base:
                    dc = c2.partial_multi(s_base, VarKind.BASE)
                    if dc.is_zero():
                        continue
                    key_base = tuple(sorted(rest_base + e2_base))
                    fibs = subs_fib
                    if skip_empty and not s_base.entries:
                        fibs = fibs[1:]
                    for s_fib, n_fib, rest_fib in fibs:
                        dcf = dc.partial_multi(s_fib, fk)
                        if dcf.is_zero():
                            continue
                        key = (key_base, tuple(sorted(rest_fib + e2_fib)))
                        piece = c1 * dcf
                        if n_base * n_fib != 1:
                            piece = piece.scale(n_base * n_fib)
                        acc = terms.get(key)
                        total = piece if acc is None else acc + piece
                        if total.is_zero():
                            terms.pop(key, None)
                        else:
                            terms[key] = total
        return DiffOp._raw(
            self.chart,
            self.space,
            {(MultiIndex(eb), MultiIndex(ef)): c for (eb, ef), c in terms.items()},
        )

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
        """Weight if homogeneous, else None; zero operator gives None."""
        grades = self.grade_decompose()
        if len(grades) == 1:
            return next(iter(grades))
        return None

    def is_core(self, q: int) -> bool:
        """Nonzero, order q, and every term is d^q/du^B with base coefficient."""
        if self.space is not Space.E:
            raise SpaceMismatch("core classification lives on space E")
        if self.is_zero():
            return False
        by_shape = self.order() == q and all(
            len(mi_b) == 0 and len(mi_f) == q and coeff.is_base_only()
            for (mi_b, mi_f), coeff in self.terms.items()
        )
        by_weight = self.order() == q and self.weight() == -q
        if by_shape != by_weight:
            raise InvariantViolation("core shape and weight tests disagree")
        return by_shape

    def is_core_sum(self) -> bool:
        """Member of the span of core operators of any orders (zero included)."""
        return all(
            len(mi_b) == 0 and coeff.is_base_only()
            for (mi_b, mi_f), coeff in self.terms.items()
        )

    def is_fwl(self, q: int) -> bool:
        """Order at most q and homogeneous of weight 1-q.

        The zero operator passes at every q.  The weight test and the
        normal-form shape test are both computed and checked equal.
        """
        if self.space is not Space.E:
            raise SpaceMismatch("FWL classification lives on space E")
        if self.is_zero():
            return True
        order = self.order()
        by_weight = order <= q and self.weight() == 1 - q
        by_shape = order <= q and all(
            self._fwl_term_shape(key, part, q)
            for key, coeff in self.terms.items()
            for part in coeff.fiber_degree_decompose().values()
        )
        if by_weight != by_shape:
            raise InvariantViolation("FWL weight and shape tests disagree")
        return by_weight

    @staticmethod
    def _fwl_term_shape(key, coeff_part, q):
        mi_b, mi_f = key
        deg = coeff_part.fiber_degree()
        if len(mi_b) == 1 and len(mi_f) == q - 1:
            return deg == 0
        if len(mi_b) == 0 and len(mi_f) == q:
            return deg == 1
        if len(mi_b) == 0 and len(mi_f) == q - 1:
            return deg == 0
        return False

    # -- coefficient recovery and symbol ------------------------------------

    def recover_coefficients(self) -> dict:
        """Rebuild the table from nested commutators with the coordinates.

        coeff_{I,B} = [...[op, z_{j1}], ..., z_{jk}](1) / (I! * B!), the
        letters z running over the I and B coordinate functions.  This is
        the independent oracle for the representation; it never reads the
        stored table directly, only through the Leibniz expansion of each
        [A, z].  The values share their prefixes for this call only.
        """
        order = self.order()
        if order is None:
            return {}
        value = nested_values(self)
        out = {}
        for total in range(order + 1):
            out.update(_recover_table(self.chart, self.space, total, value))
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
        from .multivec import SymMultivector

        order = self.order()
        if order is None:
            raise ZeroOperator("the zero operator has no symbol")
        return SymMultivector(self.chart, self.space, order, self.top_table(order))

    def symbol_at(self, q: int):
        """Level-q table as a multivector (empty when the order is below q)."""
        from .multivec import SymMultivector

        return SymMultivector(self.chart, self.space, q, self.top_table(q))

    def with_space(self, space: Space) -> "DiffOp":
        return DiffOp(
            space=space,
            chart=self.chart,
            terms={k: c.with_space(space) for k, c in self.terms.items()},
        )


def _term_key(item):
    (mi_b, mi_f), _ = item
    return (len(mi_b) + len(mi_f), mi_b.entries, mi_f.entries)


def nested_values(op: DiffOp):
    """The map fs -> [...[op, f1], ..., fk](1), the f's acting by
    multiplication.  Each nested commutator is one commutator of the one of
    its prefix, kept in a trie of words for as long as the map lives; each
    node memoises its value next to its commutator, computed on the first
    word that ends there."""
    one = Poly.const(op.chart, op.space, 1)
    # A node is [nested commutator, children by next letter, value or None].
    root = [op, {}, None]

    def value(fs) -> Poly:
        node = root
        for f in fs:
            child = node[1].get(f)
            if child is None:
                child = node[1][f] = [node[0].commutator(DiffOp.mult(f)), {}, None]
            node = child
        if node[2] is None:
            node[2] = node[0].apply(one)
        return node[2]

    return value


def _recover_table(chart, space, q, value_fn) -> dict:
    """Build an order-q table from symmetric evaluations on coordinates.

    value_fn(args) must return the value on the q coordinate functions of
    each key, base letters before fiber letters; division by I!B! undoes
    the multiplicities.
    """
    n, m = chart.base_dim, chart.fiber_rank
    refuse_over(
        f"the table key count C(n+m+q-1, q) at n={n}, m={m}, q={q}",
        multi_index_count(n + m, q, MAX_TABLE_KEYS),
        MAX_TABLE_KEYS,
    )
    fk = fiber_kind(space)
    terms = {}
    for nb in range(q + 1):
        for mi_b in all_multi_indices(chart.base_dim, nb):
            for mi_f in all_multi_indices(chart.fiber_rank, q - nb):
                args = [
                    Poly.var(chart, space, Var(VarKind.BASE, i)) for i in mi_b
                ] + [Poly.var(chart, space, Var(fk, a)) for a in mi_f]
                value = value_fn(args)
                if value.is_zero():
                    continue
                scale = Fraction(1, mi_b.factorial() * mi_f.factorial())
                terms[(mi_b, mi_f)] = value.scale(scale)
    return terms


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
                "dx": list(mi_b.entries),
                "du": list(mi_f.entries),
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
        add_into(terms, key, coeff)
    return DiffOp(chart, space, terms)


def diffop_dumps(op: DiffOp) -> str:
    return json.dumps(diffop_to_doc(op), separators=(", ", ": "))


def diffop_loads(text: str) -> DiffOp:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return diffop_from_doc(doc)
