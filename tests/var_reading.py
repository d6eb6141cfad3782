"""The Var-keyed reading of a polynomial, for tests.

`by_vars` reads a `Poly` off its printed text with one regex over the
printer's grammar, so it does not depend on how `Poly` stores its terms.
`from_vars` builds a polynomial back from such terms through `Poly.const`
and `Poly.var` products, and `substitute` replaces each variable by a
polynomial.  `part_polys` views the term lists of `Poly.fiber_parts` as
base-only polynomials.
"""

import re
from fractions import Fraction

from fwlop.symcore import EMPTY_MI, Poly, Var, VarKind, poly_to_str

_FACTOR = re.compile(r"(\d+)(?:/(\d+))?|([xuv])(\d+)(?:\^(\d+))?")
_KIND = {"x": VarKind.BASE, "u": VarKind.FIBER, "v": VarKind.DUAL_FIBER}


def by_vars(p: Poly) -> dict:
    """{((Var, exponent), ...): Fraction} of p, Vars sorted, exponents >= 1;
    the constant term is keyed by ()."""
    text = poly_to_str(p)
    out = {}
    if text == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, mono = Fraction(-1 if term.startswith("-") else 1), []
        for factor in term.lstrip("-").split("*"):
            numer, denom, letter, index, exp = _FACTOR.fullmatch(factor).groups()
            if letter is None:
                coeff *= Fraction(int(numer), int(denom or 1))
            else:
                mono.append((Var(_KIND[letter], int(index)), int(exp or 1)))
        out[tuple(sorted(mono))] = coeff
    return out


def from_vars(chart, space, terms: dict, mapping=None) -> Poly:
    """The sum of coeff * v1^e1 * v2^e2 ... over {((Var, exponent), ...):
    coeff}, each v read as the polynomial mapping[v], or without a mapping
    as the variable v on chart/space."""
    out = Poly.zero(chart, space)
    for mono, coeff in terms.items():
        term = Poly.const(chart, space, coeff)
        for v, e in mono:
            factor = Poly.var(chart, space, v) if mapping is None else mapping[v]
            for _ in range(e):
                term = term * factor
        out = out + term
    return out


def substitute(p: Poly, mapping: dict) -> Poly:
    """p with each variable v replaced by mapping[v]; the result lives on
    the chart and space of the mapping's values."""
    some = next(iter(mapping.values()))
    return from_vars(some.chart, some.space, by_vars(p), mapping)


def part_polys(p: Poly, space) -> dict:
    """{fiber multi-index B: the part of p at B as a base-only polynomial
    on space}: each term list of `p.fiber_parts()`, over p's denominator,
    as one `Poly.from_fiber_parts` at the empty multi-index."""
    return {
        mi: Poly.from_fiber_parts(p.chart, space, [(1, c, p.den, EMPTY_MI)])
        for mi, c in p.fiber_parts().items()
    }
