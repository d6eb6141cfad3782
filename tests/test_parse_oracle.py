"""The one-pass polynomial parser against the recursive-descent parser it
replaced.

`_Parser` below is the earlier `fwlop.symcore` parser, kept verbatim as the
reference but for `_power`, which builds the power of one variable that it
reads.  On seeded strings (printed random polynomials with one random
edit, and random strings over the grammar's characters mixed with Unicode
spaces and digits) both parsers must give the same polynomial, or the same
error type, message and offset.  Where the reference escapes with a bare
ValueError (`int` refusing a digit such as `²` that `isdigit` accepts), the
new parser must raise a typed fwlop error instead.
"""

import random
from fractions import Fraction

import pytest

from fwlop import randgen as rg
from fwlop.errors import FwlopError, PolySyntaxError, RequestTooLarge
from fwlop.symcore import (
    _LETTER_KIND,
    Chart,
    Poly,
    Space,
    Var,
    _slot,
    parse_poly,
    poly_to_str,
)


def _power(chart, space, slot: int, exp: int) -> Poly:
    """The monomial of one variable, given by its slot, to the power exp."""
    mono = [0] * (chart.base_dim + chart.fiber_rank)
    mono[slot] = exp
    return Poly._raw(chart, space, {tuple(mono): 1})


class _Parser:
    def __init__(self, text: str, chart: Chart, space: Space):
        self.text = text
        self.pos = 0
        self.chart = chart
        self.space = space

    def error(self, message):
        raise PolySyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def digits(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start : self.pos])

    def nat(self) -> int:
        start = self.pos
        value = self.digits()
        if value < 1:
            self.pos = start
            self.error("expected a positive integer")
        return value

    def parse(self) -> Poly:
        poly = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return poly

    def expr(self) -> Poly:
        negate = self.take("-")
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            if self.take("+"):
                poly = poly + self.term()
            elif self.take("-"):
                poly = poly - self.term()
            else:
                return poly

    def term(self) -> Poly:
        poly = self.factor()
        while self.take("*"):
            poly = poly * self.factor()
        return poly

    def factor(self) -> Poly:
        ch = self.peek()
        if ch in _LETTER_KIND:
            self.pos += 1
            kind = _LETTER_KIND[ch]
            index = self.nat()
            slot = _slot(self.chart, self.space, Var(kind, index))
            exp = 1
            if self.take("^"):
                exp = self.nat()
            return _power(self.chart, self.space, slot, exp)
        if ch.isdigit() or ch == "-":
            negate = self.take("-")
            numer = self.digits()
            denom = 1
            if self.take("/"):
                denom = self.nat()
            value = Fraction(-numer if negate else numer, denom)
            return Poly.const(self.chart, self.space, value)
        self.error("expected a rational or a variable")


def _outcome(parse, text, chart, space):
    """("ok", polynomial) or (error type, message, offset)."""
    try:
        return ("ok", parse(text, chart, space))
    except ValueError:
        return (ValueError, None, None)
    except FwlopError as exc:
        return (type(exc), str(exc), getattr(exc, "offset", None))


def _reference(text, chart, space):
    return _Parser(text, chart, space).parse()


SPACES = [Space.E, Space.ESTAR, Space.AMBIENT]
GRAMMAR = "xuvw0123456789+-*/^() "
EXTRA = "\t\n\u00a0\u2003\x1c²٣"  # \x1c is a space to str.isspace
ALPHABET = GRAMMAR + EXTRA
BOUNDS = rg.Bounds(n_max=3, m_max=3, coeff_max=99, terms_max=5, exp_max=3)


def _edited(rng, text):
    """text with one character inserted, deleted or replaced."""
    at = rng.randrange(len(text) + 1)
    action = rng.randrange(3)
    if action == 0 or at == len(text):
        return text[:at] + rng.choice(ALPHABET) + text[at:]
    if action == 1:
        return text[:at] + text[at + 1 :]
    return text[:at] + rng.choice(ALPHABET) + text[at + 1 :]


def _cases(seed, count):
    """(text, chart, space): printed random polynomials with one edit, then
    random strings over ALPHABET, alternating."""
    rng = random.Random(seed)
    for k in range(count):
        space = SPACES[k % 3]
        if k % 2:
            chart = Chart(2, 2)
            text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        else:
            chart = rg.rand_chart(rng, BOUNDS)
            text = _edited(rng, poly_to_str(rg.rand_poly(rng, chart, space, BOUNDS)))
        yield text, chart, space


@pytest.mark.parametrize("seed", [1, 2])
def test_parser_matches_the_reference(seed):
    kinds = {}
    for text, chart, space in _cases(seed, 6000):
        want = _outcome(_reference, text, chart, space)
        got = _outcome(parse_poly, text, chart, space)
        if want[0] is ValueError:
            assert got[0] != "ok" and issubclass(got[0], FwlopError), text
        else:
            assert got == want, text
        kinds[want[0]] = kinds.get(want[0], 0) + 1
    # The stream reaches every outcome: values, syntax errors, variable
    # errors and the reference's ValueError escapes.
    assert len(kinds) == 5 and min(kinds.values()) >= 20, kinds


def test_non_decimal_digits_are_syntax_errors():
    chart = Chart(2, 2)
    for text, offset in [("x1^²", 3), ("²", 0), ("x²", 1), ("3/²", 2)]:
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly(text, chart, Space.E)
        assert exc.value.offset == offset
    # runs of Unicode decimal digits read as one number
    assert parse_poly("x١^1٢ + ٣3/٤", chart, Space.E) == parse_poly(
        "x1^12 + 33/4", chart, Space.E
    )


def test_literals_past_the_conversion_limit_are_refused():
    chart = Chart(1, 1)
    for text in ["1" * 5000, "x1^" + "2" * 5000, "1/" + "3" * 5000, "x" + "1" * 5000]:
        with pytest.raises(RequestTooLarge):
            parse_poly(text, chart, Space.E)
    big = Poly.const(chart, Space.E, int("1" * 4300))
    assert parse_poly("1" * 4300, chart, Space.E) == big


def test_printing_past_the_conversion_limit_is_refused():
    chart = Chart(1, 1)
    big = Poly.const(chart, Space.E, 10**5000)
    with pytest.raises(RequestTooLarge):
        poly_to_str(big)
    with pytest.raises(RequestTooLarge):
        poly_to_str(Poly.const(chart, Space.E, Fraction(1, 10**5000)))
