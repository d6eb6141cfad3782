"""The seeded generator stream is pinned.

Verify reports print only failures and the golden corpus replays committed
fixtures, so neither notices when a generator starts drawing in another
order.  For each seed this test runs every generator in `fwlop.randgen`
(and the two stabilizer-suite generators) on one `random.Random`, renders
each output as its canonical document, appends one last draw so that a
changed number of draws shows too, and compares one sha256 per seed with
the digest recorded when the test was written.  `rand_poly`, the draw
under most of the others, is also compared term by term with a reference
copy written with `randint` and a `0 + Fraction` per new exponent tuple.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

import pytest

from fwlop import randgen as rg
from fwlop import verify
from fwlop.diffop import DiffOp, diffop_to_doc
from fwlop.lbundle import LPair, lderivation_to_doc
from fwlop.multivec import SymMultivector
from fwlop.symcore import Chart, MultiIndex, Poly, Space, Var, fiber_kind, poly_to_str

EXPECTED = {
    0: "228e048554500251a8d78e3de5280cf3d8e4cea0e50ed20d7529b2a7850f808f",
    1: "a5aad12f99d769e613678268e0d1ddd934c0a5fa85579b9927cc8375b73d547e",
    2: "beefbb99233cdaca766ea7a5418a5c4cc3e5468d1899ac597c8e909160381f0f",
    3: "8697c2e0217b100c3c1da1be7e4da8659c118449307873a27bc9cf48e087c97b",
    4: "e893ac0b40d9103894f9c5ebb3aa8a3fe3248305f2f79d0b120680936231cee3",
}


def _generator(public: str, private: str):
    """The generator under its randgen name, or its older verify name."""
    fn = getattr(rg, public, None)
    return fn if fn is not None else getattr(verify, private)


def _canon(obj):
    if isinstance(obj, DiffOp):
        return diffop_to_doc(obj)
    if isinstance(obj, SymMultivector):
        return {"q": obj.q, "op": diffop_to_doc(obj.to_operator())}
    if isinstance(obj, LPair):
        return {"p": _canon(obj.p), "rho": _canon(obj.rho)}
    if isinstance(obj, Poly):
        return [obj.space.value, poly_to_str(obj)]
    if isinstance(obj, MultiIndex):
        return list(obj)
    if isinstance(obj, Chart):
        return [obj.base_dim, obj.fiber_rank]
    if isinstance(obj, dict):
        return sorted([list(k), _canon(v)] for k, v in obj.items())
    if isinstance(obj, list):
        return [_canon(x) for x in obj]
    return str(obj)


def _stream(seed: int) -> list:
    rng = random.Random(seed)
    bounds = rg.Bounds()
    core_generators = _generator("rand_core_generators", "_core_generators")
    violation = _generator("rand_fwl_violation", "_violate")
    out = []

    def emit(label, obj, render=_canon):
        out.append([label, render(obj)])

    def field_doc(d):
        return lderivation_to_doc(d)["field"]

    def section_doc(ell):
        """A section's function rendered through its frame components,
        as the section tuples were: the bundle name, then c_1, ..., c_m."""
        role = "OfEstar" if ell.space is Space.E else "OfE"
        kind = fiber_kind(ell.space)
        return [role] + [
            poly_to_str(ell.partial(Var(kind, a)))
            for a in range(1, ell.chart.fiber_rank + 1)
        ]

    emit("fraction", rg.rand_fraction(rng, bounds))
    emit("fraction-nonzero", rg.rand_fraction(rng, bounds, nonzero=True))
    for _ in range(3):
        emit("chart", rg.rand_chart(rng, bounds))
    for chart in (Chart(1, 1), Chart(1, 2), Chart(2, 1), Chart(2, 2)):
        for space in (Space.E, Space.ESTAR, Space.AMBIENT):
            emit("poly", rg.rand_poly(rng, chart, space, bounds))
            emit("diffop", rg.rand_diffop(rng, chart, space, bounds))
            emit("diffop-q2", rg.rand_diffop(rng, chart, space, bounds, max_keys=2, order=2))
            emit("multivector", rg.rand_multivector(rng, chart, space, bounds, 2))
        emit("poly-base", rg.rand_poly(rng, chart, Space.E, bounds, base_only=True))
        emit("poly-deg2", rg.rand_poly(rng, chart, Space.ESTAR, bounds, fiber_degree=2))
        emit("base-mi", rg.rand_base_multi_index(rng, chart, 2))
        emit("fiber-mi", rg.rand_fiber_multi_index(rng, chart, 3))
        for q in (1, 2, 3):
            emit("core-op", rg.rand_core_op(rng, chart, bounds, q))
            emit("fwl-op", rg.rand_fwl_op(rng, chart, bounds, q))
            emit("fwl-multivector", rg.rand_fwl_multivector(rng, chart, bounds, q))
            emit("core-multivector", rg.rand_core_multivector(rng, chart, bounds, q))
            emit("fwl-pair", rg.rand_fwl_pair(rng, chart, bounds, q))
            emit("lin-multivector", rg.rand_linearizable_multivector(rng, chart, bounds, q))
            emit("lin-op", rg.rand_order_q_linearizable_op(rng, chart, bounds, q))
            emit("core-generators", core_generators(rng, chart, bounds))
            op = rg.rand_fwl_op(rng, chart, bounds, q)
            for _ in range(3):
                emit("violation", violation(rng, chart, bounds, op, q))
        emit("lin-op-q0", rg.rand_order_q_linearizable_op(rng, chart, bounds, 0))
        emit("section", rg.rand_section(rng, chart, bounds), section_doc)
        emit("section-of-e", rg.rand_section(rng, chart, bounds, Space.ESTAR), section_doc)
        for degree in (0, 1, 2):
            emit("field", rg.rand_homogeneous_field(rng, chart, bounds, degree), field_doc)
            lderivation = rg.rand_homogeneous_lderivation(rng, chart, bounds, degree)
            emit("lderivation", lderivation, lderivation_to_doc)
        emit("lin-function", rg.rand_linearizable_function(rng, chart, bounds))
        emit("second-order", rg.rand_second_order_function(rng, chart, bounds))
        emit("linear-field-op", rg.rand_linear_field_op(rng, chart, bounds))
    for n in (1, 2):
        emit("gamma", rg.rand_gamma(rng, Chart(n, n), bounds))
    emit("next-draw", rng.getrandbits(64))
    return out


def _digest(seed: int) -> str:
    text = json.dumps(_stream(seed), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_generator_stream_is_pinned(seed):
    assert _digest(seed) == EXPECTED[seed]


def _reference_rand_poly(rng, chart, space, bounds, base_only=False, fiber_degree=None):
    """`rand_poly` and `rand_fraction` as first written, with `randint`."""
    n, m = chart.base_dim, chart.fiber_rank
    terms = {}
    for _ in range(rng.randint(1, bounds.terms_max)):
        exps = [rng.randint(0, bounds.exp_max) for _ in range(n)] + [0] * m
        if not base_only:
            if fiber_degree is None:
                for a in range(n, n + m):
                    exps[a] = rng.randint(0, bounds.exp_max)
            else:
                for _ in range(fiber_degree):
                    exps[n + rng.randint(1, m) - 1] += 1
        numer = rng.randint(-bounds.coeff_max, bounds.coeff_max)
        while numer == 0:
            numer = rng.randint(-bounds.coeff_max, bounds.coeff_max)
        coeff = Fraction(numer, rng.randint(1, bounds.coeff_max))
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return _from_fractions(chart, space, terms)


def _from_fractions(chart, space, coeffs):
    """The polynomial of {exponent tuple: Fraction}: zero entries drop out
    and the others keep their order, over the lcm of their denominators."""
    coeffs = {mono: c for mono, c in coeffs.items() if c}
    den = lcm(*(c.denominator for c in coeffs.values()))
    terms = {mono: c.numerator * (den // c.denominator) for mono, c in coeffs.items()}
    return Poly._raw(chart, space, terms, den)


MODES = [{}, {"base_only": True}, {"fiber_degree": 1}, {"fiber_degree": 2}]


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2)])
def test_rand_poly_draws_as_the_reference(n, m):
    chart = Chart(n, m)
    bounds = rg.Bounds()
    for seed in range(150):
        for space in Space:
            for mode in MODES:
                rng, ref_rng = random.Random(seed), random.Random(seed)
                for _ in range(4):
                    got = rg.rand_poly(rng, chart, space, bounds, **mode)
                    want = _reference_rand_poly(ref_rng, chart, space, bounds, **mode)
                    assert list(got.terms.items()) == list(want.terms.items())
                    assert got.den == want.den
                assert rng.getstate() == ref_rng.getstate()
