"""The exact layers read a caller's numbers by one rule.

An integer field (an exponent, an L-power, a continued-fraction term, a K0
coordinate, ``r``/``s``, a trace coordinate) is read by ``operator.index``,
and a rational field by ``theta._rational``.  So an int, its numpy int64
(values near 2^62 included, where fixed-width arithmetic would overflow)
and its bool give one result, and 1.5 in an integer field is a TypeError,
never truncated.  The first tests are the defects this rule mends, one
each; the properties below cover every entry point with the rule.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nctorus.algebra import Element, GaussRational, Monomial, PhaseScalar, parse_element, parse_phase
from nctorus.lattice import (
    ChernVector,
    Genus,
    K0Coordinates,
    KScalar,
    decompose,
    genus_basis_decompose,
    parse_chern,
    parse_kscalar,
    recompose,
    semiflat_coordinates,
)
from nctorus.loops import loop_invariants, pr_build
from nctorus.realization import (
    TraceValue,
    certificate_to_json,
    four_squares,
    parse_trace,
    realize,
    subalgebra_generators,
)
from nctorus.theta import ThetaParam, parse_theta

GOLDEN = ThetaParam.preset("golden")
BIG = np.int64(2**62)
CF_TERMS = "continued-fraction terms must be positive integers"


# ------------------------------------------------------------------ the defects


def test_decompose_of_numpy_slots_recomposes_to_its_input():
    v = ChernVector(*(KScalar(BIG) for _ in range(6)))
    assert v == ChernVector(*(KScalar(2**62) for _ in range(6)))
    d = decompose(v)
    assert d and recompose(d.coordinates) == v


def test_recompose_reads_numpy_coordinates_exactly():
    v = recompose(K0Coordinates(*[BIG] * 9))
    assert str(v.tau) == "46116860184273879040+13835058055282163712t"
    assert v == recompose(K0Coordinates(*[2**62] * 9))


def test_a_numpy_gauss_rational_squares_exactly():
    x = Element({Monomial(1, 0): PhaseScalar({0: GaussRational(BIG, 0)})})
    assert str(x * x) == f"({2**124}) U^2"


def test_a_monomial_takes_a_numpy_coefficient():
    assert Element.monomial(1, 0, np.int64(3)) == Element.monomial(1, 0, 3)
    assert PhaseScalar.of(np.int64(3)) == PhaseScalar.of(3)


def test_a_plain_number_is_a_coefficient_of_an_element_and_a_phase():
    assert Element({Monomial(1, 0): 3}) == Element({Monomial(1, 0): GaussRational(3)}) == Element.monomial(1, 0, 3)
    assert PhaseScalar({0: 3}) == PhaseScalar.of(3)
    assert PhaseScalar({0: 1.5}) == PhaseScalar.of(Fraction(3, 2))


@pytest.mark.parametrize("value", [None, object(), 1j], ids=["None", "object", "complex"])
def test_a_coefficient_that_is_not_a_number_is_refused(value):
    with pytest.raises(TypeError):
        PhaseScalar({0: value})
    with pytest.raises(TypeError):
        Element({Monomial(1, 0): value})


@pytest.mark.parametrize("build", [
    lambda: PhaseScalar({1.5: GaussRational(1)}),
    lambda: PhaseScalar.lam(1.5),
    lambda: Element.monomial(1.5, 0),
    lambda: Element({Monomial(0, 1.5): PhaseScalar.lam(0)}),
], ids=["PhaseScalar key", "PhaseScalar.lam", "Element.monomial", "Element key"])
def test_a_fractional_exponent_is_refused_not_truncated(build):
    with pytest.raises(TypeError):
        build()


def test_continued_fraction_terms_are_integers_of_any_integer_type():
    with pytest.raises(ValueError, match=CF_TERMS):
        ThetaParam([1.7, 2.2])
    with pytest.raises(ValueError, match=CF_TERMS):
        ThetaParam((1.7, 2))
    assert ThetaParam((np.int64(2),)) == ThetaParam([np.int64(2)]) == ThetaParam((2,))
    assert type(ThetaParam((np.int64(2),)).cf_terms[0]) is int


def test_a_fractional_power_of_the_base_is_refused():
    with pytest.raises(TypeError):
        pr_build(1.5, 0, GOLDEN)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        loop_invariants(pr_build(1, 0, GOLDEN), GOLDEN, 1.5)


def test_realize_reads_a_numpy_target_once_at_its_entry():
    cert = realize("flat", TraceValue(np.int64(-4), np.int64(8)), GOLDEN)
    assert certificate_to_json(cert) == certificate_to_json(realize("flat", TraceValue(-4, 8), GOLDEN))
    assert realize("flat", TraceValue(np.int64(-24), np.int64(40)), GOLDEN) == realize(
        "flat", TraceValue(-24, 40), GOLDEN)


# --------------------------------------------------------------- the properties


def outcome(f, x):
    """f(x), or the type and message of what it raised (a RuntimeWarning is raised in tier-1)."""
    try:
        return f(x)
    except Exception as exc:
        return type(exc), str(exc)


def _twins(x: int) -> list:
    """x as a numpy int64 where that holds it, and as a bool where that does."""
    out = [np.int64(x)] if -(2**63) <= x < 2**63 else []
    return out + [bool(x)] if x in (0, 1) else out


def _squared(y):
    """y and y * y: a product adds exponents, so a fixed-width one overflows there."""
    return y, y * y


def _projection(e):
    return e.beta, e.n, [(k, f.tobytes()) for k, f in e.coeffs.items()]


def _fourier_target(b):
    return TraceValue(-GOLDEN.floor_linear(b), b)  # in (0, 1) for every b > 0


@functools.cache
def _loop():
    """One built projection for loop_invariants, made when a test first asks for it."""
    return pr_build(1, 0, GOLDEN)

# entry point -> a call that reads x in one of its integer fields, and returns what to compare
INTEGER_FIELDS = {
    "Element key": lambda x: _squared(Element({Monomial(x, 1): PhaseScalar.lam(0)})),
    "Element.monomial": lambda x: _squared(Element.monomial(1, x)),
    "PhaseScalar key": lambda x: _squared(PhaseScalar({x: GaussRational(1, 2)})),
    "PhaseScalar.lam": lambda x: _squared(PhaseScalar.lam(x)),
    "recompose": lambda x: recompose(K0Coordinates(x, 1, x, -1, x, 0, x, 2, x)),
    "semiflat_coordinates": lambda x: recompose(semiflat_coordinates(x, 1, x, -1, x)),
    "ThetaParam": lambda x: ThetaParam((x, 1)).convergents,
    "realize": lambda x: certificate_to_json(realize("fourier_invariant", _fourier_target(x), GOLDEN)),
    "four_squares": four_squares,
    "subalgebra_generators": lambda x: subalgebra_generators(x, 1),
}
# the numeric layer's integer fields, each a build or an FFT per call
LOOP_FIELDS = {
    "pr_build r": lambda x: _projection(pr_build(x, 0, GOLDEN)),
    "pr_build s": lambda x: _projection(pr_build(1, x, GOLDEN, True)),
    "loop_invariants r": lambda x: loop_invariants(_loop(), GOLDEN, x),
}
RATIONAL_FIELDS = {
    "KScalar": lambda x: (lambda v: (v, decompose(v)))(ChernVector(*[KScalar(x, 0, 0, 1)] * 6)),
    "Genus": lambda x: (lambda g: (g, genus_basis_decompose(g)))(Genus(x, x, 0)),
    "GaussRational": lambda x: _squared(Element({Monomial(1, 0): PhaseScalar({0: GaussRational(x, 1)})})),
    "PhaseScalar.of": lambda x: _squared(PhaseScalar.of(x)),
    "Element.monomial coefficient": lambda x: _squared(Element.monomial(0, 1, x)),
    "Element coefficient": lambda x: _squared(Element({Monomial(1, 0): x})),
    "PhaseScalar coefficient": lambda x: _squared(PhaseScalar({0: x})),
    "ThetaParam.turns": lambda x: GOLDEN.turns(1, x),
}

_int = st.one_of(
    st.integers(-9, 9),
    st.integers(2**62 - 9, 2**62 + 9),
    st.integers(-(2**62) - 9, -(2**62) + 9),
    st.integers(-(2**63), 2**63 - 1),
)


def _reads_alike(read, x):
    want = outcome(read, x)
    for twin in _twins(x):
        assert outcome(read, twin) == want, (x, twin)


@pytest.mark.parametrize("name", sorted(INTEGER_FIELDS) + sorted(RATIONAL_FIELDS))
@settings(max_examples=40, deadline=None)
@given(x=_int)
@example(x=2**62)
@example(x=1)
def test_an_int_its_numpy_int_and_its_bool_read_alike(name, x):
    _reads_alike({**INTEGER_FIELDS, **RATIONAL_FIELDS}[name], x)


@pytest.mark.parametrize("name", sorted(LOOP_FIELDS))
@settings(max_examples=10, deadline=None)
@given(x=st.one_of(st.integers(-2, 4), st.integers(2**62 - 2, 2**62 + 2)))
@example(x=1)
def test_the_loop_layer_reads_its_integers_alike(name, x):
    _reads_alike(LOOP_FIELDS[name], x)


@pytest.mark.parametrize("x", [1.5, Fraction(3, 2)])
@pytest.mark.parametrize("name", sorted(INTEGER_FIELDS) + sorted(LOOP_FIELDS))
def test_a_non_integral_value_in_an_integer_field_is_refused(name, x):
    read = {**INTEGER_FIELDS, **LOOP_FIELDS}[name]
    if name == "ThetaParam":  # the constructor's own refusal of a term that is not one
        with pytest.raises(ValueError, match=CF_TERMS):
            read(x)
    else:
        with pytest.raises(TypeError):
            read(x)


@pytest.mark.parametrize("name", sorted(RATIONAL_FIELDS))
def test_a_float_in_a_rational_field_reads_as_its_exact_value(name):
    read = RATIONAL_FIELDS[name]
    assert outcome(read, 1.5) == outcome(read, Fraction(3, 2)) == outcome(read, np.float64(1.5))


TEXT = ["1/2", "1", " 3/4 ", "x", b"1/2"]
# theta's exact queries and its interval, each with one text argument among numbers
TEXT_QUERIES = {
    "sign_linear": lambda x: GOLDEN.sign_linear(x, -2),
    "in_open_interval": lambda x: GOLDEN.in_open_interval(1, -1, 0, x),
    "floor_ratio": lambda x: GOLDEN.floor_ratio(x, 1, 1, 0),
    "ThetaParam interval": lambda x: ThetaParam((1, 1), interval=(x, Fraction(1, 2))),
}


@pytest.mark.parametrize("x", TEXT, ids=repr)
@pytest.mark.parametrize("name", sorted(RATIONAL_FIELDS) + sorted(TEXT_QUERIES))
def test_text_in_a_rational_field_is_refused(name, x):
    # Fraction would parse "1/2" and raise ValueError on "x"; a rational field takes numbers only
    with pytest.raises(TypeError, match="not text"):
        {**RATIONAL_FIELDS, **TEXT_QUERIES}[name](x)


TEXT_PARSERS = [parse_element, parse_phase, parse_chern, parse_kscalar, parse_trace, parse_theta,
                ThetaParam.from_decimal]


@pytest.mark.parametrize("x", [0.5, None, 3], ids=repr)
@pytest.mark.parametrize("parse", TEXT_PARSERS, ids=lambda parse: parse.__name__)
def test_a_number_in_a_text_field_is_refused(parse, x):
    # the converse of the rule above: a parser takes text, and names the type it was given instead
    with pytest.raises(TypeError, match=type(x).__name__):
        parse(x)
