"""The flat integer store of Element and PhaseScalar against a nested reference.

The reference keeps an element as ``{(m, n): {k: GaussRational}}`` and
computes with GaussRational (Fraction) arithmetic term by term: the
representation and the multiply, adjoint and automorphism code the algebra
used before its coefficients became integer numerators over one shared
denominator.  Every operation of the flat store must give exactly the
reference's value.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nctorus.algebra import (
    ONE,
    Element,
    GaussRational,
    Monomial,
    PhaseScalar,
    apply_automorphism,
    element_to_text,
    parse_element,
    parse_phase,
)
from nctorus.traces import chern_T2, chern_T4, relation_check

_ZERO = GaussRational(0)

# ------------------------------------------------------------------ reference


def ref_clean(x):
    out = {}
    for mono, coef in x.items():
        coef = {k: c for k, c in coef.items() if c}
        if coef:
            out[mono] = coef
    return out


def ref_add(x, y):
    out = {mono: dict(coef) for mono, coef in x.items()}
    for mono, coef in y.items():
        bucket = out.setdefault(mono, {})
        for k, c in coef.items():
            bucket[k] = bucket.get(k, _ZERO) + c
    return ref_clean(out)


def ref_neg(x):
    return {mono: {k: -c for k, c in coef.items()} for mono, coef in x.items()}


def ref_mul(x, y):
    acc = {}
    for (m1, n1), p1 in x.items():
        for (m2, n2), p2 in y.items():
            shift = 4 * n1 * m2  # V^{n1} U^{m2} = L^{4 n1 m2} U^{m2} V^{n1}
            bucket = acc.setdefault((m1 + m2, n1 + n2), {})
            for k1, c1 in p1.items():
                for k2, c2 in p2.items():
                    k = k1 + k2 + shift
                    bucket[k] = bucket.get(k, _ZERO) + c1 * c2
    return ref_clean(acc)


def ref_star(x):
    # (c L^k U^m V^n)* = conj(c) L^{4mn - k} U^{-m} V^{-n}
    return {(-m, -n): {4 * m * n - k: GaussRational(c.re, -c.im) for k, c in coef.items()}
            for (m, n), coef in x.items()}


def ref_automorphism(which, x):
    out = {}
    for (m, n), coef in x.items():
        if which == "sigma":  # sigma(U^m V^n) = L^{-4mn} U^n V^{-m}
            out[(n, -m)] = {k - 4 * m * n: c for k, c in coef.items()}
        elif which == "flip":
            out[(-m, -n)] = dict(coef)
        else:  # gamma
            out[(m, n)] = {k: c if (m + n) % 2 == 0 else -c for k, c in coef.items()}
    return out


def _slot_exponent(slot, m, n):
    """L-exponent of a character slot on U^m V^n, or None where its parity indicator is 0."""
    if slot == "tau":
        return 0 if (m, n) == (0, 0) else None
    if slot.startswith("phi"):
        i, j = int(slot[3]), int(slot[4])
        return -2 * m * n if (m - i) % 2 == 0 and (n - j) % 2 == 0 else None
    return {
        "psi10": -((m + n) ** 2) if (m - n) % 2 == 0 else None,
        "psi11": -((m + n) ** 2) if (m - n) % 2 == 1 else None,
        "psi20": -2 * m * n if m % 2 == 0 and n % 2 == 0 else None,
        "psi21": -2 * m * n if m % 2 == 1 and n % 2 == 1 else None,
        "psi22": -2 * m * n if (m - n) % 2 == 1 else None,
    }[slot]


def ref_slots(x, slots):
    out = []
    for slot in slots:
        acc = {}
        for (m, n), coef in x.items():
            e = _slot_exponent(slot, m, n)
            if e is not None:
                for k, c in coef.items():
                    acc[k + e] = acc.get(k + e, _ZERO) + c
        out.append({k: c for k, c in acc.items() if c})
    return out


def _ref_rat(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _ref_coef(c):
    if c.im == 0:
        return f"({_ref_rat(c.re)})"
    if c.re == 0:
        return f"({_ref_rat(c.im)}i)"
    return f"({_ref_rat(c.re)}{'+' if c.im > 0 else '-'}{_ref_rat(abs(c.im))}i)"


def ref_text(x):
    parts = []
    for m, n in sorted(x):
        for k in sorted(x[(m, n)]):
            factors = [_ref_coef(x[(m, n)][k])]
            for sym, e in (("L", k), ("U", m), ("V", n)):
                if e:
                    factors.append(sym if e == 1 else f"{sym}^{e}")
            parts.append(" ".join(factors))
    return " + ".join(parts) if parts else "0"


def nested(x: Element):
    """The element as the reference stores it, read through the public API."""
    return {tuple(mono): dict(coef.items()) for mono, coef in x.terms()}


# ----------------------------------------------------------------- strategies

_rat = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 12))
_gauss = st.builds(GaussRational, _rat, _rat)
_coef = st.dictionaries(st.integers(-6, 6), _gauss, min_size=1, max_size=3)
_mono = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def elements(draw):
    """(Element, reference) built as the same sum of up to 8 monomial terms.

    Some draws append the negatives of some of the terms, so that parts of
    the sum, or all of it, cancel to zero.
    """
    terms = draw(st.lists(st.tuples(_mono, _coef), max_size=8))
    if terms:
        cancel = draw(st.lists(st.integers(0, len(terms) - 1), max_size=len(terms), unique=True))
        terms += [(mono, {k: -c for k, c in coef.items()}) for mono, coef in (terms[i] for i in cancel)]
    x, ref = Element(), {}
    for (m, n), coef in terms:
        x = x + Element.monomial(m, n, PhaseScalar(coef))
        ref = ref_add(ref, {(m, n): coef})
    return x, ref


_SETTINGS = settings(max_examples=80, deadline=None)

# ------------------------------------------------------------------ properties


@_SETTINGS
@given(elements())
def test_sum_and_text_match_reference(a):
    x, rx = a
    assert nested(x) == rx
    assert element_to_text(x) == ref_text(rx)
    assert bool(x) == bool(rx)


@_SETTINGS
@given(elements(), elements())
def test_ring_ops_match_reference(a, b):
    (x, rx), (y, ry) = a, b
    assert nested(x * y) == ref_mul(rx, ry)
    assert nested(x + y) == ref_add(rx, ry)
    assert nested(x - y) == ref_add(rx, ref_neg(ry))
    assert element_to_text(x * y) == ref_text(ref_mul(rx, ry))


@_SETTINGS
@given(elements())
def test_star_and_automorphisms_match_reference(a):
    x, rx = a
    assert nested(x.star()) == ref_star(rx)
    for which in ("sigma", "flip", "gamma"):
        assert nested(apply_automorphism(which, x)) == ref_automorphism(which, rx)


@_SETTINGS
@given(elements())
def test_character_slots_match_reference(a):
    x, rx = a
    t2 = [dict(s.items()) for s in chern_T2(x).slots()]
    t4 = [dict(s.items()) for s in chern_T4(x).slots()]
    assert t2 == ref_slots(rx, ("tau", "phi00", "phi01", "phi10", "phi11"))
    assert t4 == ref_slots(rx, ("tau", "psi10", "psi11", "psi20", "psi21", "psi22"))


@_SETTINGS
@given(elements(), elements())
def test_hash_agrees_with_equality(a, b):
    (x, _), (y, _) = a, b
    for same in ((x + y) - y, Element(dict(x.terms())), -(-x)):
        assert same == x and hash(same) == hash(x)
    if x == y:
        assert hash(x) == hash(y)
    p, q = (x * y).coefficient(0, 0), (y * x).coefficient(0, 0)
    assert p == q and hash(p) == hash(q)  # the trace is cyclic


@_SETTINGS
@given(st.dictionaries(_mono, _coef, max_size=8))
def test_terms_and_coefficient_return_what_built_the_element(raw):
    mapping = {Monomial(*mono): PhaseScalar(coef) for mono, coef in raw.items()}
    mapping = {mono: coef for mono, coef in mapping.items() if coef}
    x = Element(mapping)
    assert dict(x.terms()) == mapping
    for mono, coef in mapping.items():
        assert x.coefficient(*mono) == coef
    for coef in raw.values():
        assert dict(PhaseScalar(coef).items()) == {k: c for k, c in coef.items() if c}


def test_zero_coefficients_are_dropped():
    x = Element({Monomial(1, 0): PhaseScalar(), Monomial(0, 1): PhaseScalar.lam(0)})
    assert x == Element.monomial(0, 1)
    assert [tuple(mono) for mono, _ in x.terms()] == [(0, 1)]
    assert PhaseScalar({3: GaussRational(0), 0: GaussRational(1)}) == PhaseScalar.lam(0)
    assert Element({Monomial(2, 2): PhaseScalar()}) == Element()


def test_equal_values_share_one_form():
    half = Fraction(1, 2)
    x = Element.monomial(1, 0, half) + Element.monomial(1, 0, half)
    assert x == Element.monomial(1, 0) and hash(x) == hash(Element.monomial(1, 0))
    assert PhaseScalar.of(Fraction(2, 4)) == PhaseScalar({0: GaussRational(half)})
    assert Element.monomial(0, 0, Fraction(1, 3)).scale(3) == ONE


def test_core_ops_build_no_fraction(monkeypatch):
    x = Element.monomial(1, 2, PhaseScalar({1: GaussRational(Fraction(1, 3), 2)})) + Element.monomial(
        -1, 0, Fraction(3, 4)
    )
    y = Element.monomial(0, 1, GaussRational(Fraction(-5, 6), Fraction(1, 2)))
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    z = x * y + y * x - x
    assert z != x and z.star() == z.star()
    for which in ("sigma", "flip", "gamma"):
        apply_automorphism(which, z)
    chern_T2(z), chern_T4(z), relation_check(z)
    assert parse_element(element_to_text(z)) == z
    parse_phase("(1/3-2/5i)L^-2 + (7/4) - i L")
    monkeypatch.undo()
    assert built == []


def test_parse_multiplies_no_elements(monkeypatch):
    # every term is read as one normal-ordered monomial; V U still gets its phase
    U, V = Element.monomial(1, 0), Element.monomial(0, 1)
    U_inv, L = Element.monomial(-1, 0), Element.monomial(0, 0, PhaseScalar.lam(1))
    i, half = Element.monomial(0, 0, GaussRational(0, 1)), Element.monomial(0, 0, Fraction(1, 2))
    want = {  # built with the products parsing must not call
        "V U": V * U,
        "V^2 i U^-3 L (1/2) * V U": V * V * i * U_inv * U_inv * U_inv * L * half * V * U,
        "(1/2+i)L^-1 U V^-1 - 3 U^2": (half + i) * Element.monomial(1, -1, PhaseScalar.lam(-1)) - U * U.scale(3),
    }

    def no_product(self, other):
        raise AssertionError("parse_element multiplied two elements")

    monkeypatch.setattr(Element, "__mul__", no_product)
    for text, x in want.items():
        assert parse_element(text) == x, text
    parse_phase("(1/2) i L^3 (2/3)")


def test_parsed_store_is_canonical():
    # no zero entry, numerators and denominator coprime, zero over d = 1
    assert (parse_element("U - U")._t, parse_element("U - U")._d) == ({}, 1)
    assert (parse_element("(0)")._t, parse_element("(0)")._d) == ({}, 1)
    assert (parse_element("(2/4) V")._t, parse_element("(2/4) V")._d) == ({(0, 1, 0): (1, 0)}, 2)
    x = parse_element("(1/6) U + (1/3) U - (1/2) U + (2/4+6/8i) V + (0) L U")
    assert (x._t, x._d) == ({(0, 1, 0): (2, 3)}, 4)
    assert (parse_phase("(4/6) L - (2/3) L")._c, parse_phase("(4/6) L - (2/3) L")._d) == ({}, 1)
