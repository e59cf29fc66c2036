from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nctorus.algebra import (
    ONE,
    U,
    V,
    Element,
    ElementParseError,
    GaussRational,
    Monomial,
    PhaseScalar,
    apply_automorphism,
    canonical_trace,
    element_to_text,
    numeric_eval,
    parse_element,
    parse_phase,
    phase_to_text,
    sigma_average,
)
from nctorus.theta import ThetaParam

from conftest import monomial_letters, random_element, reorder_word_oracle


# ------------------------------------------------------------ normal ordering


def test_monomial_product_matches_word_oracle_exhaustively():
    # by hand: a product already in normal order, V U = L^4 U V, and the relation applied twice
    for a, b, k, mono in (((1, 0), (0, 1), 0, (1, 1)), ((0, 1), (1, 0), 4, (1, 1)), ((0, -2), (1, 0), -8, (1, -2))):
        assert Element.monomial(*a) * Element.monomial(*b) == Element.monomial(*mono, PhaseScalar.lam(k))
        assert reorder_word_oracle(monomial_letters(*a) + monomial_letters(*b)) == (k, *mono)
    for ma in range(-6, 7):
        for na in range(-6, 7):
            left = monomial_letters(ma, na)
            x = Element.monomial(ma, na)
            for mb in range(-6, 7):
                for nb in range(-6, 7):
                    k, m, n = reorder_word_oracle(left + monomial_letters(mb, nb))
                    assert x * Element.monomial(mb, nb) == Element.monomial(m, n, PhaseScalar.lam(k))


# -------------------------------------------------------------------- ring ops


def test_uv_squared():
    uv = U * V
    assert uv * uv == Element.monomial(2, 2, PhaseScalar.lam(4))


def test_identity_neutral(rng):
    for _ in range(20):
        x = random_element(rng)
        assert x * ONE == x and ONE * x == x


@pytest.mark.parametrize("x", [U, U * V + V.star(), Element.monomial(2, -1, GaussRational(Fraction(1, 3), -2))],
                         ids=["U", "UV + V*", "(1/3 - 2i) U^2 V^-1"])
def test_powers_are_repeated_products(x):
    assert x ** 0 == ONE and x ** 1 == x and x ** 3 == x * x * x
    with pytest.raises(ValueError, match=r"^only nonnegative powers are defined on generic elements$"):
        x ** -1


@pytest.mark.parametrize("a, b", [
    (GaussRational(Fraction(1, 2), -3), GaussRational(Fraction(-5, 6), Fraction(1, 4))),
    (PhaseScalar({1: GaussRational(2, Fraction(1, 3))}), PhaseScalar({1: GaussRational(1), -2: GaussRational(0, 4)})),
], ids=["GaussRational", "PhaseScalar"])
def test_subtraction_adds_the_negation(a, b):
    assert a - b == a + (-b) != b - a


def test_an_unknown_automorphism_is_refused_by_name():
    with pytest.raises(ValueError) as err:
        apply_automorphism("rho", U)
    assert str(err.value) == "unknown automorphism 'rho' (expected one of ('sigma', 'flip', 'gamma'))"


def test_associativity_random(rng):
    for _ in range(100):
        x, y, z = (random_element(rng, max_terms=5) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_distributivity_random(rng):
    for _ in range(100):
        x, y, z = (random_element(rng) for _ in range(3))
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


# ------------------------------------------------------------------------ star


def test_star_generator():
    assert U.star() == Element.monomial(-1, 0)


def test_star_of_phase_monomial():
    # (L U V)* = conj(L) L^{4} U^-1 V^-1 = L^3 U^-1 V^-1, checked against the word oracle
    x = Element.monomial(1, 1, PhaseScalar.lam(1))
    k, m, n = reorder_word_oracle([("V", -1), ("U", -1)])
    expected = Element.monomial(m, n, PhaseScalar.lam(k - 1))
    assert x.star() == expected == Element.monomial(-1, -1, PhaseScalar.lam(3))


def test_star_involution_and_antihomomorphism(rng):
    for _ in range(100):
        x, y = random_element(rng), random_element(rng)
        assert x.star().star() == x
        assert (x * y).star() == y.star() * x.star()


def test_unitary_generators():
    assert U * U.star() == ONE and U.star() * U == ONE
    assert V * V.star() == ONE and V.star() * V == ONE


# --------------------------------------------------------------- automorphisms


def test_sigma_on_generators():
    assert apply_automorphism("sigma", U) == Element.monomial(0, -1)
    assert apply_automorphism("sigma", V) == U


def test_sigma_on_u2v_matches_oracle():
    # sigma(U^2 V) = sigma(U)^2 sigma(V) = V^-2 U, normal-ordered by the oracle
    k, m, n = reorder_word_oracle([("V", -1), ("V", -1), ("U", 1)])
    assert apply_automorphism("sigma", Element.monomial(2, 1)) == Element.monomial(
        m, n, PhaseScalar.lam(k)
    )
    assert k == -8 and (m, n) == (1, -2)


def test_gamma_even_degree_fixed():
    uv = U * V
    assert apply_automorphism("gamma", uv) == uv
    assert apply_automorphism("gamma", U) == -U


def test_automorphism_group_laws(rng):
    for _ in range(100):
        x = random_element(rng)
        s1 = apply_automorphism("sigma", x)
        s2 = apply_automorphism("sigma", s1)
        s4 = apply_automorphism("sigma", apply_automorphism("sigma", s2))
        assert s4 == x  # sigma^4 = id
        assert s2 == apply_automorphism("flip", x)  # sigma^2 = flip
        assert apply_automorphism("flip", apply_automorphism("flip", x)) == x
        assert apply_automorphism("gamma", apply_automorphism("gamma", x)) == x
        assert apply_automorphism("sigma", apply_automorphism("gamma", x)) == apply_automorphism(
            "gamma", apply_automorphism("sigma", x)
        )


def test_automorphisms_are_homomorphisms(rng):
    for which in ("sigma", "flip", "gamma"):
        for _ in range(40):
            x, y = random_element(rng), random_element(rng)
            assert apply_automorphism(which, x * y) == apply_automorphism(
                which, x
            ) * apply_automorphism(which, y)


def test_sigma_average_examples(rng):
    assert sigma_average(Element()) == Element()
    assert sigma_average(ONE) == ONE.scale(4)
    avg = sigma_average(U)
    assert avg == U + Element.monomial(0, -1) + Element.monomial(-1, 0) + V
    for _ in range(25):
        x = random_element(rng)
        a = sigma_average(x)
        assert apply_automorphism("sigma", a) == a


# ------------------------------------------------------------------------ trace


def test_trace_constant_term():
    x = ONE.scale(3) + (U * V).scale(2)
    assert canonical_trace(x) == PhaseScalar.of(3)


def test_trace_of_commutator_word():
    w = U * V * Element.monomial(-1, 0) * Element.monomial(0, -1)
    assert canonical_trace(w) == PhaseScalar.lam(-4)


def test_trace_laws(rng):
    for _ in range(100):
        x, y = random_element(rng), random_element(rng)
        assert canonical_trace(x * y) == canonical_trace(y * x)
        assert canonical_trace(x * y - y * x) == PhaseScalar()
        assert canonical_trace(apply_automorphism("sigma", x)) == canonical_trace(x)
        assert canonical_trace(apply_automorphism("gamma", x)) == canonical_trace(x)


def test_trace_positivity_numeric(rng):
    th = ThetaParam.preset("golden")
    for _ in range(25):
        x = random_element(rng)
        val = numeric_eval(canonical_trace(x.star() * x), th)
        assert abs(val.imag) < 1e-12
        assert val.real > -1e-12


# ---------------------------------------------------------------- numeric eval


def test_numeric_eval_quarter():
    # L^4 = e(theta), which is i at theta = 1/4
    th_quarter = ThetaParam.from_decimal("0.25000000000000000000")
    val = numeric_eval(PhaseScalar.lam(4), th_quarter)
    assert val == pytest.approx(1j, abs=1e-12)


def test_numeric_eval_constant():
    th = ThetaParam.preset("sqrt2")
    assert numeric_eval(PhaseScalar.of(1) + PhaseScalar.of(1), th) == pytest.approx(2)


def test_numeric_eval_lam_minus8_golden():
    # oracle value of e(-2*theta) at theta = (sqrt(5)-1)/2, from a 50-digit computation
    th = ThetaParam.preset("golden")
    val = numeric_eval(PhaseScalar.lam(-8), th)
    assert val.real == pytest.approx(0.0874257247169604, abs=1e-14)
    assert val.imag == pytest.approx(-0.9961710408648277, abs=1e-14)


def test_numeric_eval_large_exponent_precision():
    import mpmath

    th = ThetaParam.preset("golden")
    # 100 digits carry k*theta/4 for |k| up to 10^40 with 60 digits to spare
    with mpmath.workdps(100):
        theta_hp = (mpmath.sqrt(5) - 1) / 2
        for k in (9999, -10000, 1234567 % 10**4, 10**5 + 1, -(10**9) + 7, 3**40, 10**30 + 1, -(10**40)):
            got = numeric_eval(PhaseScalar.lam(k), th)
            want = mpmath.e ** (2j * mpmath.pi * theta_hp * k / 4)
            assert abs(got - complex(want)) < 1e-13, k


def test_numeric_eval_is_multiplicative(rng):
    th = ThetaParam.preset("sqrt2")
    from conftest import random_phase

    for _ in range(25):
        a, b = random_phase(rng), random_phase(rng)
        assert numeric_eval(a * b, th) == pytest.approx(
            numeric_eval(a, th) * numeric_eval(b, th), abs=1e-10
        )


# ------------------------------------------------------------- hypothesis laws

_coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def elements(draw):
    n_terms = draw(st.integers(1, 4))
    x = Element()
    for _ in range(n_terms):
        m = draw(st.integers(-4, 4))
        n = draw(st.integers(-4, 4))
        k = draw(st.integers(-4, 4))
        re = draw(_coef)
        im = draw(_coef)
        x = x + Element.monomial(m, n, PhaseScalar({k: GaussRational(re, im)}))
    return x


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_hypothesis_star_antihomomorphism(x, y):
    assert (x * y).star() == y.star() * x.star()


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), elements())
def test_hypothesis_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60, deadline=None)
@given(elements())
def test_hypothesis_sigma_order_four(x):
    y = x
    for _ in range(4):
        y = apply_automorphism("sigma", y)
    assert y == x


# ---------------------------------------------------------------- text round-trip


def test_parse_simple_monomial():
    assert parse_element("U V") == U * V
    assert parse_element("V U") == V * U  # picks up the L^4 phase through real multiplication
    assert parse_element("V U") == Element.monomial(1, 1, PhaseScalar.lam(4))


def test_parse_grammar_example():
    x = parse_element("L^4 U^2 V^-1 + 1/2")
    assert x == Element.monomial(2, -1, PhaseScalar.lam(4)) + Element.monomial(
        0, 0, Fraction(1, 2)
    )


def test_parse_signs_and_gaussians():
    x = parse_element("(1/2-3i)L^-2 U^-1 - i V^2")
    want = Element.monomial(-1, 0, PhaseScalar({-2: GaussRational(Fraction(1, 2), -3)}))
    want = want + Element.monomial(0, 2, GaussRational(0, -1))
    assert x == want


def test_parse_error_has_position():
    with pytest.raises(ElementParseError):
        parse_element("U ^^ 2")
    with pytest.raises(ElementParseError):
        parse_element("")


def test_parse_rejects_dangling_product_sign():
    for text, pos in (("U *", 3), ("U * + V", 4), ("U**V", 2), ("* U", 0), ("(1/2) * ", 8)):
        with pytest.raises(ElementParseError) as err:
            parse_element(text)
        assert err.value.pos == pos, text


def test_parse_keeps_explicit_and_implicit_products():
    assert parse_element("U * V") == parse_element("U V") == U * V
    assert parse_element("2 3 U") == parse_element("2 * 3 * U") == U.scale(6)


@pytest.mark.parametrize(
    "text, pos", [("(1/0)", 1), ("1/0 U", 0), ("U + (1/2 + 3/0i)", 11), ("0/0", 0), ("(1/2) 2/00", 6)]
)
def test_parse_rejects_a_zero_denominator_at_the_number(text, pos):
    with pytest.raises(ElementParseError, match="zero denominator") as err:
        parse_element(text)
    assert err.value.pos == pos


@pytest.mark.parametrize(
    "template, pos", [("{long}", 0), ("U + 3/{long}", 4), ("(2 + {long}i) V", 5), ("U^-{long}", 3), ("L^{long}", 2)]
)
def test_parse_rejects_a_number_too_long_to_convert_at_the_number(template, pos):
    # 5000 digits is more than int() converts (sys.get_int_max_str_digits() is 4300)
    with pytest.raises(ElementParseError, match="number too long") as err:
        parse_element(template.format(long="1" * 5000))
    assert err.value.pos == pos


@pytest.mark.parametrize(
    "text, pos", [("\u0663 U", 0), ("U^\u0663", 2), ("U \u0663", 2), ("(\u0661/2)", 1), ("L^-\u0662", 3)]
)
def test_parse_takes_ascii_digits_only(text, pos):
    # Arabic-Indic digits are Unicode digits; the grammar's digits are 0-9
    with pytest.raises(ElementParseError, match="unexpected character") as err:
        parse_element(text)
    assert err.value.pos == pos
    with pytest.raises(ElementParseError):
        parse_phase(text)


def test_parse_reports_an_unexpected_character_at_itself():
    # not at the whitespace in front of it
    for text, pos in (("U  x", 3), ("U +\tV \t/", 7), (" ?", 1)):
        with pytest.raises(ElementParseError, match="unexpected character") as err:
            parse_element(text)
        assert err.value.pos == pos, text


@settings(max_examples=60, deadline=None)
@given(elements(), st.sampled_from(("*", "+", "-", "^", "(")))
def test_hypothesis_text_roundtrip_and_junk_suffix(x, junk):
    text = element_to_text(x)
    assert parse_element(text) == x
    with pytest.raises(ElementParseError):
        parse_element(text + junk)
    with pytest.raises(ElementParseError):
        parse_element(f"{text} {junk}")


def test_roundtrip_random_elements(rng):
    for _ in range(200):
        x = random_element(rng)
        assert parse_element(element_to_text(x)) == x


def test_roundtrip_zero():
    assert parse_element(element_to_text(Element())) == Element()


def test_phase_roundtrip(rng):
    from conftest import random_phase

    for _ in range(50):
        p = random_phase(rng)
        assert parse_phase(phase_to_text(p)) == p


def test_t2_slots_real_on_flip_invariant_hermitian(rng):
    from nctorus.algebra import apply_automorphism as aut
    from nctorus.traces import chern_T2

    th = ThetaParam.preset("golden")
    for _ in range(15):
        x = random_element(rng)
        h = x + x.star()
        h = h + aut("flip", h)  # flip-invariant and Hermitian
        for slot in chern_T2(h).slots():
            assert abs(numeric_eval(slot, th).imag) <= 1e-12


# --------------------------------------------------------- pickle and copy


@pytest.mark.parametrize("make", [
    lambda rng: GaussRational(Fraction(-3, 4), Fraction(5, 6)),
    lambda rng: PhaseScalar({-2: GaussRational(Fraction(1, 3)), 5: GaussRational(0, Fraction(-7, 2))}),
    lambda rng: random_element(rng),
], ids=["GaussRational", "PhaseScalar", "Element"])
def test_pickle_and_copy_round_trip(make, rng):
    import copy
    import pickle

    x = make(rng)
    for back in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(back) is type(x)
        assert back == x and hash(back) == hash(x)
        assert str(back) == str(x)
        with pytest.raises(AttributeError):
            back.re = 0
