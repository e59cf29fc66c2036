import math
import re
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from nctorus.theta import TURNS_ERROR, PrecisionExhausted, ThetaParam, parse_theta

from conftest import MP_THETA


def test_golden_convergents_are_fibonacci():
    th = ThetaParam.preset("golden")
    assert th.convergents[:7] == ((0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13))


def test_preset_values():
    assert ThetaParam.preset("golden").turns(0, 1) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    assert ThetaParam.preset("sqrt2").turns(0, 1) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        ThetaParam.preset("e")


def test_cf_terms_validated():
    with pytest.raises(ValueError):
        ThetaParam([])
    with pytest.raises(ValueError):
        ThetaParam([1, 0, 2])


def test_any_iterable_of_terms_is_read_once():
    assert ThetaParam(iter([3, 1, 4])) == ThetaParam([3, 1, 4]) == ThetaParam((3, 1, 4))
    with pytest.raises(ValueError, match="prefix must be nonempty"):
        ThetaParam(iter(()))


@pytest.mark.parametrize("interval", [
    (Fraction(1, 2), Fraction(1, 3)),
    (0, Fraction(1, 2)),
    (Fraction(1, 2), 1),
], ids=["reversed", "lo at 0", "hi at 1"])
def test_an_interval_outside_the_unit_interval_is_refused(interval):
    with pytest.raises(ValueError, match=r"^interval must satisfy 0 < lo < hi < 1$"):
        ThetaParam((1,), interval=interval)


@pytest.mark.parametrize("terms, interval, bracket", [
    ((1, 1), (Fraction(1, 3), Fraction(2, 5)), "(1/2, 1)"),
    ((1, 1), (Fraction(1, 3), Fraction(1, 2)), "(1/2, 1)"),  # open ends that touch do not meet
    ((2,), (Fraction(3, 5), Fraction(7, 10)), "(0, 1/2)"),
])
def test_an_interval_that_misses_the_prefix_is_refused(terms, interval, bracket):
    lo, hi = interval
    message = f"interval ({lo}, {hi}) does not meet the continued-fraction prefix's bracket {bracket}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ThetaParam(terms, interval=interval)


def test_sign_linear_exact():
    th = ThetaParam.preset("golden")
    # theta^2 = 1 - theta for the golden value: 1 - theta - theta^2 = 0, but
    # linear probes around it must still resolve
    assert th.sign_linear(-1, 2) > 0  # 2 theta > 1
    assert th.sign_linear(2, -3) > 0  # 3 theta < 2
    assert th.sign_linear(-2, 3) < 0
    assert th.sign_linear(0, 0) == 0
    # very tight probe: F_20 theta vs F_21 (consecutive Fibonacci)
    assert th.sign_linear(-10946, 17711) != 0


def test_sign_linear_accepts_fractions():
    th = ThetaParam.preset("sqrt2")
    assert th.sign_linear(Fraction(-2, 5), 1) > 0   # theta > 2/5
    assert th.sign_linear(Fraction(1, 2), -1) > 0   # theta < 1/2


def test_floor_linear():
    th = ThetaParam.preset("golden")
    for b in range(-30, 31):
        assert th.floor_linear(b) == math.floor(b * (math.sqrt(5) - 1) / 2)


def test_reflect_golden():
    th = ThetaParam.preset("golden")
    r = th.reflect()
    assert r.turns(0, 1) == pytest.approx(1 - th.turns(0, 1), abs=1e-14)
    assert r.cf_terms[:3] == (2, 1, 1)


def test_reflect_sqrt2():
    th = ThetaParam.preset("sqrt2")
    r = th.reflect()
    assert r.turns(0, 1) == pytest.approx(2 - math.sqrt(2), abs=1e-14)
    assert r.cf_terms[:4] == (1, 1, 2, 2)


def test_double_reflect_roundtrip():
    th = ThetaParam.preset("golden")
    rr = th.reflect().reflect()
    assert rr.cf_terms[:100] == th.cf_terms[:100]


def test_from_decimal_bounds_are_honest():
    th = ThetaParam.from_decimal("0.6180339887")
    assert th.sign_linear(-1, 2) > 0
    # a question finer than the supplied precision must fail loudly
    with pytest.raises(PrecisionExhausted):
        # 0.61803398870000000001-ish probe: needs ~1e-20 resolution
        th.sign_linear(Fraction(-6180339887_0000000001, 10**20), 1)


def test_from_decimal_rejects_out_of_range():
    with pytest.raises(ValueError):
        ThetaParam.from_decimal("1.5")


def test_parse_theta_forms():
    assert parse_theta("golden").name == "golden"
    assert parse_theta("cf:1,1,1,1,1,1,1,1").cf_terms == (1,) * 8
    assert parse_theta("0.4142").in_open_interval(0, 1, Fraction(4141, 10000), Fraction(4143, 10000))


def test_convergents_are_every_stored_one():
    assert ThetaParam([1, 1, 1]).convergents == ((0, 1), (1, 1), (1, 2), (2, 3))
    assert len(ThetaParam.preset("sqrt2").convergents) == 161
    assert parse_theta("0.5").convergents == ((0, 1),)  # an exactly-rational input pins no terms
    assert ThetaParam([7]).convergents == ((0, 1), (1, 7))


def test_reflect_of_empty_prefix_is_precision_exhausted():
    # the prefix (1,) pins no term of 1 - theta, and no interval carries it
    with pytest.raises(PrecisionExhausted, match="^insufficient-cf-data: prefix too short to reflect$"):
        ThetaParam([1]).reflect()


@pytest.mark.parametrize("spec, mirrored", [
    ("0.5", (Fraction(9, 20), Fraction(11, 20))),
    ("0.75e0", (Fraction(49, 200), Fraction(51, 200))),  # the prefix (1,)
])
def test_reflect_of_a_short_decimal_prefix_is_its_mirrored_interval(spec, mirrored):
    r = parse_theta(spec).reflect()
    assert (r.cf_terms, r.interval, r.convergents) == ((), mirrored, ((0, 1),))
    assert r._bracket == tuple(x.as_integer_ratio() for x in mirrored)


def test_reflect_is_cached():
    th = ThetaParam.preset("sqrt2")
    assert th.reflect() is th.reflect()


def test_floor_linear_large_multiplier_is_exact_and_fast():
    th = ThetaParam.preset("golden")
    b = 10**30
    start = time.perf_counter()
    got = th.floor_linear(b)
    assert time.perf_counter() - start < 1.0
    # b*theta = (sqrt(5 b^2) - b) / 2 and sqrt(5 b^2) is irrational
    assert got == (math.isqrt(5 * b * b) - b) // 2
    assert th.floor_linear(-b) == -got - 1


def test_floor_linear_beyond_the_prefix_is_precision_exhausted():
    with pytest.raises(PrecisionExhausted):
        ThetaParam.preset("golden").floor_linear(10**400)


def test_sign_linear_zero_on_every_theta():
    for th in THETAS:
        assert th.sign_linear(0, 0) == 0
        assert th.sign_linear(Fraction(0), Fraction(0, 7)) == 0


# ----------------------------------------------- references kept from the Fraction walk


def brackets(th):
    """Successively tighter rational intervals lo < theta < hi: consecutive
    convergents clipped to th.interval, then the interval itself."""
    pq = th.convergents
    for j in range(len(pq) - 1):
        x = Fraction(pq[j][0], pq[j][1])
        y = Fraction(pq[j + 1][0], pq[j + 1][1])
        lo, hi = (x, y) if x < y else (y, x)
        if th.interval is not None:
            lo, hi = max(lo, th.interval[0]), min(hi, th.interval[1])
            if not lo < hi:
                break
        yield lo, hi
    if th.interval is not None:
        yield th.interval


def reference_sign_linear(th, a, b):
    """The bracket walk from depth 0 over Fractions that sign_linear replaced."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return (a > 0) - (a < 0)
    for lo, hi in brackets(th):
        v1, v2 = a + b * lo, a + b * hi
        if v1 > 0 and v2 > 0:
            return 1
        if v1 < 0 and v2 < 0:
            return -1
    raise PrecisionExhausted("reference walk exhausted")


def reference_floor_ratio(th, a, b, c, d):
    """floor((a + b*theta) / (c + d*theta)) by a linear walk of reference signs."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    r = MIDPOINTS[th]
    k = math.floor((a + b * r) / (c + d * r))
    while reference_sign_linear(th, a - k * c, b - k * d) < 0:
        k -= 1
    while reference_sign_linear(th, a - (k + 1) * c, b - (k + 1) * d) >= 0:
        k += 1
    return k


def outcome(f, *args):
    try:
        return f(*args)
    except PrecisionExhausted:
        return PrecisionExhausted


THETAS = (
    ThetaParam.preset("golden"),
    ThetaParam.preset("sqrt2"),
    parse_theta("cf:" + ",".join(["100"] * 40)),
    parse_theta("0.6180339887"),
    ThetaParam.preset("golden").reflect(),
    parse_theta("0.4142"),
    ThetaParam([1, 2, 3, 4, 5, 6]),
    # an interval wider than the prefix: its clipped brackets are the tighter ones
    ThetaParam(cf_terms=(1,) * 30, interval=(Fraction(3, 5), Fraction(7, 10))),
)
# the middle of each theta's narrowest bracket
MIDPOINTS = {th: sum(min(brackets(th), key=lambda br: br[1] - br[0])) / 2 for th in THETAS}

# magnitudes spread evenly over 10^0 .. 10^40
_big = st.sampled_from(range(41)).flatmap(lambda e: st.integers(-(10**e), 10**e))
_rational = st.one_of(
    _big,
    st.builds(Fraction, _big, st.integers(1, 10**6)),
)


@st.composite
def linear_probe(draw):
    """(theta, a, b) with a + b*theta often within a few units of zero."""
    th = draw(st.sampled_from(THETAS))
    b = draw(_rational)
    if draw(st.booleans()):
        a = -math.floor(b * MIDPOINTS[th]) + draw(st.integers(-2, 2))
        a += draw(st.sampled_from((0, Fraction(1, 3), Fraction(-1, 2))))
    else:
        a = draw(_rational)
    return th, a, b


@settings(max_examples=400, deadline=None)
@given(linear_probe())
def test_sign_linear_matches_reference_walk(probe):
    th, a, b = probe
    assert outcome(th.sign_linear, a, b) == outcome(reference_sign_linear, th, a, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(THETAS), _rational)
def test_floor_linear_matches_reference(th, b):
    assert outcome(th.floor_linear, b) == outcome(reference_floor_ratio, th, 0, b, 1, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(THETAS),
    st.integers(-(10**12), 10**12),
    st.integers(-(10**12), 10**12),
    st.integers(1, 10**6),
    st.integers(-(10**6), 10**6),
)
def test_floor_ratio_matches_reference(th, a, b, c, d):
    # c + d*theta > 0 with c >= |d| + 1 since 0 < theta < 1
    c += abs(d)
    assert outcome(th.floor_ratio, a, b, c, d) == outcome(reference_floor_ratio, th, a, b, c, d)


def test_floor_ratio_integral_quotient():
    th = ThetaParam.preset("golden")
    assert th.floor_ratio(6, 9, 2, 3) == 3
    assert th.floor_ratio(-6, -9, 2, 3) == -3


@pytest.mark.parametrize("a, b, c, d", [(1, 0, -1, 0), (5, 1, 0, 0), (1, 0, 1, -2), (3, 1, np.int64(-1), 0)])
def test_floor_ratio_refuses_a_denominator_out_of_its_domain(a, b, c, d):
    # the bracket settles c + d*theta <= 0: the input breaks the domain, the prefix is not short
    with pytest.raises(ValueError, match=rf"c \+ d\*theta > 0, got {c} \+ {d}\*theta$"):
        ThetaParam.preset("golden").floor_ratio(a, b, c, d)


def test_floor_ratio_calls_a_denominator_the_prefix_cannot_place_unsettled():
    # -1 + 4*theta changes sign inside cf:2's bracket (0, 1/2)
    with pytest.raises(PrecisionExhausted, match=r"cannot settle sign of -1 \+ 4\*theta"):
        parse_theta("cf:2").floor_ratio(1, 0, -1, 4)


# ------------------------------------------------------ the narrowest bracket


BRACKET_THETAS = THETAS + (parse_theta("0.5"), parse_theta("0.25e0"), parse_theta("0.75e0"))
BRACKET_THETAS += tuple(th.reflect() for th in BRACKET_THETAS)


@pytest.mark.parametrize("th", BRACKET_THETAS, ids=lambda th: f"{th.cf_terms[:4]}-{len(th.cf_terms)}-{th.interval}")
def test_bracket_is_the_narrowest_of_brackets(th):
    lo, hi = min(brackets(th), key=lambda br: br[1] - br[0])
    assert th._bracket == ((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))


def test_bracket_of_an_exact_prefix_is_its_deepest_convergent_pair():
    th = ThetaParam.preset("golden")
    (p1, q1), (p2, q2) = th._bracket
    assert {(p1, q1), (p2, q2)} == set(th.convergents[-2:])


# -------------------------------------------------- turns: theta's one float


PRESETS = {name: ThetaParam.preset(name) for name in ThetaParam.PRESETS}


def mp_circle_distance(name, a, b, x):
    """The distance on the circle from x to (a + b*theta) mod 1, by mpmath at 120 digits."""
    with mpmath.workdps(120):
        exact = mpmath.mpf(a) + mpmath.mpf(b.numerator) / b.denominator * MP_THETA[name]()
        d = mpmath.frac(mpmath.mpf(x) - exact)
        return min(d, 1 - d)


def _signed_digits(most):
    """Integers of 1 to ``most`` digits, as many of each length, either sign."""
    magnitude = st.integers(1, most).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e - 1))
    return st.tuples(magnitude, st.sampled_from((1, -1))).map(lambda ms: ms[0] * ms[1])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ThetaParam.PRESETS), _signed_digits(12), _signed_digits(12), _signed_digits(60))
def test_turns_is_within_its_bound_of_mpmath_or_rejected(name, a, r, k):
    th, b = PRESETS[name], Fraction(r * k, 4)
    (p1, q1), (p2, q2) = th._bracket
    # the midpoint is off by at most |b| times the half width, and rounding adds up to 2^-54
    settles = abs(b) * (Fraction(p2, q2) - Fraction(p1, q1)) / 2 + Fraction(1, 2**54) <= Fraction(TURNS_ERROR)
    event(f"{name} {'settles' if settles else 'rejected'}")
    if not settles:
        with pytest.raises(PrecisionExhausted, match="^insufficient-cf-data: "):
            th.turns(a, b)
        return
    x = th.turns(a, b)
    assert 0 <= x < 1
    assert mp_circle_distance(name, a, b, x) <= TURNS_ERROR


def test_turns_rounding_up_to_one_is_zero():
    # theta is 1/2 to within 1e-16, and 1/2 - 2^-60 + theta rounds to 1.0
    th = ThetaParam(cf_terms=(), interval=(Fraction(1, 2) - Fraction(1, 10**16), Fraction(1, 2) + Fraction(1, 10**16)))
    assert th.turns(Fraction(1, 2) - Fraction(1, 2**60), 1) == 0.0
    assert th.turns(Fraction(1, 2) - Fraction(1, 2**50), 1) == 1 - 2**-50


def test_turns_of_a_short_prefix_or_a_decimal_is_rejected():
    for spec, b in (("cf:1", Fraction(1, 4)), ("cf:" + ",".join(["2"] * 10), 1), ("0.618", 25000)):
        with pytest.raises(PrecisionExhausted, match="insufficient-cf-data: cannot settle"):
            parse_theta(spec).turns(0, b)


# ------------------------------------------------------- decimal exponents


SPELLINGS = ("0.6180339887", "0.6180339887e0", "6180339887e-10", "61.80339887E-2", "0.06180339887e+1")


def test_decimal_precision_comes_from_the_exponent():
    want = ThetaParam.from_decimal("0.6180339887")
    assert want.interval == (Fraction(61803398865, 10**11), Fraction(61803398875, 10**11))
    for spec in SPELLINGS:
        th = parse_theta(spec)
        assert (th.cf_terms, th.interval) == (want.cf_terms, want.interval), spec
        # finer than the stated precision: never a sign, on every spelling
        with pytest.raises(PrecisionExhausted):
            th.sign_linear(Fraction(-61803398871, 10**11), 1)
        assert th.sign_linear(Fraction(-61803398, 10**8), 1) > 0


def test_decimal_spec_with_a_huge_exponent_is_rejected_at_once():
    start = time.perf_counter()
    for spec in ("1e-99999999", "6180339887e-99999999", "5e99999999"):
        with pytest.raises(ValueError, match="out of range"):
            parse_theta(spec)
    assert time.perf_counter() - start < 1.0


def test_decimal_spec_is_strict():
    for spec in ("0.1_23", "0.123_", "nan", "inf", "1/3", "0.5x", "0.5e", "0..5", "٠.5"):
        with pytest.raises(ValueError, match="not a decimal number"):
            parse_theta(spec)


# ------------------------------------------------------------ cf: specs


@pytest.mark.parametrize("spec, position", [
    ("cf:1,,2", 5), ("cf:1_000,2", 3), ("cf:1,2,", 7), ("cf:", 3), ("cf:+1", 3),
    ("cf:1, x", 6), ("cf:1,2.0", 5), ("cf:1,٣", 5),
])
def test_parse_theta_rejects_lax_cf_terms_with_their_position(spec, position):
    with pytest.raises(ValueError, match=f"continued-fraction term at {position} "):
        parse_theta(spec)


def test_parse_theta_rejects_a_cf_term_too_long_to_convert_with_its_position():
    # 5000 digits is more than int() converts (sys.get_int_max_str_digits() is 4300)
    with pytest.raises(ValueError, match="number too long .* continued-fraction term at 3$"):
        parse_theta("cf:" + "1" * 5000)
    with pytest.raises(ValueError, match="number too long .* continued-fraction term at 6$"):
        parse_theta("cf:1, " + "2" * 5000 + ",3")


def test_parse_theta_cf_allows_spaces_around_terms():
    assert parse_theta(" cf: 1 , 2,3 ").cf_terms == (1, 2, 3)


_THETA_JUNK = (",", ",,", "_", "x", ".5", ",-1", " ,", "e1", "/3")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=12), st.sampled_from(_THETA_JUNK))
def test_hypothesis_cf_spec_roundtrip_and_junk_suffix(terms, junk):
    spec = "cf:" + ",".join(map(str, terms))
    assert parse_theta(spec).cf_terms == tuple(terms)
    with pytest.raises(ValueError):
        parse_theta(spec + junk)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10**12 - 1), st.integers(0, 12), st.sampled_from(_THETA_JUNK[2:]))
def test_hypothesis_decimal_spec_roundtrip_and_junk_suffix(n, k, junk):
    # n / 10^12 with its last digit in the 10^-12 place, written with the
    # point after k digits and the exponent -k
    digits = f"{n:012d}"
    spec = f"{digits[:k]}.{digits[k:]}e-{k}"
    th = parse_theta(spec)
    r, u = Fraction(n, 10**12), Fraction(1, 2 * 10**12)
    assert th.interval == (r - u, r + u)
    assert th == parse_theta(f"0.{digits}")
    with pytest.raises(ValueError):
        parse_theta(spec + junk)


def reference_cf_terms_of_fraction(x):
    """The first 128 terms a1, a2, ... of x = [0; a1, a2, ...] for rational x in (0, 1), by Fractions: the
    expansion of each end of the interval that from_decimal's one Euclid pass must agree with."""
    out = []
    frac = x
    for _ in range(128):
        if frac == 0:
            break
        inv = 1 / frac
        a = inv.numerator // inv.denominator
        out.append(a)
        frac = inv - a
    return out


def reference_from_decimal(text):
    """(cf_terms, interval) of a decimal in (0, 1) by the two 128-term expansions and their zip."""
    d = Decimal(text)
    r = Fraction(d)
    u = Fraction(10) ** d.as_tuple().exponent / 2
    lo, hi = r - u, r + u
    ta = reference_cf_terms_of_fraction(lo)
    tb = reference_cf_terms_of_fraction(hi)
    common = []
    for x, y in zip(ta, tb):
        if x != y:
            break
        common.append(x)
    return tuple(common), (lo, hi)


@st.composite
def decimal_in_the_unit_interval(draw):
    """A decimal of 1 to 60 digits in (0, 1), written with or without an exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=60).filter(lambda ds: ds.strip("0")))
    shift = draw(st.integers(0, 3))
    return draw(st.sampled_from((
        "0." + "0" * shift + digits,
        f"{digits}e-{len(digits) + shift}",
        f"0.{digits}E+0",
        f".{digits}e0",
    )))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(decimal_in_the_unit_interval())
def test_from_decimal_matches_the_two_expansion_reference(text):
    th = ThetaParam.from_decimal(text)
    assert (th.cf_terms, th.interval) == reference_from_decimal(text)
    # a decimal's interval lies inside its prefix's deepest pair, so the one clip leaves the interval
    for t in (th, th.reflect()):
        assert t._bracket == tuple(x.as_integer_ratio() for x in t.interval)
