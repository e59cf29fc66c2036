"""The paper's statements on the semiflat cone, checked across the lattice and realization layers.

The lattice layer decides membership in the semiflat positive cone; the
realization layer builds semiflat trace certificates.  The abstract ties
the two: a class of the semiflat sublattice is a cone member exactly when
its trace is positive, that trace lies in 2Z + 2Z*theta, its genus is an
integer combination of the basic genera (2,0,0), (1,1,2), (0,0,2), and
every trace in (0, 1) of 2Z + 2Z*theta is the trace of a semiflat
projection.  The signs here are decided by exact surd arithmetic on the
presets, apart from both layers; on a short continued-fraction prefix
they are the theta layer's, and an undecidable question must stop both
layers, or the statistics record which one answered.
"""

from math import isqrt

from hypothesis import event, given, settings, strategies as st

from nctorus.lattice import recompose, semiflat_coordinates, semiflat_membership
from nctorus.realization import TraceValue, realize, verify_certificate
from nctorus.theta import PrecisionExhausted, parse_theta

# a + b*theta = (P + Q*sqrt(D)) / s for the presets: (P, Q) from (a, b), then D and s
SURDS = {
    "golden": (lambda a, b: (2 * a - b, b), 5),  # theta = (sqrt 5 - 1)/2
    "sqrt2": (lambda a, b: (a - b, b), 2),  # theta = sqrt 2 - 1
}


def surd_sign(p: int, q: int, d: int) -> int:
    """The sign of p + q*sqrt(d) for a nonsquare d > 0, exactly."""
    if p >= 0 and q >= 0 or p <= 0 and q <= 0:
        return (p > 0 or q > 0) - (p < 0 or q < 0)
    assert isqrt(d) ** 2 != d
    return (p > 0) - (p < 0) if p * p > q * q * d else (q > 0) - (q < 0)


def exact_sign(theta: str, a: int, b: int):
    """The sign of a + b*theta from the closed form of a preset; None for a prefix."""
    if theta not in SURDS:
        return None
    form, d = SURDS[theta]
    return surd_sign(*form(a, b), d)


def _outcome(f, *args):
    try:
        return f(*args)
    except PrecisionExhausted:
        return PrecisionExhausted


def _clamp(x: int) -> int:
    return max(-8, min(8, x))


@st.composite
def _coordinates(draw, theta):
    """(n1, n2, n3, n4, n9) in [-8, 8].  The trace is 2(n1 + 2n2 + n3 + n4) + 2(n2 + n9)*theta, so most
    draws move n1, n3 and n4, when the prefix settles the floor, to put the trace at
    2*frac((n2 + n9)*theta), which lies in (0, 1) about half the time."""
    n1, n2, n3, n4, n9 = draw(st.tuples(*[st.integers(-8, 8)] * 5))
    if draw(st.integers(0, 3)) < 3:
        try:
            total = -theta.floor_linear(n2 + n9) - 2 * n2  # what n1 + n3 + n4 must be
        except PrecisionExhausted:
            total = n1 + n3 + n4
        n1 = _clamp(total - n3 - n4)
        n3 = _clamp(total - n1 - n4)
        n4 = _clamp(total - n1 - n3)
    return n1, n2, n3, n4, n9


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["golden", "sqrt2", "cf:1,2,1,3"]).flatmap(
    lambda spec: st.tuples(st.just(spec), _coordinates(parse_theta(spec)))))
def test_semiflat_members_are_the_positive_traces_and_every_trace_in_0_1_is_realized(case):
    theta, coords = case
    th = parse_theta(theta)
    v = recompose(semiflat_coordinates(*coords))
    # psi10 = psi11 = 0, and the trace lies in 2Z + 2Z*theta
    assert not any(v._n[4:12]) and v._d == 1
    tau = v.tau
    assert tau.c == tau.d == 0 and tau.a % 2 == 0 and tau.b % 2 == 0
    t = TraceValue(int(tau.a), int(tau.b))
    sign = exact_sign(theta, t.a, t.b)
    if sign is None:
        sign = _outcome(th.sign_linear, t.a, t.b)
    decision = _outcome(semiflat_membership, v, th)
    if sign is PrecisionExhausted or decision is PrecisionExhausted:
        # the prefix cannot settle the trace's sign: the lattice must say so too
        assert decision is sign is PrecisionExhausted
        realized = _outcome(realize, "semiflat", t, th)
        event(f"{theta}: no sign; realize semiflat {'raised' if realized is PrecisionExhausted else 'answered'}")
        return
    # membership holds exactly when the trace is positive
    assert bool(decision) is (sign > 0) and decision.trace == tau
    if not decision:
        assert decision.reason == "nonpositive-trace"
        return
    # the genus is an integer combination of (2,0,0), (1,1,2) and (0,0,2)
    g20, g21, g22 = (int(g) for g in decision.genus.as_tuple())
    assert decision.genus.as_tuple() == (g20, g21, g22) and (g20 - g21) % 2 == 0 and g22 % 2 == 0
    c1, c2, c3 = (g20 - g21) // 2, g21, g22 // 2 - g21
    assert (2 * c1 + c2, c2, 2 * c2 + 2 * c3) == (g20, g21, g22)
    # a member whose trace is in (0, 1) is the trace of a semiflat projection, with a certificate
    below_one = exact_sign(theta, t.a - 1, t.b) if theta in SURDS else _outcome(th.sign_linear, t.a - 1, t.b)
    if below_one is PrecisionExhausted or below_one >= 0:
        event(f"{theta}: member, trace not shown to be below 1")
        return
    cert = _outcome(realize, "semiflat", t, th)
    if cert is PrecisionExhausted:  # a prefix too short for the convergent searches
        event(f"{theta}: member in (0, 1); realize semiflat raised insufficient-cf-data")
        return
    event(f"{theta}: member in (0, 1), realized")
    assert cert.kind == "semiflat" and cert.target == t and verify_certificate(cert, th).ok
