import copy
import json
import math
import pickle
import random
import time
from collections import OrderedDict
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctorus.algebra import ONE, Element, PhaseScalar, apply_automorphism
from nctorus.lattice import ChernParseError, KScalar
from nctorus.realization import (
    KINDS,
    MAX_NESTING,
    CertificateFormatError,
    Convergent,
    CyclicCert,
    FourSquares,
    OutOfRange,
    ReflectedCert,
    SemiflatCert,
    TraceValue,
    WrongSubgroup,
    certificate_from_json,
    certificate_to_json,
    four_squares,
    parse_trace,
    realize,
    subalgebra_generators,
    verify_certificate,
)
from nctorus.realization import ApproximantCyclic, OrbitFlat, _Certificate
from nctorus.theta import PrecisionExhausted, Record, ThetaParam, parse_theta

from conftest import reflected_chain_json
from test_certificate_contract import SPECS as CONTRACT_SPECS

GOLDEN = ThetaParam.preset("golden")
SQRT2 = ThetaParam.preset("sqrt2")
PRESETS = (GOLDEN, SQRT2)


# ---------------------------------------------------------------- convergents


def test_golden_convergents():
    assert GOLDEN.convergents[:6] == ((0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8))


def test_consecutive_pairs_unimodular_when_bracket_ordered():
    for th in PRESETS:
        cs = [Convergent(*c) for c in th.convergents[:21]]
        t = th.turns(0, 1)
        for low, high in zip(cs, cs[1:]):
            if low.p / low.q > high.p / high.q:
                low, high = high, low
            assert low.p / low.q < t < high.p / high.q
            assert high.p * low.q - low.p * high.q == 1


def test_approximation_quality_decreasing():
    t = GOLDEN.turns(0, 1)
    errs = [abs(q * t - p) for p, q in GOLDEN.convergents[:21]]
    assert all(a > b for a, b in zip(errs, errs[1:]))


# ------------------------------------------------------------ the flat split


def test_flat_split_golden_example():
    # t = 4(2 theta - 1)
    cert = realize("flat", TraceValue(-4, 8), GOLDEN)
    assert (cert.a, cert.b) == (1, 1)
    assert (cert.low.p, cert.low.q) == (3, 5)
    assert (cert.high.p, cert.high.q) == (2, 3)


def test_flat_split_identity_random():
    rng = random.Random(13)
    for th in PRESETS:
        done = 0
        while done < 100:
            k = rng.randint(1, 3)
            n = rng.randint(1, 30)
            m = rng.randint(0, n - 1) if n > 1 else 0
            if m and math.gcd(n, m) != 1:
                continue
            t = TraceValue(-4 * k * m, 4 * k * n)
            if not th.in_open_interval(t.a, t.b, 0, 1):
                continue
            if not th.sign_linear(Fraction(-m, n), 1) > 0:
                continue
            cert = realize("flat", t, th)
            a, b, low, high = cert.a, cert.b, cert.low, cert.high
            assert a >= 1 and b >= 1
            # identity in (1, theta) coordinates
            assert 4 * (a * low.q - b * high.q) == t.b
            assert 4 * (b * high.p - a * low.p) == t.a
            done += 1


def test_flat_split_rejections():
    with pytest.raises(WrongSubgroup, match=r"^wrong-subgroup: -1\+2t is not in 4Z \+ 4Z\*theta$"):
        realize("flat", TraceValue(-1, 2), GOLDEN)
    with pytest.raises(OutOfRange, match=r"^out-of-range: -4\+16t is not in \(0, 1\)$"):
        realize("flat", TraceValue(-4, 16), GOLDEN)  # 16 theta - 4 > 1
    with pytest.raises(OutOfRange, match=r"^out-of-range: 4-8t is not in \(0, 1\)$"):
        realize("flat", TraceValue(4, -8), GOLDEN)  # 4 - 8 theta < 0


# ---------------------------------------------------------------- four squares


def test_four_squares_examples():
    assert four_squares(7) == (2, 1, 1, 1)
    assert four_squares(0) == (0, 0, 0, 0)
    assert four_squares(1) == (1, 0, 0, 0)
    assert four_squares(23) == (3, 3, 2, 1)


def test_four_squares_exhaustive_100k():
    for m in range(100_001):
        fs = four_squares(m)
        assert fs.total() == m
        assert fs.m1 >= fs.m2 >= fs.m3 >= fs.m4 >= 0


def test_four_squares_lexicographically_largest_small():
    from itertools import product

    for m in range(0, 120):
        best = max(
            (
                (a, b, c, d)
                for a in range(math.isqrt(m), -1, -1)
                for b, c, d in product(range(a + 1), repeat=3)
                if b >= c >= d and a * a + b * b + c * c + d * d == m
            ),
        )
        assert four_squares(m) == best


def test_four_squares_rejects_negative():
    with pytest.raises(ValueError):
        four_squares(-1)


def reference_four_squares(m):
    """The plain descending search four_squares used before its shortcuts."""

    def two_square_tail(rest, cap):
        a = min(cap, math.isqrt(rest))
        while a >= 0:
            b2 = rest - a * a
            b = math.isqrt(b2)
            if b * b == b2 and b <= a:
                return a, b
            if a * a * 2 < rest:
                return None
            a -= 1
        return None

    for m1 in range(math.isqrt(m), -1, -1):
        r1 = m - m1 * m1
        for m2 in range(min(m1, math.isqrt(r1)), -1, -1):
            tail = two_square_tail(r1 - m2 * m2, m2)
            if tail is not None:
                return (m1, m2, *tail)
    raise AssertionError(m)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(0, 10**5),
    st.builds(lambda a, b: 4**a * (8 * b + 7), st.integers(0, 7), st.integers(0, 20)),
    st.builds(lambda a, b: 4**a * b, st.integers(1, 7), st.integers(1, 10**5 // 4**7)),
).filter(lambda m: m <= 10**5))
def test_four_squares_matches_plain_search(m):
    assert four_squares(m) == reference_four_squares(m)


def test_four_squares_on_large_powers_of_four_is_fast():
    # the plain search grew about 8x per factor 4 here (7*4^12 took 44 s)
    start = time.perf_counter()
    for k in range(26):
        m = 7 * 4**k
        fs = four_squares(m)
        assert fs.total() == m and fs.m1 >= fs.m2 >= fs.m3 >= fs.m4 >= 0
        if k >= 2:  # 7*4^k is 0 mod 8 from k = 2 on
            assert fs == tuple(2 * x for x in four_squares(m // 4))
    assert four_squares(7 * 4**25) == (5 * 2**24, 2**24, 2**24, 2**24)
    # realize inherits the search: a fourier_invariant trace with b = 7*4^12
    b = 7 * 4**12
    cert = realize("fourier_invariant", TraceValue(-GOLDEN.floor_linear(b), b), GOLDEN)
    assert verify_certificate(cert, GOLDEN).ok
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------- subalgebra embedding


def test_embedding_trivial():
    ut, vt, tp = subalgebra_generators(1, 0)
    assert ut == Element.monomial(1, 0) and vt == Element.monomial(0, 1)
    assert (tp.a, tp.b) == (0, 1)


def test_embedding_1_1():
    ut, vt, tp = subalgebra_generators(1, 1)
    assert ut == Element.monomial(1, -1, PhaseScalar.lam(-2))
    assert vt == Element.monomial(1, 1, PhaseScalar.lam(2))
    assert (tp.a, tp.b) == (0, 2)
    assert vt * ut == (ut * vt).scale(PhaseScalar.lam(8))


def test_embedding_relations_exhaustive():
    for m in range(-8, 9):
        for n in range(-8, 9):
            if (m, n) == (0, 0):
                continue
            ut, vt, tp = subalgebra_generators(m, n)
            s = m * m + n * n
            assert tp.b == s
            assert apply_automorphism("sigma", ut) * vt == ONE
            assert vt * ut == (ut * vt).scale(PhaseScalar.lam(4 * s))
            assert apply_automorphism("sigma", vt) == ut


def test_embedding_rejects_zero():
    with pytest.raises(ValueError):
        subalgebra_generators(0, 0)


# ------------------------------------------------------------------- realize


def random_target(rng, theta, kind):
    """A uniformly scattered valid target for the kind."""
    from nctorus.realization import _BY_KIND

    lo, hi, mult = _BY_KIND[kind].domain
    while True:
        b = mult * rng.choice([i for i in range(-15, 16) if i])
        # slide a into the window (0, hi); at most one candidate a exists per unit
        shift = theta.floor_linear(b)
        for base in (shift, shift + 1):
            a = -base
            if mult > 1:
                if a % mult:
                    continue
            t = TraceValue(a, b)
            if t.in_subgroup(mult) and theta.in_open_interval(t.a, t.b, lo, hi):
                return t


def test_realize_flat_golden_standard_split():
    cert = realize("flat", TraceValue(-4, 8), GOLDEN)
    assert cert.kind == "flat"
    assert (cert.a, cert.b, cert.k, cert.n, cert.m) == (1, 1, 1, 2, 1)
    assert (cert.low.p, cert.low.q, cert.high.p, cert.high.q) == (3, 5, 2, 3)
    assert verify_certificate(cert, GOLDEN).ok


def test_realize_cyclic_via_quarter_split():
    t = TraceValue(-1, 2)  # 2 theta - 1 ~ 0.236 < 1/4
    cert = realize("cyclic", t, GOLDEN)
    assert cert.kind == "cyclic"
    assert cert.flat.target == TraceValue(-4, 8)
    assert verify_certificate(cert, GOLDEN).ok


def test_realize_fourier_three_theta_minus_one():
    cert = realize("fourier_invariant", TraceValue(-1, 3), GOLDEN)
    assert cert.squares == (1, 1, 1, 0)
    assert (cert.leg1.n_shift, cert.leg2.n_shift) == (1, 0)
    assert TraceValue(-cert.leg1.n_shift, cert.leg1.scale) == TraceValue(-1, 2)
    assert TraceValue(-cert.leg2.n_shift, cert.leg2.scale) == TraceValue(0, 1)
    assert cert.k == 0 and cert.branch == "orthogonal-sum"
    assert verify_certificate(cert, GOLDEN).ok


def test_realize_reflected_flat():
    # t = 4(2 - 3 theta) ~ 0.583: negative theta-coefficient routes through reflection
    t = TraceValue(8, -12)
    cert = realize("flat", t, GOLDEN)
    assert type(cert).__name__ == "ReflectedCert"
    assert cert.inner.target == TraceValue(-4, 12)
    assert verify_certificate(cert, GOLDEN).ok


def test_realize_semicyclic_odd_target_uses_subprojection():
    t = TraceValue(-1, 2)  # odd coordinates, in (0, 1/2)
    cert = realize("semicyclic", t, GOLDEN)
    assert cert.mode == "subprojection"
    assert cert.inner.mode == "orbit-double"
    assert verify_certificate(cert, GOLDEN).ok


def test_realize_semiflat_even():
    cert = realize("semiflat", TraceValue(-2, 4), GOLDEN)
    assert cert.inner.target == TraceValue(-1, 2)
    assert verify_certificate(cert, GOLDEN).ok


def test_realize_domain_rejections():
    with pytest.raises(WrongSubgroup):
        realize("flat", TraceValue(-1, 2), GOLDEN)
    with pytest.raises(OutOfRange):
        realize("cyclic", TraceValue(-1, 2), SQRT2)  # 2 sqrt2-1 = -0.17... not in (0, 1/4)
    with pytest.raises(OutOfRange):
        realize("fourier_invariant", TraceValue(2, 0), GOLDEN)
    with pytest.raises(ValueError, match="^unknown kind 'octic' "):
        realize("octic", TraceValue(0, 1), GOLDEN)


def test_realize_and_verify_random_100_per_kind_per_preset():
    rng = random.Random(14)
    for th in PRESETS:
        for kind in KINDS:
            for _ in range(100):
                t = random_target(rng, th, kind)
                cert = realize(kind, t, th)
                report = verify_certificate(cert, th)
                assert report.ok, (kind, t, report.first_failure)
                if kind == "fourier_invariant" and hasattr(cert, "k"):
                    assert cert.k in (0, 1)


# each kind's domain (0, hi) within hZ + hZ*theta, h the subgroup multiple, as the module docstring states it
DOMAINS = {"cyclic": (Fraction(1, 4), 1), "semicyclic": (Fraction(1, 2), 1), "flat": (Fraction(1), 4),
           "semiflat": (Fraction(1), 2), "fourier_invariant": (Fraction(1), 1)}
MP_THETA = {"golden": lambda: (mpmath.sqrt(5) - 1) / 2, "sqrt2": lambda: mpmath.sqrt(2) - 1}


def _realize_outcome(kind, t, theta):
    """The rejection realize raises, or "verified" for a certificate of t that replays."""
    try:
        cert = realize(kind, t, theta)
    except (WrongSubgroup, OutOfRange) as exc:
        return type(exc)
    report = verify_certificate(cert, theta)
    return "verified" if report.ok and cert.target == t else ("fails", report.first_failure)


def test_realize_accepts_exactly_its_domain_on_a_bounded_grid():
    # every kind on |b| <= 200 and the four a that put x = a + b*theta in [-2, 2), against an oracle of
    # its own: the interval by mpmath at 60 digits, the subgroup by %
    seen, accepted, wrong = 0, 0, []
    with mpmath.workdps(60):
        for theta in PRESETS:
            value = MP_THETA[theta.name]()
            for b in range(-200, 201):
                n = -int(mpmath.floor(b * value))
                for a, x in ((a, a + b * value) for a in range(n - 2, n + 2)):
                    for kind, (hi, mult) in DOMAINS.items():
                        inside = 0 < x and x * hi.denominator < hi.numerator
                        want = WrongSubgroup if a % mult or b % mult else "verified" if inside else OutOfRange
                        got = _realize_outcome(kind, TraceValue(a, b), theta)
                        seen, accepted = seen + 1, accepted + (want == "verified")
                        if got != want:
                            wrong.append((theta.name, kind, a, b, want, got))
    assert not wrong, wrong[:10]
    assert (seen, accepted) == (16040, 1650)


# a target on golden with a positive theta-coefficient inside each kind's domain
INSIDE = {"cyclic": TraceValue(-1, 2), "semicyclic": TraceValue(-1, 2), "flat": TraceValue(-4, 8),
          "semiflat": TraceValue(-2, 4), "fourier_invariant": TraceValue(-1, 3)}


def _targets_outside(kind):
    """Targets on golden one step outside the kind's domain: off the subgroup inside the interval (for a
    proper subgroup), then in the subgroup just below 0 and just above the interval's upper end."""
    hi, m = DOMAINS[kind]
    b = 5 * m
    out = [TraceValue(-GOLDEN.floor_linear(b + 1), b + 1)] if m > 1 else []  # b + 1 is not a multiple of m
    below = m * GOLDEN.floor_ratio(0, -b, m, 0)  # the largest multiple of m under -b*theta
    above = m * (GOLDEN.floor_ratio(hi, -b, m, 0) + 1)  # the least multiple of m over hi - b*theta
    return out + [TraceValue(below, b), TraceValue(above, b)]


@pytest.mark.parametrize("kind", KINDS)
def test_realize_and_the_replay_name_the_same_set(kind):
    cert = realize(kind, INSIDE[kind], GOLDEN)
    for t in _targets_outside(kind):
        with pytest.raises((WrongSubgroup, OutOfRange)) as exc:
            realize(kind, t, GOLDEN)
        where = str(exc.value).split(" is not in ", 1)[1]
        payload = certificate_to_json(cert)
        payload["target"] = {"a": t.a, "b": t.b}  # the valid certificate moved to t
        report = verify_certificate(certificate_from_json(payload), GOLDEN)
        assert [f for f in report.failures if f[1].startswith("target not in")] == [(kind, f"target not in {where}")]


def test_a_replay_the_prefix_cannot_settle_is_one_theta_failure():
    # cf:1,1 places theta only between 1/2 and 1, and 8 theta - 4 is 0 at 1/2: the flat node's
    # domain check cannot settle its sign, and the replay stops there
    report = verify_certificate(realize("flat", TraceValue(-4, 8), GOLDEN), parse_theta("cf:1,1"))
    assert not report.ok
    assert report.failures == (("theta", "insufficient-cf-data: cannot settle sign of -4 + 8*theta"),)


def test_the_semicyclic_search_rejects_a_prefix_with_no_step_that_fits():
    # the decimal 0.3 stores only the convergent 0/1, whose step 2*theta does not fit between theta and 1/2
    with pytest.raises(PrecisionExhausted,
                       match=r"^insufficient-cf-data: no stored convergent fits a step between t and 1/2$"):
        realize("semicyclic", TraceValue(0, 1), parse_theta("0.3"))


def test_a_rejection_under_the_reflection_names_the_callers_target():
    # 0.6 reflects to the prefix [0; 2] with the interval (0.35, 0.45), and 1 - t to t over it: the stored
    # convergents 0/1 and 1/2 give no step that fits between t and 1/2, and every sign on the way settles
    with pytest.raises(PrecisionExhausted) as raised:
        realize("semicyclic", TraceValue(1, -1), parse_theta("0.6"))
    assert str(raised.value) == (
        "insufficient-cf-data: 1-t has a negative theta-coefficient and was taken to t by the angle reflection "
        "theta -> 1 - theta; in the reflected terms, no stored convergent fits a step between t and 1/2")
    # the same class, and the inner kind's own text as its cause
    assert type(raised.value.__cause__) is PrecisionExhausted
    assert str(raised.value.__cause__) == "insufficient-cf-data: no stored convergent fits a step between t and 1/2"


def test_fourier_k_always_binary(rng):
    for th in PRESETS:
        for _ in range(100):
            t = random_target(rng, th, "fourier_invariant")
            cert = realize("fourier_invariant", t, th)
            node = cert.inner if type(cert).__name__ == "ReflectedCert" else cert
            assert node.k in (0, 1)
            # combined trace below 2
            assert th.turns(t.a, t.b) + node.k < 2


# ------------------------------------------------------------------ mutations


def _mutate_integers(payload):
    """Yield copies of a JSON tree with each integer leaf bumped by +1 and -1."""

    def walk(node, path):
        if isinstance(node, dict):
            for key, val in node.items():
                yield from walk(val, path + [key])
        elif isinstance(node, list):
            for idx, val in enumerate(node):
                yield from walk(val, path + [idx])
        elif isinstance(node, bool):
            return
        elif isinstance(node, int):
            yield path, node

    for path, old in walk(payload, []):
        for delta in (1, -1):
            clone = copy.deepcopy(payload)
            cursor = clone
            for step in path[:-1]:
                cursor = cursor[step]
            cursor[path[-1]] = old + delta
            yield path, delta, clone


@pytest.mark.parametrize("kind", KINDS)
def test_single_integer_mutations_always_caught(kind):
    rng = random.Random(hash(kind) & 0xFFFF)
    for th in PRESETS:
        t = random_target(rng, th, kind)
        cert = realize(kind, t, th)
        payload = certificate_to_json(cert)
        assert verify_certificate(certificate_from_json(payload), th).ok
        count = 0
        for path, delta, mutated in _mutate_integers(payload):
            try:
                bad = certificate_from_json(mutated)
            except ValueError:
                continue  # structurally rejected is also caught
            report = verify_certificate(bad, th)
            assert not report.ok, f"mutation {path} {delta:+d} went unnoticed for {kind} {t}"
            count += 1
        assert count >= 5  # the tree really was walked


def test_tampered_flat_coefficient_fails_at_identity_node():
    cert = realize("flat", TraceValue(-4, 8), GOLDEN)
    report = verify_certificate(cert, GOLDEN)
    assert bool(report) is report.ok is True and report.first_failure is None
    payload = certificate_to_json(cert)
    payload["a"] -= 1
    report = verify_certificate(certificate_from_json(payload), GOLDEN)
    assert bool(report) is report.ok is False and report.first_failure == report.failures[0]
    assert any("split" in msg for _, msg in report.failures)


# ---------------------------------------------------------------- serialization


def test_certificate_json_roundtrip_all_kinds(rng):
    for th in PRESETS:
        for kind in KINDS:
            t = random_target(rng, th, kind)
            cert = realize(kind, t, th)
            blob = json.dumps(certificate_to_json(cert))
            back = certificate_from_json(json.loads(blob))
            assert back == cert


@pytest.mark.parametrize("node, name", [
    (realize("flat", TraceValue(-4, 8), GOLDEN).legs[0], "OrbitFlat"),
    (42, "int"),
], ids=["a leaf node", "an int"])
def test_only_a_certificate_is_serialized(node, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        certificate_to_json(node)


def test_certificate_nodes_carry_lemma_tags():
    cert = realize("semiflat", TraceValue(-2, 4), GOLDEN)
    payload = certificate_to_json(cert)

    def all_nodes(node):
        if isinstance(node, dict):
            if "node" in node:
                yield node
            for v in node.values():
                yield from all_nodes(v)
        elif isinstance(node, list):
            for v in node:
                yield from all_nodes(v)

    for node in all_nodes(payload):
        assert node.get("lemma"), f"node {node.get('node')} lacks a lemma tag"


# -------------------------------------------------------------------- density


def test_density_of_flat_and_semiflat_traces_golden():
    rng = random.Random(15)
    t = GOLDEN.turns(0, 1)
    # pick a convergent step small enough for 1e-3 lattice spacing
    p, q = next((p, q) for p, q in GOLDEN.convergents if abs(q * t - p) < 2.5e-4 and q * t - p > 0)
    d = q * t - p
    for _ in range(100):
        x = rng.uniform(1e-3, 1 - 1e-3)
        for mult, kind in ((4, "flat"), (2, "semiflat")):
            k = max(1, round(x / (mult * d)))
            tv = TraceValue(-mult * k * p, mult * k * q)
            if not GOLDEN.in_open_interval(tv.a, tv.b, 0, 1):
                k -= 1
                tv = TraceValue(-mult * k * p, mult * k * q)
            assert abs(GOLDEN.turns(tv.a, tv.b) - x) < 1e-3
            cert = realize(kind, tv, GOLDEN)
            assert verify_certificate(cert, GOLDEN).ok


# --------------------------------------------------------------- parse_trace


def test_parse_trace_grammar():
    assert parse_trace("8t-4") == TraceValue(-4, 8)
    assert parse_trace("-4+8t") == TraceValue(-4, 8)
    assert parse_trace("3t") == TraceValue(0, 3)
    with pytest.raises(ValueError):
        parse_trace("1/2t")
    with pytest.raises(ValueError):
        parse_trace("1+2i")


@pytest.mark.parametrize("a, b, text", [
    (0, 0, "0"), (1, 0, "1"), (0, 1, "t"), (0, -1, "-t"), (-4, 8, "-4+8t"), (3, -1, "3-t"),
    (True, 2, "1+2t"), (np.int64(-2), 4, "-2+4t"), (Fraction(1, 2), 3, "1/2+3t"),
])
def test_trace_value_text(a, b, text):
    assert str(TraceValue(a, b)) == text == str(KScalar(a, b))


def test_parse_trace_rejects_zero_denominators_and_non_ascii_digits():
    with pytest.raises(ChernParseError, match="zero denominator at 0"):
        parse_trace("1/0+4t")
    with pytest.raises(ChernParseError, match="zero denominator at 3"):
        parse_trace("-1+4/0t")
    with pytest.raises(ChernParseError, match="unexpected character"):
        parse_trace("\u0663+4t")


def test_shallow_prefix_reports_insufficient_data():
    from nctorus.theta import PrecisionExhausted, ThetaParam

    th = ThetaParam([1, 1, 1, 1, 1])
    # deep approximation target 4(13 theta - 8): the 5-term prefix places theta only
    # between 3/5 and 5/8, where 52 theta - 32 changes sign, so not even its domain settles
    with pytest.raises(PrecisionExhausted, match="cannot settle sign of -32 \\+ 52\\*theta"):
        realize("flat", TraceValue(-32, 52), th)


# ------------------------------------------ the stored prefix bounds the search


@pytest.mark.parametrize("theta", PRESETS, ids=["golden", "sqrt2"])
@pytest.mark.parametrize("depth", [64, 100, 150])
@pytest.mark.parametrize("kind, scale", [("flat", 4), ("cyclic", 1)])
def test_deep_convergent_targets_realize_and_verify(theta, depth, kind, scale):
    # scale * (q*theta - p) for the convergent p/q at this depth, below theta: the
    # bracketing pair past p/q lies deeper still, and every stored convergent is searched
    p, q = theta.convergents[depth]
    assert theta.sign_linear(-p, q) > 0
    cert = realize(kind, TraceValue(-scale * p, scale * q), theta)
    parsed = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    assert parsed == cert
    assert verify_certificate(parsed, theta).ok


SEARCH_THETAS = (ThetaParam([1] * 20), ThetaParam([2] * 30), GOLDEN, SQRT2)


def _drawn_certificate(kind, data):
    """(theta, realize's certificate) for m * frac(b*theta) in the kind's subgroup, b of either sign a multiple
    of a stored convergent denominator; None where the prefix cannot place it or realize rejects it."""
    from nctorus.realization import RealizationError, _BY_KIND

    theta = data.draw(st.sampled_from(SEARCH_THETAS))
    mult = _BY_KIND[kind].domain[2]
    # four_squares slows down on huge theta-coefficients; the fourier kind searches no convergents
    top = len(theta.convergents) - 1 if kind != "fourier_invariant" else min(len(theta.convergents) - 1, 40)
    q = theta.convergents[data.draw(st.integers(1, top))][1]
    b = q * data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    try:
        x = TraceValue(-theta.floor_linear(b), b)  # frac(b*theta)
    except PrecisionExhausted:
        return None
    t = x.scale(mult * data.draw(st.integers(1, 64)))
    try:
        return theta, realize(kind, t, theta)
    except (PrecisionExhausted, RealizationError):
        return None


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_realize_writes_only_certificates_that_verify(kind, data):
    """realize rejects a drawn target or returns a certificate that verifies, also where the prefix runs out."""
    if (drawn := _drawn_certificate(kind, data)) is not None:
        theta, cert = drawn
        report = verify_certificate(cert, theta)
        assert report.ok, (cert.target, report.first_failure)


# ------------------------------------ realize's certificates pass the constructors' check


def _rebuilt(value):
    """value rebuilt through the public constructors, field by field and leaf by leaf: a node (its layout
    check and chain walk), a TraceValue, Convergent, FourSquares or pair; any other value is a field,
    left as it is for the constructor of its node to judge."""
    if isinstance(value, Record):
        return type(value)(*map(_rebuilt, value._astuple(value)))
    if isinstance(value, tuple):
        parts = tuple(map(_rebuilt, value))
        return parts if type(value) is tuple else type(value)(*parts)
    return value


@pytest.mark.parametrize("spec", CONTRACT_SPECS, ids=lambda s: "-".join(s))
def test_a_contract_certificate_rebuilds_through_the_constructors(spec):
    # realize builds without the constructors' check; a field of another type than its layout's
    # (a bool, a numpy integer or a Fraction where an int belongs) would be refused here
    name, kind, trace = spec
    cert = realize(kind, parse_trace(trace), ThetaParam.preset(name))
    assert _rebuilt(cert) == cert


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_drawn_certificate_rebuilds_through_the_constructors(kind, data):
    if (drawn := _drawn_certificate(kind, data)) is not None:
        _, cert = drawn
        assert _rebuilt(cert) == cert


def test_a_rebuild_refuses_a_field_of_another_type():
    leaked = OrbitFlat._of(ApproximantCyclic._of(np.int64(1), 3, 5))  # built past the check, as realize builds
    with pytest.raises(CertificateFormatError, match=r"needs an integer k, got np.int64\(1\)$"):
        _rebuilt(leaked)


# ----------------------------------------------------------- strict parsing


def _paths_to_ints(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths_to_ints(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths_to_ints(value, path + (i,))
    elif type(node) is int:
        yield path


@pytest.mark.parametrize("kind", KINDS)
def test_non_integer_fields_are_format_errors(kind):
    rng = random.Random(len(kind))
    payload = certificate_to_json(realize(kind, random_target(rng, GOLDEN, kind), GOLDEN))
    paths = list(_paths_to_ints(payload))
    assert paths
    for path in paths:
        for wrong in (lambda v: v + 0.9, lambda v: float(v), str, lambda v: bool(v % 2)):
            clone = copy.deepcopy(payload)
            cursor = clone
            for step in path[:-1]:
                cursor = cursor[step]
            cursor[path[-1]] = wrong(cursor[path[-1]])
            with pytest.raises(CertificateFormatError):
                certificate_from_json(clone)


def test_flat_coefficient_with_fraction_is_rejected():
    payload = certificate_to_json(realize("flat", TraceValue(-4, 8), GOLDEN))
    payload["a"] = payload["a"] + 0.9
    with pytest.raises(CertificateFormatError, match="integer"):
        certificate_from_json(payload)


def _child_slots(node):
    """(dict, key) of every slot that holds a child certificate."""
    for key in ("inner", "flat"):
        if key in node:
            yield node, key
            yield from _child_slots(node[key])


def test_child_of_wrong_node_type_fails_cleanly():
    certs = [realize(kind, random_target(random.Random(7), GOLDEN, kind), GOLDEN) for kind in KINDS]
    certs.append(realize("flat", TraceValue(8, -12), GOLDEN))  # a reflected node
    donors = [certificate_to_json(cert) for cert in certs]
    swapped = 0
    for host in donors:
        for index, (node, key) in enumerate(_child_slots(host)):
            for donor in donors:
                if donor["node"] == node[key]["node"]:
                    continue
                clone = copy.deepcopy(host)
                slot, slot_key = list(_child_slots(clone))[index]
                slot[slot_key] = donor
                try:
                    cert = certificate_from_json(clone)
                except CertificateFormatError:
                    continue
                assert not verify_certificate(cert, GOLDEN).ok
                swapped += 1
    assert swapped > 20


def test_semiflat_with_flat_inner_is_a_failing_report():
    payload = certificate_to_json(realize("semiflat", TraceValue(-2, 4), GOLDEN))
    payload["inner"] = certificate_to_json(realize("flat", TraceValue(-4, 8), GOLDEN))
    report = verify_certificate(certificate_from_json(payload), GOLDEN)
    assert not report.ok
    assert report.failures[0] == ("semiflat", "semiflat needs a semicyclic inner")


@pytest.mark.parametrize("inner", [42, TraceValue(2, 1), None], ids=["int", "trace", "none"])
def test_reflected_with_a_non_certificate_inner_is_a_failing_report(inner):
    cert = ReflectedCert(TraceValue(1, -1), inner)
    assert cert.kind == "reflected"
    report = verify_certificate(cert, GOLDEN)
    assert not report.ok
    assert report.failures == (("reflected", "reflected needs a certificate inner"),)


@pytest.mark.parametrize("outer, target", [(ReflectedCert, 42), (SemiflatCert, None), (CyclicCert, 3)],
                         ids=["reflected-int", "semiflat-none", "cyclic-int"])
def test_a_target_that_is_not_a_trace_value_is_refused_at_construction(outer, target):
    # every replay reads the target as a TraceValue; a JSON certificate always has one
    cert = realize("flat", TraceValue(-4, 8), GOLDEN)
    with pytest.raises(CertificateFormatError,
                       match=f"^a {outer.tag} certificate needs a TraceValue target, got {target!r}$"):
        outer(target, cert)


# (theta, kind, trace): every node type on both angles, with reflected wrappers and both fourier branches
EVERY_NODE = [(GOLDEN, "flat", "8t-4"), (GOLDEN, "cyclic", "2t-1"), (GOLDEN, "semicyclic", "2t-1"),
              (GOLDEN, "semiflat", "2-2t"), (GOLDEN, "fourier_invariant", "18t-11"), (SQRT2, "flat", "4-8t"),
              (SQRT2, "semicyclic", "t"), (SQRT2, "semiflat", "2t"), (SQRT2, "fourier_invariant", "3-6t"),
              (SQRT2, "fourier_invariant", "t")]


def _realized(spec):
    theta, kind, trace = spec
    return realize(kind, parse_trace(trace), theta)


def _field_paths(node, prefix=()):
    """(path, declared type) of every field below node, certificate children, leaf nodes and pair members
    included; a path steps through field names and pair indexes."""
    for key, value in zip(node._fields, node._astuple(node)):
        path = (*prefix, key)
        yield path, node.layout[key]
        if type(value) is tuple:  # a pair of leaf nodes
            for i, member in enumerate(value):
                yield (*path, i), node.layout[key][i]
                yield from _field_paths(member, (*path, i))
        elif hasattr(value, "layout"):
            yield from _field_paths(value, path)


def _replaced(node, path, value):
    """node with the field at path set to value, every node on the way rebuilt through its constructor."""
    key, *rest = path
    fields = dict(zip(node._fields, node._astuple(node)))
    if rest and type(rest[0]) is int:  # a member of a pair
        i, *rest = rest
        pair = list(fields[key])
        pair[i] = _replaced(pair[i], rest, value) if rest else value
        fields[key] = tuple(pair)
    else:
        fields[key] = _replaced(fields[key], rest, value) if rest else value
    return type(node)(**fields)


def test_the_wrong_type_table_reaches_every_node_type():
    tags = set()
    for spec in EVERY_NODE:
        cert = _realized(spec)
        tags.add(cert.tag)
        for path, _ in _field_paths(cert):
            node = cert
            for step in path:
                node = node[step] if type(step) is int else getattr(node, step)
            if hasattr(node, "tag"):
                tags.add(node.tag)
    assert tags == {"flat", "orbit-flat", "cyclic-approximant", "cyclic", "semicyclic", "semiflat",
                    "fourier-invariant", "embedding-leg", "reflected"}


WRONG = [None, "x", 1.5, True, TraceValue("a", None)]


@pytest.mark.parametrize("spec", EVERY_NODE, ids=lambda s: f"{s[0].name}-{s[1]}-{s[2]}")
def test_a_field_of_the_wrong_type_is_refused_at_construction(spec):
    cert, cases = _realized(spec), 0
    for path, declared in _field_paths(cert):
        if declared is _Certificate:  # the child is checked by the replay, not here
            continue
        key = path[-1] if type(path[-1]) is str else path[-2]  # a pair member is checked as its pair
        for wrong in WRONG:
            if type(wrong) is declared:  # a string is a string field's own type
                continue
            with pytest.raises(CertificateFormatError, match=f" {key}, got "):
                _replaced(cert, path, wrong)
            cases += 1
    assert cases


@pytest.mark.parametrize("path, value, message", [
    (("k",), None, "a flat certificate needs an integer k, got None"),
    (("m",), True, "a flat certificate needs an integer m, got True"),
    (("target",), TraceValue("a", None), "a flat certificate needs a TraceValue target, got TraceValue(a='a', b=None)"),
    (("target",), TraceValue(-4, 8.0), "a flat certificate needs a TraceValue target, got TraceValue(a=-4, b=8.0)"),
    (("low",), (3, 5), "a flat certificate needs a Convergent low, got (3, 5)"),
    (("legs",), None, "a flat certificate needs two 'orbit-flat' legs, got None"),
    (("legs", 0), None, "a flat certificate needs two 'orbit-flat' legs, got (None, OrbitFlat("),
    (("legs", 1, "leaf"), None, "a orbit-flat node needs a 'cyclic-approximant' leaf, got None"),
    (("legs", 1, "leaf", "q"), "5", "a cyclic-approximant node needs an integer q, got '5'"),
])
def test_field_messages_name_the_node_the_field_and_the_value(path, value, message):
    with pytest.raises(CertificateFormatError) as info:
        _replaced(realize("flat", TraceValue(-4, 8), GOLDEN), path, value)
    assert str(info.value).startswith(message)


_FLAT = realize("flat", TraceValue(-4, 8), GOLDEN)
_FOURIER = realize("fourier_invariant", TraceValue(-11, 18), GOLDEN)
# nodes and pairs of them, taken from valid certificates
PARTS = [_FLAT, _FLAT.legs, _FLAT.legs[0].leaf, _FOURIER, _FOURIER.legs, realize("cyclic", TraceValue(-1, 2), GOLDEN),
         realize("semiflat", TraceValue(-2, 4), GOLDEN).inner]

# any value a field might be given from Python: the JSON kinds, tuples, lists and records with odd parts
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**6), 10**6), st.floats(allow_nan=False), st.text(max_size=3),
    st.sampled_from(["orbit-double", "subprojection", "orthogonal-sum", "complement-subtraction"]),
    st.builds(TraceValue, st.integers(-50, 50) | st.none(), st.integers(-50, 50) | st.text(max_size=1)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.lists(st.integers(-9, 9), max_size=4).map(tuple),
    st.builds(Convergent, st.integers(-9, 9), st.integers(-9, 9)),
    st.builds(FourSquares, *[st.integers(-3, 3)] * 4),
    st.sampled_from([*PARTS, *(pair[0] for pair in PARTS if type(pair) is tuple)]),
    st.lists(st.sampled_from([*PARTS, None]), min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(EVERY_NODE), st.integers(0, 10**6), ANY_VALUE)
def test_one_field_replaced_by_any_value_is_refused_or_replays_to_a_report(spec, pick, value):
    cert = _realized(spec)
    paths = [path for path, _ in _field_paths(cert)]
    path = paths[pick % len(paths)]
    try:
        node = _replaced(cert, path, value)
    except CertificateFormatError:
        return
    report = verify_certificate(node, spec[0])
    assert isinstance(report.ok, bool) and isinstance(report.failures, tuple)


# ---------------------------------------------------------- nesting limit


def _reflected_chain(depth):
    cert = realize("flat", TraceValue(-4, 8), GOLDEN)
    for _ in range(depth):
        cert = ReflectedCert(TraceValue(1, -1), cert)
    return cert


def _nested(depth, leaf):
    """The certificate parsed from the JSON leaf under ``depth`` reflected wrappers."""
    return certificate_from_json(json.loads(reflected_chain_json(depth, leaf)))


def _chain(cert):
    """The certificates of a chain from the root in, as (tag, mode) pairs; mode is None off semicyclic nodes."""
    links = [(cert.tag, getattr(cert, "mode", None))]
    while cert._child:
        cert = getattr(cert, cert._child)
        links.append((cert.tag, getattr(cert, "mode", None)))
    return links


@pytest.mark.parametrize("t, theta", [("2-2t", GOLDEN), ("2-4t", SQRT2)], ids=["golden", "sqrt2"])
def test_the_deepest_realize_chain_nests_max_nesting_and_verifies(t, theta):
    cert = realize("semiflat", parse_trace(t), theta)
    assert _chain(cert) == [("reflected", None), ("semiflat", None), ("semicyclic", "subprojection"),
                            ("semicyclic", "orbit-double"), ("cyclic", None), ("flat", None)]
    assert len(_chain(cert)) == MAX_NESTING + 1
    assert verify_certificate(cert, theta).ok
    data = certificate_to_json(cert)
    assert certificate_from_json(json.loads(json.dumps(data))) == cert
    # one level deeper is refused both ways a chain is made
    with pytest.raises(CertificateFormatError,
                       match=f"^a certificate nests at most {MAX_NESTING} certificates below its root$"):
        ReflectedCert(cert.target.reflected(), cert)
    with pytest.raises(CertificateFormatError, match="^the certificate is nested too deeply to read$"):
        _nested(1, data)


@pytest.mark.parametrize("outer", [ReflectedCert, SemiflatCert])
def test_construction_refuses_a_chain_deeper_than_max_nesting(outer):
    cert = _reflected_chain(MAX_NESTING - 1)
    assert len(_chain(outer(TraceValue(1, -1), cert))) == MAX_NESTING + 1
    with pytest.raises(CertificateFormatError, match=f"nests at most {MAX_NESTING} certificates"):
        outer(TraceValue(1, -1), ReflectedCert(TraceValue(1, -1), cert))


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, MAX_NESTING + 2, 500])
@pytest.mark.parametrize("leaf", ["flat", "garbage"])
def test_parser_refuses_json_nested_deeper_than_max_nesting(depth, leaf):
    # checked on the way down: what lies past the limit is never read
    with pytest.raises(CertificateFormatError, match="^the certificate is nested too deeply to read$"):
        _nested(depth, _flat_json() if leaf == "flat" else [1])


def test_a_max_nesting_deep_json_chain_gives_a_failing_report():
    cert = _nested(MAX_NESTING, _flat_json())
    assert cert.kind == "flat" and len(_chain(cert)) == MAX_NESTING + 1
    report = verify_certificate(cert, GOLDEN)
    assert not report.ok
    assert report.failures[0] == ("flat", "inner target is not the reflected target")


def test_replay_at_the_limit_reaches_the_innermost_node():
    data = _flat_json()
    data["a"] += 1
    report = verify_certificate(_nested(MAX_NESTING, data), GOLDEN)
    innermost = "flat" + ".inner" * MAX_NESTING
    assert report.failures[-1][0] == innermost
    assert (innermost, "first leg does not carry (a, low)") in report.failures


def _record_repr(value):
    """The repr Record gives, by recursion over the fields: ``Name(field=value, ...)``."""
    if not isinstance(value, Record):
        return repr(value)
    body = ", ".join(f"{f}={_record_repr(getattr(value, f))}" for f in value._fields)
    return f"{type(value).__qualname__}({body})"


def test_chains_at_max_nesting_compare_hash_print_and_pickle():
    data = _flat_json()
    leaves = (data, data, dict(data, a=data["a"] + 1))  # the third differs in the innermost field a alone
    cert, twin, other = (_nested(MAX_NESTING, leaf) for leaf in leaves)
    assert cert is not twin and cert == twin and not (cert != twin)
    assert hash(cert) == hash(twin)
    assert cert != other and not (cert == other)
    for copied in (pickle.loads(pickle.dumps(cert)), copy.copy(cert), copy.deepcopy(cert)):
        assert type(copied) is ReflectedCert and copied == cert and hash(copied) == hash(cert)
    text = repr(cert)
    assert text.count("ReflectedCert(target=TraceValue(a=1, b=-1), inner=") == MAX_NESTING
    assert text.endswith(_record_repr(certificate_from_json(data)) + ")" * MAX_NESTING)


def test_certificate_repr_is_the_record_repr_up_to_depth_5():
    certs = [_reflected_chain(depth) for depth in range(6)]
    certs += [realize(kind, parse_trace(t), theta) for kind, t, theta in (
        ("semiflat", "2-2t", GOLDEN), ("semicyclic", "1-t", GOLDEN), ("cyclic", "2t-1", GOLDEN),
        ("fourier_invariant", "-t+1", SQRT2))]
    for cert in certs:
        assert repr(cert) == _record_repr(cert)


def _flat_json():
    return certificate_to_json(realize("flat", TraceValue(-4, 8), GOLDEN))


def _semicyclic_json():
    return certificate_to_json(realize("semicyclic", TraceValue(-1, 2), GOLDEN))


def _fourier_json():
    return certificate_to_json(realize("fourier_invariant", TraceValue(-1, 3), GOLDEN))


def _set(data, path, value):
    cursor = data
    for step in path[:-1]:
        cursor = cursor[step]
    cursor[path[-1]] = value
    return data


@pytest.mark.parametrize("data, message", [
    (_set(_flat_json(), ("legs", 0, "node"), "embedding-leg"),
     "certificate.legs[0]: expected node tag 'orbit-flat', got 'embedding-leg'"),
    (_set(_flat_json(), ("legs", 1, "leaf", "node"), "cyclic"),
     "certificate.legs[1].leaf: expected node tag 'cyclic-approximant', got 'cyclic'"),
    (_set(_fourier_json(), ("legs", 1, "node"), "orbit-flat"),
     "certificate.legs[1]: expected node tag 'embedding-leg', got 'orbit-flat'"),
    (_set(_semicyclic_json(), ("mode",), ["subprojection"]),
     "certificate.mode: expected a string, got ['subprojection']"),
    (_set(_fourier_json(), ("branch",), 0), "certificate.branch: expected a string, got 0"),
    (_set(_semicyclic_json(), ("mode",), "orbit-double"),
     "certificate: a semicyclic node has lemma 'flip-orbit-double', not 'invariant-subprojection'"),
    (_set(_flat_json(), ("low", "r"), 1), "certificate.low: expected the integers p, q, got {'p': 3, 'q': 5, 'r': 1}"),
    (_set(_flat_json(), ("extra",), 1), "certificate: missing keys [], unexpected keys ['extra']"),
    (_set(_flat_json(), ("target",), {"a": -4}), "certificate.target: expected the integers a, b, got {'a': -4}"),
    (_set(_flat_json(), ("squares",), [1, 1, 1, 0]), "certificate: missing keys [], unexpected keys ['squares']"),
    (_set(_fourier_json(), ("squares",), [1, 1, True, 0]),
     "certificate.squares: expected the integers m1, m2, m3, m4, got [1, 1, True, 0]"),
    (_set(_flat_json(), ("legs",), [_flat_json()["legs"][0]]),
     "certificate.legs: expected a list of two 'orbit-flat' nodes"),
    (_set(_semicyclic_json(), ("inner", "node"), "orbit-flat"),
     "certificate.inner: unknown certificate node tag 'orbit-flat'"),
    (_set(_semicyclic_json(), ("inner",), [1]), "certificate.inner: expected an object, got list"),
    ([_flat_json()], "certificate: expected an object, got list"),
    # a leaf node and an integer record alike must be exactly a dict, as json.loads makes them
    (_set(_flat_json(), ("legs", 0, "leaf"), leaf := OrderedDict(_flat_json()["legs"][0]["leaf"])),
     f"certificate.legs[0].leaf: expected an object, got {leaf!r}"),
    (_set(_flat_json(), ("target",), target := OrderedDict(a=-4, b=8)),
     f"certificate.target: expected an object, got {target!r}"),
])
def test_strict_parse_messages(data, message):
    with pytest.raises(CertificateFormatError) as info:
        certificate_from_json(data)
    assert str(info.value) == message
