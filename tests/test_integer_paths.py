"""The certify path's integer arithmetic against the Fraction code it replaced.

``parse_kscalar`` sums integer numerators over one denominator; the parser
it replaced, which summed one ``Fraction`` per atom, is kept below
verbatim (its helpers are imported, not redefined), and the two must agree
on every text: the same ``KScalar``, or a ``ChernParseError`` with the same
message and position.  ``parse_trace`` is held to the old parse-then-check
on top of it.  The interval test, the floor of a ratio and the bracketing
pair search put integer forms to the bracket; each is checked against the
Fraction version on int and Fraction inputs, and every sign decision gives
an int argument the outcome of its Fraction, bool or numpy twin.  Last, the
count of Fractions each step of the certify path builds is pinned, and so
is the count of arguments realize and verify send through the rational
normaliser, and how often a vector's lattice system is solved and realize
splits a flat node, and that the parser and realize build no node through a constructor.
"""

import copy
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nctorus.lattice import (
    KScalar,
    ChernParseError,
    decompose,
    parse_chern,
    parse_kscalar,
    recompose,
    semiflat_coordinates,
    semiflat_membership,
    synthesis_recipe,
)
from nctorus import lattice, realization, theta as theta_module
from nctorus.cli import main
from nctorus.realization import (
    KINDS,
    Convergent,
    FlatCert,
    CertificateFormatError,
    TraceValue,
    _bracketing_pair,
    certificate_from_json,
    certificate_to_json,
    parse_trace,
    realize,
    verify_certificate,
)
from nctorus.theta import _KS_SLOTS, _KS_TOKEN, PrecisionExhausted, ThetaParam, _parse_numerators, _read_ratio, parse_theta

from test_theta import THETAS, reference_floor_ratio, reference_sign_linear

# ---------------------------------------------- reference (verbatim, Fraction parser)


def reference_parse_kscalar(text: str, pos: int = 0, end: Optional[int] = None) -> KScalar:
    """Parse the ``a+bt+ci+dti`` grammar in ``text[pos:end]``.

    One optional sign may lead; every later atom needs exactly one sign
    before it, and the text may not end in a sign.  Error positions are
    indices into the whole of ``text``.
    """
    end = len(text) if end is None else end
    total = [Fraction(0)] * 4
    sign = None  # the sign read since the last atom, if any
    saw_any = False
    while pos < end:
        m = _KS_TOKEN.match(text, pos, end)
        if m is None:
            junk = text[pos:end].lstrip()
            if junk:
                raise ChernParseError(f"unexpected character {junk[0]!r} at {end - len(junk)}")
            break
        tok, start = m.group(1), m.start(1)
        pos = m.end()
        if tok in ("+", "-"):
            if sign is not None:
                raise ChernParseError(f"second sign in a row at {start}")
            sign = -1 if tok == "-" else 1
            continue
        if saw_any and sign is None:
            raise ChernParseError(f"missing sign before {tok!r} at {start}")
        coef = Fraction(sign or 1)
        if tok not in _KS_SLOTS:
            coef *= Fraction(*_read_ratio(tok, lambda message: ChernParseError(f"{message} at {start}")))
            rest = _KS_TOKEN.match(text, pos, end)
            if rest and rest.group(1) in _KS_SLOTS:
                tok = rest.group(1)
                pos = rest.end()
        total[_KS_SLOTS.get(tok, 0)] += coef
        sign = None
        saw_any = True
    if sign is not None:
        raise ChernParseError("trailing sign")
    if not saw_any:
        raise ChernParseError("empty scalar")
    return KScalar(*total)


def reference_parse_trace(text: str) -> TraceValue:
    s = reference_parse_kscalar(text)
    if s.c or s.d:
        raise ValueError("trace values are real: no i parts allowed")
    if s.a.denominator != 1 or s.b.denominator != 1:
        raise ValueError("trace values need integer coordinates over {1, theta}")
    return TraceValue(int(s.a), int(s.b))


def outcome(f, *args):
    """f's value, or the type and message of the ValueError or PrecisionExhausted it raised."""
    try:
        return f(*args)
    except (ValueError, PrecisionExhausted) as exc:
        return type(exc), str(exc)


# ------------------------------------------------------------------ texts

_number = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 10**4), st.integers(0, 12)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)
_atom = st.tuples(
    st.sampled_from(("", "+", "-", " - ", "+ ")),
    st.one_of(st.just(""), _number),
    st.sampled_from(("", "t", "i", "ti", "it", " t")),
).map("".join)
_junk = st.sampled_from(("", "", "", "+", "-", "*", "^", "(", "/", " 7", "x", "tt", "--", " ", "1/", "/2"))
_texts = st.tuples(st.lists(_atom, min_size=0, max_size=5).map("".join), _junk).map("".join)
_soup = st.text(alphabet="0123456789/+-ti x", max_size=14)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_texts, _soup))
@example("1/2 + 1/3t - 5/6i + 7/4ti")  # four denominators
@example("1/2 - 1/2 + 3/6t")  # widened and back
@example("1/0t")
@example("2/4 - t 1")
@example(" ")
def test_parse_kscalar_matches_the_fraction_parser(text):
    got, want = outcome(parse_kscalar, text), outcome(reference_parse_kscalar, text)
    assert got == want
    if isinstance(got, KScalar):
        assert {type(x) for x in (got.a, got.b, got.c, got.d)} == {Fraction}


@settings(max_examples=400, deadline=None)
@given(st.one_of(_texts, _soup), st.integers(0, 4), st.integers(0, 4))
def test_parse_kscalar_in_a_window_matches_the_fraction_parser(text, cut_start, cut_end):
    # a window of text is how parse_chern reads each slot
    text = "(" + text + ";"
    pos, end = min(cut_start, len(text)), max(len(text) - cut_end, 0)
    assert outcome(lambda *window: KScalar._of(*_parse_numerators(*window)), text, pos, end) == outcome(
        reference_parse_kscalar, text, pos, end)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_texts, _soup))
@example("6/3 - 8/2t")
@example("1/2 + 1/2 + 2t")
@example("1/3t")
def test_parse_trace_matches_the_fraction_parse(text):
    assert outcome(parse_trace, text) == outcome(reference_parse_trace, text)


# ------------------------------------------------------------ sign decisions


def reference_in_open_interval(th, a, b, lo, hi):
    """lo < a + b*theta < hi by two reference signs over Fractions; an unsettled sign raises
    with the message the Fraction version gave."""
    a = Fraction(a)
    for bound, want in ((lo, 1), (hi, -1)):
        shifted = a - bound
        try:
            sign = reference_sign_linear(th, shifted, b)
        except PrecisionExhausted:
            raise PrecisionExhausted(f"insufficient-cf-data: cannot settle sign of {shifted} + {b}*theta") from None
        if sign != want:
            return False
    return True


_big = st.sampled_from(range(25)).flatmap(lambda e: st.integers(-(10**e), 10**e))
_rat = st.one_of(_big, st.builds(Fraction, _big, st.integers(1, 10**4)))
_bounds = st.sampled_from((0, 1, Fraction(1, 4), Fraction(1, 2), -1, Fraction(-3, 7), Fraction(5, 3)))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(THETAS), _rat, _rat, _bounds, _bounds, st.booleans())
def test_in_open_interval_matches_the_fraction_version(th, a, b, lo, hi, near):
    if near:  # put a + b*theta next to lo, where the bracket decides
        a = lo - b * Fraction(*th.convergents[-1]) + a % 3
    assert outcome(th.in_open_interval, a, b, lo, hi) == outcome(reference_in_open_interval, th, a, b, lo, hi)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(THETAS), _rat, _rat, st.integers(1, 10**6), _rat, st.integers(1, 10**3))
def test_floor_ratio_on_fractions_matches_the_reference_walk(th, a, b, c, d, scale):
    # c + d*theta > 0 when c >= |d| + 1, as 0 < theta < 1; scale makes c a Fraction too
    c = Fraction(c + math.ceil(abs(d)), scale)
    d = Fraction(d) / scale
    got = outcome(th.floor_ratio, a, b, c, d)
    assert got == outcome(th.floor_ratio, *(Fraction(x) for x in (a, b, c, d)))
    want = outcome(reference_floor_ratio, th, a, b, c, d)
    assert got == want or got[0] is want[0] is PrecisionExhausted


def reference_bracketing_pair(theta, bound):
    """The Fraction search _bracketing_pair replaced."""
    pq = theta.convergents
    for j in range(len(pq) - 1):
        x, y = Convergent(*pq[j]), Convergent(*pq[j + 1])
        low, high = (x, y) if Fraction(x.p, x.q) < Fraction(y.p, y.q) else (y, x)
        if Fraction(low.p, low.q) > bound:
            if theta.sign_linear(-low.p, low.q) > 0 and theta.sign_linear(high.p, -high.q) > 0:
                return low, high
    raise PrecisionExhausted(f"insufficient-cf-data: no pair of stored convergents brackets theta past {bound}")


_pair_thetas = THETAS + (ThetaParam([1]), ThetaParam([3, 1]), ThetaParam([100] * 12))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_pair_thetas),
    st.one_of(st.integers(-2, 1), st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))),
)
def test_bracketing_pair_matches_the_fraction_search(th, bound):
    got = outcome(_bracketing_pair, th, *bound.as_integer_ratio())
    assert got == outcome(reference_bracketing_pair, th, bound)


def test_bracketing_pair_near_a_convergent_bound():
    th = ThetaParam.preset("golden")
    for p, q in th.convergents[:40]:
        for bound in (Fraction(p, q), Fraction(p * 10**6 - 1, q * 10**6), Fraction(p * 10**6 + 1, q * 10**6)):
            got = outcome(_bracketing_pair, th, *bound.as_integer_ratio())
            assert got == outcome(reference_bracketing_pair, th, bound)


# ------------------------------------------------- int arguments and their twins


def decision(f, *args):
    """f's value, or the type and message of whatever it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _twin(x: int, how: str):
    """x as another type where that type holds it: a Fraction, a bool or a numpy int64."""
    if how == "fraction":
        return Fraction(x)
    if how == "bool" and x in (0, 1):
        return bool(x)
    if how == "int64" and -(2**63) <= x < 2**63:
        return np.int64(x)
    return x


def _as_ints(got):
    """A message names a bool argument as True or False; its int twin as 1 or 0."""
    if isinstance(got, tuple):
        return got[0], re.sub(r"\bFalse\b", "0", re.sub(r"\bTrue\b", "1", got[1]))
    return got


# the presets and the rest of THETAS, the certify angle [0; 100, 100, ...] (a bracket of 1064-bit
# integers), decimals whose interval clips the bracket, and prefixes too short for many signs
_TWIN_THETAS = THETAS + (
    parse_theta("cf:" + ",".join(["100"] * 160)),
    parse_theta("0.5"),
    parse_theta("0.25e0"),
    parse_theta("cf:1"),
    parse_theta("cf:2"),
    parse_theta("cf:1,1"),
    parse_theta("cf:3,1"),
)
_QUERIES = {  # name -> (query, its number of arguments)
    "sign_linear": (ThetaParam.sign_linear, 2),
    "in_open_interval": (ThetaParam.in_open_interval, 4),
    "floor_ratio": (ThetaParam.floor_ratio, 4),
    "floor_linear": (ThetaParam.floor_linear, 1),
}
_int = st.one_of(
    st.integers(-3, 3),
    st.sampled_from((8, 64, 200, 1100, 2500)).flatmap(lambda e: st.integers(-(2**e), 2**e)),
)
_how = st.sampled_from(("int", "fraction", "bool", "int64"))


@settings(max_examples=800, deadline=None)
@given(
    st.sampled_from(_TWIN_THETAS),
    st.sampled_from(sorted(_QUERIES)),
    st.lists(_int, min_size=4, max_size=4),
    st.lists(_how, min_size=4, max_size=4),
    st.booleans(),
)
@example(parse_theta("cf:2"), "sign_linear", [0, 1, 0, 0], ["bool"] * 4, False)  # unsettled: theta itself
@example(parse_theta("cf:1"), "in_open_interval", [0, 1, 0, 1], ["bool", "bool", "int", "int"], False)
@example(parse_theta("cf:1,1"), "floor_ratio", [0, 2, 1, 0], ["int64"] * 4, False)  # 2*theta near 1
@example(ThetaParam.preset("golden"), "in_open_interval", [-3, 5, 0, 1], ["int", "int", "fraction", "int"], False)
def test_int_arguments_decide_as_their_twins_do(th, name, ints, hows, near):
    query, arity = _QUERIES[name]
    ints = ints[:arity]
    if near and arity > 1:  # put a + b*theta next to a bound or an integer multiple, where the bracket decides
        p, q = th.convergents[-1]
        ints[0] = -(ints[1] * p // q) + ints[0] % 3 - 1
    if name == "in_open_interval":  # small bounds, so the interval test is not decided by its size alone
        ints[2:] = [ints[2] % 3 - 1, ints[3] % 3]
    want = decision(query, th, *ints)
    assert decision(query, th, *map(Fraction, ints)) == want
    assert _as_ints(decision(query, th, *map(_twin, ints, hows))) == want


def test_int_fast_path_takes_exact_ints_only():
    assert theta_module._integer_form(3, -4, 5) == (3, -4, 5, 0)
    assert theta_module._integer_form(Fraction(1, 2), 1, Fraction(1, 3)) == (3, 6, 2, 0)
    for x in (True, np.int64(7), Fraction(7), 7.0):  # each goes through the rational branch, and reads as itself
        assert theta_module._integer_form(x, 2) == (int(x), 2, 0, 0)
        assert all(type(v) is int for v in theta_module._integer_form(x, 2))


# ------------------------------------------------------------------ call counts


@pytest.fixture
def calls(monkeypatch):
    """count(module, name, f, *args): f's value and the number of calls it made to ``module.name``."""

    def count(module, name, f, *args):
        original, made = getattr(module, name), []

        def counting(*a):
            made.append(a)
            return original(*a)

        monkeypatch.setattr(module, name, counting)
        try:
            return f(*args), len(made)
        finally:
            monkeypatch.undo()

    return count


# (kind, integer target on golden, arguments realize reads, arguments verify reads) through the rational
# normaliser.  The (0, 1) domains and every sign and floor on integer forms read none; an interval test
# against 1/4 or 1/2 reads four (a, b and both bounds).  realize makes one for a cyclic or semicyclic
# target, once (the reflected target of a negative theta-coefficient is not checked again), and one more
# for a subprojection's bound; the replay makes one per cyclic or semicyclic node
RATIONALS_READ = [
    ("flat", TraceValue(-24, 40), 0, 0),
    ("flat", TraceValue(28, -44), 0, 0),  # reflected
    ("cyclic", TraceValue(-1, 2), 4, 4),
    ("cyclic", TraceValue(2, -3), 4, 4),
    ("semicyclic", TraceValue(-2, 4), 4, 8),  # orbit-double over a cyclic
    ("semicyclic", TraceValue(-3, 5), 8, 12),  # subprojection under an orbit-double bound
    ("semicyclic", TraceValue(2, -3), 8, 12),
    ("semiflat", TraceValue(-2, 4), 4, 12),
    ("semiflat", TraceValue(4, -6), 4, 12),
    ("fourier_invariant", TraceValue(-3, 5), 0, 0),
    ("fourier_invariant", TraceValue(9, -14), 0, 0),
]


def test_the_count_rows_cover_every_kind():
    assert {row[0] for row in RATIONALS_READ} == set(KINDS)


@pytest.mark.parametrize("kind, t, realize_read, verify_read", RATIONALS_READ, ids=str)
def test_realize_and_verify_send_integer_forms_straight_to_the_bracket(kind, t, realize_read, verify_read, calls):
    golden = ThetaParam.preset("golden")
    realize(kind, t, golden)  # the reflection's convergents and bracket are built outside the count
    cert, read = calls(theta_module, "_rational", realize, kind, t, golden)
    assert read == realize_read
    report, read = calls(theta_module, "_rational", verify_certificate, cert, golden)
    assert report.ok and read == verify_read


@pytest.mark.parametrize("kind, t", [row[:2] for row in RATIONALS_READ], ids=str)
def test_realize_splits_each_flat_node_once(kind, t, calls):
    golden = ThetaParam.preset("golden")
    cert, splits = calls(realization, "_canonical_knm", realize, kind, t, golden)
    node, flat_nodes = cert, 0
    while node is not None:
        flat_nodes += isinstance(node, FlatCert)
        node = getattr(node, node._child) if node._child else None
    assert flat_nodes == (kind != "fourier_invariant") and splits == flat_nodes


CONTRACT = json.loads((Path(__file__).parent / "data" / "certificate_contract.json").read_text())


@pytest.mark.parametrize("entry", CONTRACT, ids=lambda entry: "-".join(entry["spec"]))
def test_the_parser_builds_each_node_once(entry, calls):
    # every field is checked as it is read, so no node goes through the constructor's check again
    cert, made = calls(realization._Node, "__init__", certificate_from_json, json.loads(entry["json"]))
    assert made == 0
    assert certificate_to_json(cert) == json.loads(entry["json"])


@pytest.mark.parametrize("kind, t", [row[:2] for row in RATIONALS_READ], ids=str)
def test_realize_builds_each_node_once(kind, t, calls):
    cert, made = calls(realization._Node, "__init__", realize, kind, t, ThetaParam.preset("golden"))
    assert made == 0
    # the count sees the constructor: a copy rebuilds the root through it
    assert calls(realization._Node, "__init__", copy.copy, cert) == (cert, 1)


# one vector per reason on golden
CONE_VECTORS = {
    "(2t;0,0;1,1,2)": None,
    "(-2+4t; 0, 0; -2, 10, 6)": None,
    "(1/2;0,0;0,0,0)": "not-in-lattice",
    "(1;1,0;1,0,0)": "psi10-nonzero",
    "(1;0,1;0,1,0)": "psi11-nonzero",
    "(-2t;0,0;-1,-1,-2)": "nonpositive-trace",
}


@pytest.mark.parametrize("vector, reason", CONE_VECTORS.items())
def test_a_cone_run_solves_its_lattice_system_once(vector, reason, calls, capsys):
    code, solves = calls(lattice, "_solve_exact", main, ["cone", "--theta", "golden", "--vector", vector, "--json"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0 and record["reason"] == reason and (record["recipe"] is None) is (reason is not None)
    assert solves == 1


def test_a_synthesis_recipe_solves_once(calls):
    recipe, solves = calls(lattice, "_solve_exact", synthesis_recipe, parse_chern("(-2+4t; 0, 0; -2, 10, 6)"),
                           ThetaParam.preset("golden"))
    assert recipe.flat_trace == KScalar(-28, -16) and solves == 1


@pytest.mark.parametrize("vector, reason", CONE_VECTORS.items())
def test_one_vector_is_solved_once_whichever_queries_ask(vector, reason, calls):
    golden, v = ThetaParam.preset("golden"), parse_chern(vector)

    def every_query():
        decision = semiflat_membership(v, golden)
        return decompose(v), decision, synthesis_recipe(v, golden) if decision else None

    (res, decision, recipe), solves = calls(lattice, "_solve_exact", every_query)
    assert decision.reason == reason and (res.status == "ok") is (reason != "not-in-lattice")
    assert (recipe is None) is (reason is not None) and solves == 1


def test_equal_vectors_keep_their_own_solves(calls):
    # the solve lives with its vector: no table keyed by numerators carries it to an equal one
    vectors = [parse_chern("(2t;0,0;1,1,2)") for _ in range(3)]
    results, solves = calls(lattice, "_solve_exact", lambda: [decompose(v) for v in vectors + vectors])
    assert len(set(map(repr, results))) == 1 and solves == 3


def test_a_refused_certificate_is_diagnosed_under_its_json_path():
    data = certificate_to_json(realize("semiflat", TraceValue(4, -6), ThetaParam.preset("golden")))
    leaf = data["inner"]["inner"]["inner"]["inner"]["flat"]["legs"][1]["leaf"]
    leaf["k"] = 1.5
    with pytest.raises(CertificateFormatError) as exc:
        certificate_from_json(data)
    assert str(exc.value) == "certificate.inner.inner.inner.inner.flat.legs[1].leaf.k: expected an integer, got 1.5"


# -------------------------------------------------------------- Fraction counts


@pytest.fixture
def fractions_built(monkeypatch):
    """count(f, *args): f's value and the number of Fractions its call constructed."""
    original = Fraction.__new__

    def count(f, *args):
        built = []

        def counting_new(cls, *a, **kw):
            built.append(a)
            return original(cls, *a, **kw)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        try:
            return f(*args), len(built)
        finally:
            monkeypatch.undo()

    return count


def test_certify_steps_build_only_their_outputs_fractions(fractions_built):
    golden = ThetaParam.preset("golden")
    # genus (-2, 10, 6) over all three basic genera; flat trace -28 - 16t
    member = recompose(semiflat_coordinates(-3, -1, 1, 3, 3))
    assert member == parse_chern("(-2+4t; 0, 0; -2, 10, 6)")
    decompose(member), golden.floor_linear(7)  # the one-time elimination and bracket run outside the counts

    scalar = KScalar(Fraction(1, 2), Fraction(3, 4), -5, Fraction(1, 3))
    assert fractions_built(parse_kscalar, "1/2 + 3/4t - 5i + 2/6ti") == (scalar, 0)
    assert fractions_built(parse_chern, "(-2+4t; 0, 0; -2, 10, 6)") == (member, 0)
    assert fractions_built(parse_trace, "12-7t") == (TraceValue(12, -7), 0)
    assert fractions_built(parse_trace, "3/3 + 6/2t - 4/4") == (TraceValue(0, 3), 0)
    assert fractions_built(golden.in_open_interval, -3, 5, 0, 1) == (True, 0)
    assert fractions_built(golden.in_open_interval, -3, 5, Fraction(1, 4), Fraction(1, 2)) == (False, 0)
    assert fractions_built(golden.floor_linear, 10**12) == (618033988749, 0)
    assert fractions_built(golden.floor_ratio, 7, -2, 3, 1) == (1, 0)
    # 40t - 24 = 8(5t - 3) splits over the convergents 8/13 < theta < 5/8 with the bracket by integers
    cert, built = fractions_built(realize, "flat", TraceValue(-24, 40), golden)
    assert (cert.a, cert.b, cert.low, cert.high) == (2, 2, Convergent(8, 13), Convergent(5, 8)) and built == 0
    # decompose keeps its rational coordinates as numerators; reading ``rational`` builds the nine Fractions
    res, built = fractions_built(decompose, member)
    assert tuple(res.coordinates) == (-3, -1, 1, 3, -1, 1, 2, -1, 3) and built == 0
    assert fractions_built(lambda: res.rational) == (tuple(map(Fraction, res.coordinates)), 9)
    decision, built = fractions_built(semiflat_membership, member, golden)
    assert decision and decision.genus.as_tuple() == (-2, 10, 6) and built == 0
    # the lattice values are integer numerators: the recipe, its check and recompose build none
    recipe, built = fractions_built(synthesis_recipe, member, golden)
    assert recipe.flat_trace == KScalar(-28, -16) and built == 0
    assert fractions_built(recompose, decision.coordinates) == (member, 0)
