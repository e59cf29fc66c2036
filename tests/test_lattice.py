import math
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nctorus.algebra import ONE
from nctorus.lattice import (
    ChernParseError,
    ChernVector,
    Genus,
    K0Coordinates,
    KScalar,
    basis_rank,
    basis_vectors,
    chern_from_t4,
    chern_to_text,
    decompose,
    genus_basis_decompose,
    kscalar_to_text,
    parse_chern,
    parse_kscalar,
    quantization_check,
    recompose,
    semiflat_coordinates,
    semiflat_membership,
    synthesis_recipe,
    _solve_exact,
)
from nctorus.theta import ThetaParam
from nctorus.traces import chern_T4

GOLDEN = ThetaParam.preset("golden")


# ------------------------------------------------ Fraction references, read off the public fields


def flatten(v):
    """v's 24 entries as Fractions, slot by slot over (1, theta, i, i*theta)."""
    return tuple(x for s in v.slots() for x in (s.a, s.b, s.c, s.d))


def reference_combination(terms):
    """sum n * v over (n, v) pairs, entry by entry in Fractions."""
    total = [Fraction(0)] * 24
    for n, v in terms:
        total = [x + n * y for x, y in zip(total, flatten(v))]
    return ChernVector(*(KScalar(*total[i : i + 4]) for i in range(0, 24, 4)))


def recipe_total(r):
    """The class a synthesis recipe writes: its flat trace plus count copies of each generator."""
    flat = ChernVector(r.flat_trace, *[KScalar()] * 5)
    return reference_combination([(1, flat)] + [(g.count, g.vector) for g in r.generators])


# ----------------------------------------------------------------- basis facts


def test_basis_v3_matches_identity_character():
    v3 = basis_vectors()[2]
    assert v3 == chern_from_t4(chern_T4(ONE))


def test_v7_plus_v9():
    b = basis_vectors()
    total = reference_combination([(1, b[6]), (1, b[8])])
    assert total == parse_chern("(2t; 0, 0; 1, 1, 2)")


def test_basis_rank_is_nine():
    assert basis_rank() == 9


# ----------------------------------------------------------------- decompose


def test_decompose_identity_character():
    res = decompose(chern_from_t4(chern_T4(ONE)))
    assert res and res.coordinates == K0Coordinates(0, 0, 1, 0, 0, 0, 0, 0, 0)


def test_decompose_2theta_vector():
    res = decompose(parse_chern("(2t;0,0;1,1,2)"))
    assert res.coordinates == semiflat_coordinates(0, 0, 0, 0, 1)
    assert res.coordinates.n7 == 1 and res.coordinates.n9 == 1


def test_decompose_not_in_lattice_flavours():
    # (1;0,0;0,0,0) has the rational solution N = (1/4, 1/4, -1/2, 1/4, ...)
    res = decompose(parse_chern("(1;0,0;0,0,0)"))
    assert res.status == "non-integer" and res.coordinates is None
    # a vector with an i*theta component in tau is outside the rational span
    v = parse_chern("(1;1,0;1,0,0)")
    v = ChernVector(KScalar(1, 0, 0, 1), *v.slots()[1:])
    assert decompose(v).status == "not-in-span"


def test_decompose_recompose_roundtrip():
    rng = random.Random(7)
    for _ in range(1000):
        coords = K0Coordinates(*(rng.randint(-20, 20) for _ in range(9)))
        res = decompose(recompose(coords))
        assert res and res.coordinates == coords


# --------------------------------------------------------------------- trace


def test_trace_examples():
    assert recompose(K0Coordinates(0, 0, 1, 0, 0, 0, 0, 0, 0)).tau == KScalar(1)
    assert recompose(semiflat_coordinates(0, 0, 0, 0, 1)).tau == KScalar(0, 2)
    assert recompose(semiflat_coordinates(1, 0, 0, 0, 0)).tau == KScalar(2)


def trace_closed_form(n):
    """The tau column of the basis, written out: 2n1 + 2n2 + n3 + 2n4 + 2n5 + n6 + (n7 + n8 + n9)*theta."""
    return KScalar(2 * n.n1 + 2 * n.n2 + n.n3 + 2 * n.n4 + 2 * n.n5 + n.n6, n.n7 + n.n8 + n.n9)


def test_trace_matches_recompose():
    # the closed form is an independent oracle for the trace slot of recompose
    rng = random.Random(8)
    for _ in range(100):
        coords = K0Coordinates(*(rng.randint(-10, 10) for _ in range(9)))
        assert recompose(coords).tau == trace_closed_form(coords)


# ----------------------------------------------------------------- membership


def test_membership_basic_genus_112():
    d = semiflat_membership(parse_chern("(2t;0,0;1,1,2)"), GOLDEN)
    assert d.member
    assert d.genus.as_tuple() == (1, 1, 2)
    assert d.trace == KScalar(0, 2)


def test_membership_rejects_identity_character():
    d = semiflat_membership(chern_from_t4(chern_T4(ONE)), GOLDEN)
    assert not d.member and d.reason == "psi10-nonzero"


def test_membership_negative_genus_vector():
    d = semiflat_membership(parse_chern("(4+2t;0,0;-1,-1,-2)"), GOLDEN)
    assert d.member and d.genus.as_tuple() == (-1, -1, -2)


def test_membership_rejects_negative_trace():
    # genus (1,1,2) with trace 2t - 4 < 0
    v = parse_chern("(-4+2t;0,0;1,1,2)")
    d = semiflat_membership(v, GOLDEN)
    assert not d.member and d.reason == "nonpositive-trace"


def test_membership_rejects_non_lattice():
    d = semiflat_membership(parse_chern("(1;0,0;0,0,0)"), GOLDEN)
    assert not d.member and d.reason == "not-in-lattice"


def test_membership_psi11_reason():
    # V5 + V5* ... build a vector with psi10 = 0 but psi11 != 0: V6 = (1;0,1;0,1,0)
    d = semiflat_membership(parse_chern("(1;0,1;0,1,0)"), GOLDEN)
    assert not d.member and d.reason == "psi11-nonzero"


def test_membership_json_schema():
    rec = semiflat_membership(parse_chern("(2t;0,0;1,1,2)"), GOLDEN).to_json()
    assert rec["member"] is True
    assert rec["coordinates"] == [0, 0, 0, 0, 0, 0, 1, 0, 1]
    assert rec["genus"] == ["1", "1", "2"]


# --------------------------------------------------------------- quantization


def test_all_basis_vectors_quantized():
    for v in basis_vectors():
        assert quantization_check(v).ok


def test_quantization_rejects_half_psi22():
    v = parse_chern("(1;0,0;0,0,1/2)")
    rep = quantization_check(v)
    assert not rep.ok and rep.slots["psi22"] is False


def test_quantization_half_lattice_membership():
    # 1+i = 2 + (-2)(1-i)/2 lies in Z + Z(1-i)/2; 1/2 + 0i does not
    v = basis_vectors()[1]  # psi10 slot = 1+i
    assert quantization_check(v).slots["psi10"] is True
    bad = parse_chern("(0;1/2,0;0,0,0)")
    assert quantization_check(bad).slots["psi10"] is False


def test_quantization_on_random_lattice_vectors():
    rng = random.Random(9)
    for _ in range(300):
        coords = K0Coordinates(*(rng.randint(-5, 5) for _ in range(9)))
        assert quantization_check(recompose(coords)).ok


# ------------------------------------------------------------------ genus ops


def test_genus_decompose_zero_two_zero():
    assert genus_basis_decompose(Genus(0, 2, 0)) == (-1, 2, -2)


def test_genus_decompose_basis_element():
    assert genus_basis_decompose(Genus(2, 0, 0)) == (1, 0, 0)


def test_genus_decompose_parity_obstruction():
    assert genus_basis_decompose(Genus(1, 0, 2)) is None
    assert genus_basis_decompose(Genus(0, 0, 1)) is None


def test_genus_decompose_requires_integers():
    with pytest.raises(ValueError):
        genus_basis_decompose(Genus(Fraction(1, 2), 0, 0))


def test_genus_of_members_always_decomposes():
    rng = random.Random(10)
    for _ in range(200):
        coords = semiflat_coordinates(*(rng.randint(-4, 4) for _ in range(5)))
        v = recompose(coords)
        d = semiflat_membership(v, GOLDEN)
        if not d.member:
            continue
        g = d.genus
        assert (int(g.g20) - int(g.g21)) % 2 == 0 and int(g.g22) % 2 == 0
        assert genus_basis_decompose(g) is not None


# ------------------------------------------------------------------ synthesis


def test_synthesis_single_generator():
    r = synthesis_recipe(parse_chern("(2t;0,0;1,1,2)"), GOLDEN)
    assert len(r.generators) == 1
    g = r.generators[0]
    assert g.count == 1 and g.genus == (1, 1, 2) and g.trace == KScalar(0, 2)
    assert r.flat_trace == KScalar(0)


def test_synthesis_pure_flat():
    r = synthesis_recipe(parse_chern("(4;0,0;0,0,0)"), GOLDEN)
    assert r.generators == ()
    assert r.flat_trace == KScalar(4)


def test_synthesis_genus_020_with_flat_remainder():
    # (4+4t;...) is NOT in the lattice (genus (0,2,0) forces trace = 2 mod 4);
    # the nearest valid relative is (6+4t; 0,0; 0,2,0)
    assert decompose(parse_chern("(4+4t;0,0;0,2,0)")).status == "non-integer"
    v = parse_chern("(6+4t;0,0;0,2,0)")
    r = synthesis_recipe(v, GOLDEN)
    by_genus = {g.genus: g.count for g in r.generators}
    assert by_genus == {(-2, 0, 0): 1, (1, 1, 2): 2, (0, 0, -2): 2}
    assert recipe_total(r) == v


def test_synthesis_recomposes_on_random_members():
    rng = random.Random(11)
    done = 0
    while done < 200:
        coords = semiflat_coordinates(*(rng.randint(-4, 4) for _ in range(5)))
        v = recompose(coords)
        d = semiflat_membership(v, GOLDEN)
        if not d.member:
            continue
        r = synthesis_recipe(v, GOLDEN)
        assert recipe_total(r) == v
        # every generator is itself a cone member
        for g in r.generators:
            assert semiflat_membership(g.vector, GOLDEN).member
        # flat remainder is a multiple of 4 in both coordinates
        assert r.flat_trace.a % 4 == 0 and r.flat_trace.b % 4 == 0
        done += 1


def test_synthesis_rejects_non_members():
    with pytest.raises(ValueError):
        synthesis_recipe(chern_from_t4(chern_T4(ONE)), GOLDEN)


# --------------------------------------------------- quantization brute force


def test_parity_lemma_brute_force_sampled():
    # psi10 = psi11 = 0 forces an even trace; all psi = 0 forces multiples of 4.
    # Exact-arithmetic sample here; the full million-vector sweep runs
    # vectorized in the acceptance suite, cross-checked against this path.
    rng = random.Random(12)
    hits = 0
    for _ in range(4000):
        if rng.random() < 0.5:
            # bias sampling onto the constraint surface so the premise fires
            coords = semiflat_coordinates(*(rng.randint(-3, 3) for _ in range(5)))
        else:
            coords = K0Coordinates(*(rng.randint(-3, 3) for _ in range(9)))
        v = recompose(coords)
        if v.psi10 == v.psi11 == KScalar():
            hits += 1
            t = v.tau
            assert t.a % 2 == 0 and t.b % 2 == 0
            if v.psi20 == v.psi21 == v.psi22 == KScalar():
                assert t.a % 4 == 0 and t.b % 4 == 0
    assert hits > 1500  # the premise must actually have been exercised


# ------------------------------------------------------------- serialization


def test_kscalar_text_roundtrip():
    cases = [
        KScalar(4, 2),
        KScalar(Fraction(-1, 2), 0, Fraction(1, 2)),
        KScalar(0, 2),
        KScalar(0),
        KScalar(0, 0, 0, Fraction(3, 2)),
    ]
    for s in cases:
        assert parse_kscalar(kscalar_to_text(s)) == s


def test_parse_kscalar_rejects_lax_text():
    for text in ("2 3", "tt", "1+", "--1", "1 - -2", "+", "2t t", "1 2t"):
        with pytest.raises(ChernParseError):
            parse_kscalar(text)
    assert parse_kscalar("-1") == KScalar(-1)
    assert parse_kscalar(" 2 t ") == KScalar(0, 2)


_ks_rat = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=100, deadline=None)
@given(
    st.builds(KScalar, _ks_rat, _ks_rat, _ks_rat, _ks_rat),
    st.sampled_from(("+", "-", "*", "^", "(", "/", " 7", "x")),
)
def test_hypothesis_kscalar_roundtrip_and_junk_suffix(s, junk):
    text = kscalar_to_text(s)
    assert parse_kscalar(text) == s
    with pytest.raises(ChernParseError):
        parse_kscalar(text + junk)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "zero denominator at 0"),
        ("2t+3/00i", "zero denominator at 3"),
        ("\u0663t", "unexpected character '\u0663' at 0"),
        ("1+\u0662t", "unexpected character '\u0662' at 2"),
    ],
)
def test_parse_kscalar_rejects_zero_denominators_and_non_ascii_digits(text, message):
    with pytest.raises(ChernParseError, match=re.escape(message)):
        parse_kscalar(text)


@pytest.mark.parametrize("template, position", [("{long}t", 0), ("2 + 1/{long}ti", 4), ("-{long}i", 1)])
def test_parse_kscalar_rejects_a_number_too_long_to_convert_at_its_position(template, position):
    # 5000 digits is more than int() converts (sys.get_int_max_str_digits() is 4300)
    text = template.format(long="1" * 5000)
    with pytest.raises(ChernParseError, match=f"number too long .* at {position}$"):
        parse_kscalar(text)
    with pytest.raises(ChernParseError, match=f"number too long .* at {position + 9}$"):
        parse_chern(f"(0;0,0;0,{text},0)")


def test_parse_chern_zero_denominator_has_its_position():
    with pytest.raises(ChernParseError, match="zero denominator at 1"):
        parse_chern("(1/0;0,0;0,0,0)")
    with pytest.raises(ChernParseError, match="zero denominator at 13"):
        parse_chern("(1; 0, 0; 0, 1/0, 0)")


def test_chern_text_roundtrip():
    v = parse_chern("(2t; 1/2-1/2i, 0; -1, 0, 3/2)")
    assert parse_chern(chern_to_text(v)) == v


def test_parse_chern_errors():
    with pytest.raises(ChernParseError):
        parse_chern("(1;2;3)")
    with pytest.raises(ChernParseError):
        parse_chern("(1;1,1;1,1,x)")


def test_chern_from_t4_rejects_phase_slots():
    from nctorus.algebra import U, sigma_average

    with pytest.raises(ValueError):
        chern_from_t4(chern_T4(sigma_average(U)))


# ------------------------------------------------------------- canonical form

_ratio = st.tuples(st.integers(-12, 12), st.integers(1, 12))  # n/d as drawn: often unreduced, as 2/4 or 0/6
_quad = st.lists(_ratio, min_size=4, max_size=4)


def unreduced_text(pairs):
    """The a+bt+ci+dti text of four n/d pairs, each written as drawn."""
    signs = ("-" if n < 0 else "+" for n, _ in pairs)
    return "".join(f"{sign}{abs(n)}/{d}{suffix}" for sign, (n, d), suffix in zip(signs, pairs, ("", "t", "i", "ti")))


def assert_lowest_terms(value):
    assert value._d > 0 and math.gcd(value._d, *value._n) == 1


@settings(max_examples=300, deadline=None)
@given(_quad, _quad, st.integers(2, 6))
def test_kscalar_is_stored_in_lowest_terms(p, q, k):
    fp, fq = (tuple(Fraction(n, d) for n, d in pairs) for pairs in (p, q))
    x, y = KScalar(*fp), KScalar(*fq)
    # the same value from the unreduced text, and from that text with every n/d widened by k
    for twin in (parse_kscalar(unreduced_text(p)), parse_kscalar(unreduced_text([(n * k, d * k) for n, d in p]))):
        assert twin == x and not (twin != x) and hash(twin) == hash(x)
        assert (twin._n, twin._d) == (x._n, x._d)
    assert (x == y) is (fp == fq) and (x != y) is (fp != fq)
    if x == y:
        assert hash(x) == hash(y)
    for value, parts in ((x, fp), (y, fq)):
        assert (value.a, value.b, value.c, value.d) == parts
        assert (value._d == 1) is all(r.denominator == 1 for r in parts)
        assert_lowest_terms(value)
    g = Genus(*fp[:3])
    assert g.as_tuple() == fp[:3] and g == Genus(*(parse_kscalar(unreduced_text([r])).a for r in p[:3]))
    assert g.is_integral() is (g._d == 1) is all(r.denominator == 1 for r in fp[:3])
    assert_lowest_terms(g)


@settings(max_examples=200, deadline=None)
@given(st.lists(_quad, min_size=6, max_size=6))
def test_chern_vector_is_stored_in_lowest_terms(quads):
    slots = tuple(KScalar(*(Fraction(n, d) for n, d in pairs)) for pairs in quads)
    v = ChernVector(*slots)
    assert v.slots() == (v.tau, v.psi10, v.psi11, v.psi20, v.psi21, v.psi22) == slots
    for s in v.slots():
        assert_lowest_terms(s)
    assert_lowest_terms(v)
    assert (v._d == 1) is all(x.denominator == 1 for x in flatten(v))
    unreduced = parse_chern("(" + "; ".join(unreduced_text(pairs) for pairs in quads) + ")")
    for twin in (parse_chern(chern_to_text(v)), unreduced, pickle.loads(pickle.dumps(v))):
        assert twin == v and not (twin != v) and hash(twin) == hash(v)
        assert (twin._n, twin._d) == (v._n, v._d) and repr(twin) == repr(v)


# ------------------------------------------ references kept from the Fraction solver


def reference_solve(rhs):
    """Gauss-Jordan elimination of [M | rhs] over Fractions; None if inconsistent."""
    basis = [flatten(v) for v in basis_vectors()]
    rows = [[Fraction(col[r]) for col in basis] + [Fraction(rhs[r])] for r in range(24)]
    pivots = []
    for col in range(9):
        rank = len(pivots)
        piv = next((r for r in range(rank, 24) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [v / rows[rank][col] for v in rows[rank]]
        for r in range(24):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
    if any(rows[r][9] for r in range(len(pivots), 24)):
        return None
    sol = [Fraction(0)] * 9
    for r, col in enumerate(pivots):
        sol[col] = rows[r][9]
    return tuple(sol)


def integer_solve(rhs):
    """_solve_exact on rhs as integer numerators over one denominator, its solution read back as Fractions."""
    rhs = [Fraction(x) for x in rhs]
    den = math.lcm(*(x.denominator for x in rhs))
    sol = _solve_exact([x.numerator * (den // x.denominator) for x in rhs], den)
    if sol is None:
        return None
    nums, d = sol
    assert d > 0 and math.gcd(d, *nums) == 1  # in lowest terms
    return tuple(Fraction(x, d) for x in nums)


_coord = st.sampled_from(range(13)).flatmap(lambda e: st.integers(-(10**e), 10**e))
_coords = st.lists(_coord, min_size=9, max_size=9)


@settings(max_examples=300, deadline=None)
@given(_coords)
def test_recompose_decompose_match_references(coords):
    coords = K0Coordinates(*coords)
    v = recompose(coords)
    assert v == reference_combination(zip(coords, basis_vectors()))
    assert integer_solve(flatten(v)) == reference_solve(flatten(v)) == tuple(coords)
    res = decompose(v)
    assert res and res.coordinates == coords


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=12).filter(lambda x: abs(x) < 10**6), min_size=9, max_size=9))
def test_solve_exact_matches_reference_on_rational_span(coords):
    v = reference_combination(zip(coords, basis_vectors()))
    assert integer_solve(flatten(v)) == reference_solve(flatten(v)) == tuple(coords)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=6), min_size=24, max_size=24),
    st.lists(st.integers(0, 23), max_size=3),
)
def test_solve_exact_matches_reference_off_span(rhs, zeros):
    # zeroing a few entries makes consistent systems likelier
    for i in zeros:
        rhs[i] = Fraction(0)
    assert integer_solve(rhs) == reference_solve(rhs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5))
def test_synthesis_total_matches_reference(free):
    v = recompose(semiflat_coordinates(*free))
    if not semiflat_membership(v, GOLDEN):
        return
    r = synthesis_recipe(v, GOLDEN)
    assert recipe_total(r) == v


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=5, max_size=5), st.sampled_from(["golden", "sqrt2"]))
def test_membership_genus_and_trace_match_closed_forms(free, preset):
    # membership reads the genus and the trace off the basis; these are the formulas they satisfy
    n1, n2, n3, n4, n9 = free
    coords = semiflat_coordinates(*free)
    d = semiflat_membership(recompose(coords), ThetaParam.preset(preset))
    assert d.coordinates == coords and d.trace == trace_closed_form(coords)
    if d.member:
        assert d.genus == Genus(2 * n1 - n2 + n9, 2 * n4 - n2 + n9, 2 * n9 - 2 * n2 - 2 * n3)
    else:
        assert d.reason == "nonpositive-trace" and d.genus is None


def test_membership_cross_check_survives_optimized_mode():
    # a decomposition that breaks the semiflat relations must raise even under -O
    code = """
import nctorus.lattice as lat
v = lat.parse_chern("(2t;0,0;1,1,2)")
bad = [0, 0, 0, 0, 0, 1, 1, 0, 1]
lat._solve_exact = lambda nums, den: (bad, 1)  # an integral solve that breaks the relations
try:
    lat.semiflat_membership(v, lat.ThetaParam.preset("golden"))
except AssertionError as exc:
    print("raised:", exc)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "raised: decomposition violates the semiflat constraint relations" in out.stdout


def reference_elimination_transform():
    """The one-time Gauss-Jordan of [M | I] over Fractions that the integer version replaced."""
    import math

    flat = [flatten(v) for v in basis_vectors()]
    rows = [[f[i] for f in flat] + [Fraction(int(i == j)) for j in range(24)] for i in range(24)]
    pivots = []
    rank = 0
    for col in range(9):
        piv = next((r for r in range(rank, 24) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(24):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    den = math.lcm(*(v.denominator for row in rows for v in row[9:]))
    # column-sparse: column j as the (row, numerator) pairs of its nonzero entries
    transform = tuple(
        tuple((r, int(row[9 + j] * den)) for r, row in enumerate(rows) if row[9 + j] != 0) for j in range(24)
    )
    return tuple(pivots), transform, den


def test_integer_elimination_transform_matches_fraction_reference():
    from nctorus.lattice import _elimination_transform

    assert _elimination_transform() == reference_elimination_transform()
    assert _elimination_transform.__wrapped__() == reference_elimination_transform()


# ------------------------------------------------------- strict chern text


@pytest.mark.parametrize("text, position", [
    ("(1;;0,0;1,0,0)", 3),
    ("(1;0,0;1,0,0,)", 13),
    ("(,1;0,0;1,0,0)", 1),
    ("  (1; 0, 0; 1, 0, ,0)", 17),
    ("1;0,0;1,0,0;", 12),
    ("()", 1),
])
def test_parse_chern_rejects_empty_slots_with_their_position(text, position):
    with pytest.raises(ChernParseError, match=f"empty slot at {position}$"):
        parse_chern(text)


_chern = st.builds(ChernVector, *[st.builds(KScalar, _ks_rat, _ks_rat, _ks_rat, _ks_rat)] * 6)


@settings(max_examples=100, deadline=None)
@given(_chern, st.sampled_from((",", ";", ",0", ";;", ")", "x", ", ", "(")))
def test_hypothesis_chern_roundtrip_and_junk_suffix(v, junk):
    text = chern_to_text(v)
    assert parse_chern(text) == v
    assert parse_chern(text[1:-1]) == v
    with pytest.raises(ChernParseError):
        parse_chern(text + junk)
    with pytest.raises(ChernParseError):
        parse_chern(text[:-1] + junk + ")")


@pytest.mark.parametrize("text, message", [
    ("(1;0,0;1,0,2x)", "unexpected character 'x' at 12"),
    (" ( 1; 0,0 ;1,0, 2 x ) ", "unexpected character 'x' at 18"),
    ("(1;0,0;1,0,2 ++t)", "second sign in a row at 14"),
    ("(1;0,0;1,0,2 t 3)", "missing sign before '3' at 15"),
    ("1;0,0;1,0,1/2x", "unexpected character 'x' at 13"),
])
def test_parse_chern_slot_errors_give_positions_in_the_whole_text(text, message):
    with pytest.raises(ChernParseError, match=f"^{re.escape(message)}$"):
        parse_chern(text)


@settings(max_examples=100, deadline=None)
@given(_chern, st.integers(0, 10**6), st.sampled_from("x$?"))
def test_hypothesis_chern_junk_character_is_reported_where_it_is(v, where, junk):
    text = chern_to_text(v)
    # a junk character inside a slot, after a token, is reported at its own index
    cuts = [i for i, ch in enumerate(text) if ch in ";,)" and text[i - 1] not in "; ,("]
    i = cuts[where % len(cuts)]
    with pytest.raises(ChernParseError, match=f"unexpected character '{re.escape(junk)}' at {i}$"):
        parse_chern(text[:i] + junk + text[i:])
