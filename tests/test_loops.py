import os
import random
import subprocess
import sys
import tracemalloc
import warnings

from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from nctorus import loops
from nctorus.algebra import Element, GaussRational, PhaseScalar, apply_automorphism, numeric_eval
from nctorus.cli import main
from nctorus.loops import (
    ADJOINT_RESIDUAL_GATE,
    MAX_GRID,
    SQUARE_RESIDUAL_GATE,
    TRACE_GATE,
    AlphaOutOfRange,
    BuildGates,
    GridMismatch,
    InvalidBumpWidth,
    LoopElement,
    ResidualExceeded,
    assemble_projection,
    bump_profiles,
    flip_apply,
    loop_invariants,
    pr_build,
    projection_gates,
    _build_projection,
)
from nctorus.realization import ApproximantCyclic, ReflectedCert, TraceValue, realize
from nctorus.theta import PrecisionExhausted, Record, ThetaParam
from nctorus.traces import chern_T2

from conftest import mp_turns, ref_shift, snorm

GOLDEN = ThetaParam.preset("golden")
SQRT2 = ThetaParam.preset("sqrt2")

N = 1024  # plenty for band-limited test elements


def random_loop(rng, beta, n=N, kmax=2, band=32):
    coeffs = {}
    for k in range(-kmax, kmax + 1):
        if rng.random() < 0.7:
            freqs = np.zeros(n, dtype=complex)
            for _ in range(6):
                m = rng.randint(-band, band)
                freqs[m % n] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            coeffs[k] = np.fft.ifft(freqs) * n
    if not coeffs:
        coeffs[0] = np.zeros(n, dtype=complex)
    return LoopElement(beta, coeffs, n)


def monomial_loop(k, m, n=N, beta=0.0):
    """The element W^m V^k as a loop element (coefficient t -> e(m t))."""
    f = np.exp(2j * np.pi * m * (np.arange(n) / n))
    return LoopElement(beta, {k: f}, n)


# ------------------------------------------------------------- loop arithmetic


def test_mul_rule_single_terms():
    beta = GOLDEN.turns(0, 1)
    # f V * h V^-1 -> f (h shifted by beta) V^0
    t = np.arange(N) / N
    fs = np.exp(2j * np.pi * 3 * t)
    hs = np.cos(2 * np.pi * t)
    x = LoopElement(beta, {1: fs}, N)
    y = LoopElement(beta, {-1: hs}, N)
    z = x * y
    assert set(z.coeffs) == {0}
    want = fs * ref_shift(hs, beta)
    assert np.allclose(z.coefficient(0), want, atol=1e-12)


def test_grid_and_beta_mismatch_rejected():
    x = LoopElement(0.3, {0: np.zeros(512)}, 512)
    y = LoopElement(0.3, {0: np.zeros(1024)}, 1024)
    with pytest.raises(GridMismatch):
        x * y
    z = LoopElement(0.4, {0: np.zeros(512)}, 512)
    with pytest.raises(GridMismatch):
        x * z


@pytest.mark.parametrize("coeffs, n, error, match", [
    ({0: np.zeros((2, 256))}, None, ValueError, "one-dimensional"),
    ({0: np.zeros(1000)}, None, ValueError, "power of two >= 256, got 1000"),
    ({0: np.zeros(128)}, None, ValueError, "power of two >= 256, got 128"),
    ({0: np.zeros(512), 1: np.zeros(1024)}, None, GridMismatch, "share one grid"),
    ({0: np.zeros(512)}, 1024, GridMismatch, "share one grid"),
], ids=["two-dimensional", "grid-1000", "grid-128", "grids-512-and-1024", "off-the-given-grid"])
def test_loop_element_refuses_coefficients_off_one_dyadic_grid(coeffs, n, error, match):
    with pytest.raises(error, match=match):
        LoopElement(0.3, coeffs, n)


@pytest.mark.parametrize("beta, error", [
    (float("inf"), ValueError), (-float("inf"), ValueError), (float("nan"), ValueError),
    ("0.3", TypeError), (b"0.3", TypeError), (0.3 + 0.1j, TypeError), (np.complex128(0.3 + 0.1j), TypeError),
    (np.complex64(0.3), TypeError),
], ids=["inf", "-inf", "nan", "text", "bytes", "complex", "complex128", "complex64"])
def test_loop_element_refuses_a_non_finite_text_or_complex_beta(beta, error):
    # an infinite beta read as nan, and squared to coefficients that were all nan; text went through float(),
    # and a numpy complex lost its imaginary part with a ComplexWarning
    with pytest.raises(error, match="beta must be"):
        LoopElement(beta, {0: np.ones(256), 1: np.ones(256)}, 256)


def test_loop_element_holds_complex_sample_arrays():
    x = LoopElement(0.3, {1: [0.5] * 256})
    assert x.n == 256 and x.coeffs[1].dtype == complex and x.coeffs[1].shape == (256,)
    # a V-power without a coefficient reads as zero on the element's grid
    assert x.coefficient(0).dtype == complex and not x.coefficient(0).any() and x.coefficient(0).shape == (256,)


@pytest.mark.parametrize("keys", [(1.5, -0.7), (1.0,), ("1",), (np.float64(2.0),)],
                         ids=["fractional", "integral-float", "string", "numpy-float"])
def test_loop_element_refuses_a_key_that_is_not_an_integer(keys):
    # refused, not truncated: {1.5: f, -0.7: f} must not become the keys [0, 1]
    f = np.zeros(256, dtype=complex)
    with pytest.raises(TypeError):
        LoopElement(0.3, {k: f for k in keys}, 256)


def test_loop_element_takes_numpy_integer_keys():
    f = np.zeros(256, dtype=complex)
    x = LoopElement(0.3, {np.int64(-2): f, np.int32(1): f, 3: f}, 256)
    assert sorted(x.coeffs) == [-2, 1, 3]
    assert all(type(k) is int for k in x.coeffs)


def test_associativity_random_triples():
    rng = random.Random(16)
    beta = SQRT2.turns(0, 1)
    for _ in range(12):
        x, y, z = (random_loop(rng, beta) for _ in range(3))
        left = (x * y) * z
        right = x * (y * z)
        assert snorm(left - right) <= 1e-12 * max(1.0, snorm(x) * snorm(y) * snorm(z))


def test_star_involution():
    rng = random.Random(17)
    beta = GOLDEN.turns(0, 1)
    for _ in range(12):
        x = random_loop(rng, beta)
        assert snorm(x.star().star() - x) <= 1e-14 * max(1.0, snorm(x))


def test_star_antihomomorphism():
    rng = random.Random(18)
    beta = GOLDEN.turns(0, 1)
    for _ in range(8):
        x, y = random_loop(rng, beta), random_loop(rng, beta)
        lhs = (x * y).star()
        rhs = y.star() * x.star()
        assert snorm(lhs - rhs) <= 1e-11 * max(1.0, snorm(x) * snorm(y))


def test_snorm_submultiplicative():
    rng = random.Random(19)
    beta = GOLDEN.turns(0, 1)
    for _ in range(25):
        x, y = random_loop(rng, beta), random_loop(rng, beta)
        assert snorm(x * y) <= snorm(x) * snorm(y) * (1 + 1e-9)


def test_loop_operations_leave_their_operands_unchanged():
    # the operations compute in place, but only in arrays they allocated themselves
    rng = random.Random(23)
    beta = GOLDEN.turns(0, 1)
    x, y = random_loop(rng, beta, kmax=3), random_loop(rng, beta, kmax=3)
    assert 0 in x.coeffs and any(x.coeffs) and 0 in y.coeffs and any(y.coeffs)
    e = assemble_projection(6 * beta - 3, n=N, centered=True)
    saved = [(el, dict(el.coeffs), {k: f.copy() for k, f in el.coeffs.items()}) for el in (x, y, e)]
    x * y, x * x, x.star(), flip_apply(e)
    projection_gates(e, e.beta, True)
    loop_invariants(e, GOLDEN, 6)
    for el, arrays, values in saved:
        assert list(el.coeffs) == list(values)
        for k, f in el.coeffs.items():
            assert f is arrays[k] and np.array_equal(f, values[k]), f"coefficient {k} was written"
            assert loops._frozen(f), f"coefficient {k} was made writable"


def _root(f):
    """The array at the bottom of f's chain of bases."""
    while f.base is not None:
        f = f.base
    return f


def test_products_and_adjoints_share_no_array_across_calls():
    # each call computes in a block of its own, never in a buffer kept between calls
    rng = random.Random(26)
    beta = GOLDEN.turns(0, 1)
    x, y = random_loop(rng, beta, kmax=3), random_loop(rng, beta, kmax=3)
    e = assemble_projection(6 * beta - 3, n=N, centered=True)
    results = [x * y, x * y, x.star(), x.star(), e * e, e.star(), e * e, flip_apply(e), flip_apply(e)]
    owners = [{id(_root(f)) for f in z.coeffs.values()} for z in results]
    for i, a in enumerate(owners):
        for b in owners[i + 1:]:
            assert not a & b


def test_a_product_keeps_only_its_coefficient_rows():
    # e*e of a three-term e is computed in 9 rows; the product keeps a block of its 5 coefficients
    e = assemble_projection(6 * GOLDEN.turns(0, 1) - 3, n=N, centered=True)
    square = e * e
    assert len(square.coeffs) == 5
    blocks = {id(b): b for b in map(_root, square.coeffs.values())}
    assert sum(b.nbytes for b in blocks.values()) == 5 * N * np.dtype(complex).itemsize


# Warm-up builds, then the minor page faults of a few grid-65536 flip builds with their invariants, in a
# fresh interpreter: what the gate workspace keeps mapped between attempts does not depend on earlier tests.
FAULTS_PROBE = """
import resource
from nctorus.loops import loop_invariants, pr_build
from nctorus.theta import ThetaParam
golden = ThetaParam.preset("golden")
def build():
    loop_invariants(pr_build(6, -3, golden, True, n=65536), golden, 6)
for _ in range(3):
    build()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    build()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""


def test_steady_grid_65536_flip_builds_fault_in_no_fresh_pages():
    # a workspace split in separate blocks (the phase rows apart) lets glibc trim the heap between
    # attempts, and then each build faults its pages in again: about 3,000 per build
    src = os.path.dirname(os.path.dirname(loops.__file__))
    proc = subprocess.run([sys.executable, "-c", FAULTS_PROBE], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 1000


def test_a_gate_attempt_peaks_below_twelve_rows():
    # e*e, e*, the flip, their phases and residuals share one workspace; 12 rows of n complex is
    # the peak of a gate attempt that builds e*e, e* and flip(e) and subtracts e from each
    n = MAX_GRID
    alpha = 6 * GOLDEN.turns(0, 1) - 3
    e = assemble_projection(alpha, n=n, centered=True)
    projection_gates(e, alpha, True)  # numpy's FFT plans for n are made outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        projection_gates(e, alpha, True)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n * np.dtype(complex).itemsize


@pytest.mark.parametrize("r", [2, 3])
def test_the_zero_element_is_zero_in_every_operation(r):
    zero = LoopElement(0.3, {}, 256)
    x = random_loop(random.Random(24), 0.3, n=256)
    for z in (zero * x, x * zero, zero * zero, zero.star()):
        assert (z.coeffs, z.n, z.beta) == ({}, 256, 0.3)
    assert projection_gates(zero, 0.5, True) == BuildGates(0, 0, 0, 0.5)
    rep = loop_invariants(zero, GOLDEN, r)
    assert (rep.tau, rep.raw, rep.rounded) == (0.0, (0j,) * 4, (Fraction(0),) * 4)


def test_pickle_and_copy_round_trip():
    import copy
    import pickle

    x = random_loop(random.Random(22), GOLDEN.turns(0, 1), n=512)
    for back in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(back) is LoopElement and (back.beta, back.n) == (x.beta, x.n)
        assert list(back.coeffs) == list(x.coeffs)
        assert all(np.array_equal(back.coeffs[k], g) for k, g in x.coeffs.items())
        with pytest.raises(AttributeError):
            back.beta = 0.0


def test_loop_to_json_shape():
    rng = random.Random(20)
    x = random_loop(rng, SQRT2.turns(0, 1), n=512, kmax=3)
    data = x.to_json()
    assert data.keys() == {"beta", "n", "coeffs"} and (data["beta"], data["n"]) == (x.beta, 512)
    assert list(data["coeffs"]) == [str(k) for k in sorted(x.coeffs)]
    for k, f in x.coeffs.items():
        pairs = data["coeffs"][str(k)]
        assert all(type(v) is float for pair in pairs for v in pair)
        assert np.array_equal(np.array([complex(re, im) for re, im in pairs]), f)


# ------------------------------------------------------------------ flip apply


def test_flip_on_base_monomial():
    w = monomial_loop(0, 1, 512, 0.37)
    flipped = flip_apply(w)
    want = monomial_loop(0, -1, 512, 0.37)
    assert snorm(flipped - want) <= 1e-12


def test_flip_involutive():
    rng = random.Random(21)
    x = random_loop(rng, GOLDEN.turns(0, 1))
    assert snorm(flip_apply(flip_apply(x)) - x) <= 1e-14 * max(1.0, snorm(x))


@pytest.mark.parametrize("rm,k", [(2, 1), (3, -2), (-1, 0), (0, 2)])
def test_flip_matches_exact_engine_on_monomials(rm, k):
    """flip(U^{rm} V^k) = U^{-rm} V^{-k}: cross-module oracle on embedded monomials."""
    r = 1
    n = 512
    loop = monomial_loop(k, rm, n, (r * GOLDEN.turns(0, 1)) % 1.0)
    flipped = flip_apply(loop)
    exact = apply_automorphism("flip", Element.monomial(r * rm, k))
    ((mm, nn), coef), = exact.terms()
    assert nn == -k and mm == -r * rm and coef.items()
    want = monomial_loop(-k, -rm, n, loop.beta)
    assert snorm(flipped - want) <= 1e-12


_TERMS = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-3, 3), st.integers(-8, 8), st.integers(-5, 5), st.integers(-5, 5)),
    min_size=1, max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GOLDEN, SQRT2]), st.integers(1, 12), _TERMS)
def test_loop_invariants_match_exact_phi_slots_of_embedded_elements(theta, r, terms):
    """U^{rm} V^k with phase coefficient c embeds as numeric_eval(c) e(m t) in coefficient k of a
    loop element over W = U^r (the same normal order): its numeric slots are the exact ones, evaluated."""
    x = Element()
    for m, k, lam, re, im in terms:
        x = x + Element.monomial(r * m, k, PhaseScalar({lam: GaussRational(re, im)}))
    n = 256
    spectra = {}
    for (rm, k), c in x.terms():
        spectra.setdefault(k, np.zeros(n, dtype=complex))[(rm // r) % n] += numeric_eval(c, theta)
    coeffs = {k: np.fft.ifft(spec) * n for k, spec in spectra.items()}
    rep = loop_invariants(LoopElement(theta.turns(0, r), coeffs, n), theta, r)
    want = chern_T2(x)
    assert abs(rep.tau - numeric_eval(want.tau, theta).real) <= 1e-12
    for got, slot in zip(rep.raw, want.slots()[1:]):
        assert abs(got - numeric_eval(slot, theta)) <= 1e-12


# ------------------------------------------------------------------- bump pair


def test_bump_integral_is_alpha():
    for alpha, eps in ((GOLDEN.turns(0, 1), 0.1), (0.31, 0.05), (0.82, 0.04)):
        f_profile, _ = bump_profiles(alpha, eps)
        f = f_profile(np.arange(4096) / 4096)
        assert abs(f.mean() - alpha) <= 1e-10


def test_bump_projection_identities_on_grid():
    alpha, eps = GOLDEN.turns(0, 1), 0.1
    n = 4096
    t = np.arange(n) / n
    f_profile, g_profile = bump_profiles(alpha, eps)
    f, g = f_profile(t), g_profile(t)
    g_back, f_back, g_fwd = g_profile(t - alpha), f_profile(t - alpha), g_profile(t + alpha)
    # g(t) g(t - alpha) = 0 ; g(t)(f(t) + f(t-alpha) - 1) = 0 ; f - f^2 = g^2 + g(.+alpha)^2
    assert np.abs(g * g_back).max() <= 1e-10
    assert np.abs(g * (f + f_back - 1)).max() <= 1e-10
    lhs = f - f * f
    rhs = g * g + g_fwd * g_fwd
    assert np.abs(lhs - rhs).max() <= 1e-10
    # the same identities via trigonometric shifts stay at interpolation accuracy
    assert np.abs(g * ref_shift(g, -alpha)).max() <= 1e-10
    assert np.abs(lhs - (g * g + ref_shift(g, alpha) ** 2)).max() <= 1e-9


def test_bump_width_validation():
    with pytest.raises(InvalidBumpWidth):
        bump_profiles(0.6, 0.5)
    with pytest.raises(AlphaOutOfRange):
        bump_profiles(1.2, 0.01)


# -------------------------------------------------------------------- pr_build


def test_plain_build_golden():
    e = pr_build(1, 0, GOLDEN)
    gates = projection_gates(e, GOLDEN.turns(0, 1), False)
    assert gates.square_residual <= 1e-8
    assert gates.adjoint_residual <= 1e-12
    assert gates.trace_error <= 1e-10
    assert abs(e.coefficient(0).mean().real - GOLDEN.turns(0, 1)) <= 1e-10


def test_build_rejects_bad_flip_interval():
    with pytest.raises(AlphaOutOfRange):
        pr_build(1, 0, SQRT2, flip_symmetric=True)  # alpha = 0.414 not in (1/2, 1)


def test_flip_interval_check_keeps_its_texts():
    # r*theta + s against 1/2 and 1; on [0; 2] and [0; 1, 2] the bracket cannot place theta against
    # 1/2 and 1 respectively, and the unsettled texts name the form shifted by that bound
    with pytest.raises(AlphaOutOfRange) as out:
        pr_build(1, 0, SQRT2, flip_symmetric=True)
    assert str(out.value) == "alpha-out-of-range: r*theta + s = 1*theta+0 is not in (1/2, 1)"
    for terms, text in (([2], "-1/2 + 1*theta"), ([1, 2], "-1 + 1*theta")):
        with pytest.raises(PrecisionExhausted) as unsettled:
            pr_build(1, 0, ThetaParam(terms), flip_symmetric=True)
        assert str(unsettled.value) == f"insufficient-cf-data: cannot settle sign of {text}"


def test_build_r_validation():
    with pytest.raises(ValueError):
        pr_build(0, 1, GOLDEN)


def test_build_rejects_a_first_grid_above_the_ceiling_before_sampling(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("the grid was sampled")

    monkeypatch.setattr(loops, "assemble_projection", sampled)
    with pytest.raises(ValueError, match=f"grid size {2 * MAX_GRID} is above the refinement ceiling {MAX_GRID}"):
        pr_build(1, 0, GOLDEN, n=2 * MAX_GRID)


@pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
def test_build_rejects_a_non_finite_offset_before_sampling(monkeypatch, capsys, offset):
    def sampled(*args, **kwargs):
        raise AssertionError("the grid was sampled")

    monkeypatch.setattr(loops, "assemble_projection", sampled)
    with pytest.raises(ValueError, match="offset must be a finite number"):
        pr_build(1, 0, GOLDEN, offset=float(offset))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pr-build", "-r", "1", "-s", "0", f"--offset={offset}"])
    assert code == 2 and not caught
    assert "error: offset must be a finite number" in capsys.readouterr().err


def test_flip_alpha_next_to_one_is_exact_and_its_bump_too_narrow(monkeypatch, capsys):
    # golden, r = 102334155: r*theta - 63245985 lies within 5e-9 of 1.  The build takes it
    # correctly rounded (float64 r*theta rounded it up to an integer, so alpha became 0), and a
    # bump that narrow needs a finer grid than MAX_GRID
    r, s = 102334155, -63245985
    sampled = []
    assemble = loops.assemble_projection
    monkeypatch.setattr(loops, "assemble_projection", lambda a, **kw: sampled.append(a) or assemble(a, **kw))
    with pytest.raises(ResidualExceeded, match="^residual-exceeded: "):
        pr_build(r, s, GOLDEN, True)
    assert set(sampled) == {mp_turns("golden", s, r)} and 0.9999999956 < sampled[0] < 0.9999999957
    code = main(["pr-build", "-r", str(r), "-s", str(s), "--flip"])
    assert code == 2 and capsys.readouterr().err.startswith("error: residual-exceeded: ")


def test_an_offset_is_a_point_on_the_circle(capsys):
    e = pr_build(1, 0, GOLDEN, offset=123456789.25)
    ref = pr_build(1, 0, GOLDEN, offset=0.25)
    assert e.n == ref.n and e.coeffs.keys() == ref.coeffs.keys()
    for k, f in ref.coeffs.items():
        assert np.array_equal(e.coeffs[k], f)
    assert main(["pr-build", "-r", "1", "-s", "0", "--offset", "123456789.25"]) == 0


TABLE_CASES = {
    "golden": {
        ("even", "odd"): (6, -3),
        ("even", "even"): (14, -8),
        ("odd", "odd"): (3, -1),
    },
    "sqrt2": {
        ("even", "odd"): (4, -1),
        ("even", "even"): (2, 0),
        ("odd", "odd"): (9, -3),
    },
}

EXPECTED_ROWS = {
    ("even", "odd"): (0, 1, 0, 0),
    ("even", "even"): (0, 0, 0, 0),
    ("odd", "odd"): (0.5, 0.5, -0.5, 0.5),
}


@pytest.mark.parametrize("preset", ["golden", "sqrt2"])
@pytest.mark.parametrize("parity", list(EXPECTED_ROWS))
def test_flip_symmetric_builds_reproduce_invariant_table(preset, parity):
    th = ThetaParam.preset(preset)
    r, s = TABLE_CASES[preset][parity]
    alpha = r * th.turns(0, 1) + s
    e = pr_build(r, s, th, flip_symmetric=True)
    gates = projection_gates(e, alpha, True)
    assert gates.square_residual <= 1e-8
    assert gates.flip_residual <= 1e-8
    assert gates.trace_error <= 1e-10
    rep = loop_invariants(e, th, r)
    assert rep.tau == pytest.approx(alpha, abs=1e-10)
    got = tuple(None if v is None else float(v) for v in rep.rounded)
    assert got == tuple(float(x) for x in EXPECTED_ROWS[parity])


def test_r_odd_s_even_row():
    # the fourth parity combination: (1/2, 1/2, -1/2, -1/2)
    e = pr_build(7, -2, SQRT2, flip_symmetric=True)  # 7 theta - 2 ~ 0.8995
    rep = loop_invariants(e, SQRT2, 7)
    assert tuple(float(v) for v in rep.rounded) == (0.5, 0.5, -0.5, -0.5)


def test_trace_additivity_of_orthogonal_builds():
    th = GOLDEN
    alpha = 2 * th.turns(0, 1) - 1  # ~ 0.236, bit for bit the base step (2 theta) mod 1
    e = assemble_projection(alpha, n=8192, eps=0.02, centered=True)
    e2 = assemble_projection(alpha, n=8192, eps=0.02, centered=True, offset=0.5)
    total = e + e2
    assert total.coefficient(0).mean().real == pytest.approx(2 * alpha, abs=1e-10)


def test_semicyclic_surrogate_orthogonality():
    """Flip-symmetric builds on opposite arcs multiply to ~0."""
    th = GOLDEN
    alpha = 2 * th.turns(0, 1) - 1  # ~ 0.236 < 1/4 leaves room for disjoint supports
    n = 16384
    e = assemble_projection(alpha, n=n, eps=0.012, centered=True)
    e2 = assemble_projection(alpha, n=n, eps=0.012, centered=True, offset=0.5)
    for x in (e, e2):
        gates = projection_gates(x, alpha, True)
        assert gates.square_residual <= 1e-8
        assert gates.flip_residual <= 1e-8
    assert snorm(e * e2) <= 1e-8
    assert snorm(e2 * e) <= 1e-8


def test_plain_build_with_large_shift_meets_the_adjoint_gate():
    # golden, r = 39, s = 40: adding s before the mod 1 put alpha 7.1e-15 off
    # beta, and the adjoint residual stalled at 1.07e-12 on every grid
    offset = 0.24246845778402293
    e, gates = _build_projection(39, 40, GOLDEN, False, 4096, None, offset)
    assert e.beta == mp_turns("golden", 0, 39)
    assert e.n == 16384
    assert gates.adjoint_residual <= ADJOINT_RESIDUAL_GATE
    assert gates.square_residual <= SQUARE_RESIDUAL_GATE
    assert gates.trace_error <= TRACE_GATE


@pytest.mark.parametrize("theta, r, s", [
    (GOLDEN, 6, -3), (GOLDEN, 14, -8), (GOLDEN, 3, -1), (SQRT2, 4, -1), (SQRT2, 9, -3), (SQRT2, 7, -2),
])
def test_flip_symmetric_alpha_equals_the_base_step(theta, r, s):
    # the base step (r*theta) mod 1 is the flip alpha r*theta + s in (1/2, 1), correctly rounded
    e, gates = _build_projection(r, s, theta, True, 4096, None, 0.0)
    assert e.beta == mp_turns(theta.name, s, r)
    assert 0.5 < e.beta < 1
    assert gates.trace_error <= TRACE_GATE


def test_build_refines_grid_when_too_coarse():
    # at n = 256 the bump is badly resolved; the builder must walk up
    e = pr_build(1, 0, GOLDEN, n=256)
    assert e.n > 256
    assert projection_gates(e, GOLDEN.turns(0, 1), False).square_residual <= 1e-8


def test_a_failed_build_leaves_no_element_in_its_traceback():
    # a kept exception must not keep the last grid's arrays alive through the raising frame
    with pytest.raises(ResidualExceeded) as info:
        pr_build(11, -6, GOLDEN, n=4096, eps=0.0009)
    tb = info.value.__traceback__
    while tb is not None:
        held = [name for name, v in tb.tb_frame.f_locals.items() if isinstance(v, LoopElement)]
        assert not held, f"{tb.tb_frame.f_code.co_name} holds {held}"
        tb = tb.tb_next


# ------------------------------------------------------------------ invariants


@pytest.mark.parametrize("r", [0, -3, -6])
def test_loop_invariants_refuse_r_below_one(r):
    # r = -3 and -6 read rounded (0, 0, 0, 0) for the golden (6, -3) row, whose invariants are (0, 1, 0, 0)
    e = pr_build(6, -3, GOLDEN, True)
    assert [str(v) for v in loop_invariants(e, GOLDEN, 6).rounded] == ["0", "1", "0", "0"]
    with pytest.raises(ValueError, match="r must be a positive integer"):
        loop_invariants(e, GOLDEN, r)


def test_invariants_of_a_base_power_beyond_int64():
    # r*m overflowed int64 in the parity selection (exit 1 from pr-build); only r mod 2 matters there
    r = 10**20
    e = pr_build(r, 0, GOLDEN)
    rep = loop_invariants(e, GOLDEN, r)
    assert abs(rep.tau - mp_turns("golden", 0, r)) <= TRACE_GATE
    assert rep.raw[2] == rep.raw[3] == 0  # r even: no U^{rm} with rm odd
    assert main(["pr-build", "--theta", "golden", "-r", str(r), "-s", "0", "--json"]) == 0


# README parity table: (r mod 2, s mod 2) -> rounded (phi00, phi01, phi10, phi11) of a flip build
PARITY_TABLE = {
    (0, 1): (0, 1, 0, 0),
    (0, 0): (0, 0, 0, 0),
    (1, 1): (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)),
    (1, 0): (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)),
}
# Below a unit trace of about 0.02 the default bump width, a quarter of the trace, needs a grid
# above MAX_GRID for the gates, so those leaves have no numeric witness here.
WITNESS_MIN_TRACE = 0.02


def cyclic_leaves(cert, theta):
    """(leaf, theta) for each ApproximantCyclic leaf of a certificate; below a reflected node it is 1 - theta."""
    stack = [(cert, theta)]
    while stack:
        node, th = stack.pop()
        if isinstance(node, ApproximantCyclic):
            yield node, th
        elif isinstance(node, tuple):
            stack.extend((x, th) for x in node)
        elif isinstance(node, Record):
            th = th.reflect() if isinstance(node, ReflectedCert) else th
            stack.extend((getattr(node, f), th) for f in node._fields)


@cache
def leaf_witness(theta, p, q):
    """The plain build pr_build(q, -p) of a leaf's unit trace, checked; a flip build's rounded phi
    vector and its (q, s) parities when alpha is in (1/2, 1), else None."""
    e, gates = _build_projection(q, -p, theta, False, loops.DEFAULT_GRID, None, 0.0)
    assert e.n <= MAX_GRID and gates.square_residual <= SQUARE_RESIDUAL_GATE
    assert gates.adjoint_residual <= ADJOINT_RESIDUAL_GATE and gates.trace_error <= TRACE_GATE
    tau = loop_invariants(e, theta, q).tau
    # alpha is (q*theta - p) mod 1: the unit trace |q*theta - p| itself, or 1 minus it when q*theta - p < 0
    assert abs(tau - theta.turns(-p, q)) <= TRACE_GATE
    s = -theta.floor_linear(q)
    if not theta.in_open_interval(s, q, Fraction(1, 2), 1):
        return None
    flip = loop_invariants(pr_build(q, s, theta, flip_symmetric=True), theta, q)
    return flip.rounded, (q % 2, s % 2)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([GOLDEN, SQRT2]),
    st.sampled_from([("cyclic", 1, Fraction(1, 4)), ("semicyclic", 1, Fraction(1, 2)),
                     ("flat", 4, 1), ("semiflat", 2, 1)]),
    st.integers(-300, 300).filter(bool),
)
def test_certificate_leaves_have_numeric_witnesses(theta, kind_domain, b):
    """Every cyclic leaf (k, p, q) of a realize certificate claims a projection of trace |q*theta - p|:
    the Powers-Rieffel build with r = q, s = -p is one, and a flip build reproduces the parity table."""
    kind, mult, hi = kind_domain
    t = TraceValue(-mult * theta.floor_linear(b), mult * b)  # mult * frac(b*theta)
    assume(t.in_open_interval(theta, 0, hi))
    witnessed = 0
    for leaf, th in cyclic_leaves(realize(kind, t, theta), theta):
        unit = ApproximantCyclic(1, leaf.p, leaf.q).trace(th)
        if not th.in_open_interval(unit.a, unit.b, WITNESS_MIN_TRACE, 1):
            continue
        witnessed += 1
        flip = leaf_witness(th, leaf.p, leaf.q)
        if flip is not None:
            rounded, parities = flip
            assert rounded == PARITY_TABLE[parities], (th.name, leaf, parities)
    event(f"{witnessed} leaves witnessed")


def test_invariants_of_even_even_build_are_zero():
    th = SQRT2
    e = pr_build(2, 0, th, flip_symmetric=True)
    rep = loop_invariants(e, th, 2)
    for z in rep.raw:
        assert abs(z) <= 1e-6


def test_invariant_report_rounding_tolerance():
    from nctorus.loops import _round_quarter

    assert _round_quarter(0.25 + 1e-8 + 0j) == 0.25
    assert _round_quarter(0.25 + 1e-3 + 0j) is None
    assert _round_quarter(0.1 + 0j) is None


def test_a_built_element_cannot_be_changed():
    f = np.arange(256, dtype=complex)
    x = LoopElement(0.3, {0: f})
    before = x.coeffs[0].copy()
    f[0] = 7  # the caller's array was copied
    with pytest.raises(ValueError):
        x.coeffs[0][1] = 5  # the kept array is read-only
    with pytest.raises(TypeError):
        x.coeffs[3] = np.ones(7)  # the mapping is read-only
    assert list(x.coeffs) == [0] and np.array_equal(x.coeffs[0], before)
    with pytest.raises(ValueError):
        x.coefficient(2)[0] = 1
    # a read-only view of a writable base would change with the base, so it is copied too
    view = f.view()
    view.flags.writeable = False
    y = LoopElement(0.3, {0: view})
    f[1] = 9
    assert y.coeffs[0] is not view and y.coeffs[0][1] == 1
    # a frozen array is kept as it is
    frozen = np.ones(256, dtype=complex)
    frozen.flags.writeable = False
    assert LoopElement(0.3, {0: frozen}).coeffs[0] is frozen


def test_loop_operations_build_their_elements_without_a_copy(monkeypatch):
    from nctorus import loops

    checked = []
    real = loops._frozen
    monkeypatch.setattr(loops, "_frozen", lambda f: checked.append(real(f)) or checked[-1])
    rng = random.Random(25)
    beta = GOLDEN.turns(0, 1)
    x, y = random_loop(rng, beta, kmax=3), random_loop(rng, beta, kmax=3)
    checked.clear()
    x * y, x * x, x.star(), x + y, x - y, y - x
    e = assemble_projection(6 * beta - 3, n=N, centered=True)
    flip_apply(e), projection_gates(e, e.beta, True)
    assert len(checked) > 30 and all(checked)
