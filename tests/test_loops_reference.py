"""The loop algebra against the plain shift-per-term formulas it replaces.

``loops`` transforms each coefficient once per call and builds one phase
vector per V-power.  The functions below are the direct transcription of
the product, adjoint, gate and invariant formulas: every term shifted on
its own, every invariant slot with its own transform and phases.  The two
must agree bit for bit, not merely within a tolerance.  Every shift of a
coefficient is ``conftest.ref_shift``, one transform per term.  The references
take alpha, beta and the phase offsets x_k from mpmath, not from theta.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nctorus import loops
from nctorus.loops import (
    BuildGates,
    LoopElement,
    ResidualExceeded,
    assemble_projection,
    bump_profiles,
    flip_apply,
    loop_invariants,
    pr_build,
    projection_gates,
)
from nctorus.theta import ThetaParam
from conftest import mp_turns, ref_phase, ref_shift, snorm
from test_loops import random_loop

GOLDEN = ThetaParam.preset("golden")
SQRT2 = ThetaParam.preset("sqrt2")


# ------------------------------------------------------------------ reference


def ref_loop_mul(x, y):
    acc = {}
    for a, fa in x.coeffs.items():
        for b, hb in y.coeffs.items():
            term = fa * (ref_shift(hb, a * x.beta) if a else hb)
            k = a + b
            acc[k] = acc[k] + term if k in acc else term
    return LoopElement(x.beta, acc, x.n)


def ref_loop_star(x):
    out = {}
    for a, fa in x.coeffs.items():
        g = np.conj(fa)
        out[-a] = ref_shift(g, -a * x.beta) if a else g
    return LoopElement(x.beta, out, x.n)


def ref_projection_gates(e, alpha, flip_symmetric):
    square = snorm(ref_loop_mul(e, e) - e)
    adjoint = snorm(ref_loop_star(e) - e)
    flip_res = snorm(flip_apply(e) - e) if flip_symmetric else None
    trace = abs(float(e.coefficient(0).mean().real) - alpha)
    return BuildGates(square, adjoint, flip_res, trace)


def ref_bump_profiles(alpha, eps):
    """The bump pair sampled through np.mod(t, 1.0), which ``bump_profiles`` no longer calls."""

    def f_profile(t):
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        out = np.zeros_like(t)
        up = t < eps
        out[up] = loops._smoothstep(t[up] / eps)
        out[(t >= eps) & (t <= alpha)] = 1.0
        down = (t > alpha) & (t < alpha + eps)
        out[down] = 1.0 - loops._smoothstep((t[down] - alpha) / eps)
        return out

    def g_profile(t):
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        out = np.zeros_like(t)
        down = (t > alpha) & (t < alpha + eps)
        bu, b1 = loops._branches((t[down] - alpha) / eps)
        denom = bu + b1
        out[down] = np.sqrt(bu * b1) / np.where(denom > 0, denom, 1.0)
        return out

    return f_profile, g_profile


def ref_loop_invariants(e, theta, r):
    tau = e.coefficient(0).mean().real
    raw = []
    for i in (0, 1):
        for j in (0, 1):
            total = 0j
            for k, f in e.coeffs.items():
                if (k - j) % 2 != 0:
                    continue
                c = np.fft.fft(f) / e.n
                m = np.fft.fftfreq(e.n, 1.0 / e.n).astype(int)
                sel = (r * m - i) % 2 == 0
                if not np.any(sel):
                    continue
                # e(-theta*r*m*k/2) = e(-m*x) for x = (r*|k|*theta/2) mod 1, with the sign of k
                x = mp_turns(theta.name, 0, Fraction(r * abs(k), 2))
                phases = np.exp(-2j * np.pi * m[sel] * (x if k >= 0 else -x))
                total += complex(np.sum(c[sel] * phases))
            raw.append(total)
    return float(tau), tuple(raw), tuple(loops._round_quarter(z) for z in raw)


def assert_identical(x, y):
    assert (x.n, x.beta) == (y.n, y.beta)
    assert list(x.coeffs) == list(y.coeffs)
    for k in x.coeffs:
        assert np.array_equal(x.coeffs[k], y.coeffs[k]), f"coefficient {k} differs"


def assert_same_invariants(e, theta, r):
    rep = loop_invariants(e, theta, r)
    assert (rep.tau, rep.raw, rep.rounded) == ref_loop_invariants(e, theta, r)


# ------------------------------------------------------------ random elements


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.sampled_from([GOLDEN, SQRT2]),
    r=st.integers(1, 40),
    n=st.sampled_from([256, 512, 1024]),
    kmax=st.integers(0, 3),
)
def test_random_loops_match_reference(seed, theta, r, n, kmax):
    rng = random.Random(seed)
    beta = (r * theta.turns(0, 1)) % 1.0
    x = random_loop(rng, beta, n=n, kmax=kmax)
    y = random_loop(rng, beta, n=n, kmax=kmax)
    assert_identical(x * y, ref_loop_mul(x, y))
    assert_identical(x * x, ref_loop_mul(x, x))
    assert_identical(x.star(), ref_loop_star(x))
    assert projection_gates(x, 0.5, True) == ref_projection_gates(x, 0.5, True)
    assert_same_invariants(x, theta, r)


# ------------------------------------------------------------- phase vectors


@pytest.mark.parametrize("scale", [2j * np.pi, -2j * np.pi], ids=["+2j*pi", "-2j*pi"])
@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([256, 1024, 4096, 16384, loops.MAX_GRID]), x=st.floats(-50, 50))
@example(n=256, x=0.0)
@example(n=256, x=-0.0)
@example(n=256, x=5e-324)
@example(n=256, x=1e-17)
@example(n=4096, x=0.5)
@example(n=loops.MAX_GRID, x=1 - 2**-53)
def test_phase_vector_is_the_plain_formula(scale, n, x):
    # the negative frequencies are conjugates of the positive ones: exact only while libm's sin is odd and
    # cos even to the last bit, and at a zero x the signs of the zeros decide
    got = loops._exp_i_freqs(scale, x, np.empty(n, dtype=complex))
    assert got.tobytes() == ref_phase(n, x, scale).tobytes()


# --------------------------------------------------------------- bump builds


_EDGES = [-0.0, 0.0, -1.0, 1.0, -2.0, 2.0, 1 - 2**-53, -(1 - 2**-53), 1e-17, -1e-17, 5e-324, -5e-324,
          2.0**51 + 0.5, -(2.0**51 + 0.5), 2.0**52 + 0.5, -(2.0**52 + 0.5), 1e300, -1e300]


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.02, 0.98),
    width=st.floats(0.01, 0.99),
    points=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
    offset=st.floats(-3, 3),
)
@example(alpha=0.3, width=0.5, points=_EDGES, offset=1.2)
@example(alpha=0.7, width=0.99, points=_EDGES, offset=-1.3)
def test_bump_profiles_sample_as_np_mod_did(alpha, width, points, offset):
    # t - floor(t) is np.mod(t, 1.0) bit for bit on every finite float: huge, subnormal and signed zeros
    # among the points, and a grid moved by an offset past +-1
    eps = width * min(alpha, 1 - alpha) / 2
    t = np.concatenate([np.array(points, dtype=float), np.arange(256) / 256 + offset])
    for got, want in zip(bump_profiles(alpha, eps), ref_bump_profiles(alpha, eps)):
        assert got(t).tobytes() == want(t).tobytes()
        assert repr(got(offset)) == repr(want(offset))  # a scalar argument gives a 0-d array


def test_bump_profiles_take_a_subnormal_argument_where_overflow_raises():
    # u = t/eps is subnormal, so -1/u overflows to -inf inside _branches; exp takes it to 0, the right value
    f_profile, g_profile = bump_profiles(0.3, 0.075)
    t = np.array([5e-324, 0.0, 1e-17])
    with np.errstate(over="raise"):
        assert f_profile(t).tolist() == [0.0, 0.0, 0.0]
        assert g_profile(t).tolist() == [0.0, 0.0, 0.0]
        bu, b1 = loops._branches(np.array([5e-324]))
    assert (bu[0], b1[0]) == (0.0, np.exp(-1.0))


# the largest grid, which the benchmark's builds reach, checks one flip row per preset
LARGEST_GRID_ROW = {"golden": (6, -3), "sqrt2": (4, -1)}


@pytest.mark.parametrize("n", [256, 1024, 4096, 16384, loops.MAX_GRID])
@pytest.mark.parametrize("theta", [GOLDEN, SQRT2], ids=["golden", "sqrt2"])
def test_bump_builds_match_reference(theta, n):
    rng = random.Random(n)
    rows = ((6, -3, True), (3, -1, True), (4, -1, True), (9, -3, True), (2, 0, False),
            (rng.randint(1, 40), rng.randint(-40, 40), False))
    if n == loops.MAX_GRID:
        rows = [row for row in rows if row[:2] == LARGEST_GRID_ROW[theta.name]]
        assert len(rows) == 1
    for r, s, centered in rows:
        # the trace is the base step (r theta) mod 1; a flip row's r theta + s is that float bit for bit
        alpha = (r * theta.turns(0, 1)) % 1.0
        centered = centered and 0.5 < r * theta.turns(0, 1) + s < 1
        e = assemble_projection(alpha, n=n, centered=centered, offset=0.5 * rng.randrange(2))
        assert_identical(e * e, ref_loop_mul(e, e))
        assert_identical(e.star(), ref_loop_star(e))
        assert projection_gates(e, alpha, centered) == ref_projection_gates(e, alpha, centered)
        assert_same_invariants(e, theta, r)


def ref_pr_build(r, s, theta, flip, n, eps=None, offset=0.0):
    # a plain alpha (r*theta + s) mod 1 and a flip alpha r*theta + s in (1/2, 1) are both the base step
    alpha = mp_turns(theta.name, 0, r)
    while True:
        e = assemble_projection(alpha, n=n, eps=eps, centered=flip, offset=offset)
        gates = ref_projection_gates(e, alpha, flip)
        if (gates.square_residual <= loops.SQUARE_RESIDUAL_GATE
                and gates.adjoint_residual <= loops.ADJOINT_RESIDUAL_GATE
                and gates.trace_error <= loops.TRACE_GATE
                and (gates.flip_residual is None or gates.flip_residual <= loops.FLIP_RESIDUAL_GATE)):
            return e, gates
        if n * 4 > loops.MAX_GRID:
            return None, gates
        n *= 4


@pytest.mark.parametrize("r,s,theta,flip,n,eps", [
    (6, -3, GOLDEN, True, 4096, None),
    (1, 0, GOLDEN, False, 256, None),
    (7, -2, SQRT2, True, 1024, None),
    (5, 3, SQRT2, False, 1024, 0.0015),
    (11, -6, GOLDEN, False, 4096, 0.0009),
])
def test_pr_build_matches_reference_through_refinement(r, s, theta, flip, n, eps):
    want, want_gates = ref_pr_build(r, s, theta, flip, n, eps)
    if want is None:
        with pytest.raises(ResidualExceeded) as info:
            pr_build(r, s, theta, flip, n=n, eps=eps)
        assert repr(want_gates) in str(info.value)
        return
    e, gates = loops._build_projection(r, s, theta, flip, n, eps, 0.0)
    assert_identical(e, want)
    assert gates == want_gates
    assert_identical(pr_build(r, s, theta, flip, n=n, eps=eps), want)


# ------------------------------------------------------------------- counting


@pytest.fixture
def numpy_calls(monkeypatch):
    """Count the FFT calls, the rows they transform (forward, inverse and both), and the complex exps made
    through numpy and their points."""
    counts = {"fft_calls": 0, "fft_rows": 0, "forward_rows": 0, "inverse_rows": 0,
              "complex_exp": 0, "complex_exp_points": 0}

    def counted_fft(fn, rows):
        def call(x, *args, **kwargs):
            counts["fft_calls"] += 1
            counts["fft_rows"] += np.size(x) // np.shape(x)[-1]
            counts[rows] += np.size(x) // np.shape(x)[-1]
            return fn(x, *args, **kwargs)
        return call

    exp = np.exp

    def counted_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            counts["complex_exp"] += 1
            counts["complex_exp_points"] += np.size(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted_fft(np.fft.fft, "forward_rows"))
    monkeypatch.setattr(np.fft, "ifft", counted_fft(np.fft.ifft, "inverse_rows"))
    monkeypatch.setattr(np, "exp", counted_exp)
    return counts


def test_gate_attempt_transform_counts(numpy_calls):
    # real coefficients: e* keeps its spectra and moved rows, which e*e takes for its pairs (-1, 1) and (1, -1)
    e = assemble_projection(6 * GOLDEN.turns(0, 1) - 3, n=4096, centered=True)
    assert set(e.coeffs) == {-1, 0, 1}
    projection_gates(e, 6 * GOLDEN.turns(0, 1) - 3, True)
    assert numpy_calls["fft_calls"] == 5
    assert (numpy_calls["forward_rows"], numpy_calls["inverse_rows"], numpy_calls["fft_rows"]) == (3, 6, 9)
    assert numpy_calls["complex_exp"] <= 1
    assert numpy_calls["complex_exp_points"] <= 4096 // 2 + 1  # the frequencies 0..n/2


def _counted(numpy_calls, fn, *args):
    """fn(*args), and what numpy_calls counted during that call alone."""
    before = dict(numpy_calls)
    value = fn(*args)
    return value, {k: numpy_calls[k] - before[k] for k in before}


def _gate_rows(e):
    """(forward, inverse) FFT rows of a full gate attempt on e: shared when e's coefficients are real."""
    moved = [a for a in e.coeffs if a]
    if not moved:
        return 0, 0
    K = len(e.coeffs)
    if all(not f.imag.any() for f in e.coeffs.values()):
        return K, len(moved) * (K + 1) - sum(-a in e.coeffs for a in moved)
    return len(moved) + K, len(moved) * (K + 1)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), kmax=st.integers(1, 3))
def test_complex_loops_keep_the_plain_gate_path_and_match_reference(numpy_calls, seed, kmax):
    x = random_loop(random.Random(seed), GOLDEN.turns(0, 1), n=256, kmax=kmax)
    assume(any(f.imag.any() for f in x.coeffs.values()))  # not the zero element random_loop may draw
    gates, counts = _counted(numpy_calls, projection_gates, x, 0.5, True)
    assert gates == ref_projection_gates(x, 0.5, True)
    assert (counts["forward_rows"], counts["inverse_rows"]) == _gate_rows(x)


def test_a_complex_three_term_attempt_takes_13_rows(numpy_calls):
    rng = random.Random(3)
    x = random_loop(rng, GOLDEN.turns(0, 1), n=1024, kmax=1)
    x = LoopElement(x.beta, {k: x.coefficient(k) + 1j for k in (1, 0, -1)}, x.n)
    gates, counts = _counted(numpy_calls, projection_gates, x, 0.5, True)
    assert gates == ref_projection_gates(x, 0.5, True)
    assert counts["fft_calls"] == 5
    assert (counts["forward_rows"], counts["inverse_rows"], counts["fft_rows"]) == (5, 8, 13)


def _real_loop(rng, powers, n=1024, negative_zeros=False):
    t = np.arange(n) / n
    coeffs = {}
    for k in powers:
        f = sum(rng.uniform(-1, 1) * np.cos(2 * np.pi * (rng.randint(0, 32) * t + rng.random())) for _ in range(6))
        coeffs[k] = f.astype(complex)
        if negative_zeros:
            coeffs[k].imag[::3] = -0.0
    return LoopElement(GOLDEN.turns(0, 3), coeffs, n)


@pytest.mark.parametrize("powers", [(1, 0, -1), (0, 1), (2, 0, -1), (1, -1), (-2,)])
@pytest.mark.parametrize("negative_zeros", [False, True], ids=["+0.0", "-0.0"])
def test_real_loops_share_the_adjoint_rows_and_match_reference(numpy_calls, powers, negative_zeros):
    # -0.0 is a zero imaginary part: the shared path, whose e* differs from conj's only in signs of zeros
    x = _real_loop(random.Random(len(powers)), powers, negative_zeros=negative_zeros)
    assert np.signbit(x.coeffs[powers[0]].imag).any() == negative_zeros
    gates, counts = _counted(numpy_calls, projection_gates, x, 0.5, True)
    assert gates == ref_projection_gates(x, 0.5, True)
    assert counts["forward_rows"] == len(powers)  # each coefficient once; the complex path twice if moved
    assert (counts["forward_rows"], counts["inverse_rows"]) == _gate_rows(x)
    attempt = loops._gate_attempt(x, 0.5, True)  # stopped at the adjoint gate: the adjoint's rows only
    _, counts = _counted(numpy_calls, lambda: (next(attempt), next(attempt)))
    assert (counts["fft_calls"], counts["fft_rows"]) == (2, 2 * sum(1 for k in powers if k))
    attempt.close()


def test_invariant_transform_counts(numpy_calls):
    e = assemble_projection(3 * GOLDEN.turns(0, 1) - 1, n=4096, centered=True)
    loop_invariants(e, GOLDEN, 3)
    assert numpy_calls["fft_rows"] <= 3
    assert numpy_calls["fft_calls"] <= 1
    assert numpy_calls["complex_exp"] <= 1
    assert numpy_calls["complex_exp_points"] <= (4096 // 2 + 1) * len({abs(k) for k in e.coeffs if k})


def test_a_refining_attempt_stops_at_its_first_failed_gate(numpy_calls, monkeypatch):
    # below the ceiling the trace and adjoint gates come first, and a failed adjoint decides; the attempt
    # at the ceiling takes all four gates, which its ResidualExceeded reports
    marks, grids = [], []
    assemble = loops.assemble_projection

    def marked(*args, **kwargs):
        marks.append(dict(numpy_calls))
        grids.append(kwargs["n"])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(loops, "assemble_projection", marked)
    with pytest.raises(ResidualExceeded) as info:
        pr_build(11, -6, GOLDEN, n=4096, eps=0.0009)
    marks.append(dict(numpy_calls))
    *refining, ceiling = ({k: b[k] - a[k] for k in a} for a, b in zip(marks, marks[1:]))
    assert grids == [4096, 16384, 65536]
    for n, attempt in zip(grids, refining):
        assert attempt["fft_calls"] <= 2 and attempt["fft_rows"] <= 4 and attempt["complex_exp"] <= 1
        assert attempt["complex_exp_points"] <= n // 2 + 1
    assert ceiling == {"fft_calls": 5, "fft_rows": 9, "forward_rows": 3, "inverse_rows": 6, "complex_exp": 1,
                       "complex_exp_points": 65536 // 2 + 1}
    for gate in BuildGates.__slots__:
        assert f"{gate}=" in str(info.value)
