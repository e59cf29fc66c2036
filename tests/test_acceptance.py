"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance and budget is pinned here, nothing is deferred to calibration.
"""

import copy
import random
import time
from fractions import Fraction

import numpy as np

from nctorus.algebra import (
    ONE,
    Element,
    PhaseScalar,
    apply_automorphism,
    canonical_trace,
)
from nctorus.lattice import (
    Genus,
    K0Coordinates,
    KScalar,
    basis_rank,
    chern_from_t4,
    decompose,
    genus_basis_decompose,
    parse_chern,
    recompose,
    semiflat_membership,
)
from nctorus.loops import loop_invariants, pr_build, projection_gates
from nctorus.realization import (
    KINDS,
    TraceValue,
    certificate_from_json,
    certificate_to_json,
    realize,
    subalgebra_generators,
    verify_certificate,
)
from nctorus.theta import ThetaParam
from nctorus.traces import PHI_INDICES, chern_T2, chern_T4, phi_eval, relation_check

GOLDEN = ThetaParam.preset("golden")
SQRT2 = ThetaParam.preset("sqrt2")


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}  {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def _random_element(rng, max_terms=6, span=5):
    x = Element()
    for _ in range(rng.randint(1, max_terms)):
        from nctorus.algebra import GaussRational

        coef = GaussRational(
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
        )
        x = x + Element.monomial(
            rng.randint(-span, span),
            rng.randint(-span, span),
            PhaseScalar({rng.randint(-4, 4): coef}),
        )
    return x


def test_criterion_01_exact_algebra_suite():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(1000):
        x, y, z = (_random_element(rng, max_terms=6, span=5) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x * y).star() == y.star() * x.star() and x.star().star() == x
        s = apply_automorphism("sigma", x)
        s2 = apply_automorphism("sigma", s)
        s4 = apply_automorphism("sigma", apply_automorphism("sigma", s2))
        assert s4 == x
        assert s2 == apply_automorphism("flip", x)
        assert apply_automorphism("gamma", apply_automorphism("sigma", x)) == apply_automorphism(
            "sigma", apply_automorphism("gamma", x)
        )
        assert canonical_trace(x * y) == canonical_trace(y * x)
    elapsed = time.monotonic() - start
    _report(1, "exact algebra suite (1000 randomized cases per law)", elapsed < 10.0,
            f"{elapsed:.1f}s < 10s")


def test_criterion_02_twisted_trace_exhaustive():
    start = time.monotonic()
    monos = [(m, n) for m in range(-6, 7) for n in range(-6, 7)]
    elems = {mn: Element.monomial(*mn) for mn in monos}
    flips = {mn: apply_automorphism("flip", e) for mn, e in elems.items()}
    pairs = 0
    for x_mn in monos:
        x = elems[x_mn]
        for y_mn in monos:
            xy = x * elems[y_mn]
            fyx = flips[y_mn] * x
            for ij in PHI_INDICES:
                assert phi_eval(ij, xy) == phi_eval(ij, fyx)
            pairs += 1
    elapsed = time.monotonic() - start
    _report(2, f"twisted-trace identity on {pairs} monomial pairs x 4 functionals",
            elapsed < 30.0, f"{elapsed:.1f}s < 30s")


def test_criterion_03_relation_suite_on_grid():
    start = time.monotonic()
    for m in range(-6, 7):
        for n in range(-6, 7):
            report = relation_check(Element.monomial(m, n))
            assert report.ok, (m, n, report.failed)
    rng = random.Random(103)
    for _ in range(100):
        assert relation_check(_random_element(rng)).ok
    elapsed = time.monotonic() - start
    _report(3, "bridge identities and parity sign laws on the |exp| <= 6 grid", True,
            f"{elapsed:.1f}s")


def test_criterion_04_identity_characters():
    ok = chern_T4(ONE).to_json() == ["(1)", "(1)", "0", "(1)", "0", "0"]
    ok &= chern_T2(ONE).to_json() == ["(1)", "(1)", "0", "0", "0"]
    _report(4, "T4(1) = (1; 1, 0; 1, 0, 0) and T2(1) = (1; 1, 0, 0, 0)", ok)


def test_criterion_05_lattice_suite():
    rng = random.Random(105)
    for _ in range(1000):
        coords = K0Coordinates(*(rng.randint(-20, 20) for _ in range(9)))
        res = decompose(recompose(coords))
        assert res and res.coordinates == coords
    res = decompose(chern_from_t4(chern_T4(ONE)))
    ok = res.coordinates == K0Coordinates(0, 0, 1, 0, 0, 0, 0, 0, 0)
    ok &= basis_rank() == 9
    _report(5, "decompose/recompose on 1000 vectors; T4(1) = e3; rank 9", ok)


def _parity_masks(n):
    """Vectorized slot tests on the nine integer coordinates n1..n9, arrays of broadcastable shapes.

    Returns (premise two invariants vanish, additionally all genus slots
    vanish, trace-even ok, trace-multiple-of-4 ok) boolean arrays, each
    broadcast to the coordinates' common shape; the slot formulas are twice
    the real/imaginary parts, which clears halves.
    """
    n1, n2, n3, n4, n5, n6, n7, n8, n9 = n
    p10re = 2 * n2 + 2 * n3 + n7 - n8 - n9
    p10im = 2 * n2 - n7 - n8 + n9
    p11re = 2 * n5 + 2 * n6 + n7 - n8 - n9
    p11im = 2 * n5 - n7 - n8 + n9
    tau_a = 2 * n1 + 2 * n2 + n3 + 2 * n4 + 2 * n5 + n6
    tau_b = n7 + n8 + n9
    mask1 = (p10re == 0) & (p10im == 0) & (p11re == 0) & (p11im == 0)
    p20 = 4 * n1 + 2 * n3 + n7 - n8 + n9
    p21 = 4 * n4 + 2 * n6 + n7 - n8 + n9
    p22 = n7 - n8 + n9
    mask2 = mask1 & (p20 == 0) & (p21 == 0) & (p22 == 0)
    even_ok = (tau_a % 2 == 0) & (tau_b % 2 == 0)
    mult4_ok = (tau_a % 4 == 0) & (tau_b % 4 == 0)
    return np.broadcast_arrays(mask1, mask2, even_ok, mult4_ok)


def test_criterion_06_quantization_brute_force():
    start = time.monotonic()
    # full grid |N_j| <= 3: 7^9 combinations, one chunk of 7^8 per value of N1.  N2..N9 are int8
    # axes of their own (every slot form stays within |30|), so each form broadcasts to the grid.
    total = 7**9
    steps = np.arange(-3, 4, dtype=np.int8)
    axes = [steps.reshape([7 if i == j else 1 for i in range(8)]) for j in range(8)]
    swept = hits1 = hits2 = 0
    for n1 in steps:
        mask1, mask2, even_ok, mult4_ok = _parity_masks([n1, *axes])
        swept += mask1.size
        assert bool(even_ok[mask1].all()), "even-trace implication has a counterexample"
        assert bool(mult4_ok[mask2].all()), "multiple-of-4 implication has a counterexample"
        hits1 += int(mask1.sum())
        hits2 += int(mask2.sum())
    # cross-validate the vectorized slot formulas against the exact layer
    rng = np.random.default_rng(106)
    sample = rng.integers(-3, 4, size=(2000, 9), dtype=np.int64)
    m1, m2, _, _ = _parity_masks(sample.T)
    for j in range(sample.shape[0]):
        exact = recompose(K0Coordinates(*(int(x) for x in sample[j])))
        assert bool(m1[j]) == (exact.psi10 == exact.psi11 == KScalar())
        assert bool(m2[j]) == all(s == KScalar() for s in exact.slots()[1:])
    elapsed = time.monotonic() - start
    # the all-zero surface is a two-parameter family, so only a handful of
    # grid points satisfy it; nonvacuity is what matters
    ok = swept == total and hits1 > 1000 and hits2 > 0 and elapsed < 60.0
    _report(
        6,
        f"parity lemma swept over all {total} grid vectors, zero counterexamples",
        ok,
        f"{hits1} premise hits, {hits2} all-zero hits, {elapsed:.1f}s < 60s",
    )


def test_criterion_07_semiflat_membership_examples():
    d = semiflat_membership(parse_chern("(2t;0,0;1,1,2)"), GOLDEN)
    ok = d.member and d.genus.as_tuple() == (1, 1, 2)
    d2 = semiflat_membership(chern_from_t4(chern_T4(ONE)), GOLDEN)
    ok &= (not d2.member) and d2.reason == "psi10-nonzero"
    ok &= genus_basis_decompose(Genus(0, 2, 0)) == (-1, 2, -2)
    _report(7, "cone membership, rejection reason, genus decomposition", ok)


def _random_target(rng, theta, kind):
    from nctorus.realization import _BY_KIND

    lo, hi, mult = _BY_KIND[kind].domain
    while True:
        b = mult * rng.choice([i for i in range(-15, 16) if i])
        shift = theta.floor_linear(b)
        for base in (shift, shift + 1):
            a = -base
            if mult > 1 and a % mult:
                continue
            t = TraceValue(a, b)
            if t.in_subgroup(mult) and t.in_open_interval(theta, lo, hi):
                return t


def _mutations(payload):
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
        clone = copy.deepcopy(payload)
        cursor = clone
        for step in path[:-1]:
            cursor = cursor[step]
        cursor[path[-1]] = old + 1
        yield clone


def test_criterion_08_realization_suite():
    rng = random.Random(108)
    start = time.monotonic()
    certs = []
    for theta in (GOLDEN, SQRT2):
        for kind in KINDS:
            for i in range(100):
                t = _random_target(rng, theta, kind)
                cert = realize(kind, t, theta)
                assert verify_certificate(cert, theta).ok, (kind, t)
                node = cert.inner if type(cert).__name__ == "ReflectedCert" else cert
                if kind == "fourier_invariant":
                    assert node.k in (0, 1)
                if i < 2:
                    certs.append((cert, theta))
    mutations_checked = 0
    for cert, theta in certs:
        for mutated in _mutations(certificate_to_json(cert)):
            try:
                bad = certificate_from_json(mutated)
            except ValueError:
                continue
            assert not verify_certificate(bad, theta).ok
            mutations_checked += 1
    elapsed = time.monotonic() - start
    _report(
        8,
        "100 certificates per kind per preset verify; integer mutations all caught",
        elapsed < 10.0 and mutations_checked > 100,
        f"{mutations_checked} mutations, {elapsed:.1f}s < 10s",
    )


def test_criterion_09_subalgebra_embedding_exact():
    for m in range(-8, 9):
        for n in range(-8, 9):
            if (m, n) == (0, 0):
                continue
            ut, vt, _ = subalgebra_generators(m, n)
            s = m * m + n * n
            assert apply_automorphism("sigma", ut) * vt == ONE
            assert vt * ut == (ut * vt).scale(PhaseScalar.lam(4 * s))
    _report(9, "embedding relations exact for all |m|, |n| <= 8", True)


TABLE = {
    "golden": {(6, -3): (0, 1, 0, 0), (14, -8): (0, 0, 0, 0), (3, -1): (0.5, 0.5, -0.5, 0.5)},
    "sqrt2": {(4, -1): (0, 1, 0, 0), (2, 0): (0, 0, 0, 0), (9, -3): (0.5, 0.5, -0.5, 0.5)},
}


def test_criterion_10_powers_rieffel_numerics():
    from nctorus.loops import assemble_projection

    start = time.monotonic()
    for preset, rows in TABLE.items():
        theta = ThetaParam.preset(preset)
        for (r, s), expected in rows.items():
            alpha = r * theta.turns(0, 1) + s
            # literal 4096-point build: the stated tolerances hold on this grid
            raw = assemble_projection(alpha, n=4096, centered=True)
            gates = projection_gates(raw, alpha, True)
            assert gates.square_residual <= 1e-8, (preset, r, s, gates)
            assert gates.trace_error <= 1e-10, (preset, r, s, gates)
            assert gates.flip_residual <= 1e-8, (preset, r, s, gates)
            rep = loop_invariants(raw, theta, r)
            got = tuple(None if v is None else float(v) for v in rep.rounded)
            assert got == tuple(float(x) for x in expected), (preset, r, s, got)
            # the gated builder (which may refine) agrees on the table row
            e = pr_build(r, s, theta, flip_symmetric=True, n=4096)
            rep2 = loop_invariants(e, theta, r)
            assert rep2.rounded == rep.rounded
    elapsed = time.monotonic() - start
    _report(
        10,
        "projection gates and all three parity rows at both presets (grid 4096)",
        elapsed < 60.0,
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_11_density_of_realizable_traces():
    rng = random.Random(111)
    t = GOLDEN.turns(0, 1)
    p, q = next((p, q) for p, q in GOLDEN.convergents if 0 < q * t - p < 2.5e-4)
    d = q * t - p
    for _ in range(100):
        x = rng.uniform(1e-3, 1 - 1e-3)
        for mult, kind in ((4, "flat"), (2, "semiflat")):
            k = max(1, round(x / (mult * d)))
            tv = TraceValue(-mult * k * p, mult * k * q)
            if not tv.in_open_interval(GOLDEN, 0, 1):
                k -= 1
                tv = TraceValue(-mult * k * p, mult * k * q)
            assert abs(GOLDEN.turns(tv.a, tv.b) - x) < 1e-3
            assert verify_certificate(realize(kind, tv, GOLDEN), GOLDEN).ok
    _report(11, "flat and semiflat targets within 1e-3 of 100 uniform points", True)
