import pytest

from nctorus import traces
from nctorus.algebra import (
    ONE,
    U,
    V,
    Element,
    GaussRational,
    Monomial,
    PhaseScalar,
    apply_automorphism,
    numeric_eval,
    sigma_average,
)
from nctorus.theta import ThetaParam
from nctorus.traces import (
    PHI_INDICES,
    PSI_INDICES,
    RelationReport,
    chern_T2,
    chern_T4,
    phi_eval,
    psi_eval,
    relation_check,
    twist_discovery,
)

from conftest import random_element


# ------------------------------------------------------------- monomial values


def test_phi_values_on_u2v2():
    x = Element.monomial(2, 2)
    assert phi_eval("00", x) == PhaseScalar.lam(-8)
    assert phi_eval("01", x) == PhaseScalar()
    assert phi_eval("10", x) == PhaseScalar()
    assert phi_eval("11", x) == PhaseScalar()


def test_phi_on_identity():
    assert phi_eval("00", ONE) == PhaseScalar.lam(0)
    assert chern_T2(ONE).to_json() == ["(1)", "(1)", "0", "0", "0"]


def test_psi_monomial_values():
    assert psi_eval("10", U * V) == PhaseScalar.lam(-4)
    assert psi_eval("11", U) == PhaseScalar.lam(-1)
    assert psi_eval("22", U) == PhaseScalar.lam(0)
    assert psi_eval("10", U) == PhaseScalar()
    assert psi_eval("20", U * V) == PhaseScalar()


def test_bad_indices_rejected():
    # the index is checked before x is read, so the zero element is rejected too
    for x in (Element(), ONE):
        with pytest.raises(ValueError, match="unknown phi index"):
            phi_eval("02", x)
        with pytest.raises(ValueError, match="unknown psi index"):
            psi_eval("00", x)


# --------------------------------------------------------------- characters


def test_t4_identity_value():
    assert chern_T4(ONE).to_json() == ["(1)", "(1)", "0", "(1)", "0", "0"]


def test_t4_of_sigma_average_of_u():
    # computed by hand from the monomial formulas on U, V, U^-1, V^-1
    t4 = chern_T4(sigma_average(U))
    assert t4.tau == PhaseScalar()
    assert t4.psi10 == PhaseScalar()
    assert t4.psi11 == PhaseScalar.of(4) * PhaseScalar.lam(-1)  # 4 L^-1
    assert t4.psi20 == PhaseScalar()
    assert t4.psi21 == PhaseScalar()
    assert t4.psi22 == PhaseScalar.of(4)


def test_linearity(rng):
    for _ in range(30):
        x, y = random_element(rng), random_element(rng)
        for ij in PHI_INDICES:
            assert phi_eval(ij, x + y) == phi_eval(ij, x) + phi_eval(ij, y)
        for jk in PSI_INDICES:
            assert psi_eval(jk, x + y) == psi_eval(jk, x) + psi_eval(jk, y)


# ------------------------------------------------------- twisted trace property


def test_phi_twisted_trace_exhaustive_small():
    monos = [Element.monomial(m, n) for m in range(-4, 5) for n in range(-4, 5)]
    flips = [apply_automorphism("flip", x) for x in monos]
    for ij in PHI_INDICES:
        for x in monos:
            for y, fy in zip(monos, flips):
                assert phi_eval(ij, x * y) == phi_eval(ij, fy * x)


def test_phi_twisted_trace_random_elements(rng):
    for _ in range(100):
        x, y = random_element(rng), random_element(rng)
        fy = apply_automorphism("flip", y)
        for ij in PHI_INDICES:
            assert phi_eval(ij, x * y) == phi_eval(ij, fy * x)


def test_phi_flip_invariance(rng):
    for _ in range(50):
        x = random_element(rng)
        fx = apply_automorphism("flip", x)
        for ij in PHI_INDICES:
            assert phi_eval(ij, fx) == phi_eval(ij, x)


def test_phi_hermitian_property(rng):
    thetas = [
        ThetaParam.preset("golden"),
        ThetaParam.preset("sqrt2"),
        ThetaParam([3] * 60),
    ]
    for _ in range(20):
        x = random_element(rng)
        h = x + x.star()
        for ij in PHI_INDICES:
            val = phi_eval(ij, h)
            for th in thetas:
                assert abs(numeric_eval(val, th).imag) <= 1e-12


# ------------------------------------------------------------- relation suite


def test_relations_on_identity():
    assert relation_check(ONE).ok


def test_relations_exhaustive_monomials():
    for m in range(-6, 7):
        for n in range(-6, 7):
            report = relation_check(Element.monomial(m, n))
            assert report.ok, f"failed at U^{m} V^{n}: {report.failed}"


def test_relations_random_elements(rng):
    for _ in range(100):
        assert relation_check(random_element(rng)).ok


def test_relation_failure_reports_witness(monkeypatch):
    report = relation_check(U + V)
    assert report.ok and report.failed is None and report.witness is None
    x = ONE + Element.monomial(1, 0, PhaseScalar({0: GaussRational(1), 3: GaussRational(0, 2)})) + U * U + V
    slots = traces._SLOTS  # slot -> (exponent form, parity classes)
    psi20, psi10 = slots["psi20"], slots["psi10"]

    # psi20 with the psi1k exponent form: its row no longer matches the
    # phi00 row, a separate declaration, and the bridge catches it on U^2
    monkeypatch.setitem(slots, "psi20", (psi10[0], psi20[1]))
    assert relation_check(x) == RelationReport(False, "psi20 = phi00", Monomial(2, 0))
    assert relation_check(U + V).ok  # no U^2 term, nothing to catch

    # psi10 also on the class (1, 0), which gamma negates: the first gamma sign law fails, on U
    monkeypatch.setitem(slots, "psi20", psi20)
    monkeypatch.setitem(slots, "psi10", (psi10[0], psi10[1] + ((1, 0),)))
    assert relation_check(x) == RelationReport(False, "psi10 . gamma = psi10", Monomial(1, 0))
    assert relation_check(V * V + U * V) == RelationReport(True)


# ------------------------------------------------------------ twist discovery


def test_twist_discovery_table():
    # recorded empirical table; phi must twist by the flip
    assert twist_discovery("tau", 3).holds == ("id",)
    for ij in PHI_INDICES:
        assert twist_discovery(f"phi{ij}", 3).holds == ("flip",)
    assert twist_discovery("psi10", 3).holds == ("sigma",)
    assert twist_discovery("psi11", 3).holds == ("sigma",)
    for jk in ("20", "21", "22"):
        assert twist_discovery(f"psi{jk}", 3).holds == ("flip",)


def test_twist_discovery_unknown_functional():
    with pytest.raises(ValueError):
        twist_discovery("psi99")


@pytest.mark.parametrize("max_exp", [0, -1])
def test_twist_discovery_rejects_an_empty_scan(max_exp):
    # below exponent 1 the scan sees at most the unit, so every candidate twist would hold
    with pytest.raises(ValueError, match="max_exp must be at least 1"):
        twist_discovery("phi00", max_exp)
