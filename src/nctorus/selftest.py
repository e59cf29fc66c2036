"""The exact identity suites that ``nctorus selftest`` runs.

Each suite checks one family of laws on random or gridded inputs: ring and
star laws, automorphism relations, trace laws, the twisted-trace relations,
the lattice round trip, realize/verify per kind and the subalgebra
embedding.  ``nctorus selftest`` runs them all, in order, from one
``random.Random(seed)``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import algebra, lattice, realization, traces
from .algebra import ONE, Element, apply_automorphism, canonical_trace
from .theta import ThetaParam


def suites(seed: int = 20170):
    """(name, callable) pairs; each returns True on success.

    The suites draw their random inputs, when they run, from one generator
    seeded with ``seed``.
    """
    rng = random.Random(seed)

    def random_element(max_terms=4, span=3):
        x = Element.zero()
        for _ in range(rng.randint(1, max_terms)):
            coef = algebra.GaussRational(
                Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
                Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
            )
            x = x + Element.monomial(
                rng.randint(-span, span), rng.randint(-span, span),
                algebra.PhaseScalar({rng.randint(-4, 4): coef}),
            )
        return x

    def ring_laws():
        for _ in range(120):
            x, y, z = (random_element() for _ in range(3))
            if (x * y) * z != x * (y * z):
                return False
            if x * (y + z) != x * y + x * z:
                return False
            if x * ONE != x or ONE * x != x:
                return False
        return True

    def star_and_automorphisms():
        for _ in range(120):
            x, y = random_element(), random_element()
            if (x * y).star() != y.star() * x.star():
                return False
            if x.star().star() != x:
                return False
            s2 = apply_automorphism("sigma", apply_automorphism("sigma", x))
            if s2 != apply_automorphism("flip", x):
                return False
            sg = apply_automorphism("sigma", apply_automorphism("gamma", x))
            gs = apply_automorphism("gamma", apply_automorphism("sigma", x))
            if sg != gs:
                return False
        return True

    def trace_laws():
        for _ in range(120):
            x, y = random_element(), random_element()
            if canonical_trace(x * y) != canonical_trace(y * x):
                return False
            if canonical_trace(apply_automorphism("sigma", x)) != canonical_trace(x):
                return False
        return True

    def relations_grid():
        for m in range(-4, 5):
            for n in range(-4, 5):
                if not traces.relation_check(Element.monomial(m, n)):
                    return False
        return True

    def twisted_trace():
        for m1 in range(-3, 4):
            for n1 in range(-3, 4):
                x = Element.monomial(m1, n1)
                for m2 in range(-3, 4):
                    for n2 in range(-3, 4):
                        y = Element.monomial(m2, n2)
                        fy = apply_automorphism("flip", y)
                        for ij in traces.PHI_INDICES:
                            if traces.phi_eval(ij, x * y) != traces.phi_eval(ij, fy * x):
                                return False
        return True

    def lattice_roundtrip():
        for _ in range(100):
            coords = lattice.K0Coordinates(*(rng.randint(-20, 20) for _ in range(9)))
            res = lattice.decompose(lattice.recompose(coords))
            if not res or res.coordinates != coords:
                return False
        return lattice.basis_rank() == 9

    def realization_suite():
        theta = ThetaParam.preset("golden")
        for kind, mult, hi in (
            ("cyclic", 1, Fraction(1, 4)),
            ("semicyclic", 1, Fraction(1, 2)),
            ("flat", 4, Fraction(1)),
            ("semiflat", 2, Fraction(1)),
            ("fourier_invariant", 1, Fraction(1)),
        ):
            done = 0
            while done < 10:
                b = mult * rng.randint(1, 12)
                shift = theta.floor_linear(b)
                a = -(shift // mult) * mult
                t = realization.TraceValue(a, b)
                if not (t.in_subgroup(mult) and t.in_open_interval(theta, 0, hi)):
                    continue
                cert = realization.realize(kind, t, theta)
                if not realization.verify_certificate(cert, theta):
                    return False
                done += 1
        return True

    def embedding_grid():
        for m in range(-4, 5):
            for n in range(-4, 5):
                if (m, n) == (0, 0):
                    continue
                if realization._check_embedding(m, n) is not None:
                    return False
        return True

    return (
        ("ring-laws", ring_laws),
        ("star-and-automorphisms", star_and_automorphisms),
        ("trace-laws", trace_laws),
        ("relation-grid", relations_grid),
        ("twisted-trace-grid", twisted_trace),
        ("lattice-roundtrip", lattice_roundtrip),
        ("realization-verify", realization_suite),
        ("embedding-grid", embedding_grid),
    )
