"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nctorus.algebra import Element, GaussRational, PhaseScalar


# the presets as closed forms, for an oracle independent of their continued fractions
MP_THETA = {"golden": lambda: (mpmath.sqrt(5) - 1) / 2, "sqrt2": lambda: mpmath.sqrt(2) - 1}


def mp_turns(name, a, b):
    """(a + b*theta) mod 1 for a preset theta, correctly rounded to a float by mpmath.

    a and b are int or Fraction; the working precision is set from their size.
    """
    a, b = Fraction(a), Fraction(b)
    digits = 40 + max(len(str(x)) for x in (a.numerator, a.denominator, b.numerator, b.denominator))
    with mpmath.workdps(digits):
        x = mpmath.mpf(a.numerator) / a.denominator + mpmath.mpf(b.numerator) / b.denominator * MP_THETA[name]()
        return float(x - mpmath.floor(x))


def ref_phase(n, s, scale=2j * np.pi):
    """exp(scale*m*s) over the n FFT frequencies m, e(m*s) by default: the plain phase formula, one complex
    exp per frequency."""
    return np.exp(scale * np.fft.fftfreq(n, 1.0 / n).astype(int) * s)


def ref_shift(f, s):
    """Trigonometric interpolation of t -> f(t + s) for the samples f of a loop coefficient.

    Each term shifted on its own: the oracle for the phase tables that ``loops`` shares.
    """
    return np.fft.ifft(np.fft.fft(f) * ref_phase(len(f), s))


def snorm(x):
    """The norm surrogate of a loop element in which the projection gates are stated: the sum over
    V-powers of its coefficient sup-norms."""
    return sum(float(np.abs(f).max()) for f in x.coeffs.values())


def reflected_chain_json(depth: int, certificate) -> str:
    """JSON text of a certificate under ``depth`` reflected wrappers, each with the target 1 - theta.

    Built as text, so that no depth reaches the recursion limit of the json encoder.
    """
    wrap = '{"node": "reflected", "lemma": "angle-reflection", "target": {"a": 1, "b": -1}, "inner": '
    return wrap * depth + json.dumps(certificate) + "}" * depth


def reorder_word_oracle(letters):
    """Brute-force normal ordering of a word in U, V and their inverses.

    ``letters`` is a sequence of ("U", +-1) / ("V", +-1) factors read left
    to right.  Only the single relation V U = L^4 U V (equivalently
    V^a U^b = L^{4ab} U^b V^a applied one adjacent swap at a time) is
    used, so this is independent of the Element multiplication routine.
    Returns (lam_exponent, m, n).
    """
    word = [(sym, int(s)) for sym, s in letters]
    exponent = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            (s1, e1), (s2, e2) = word[i], word[i + 1]
            if s1 == "V" and s2 == "U":
                exponent += 4 * e1 * e2
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    m = sum(e for sym, e in word if sym == "U")
    n = sum(e for sym, e in word if sym == "V")
    return exponent, m, n


def monomial_letters(m, n):
    """U^m V^n as single-step letters."""
    return [("U", 1 if m > 0 else -1)] * abs(m) + [("V", 1 if n > 0 else -1)] * abs(n)


def random_gauss(rng, span=3):
    return GaussRational(
        Fraction(rng.randint(-span, span), rng.choice((1, 2, 3))),
        Fraction(rng.randint(-span, span), rng.choice((1, 2, 3))),
    )


def random_phase(rng, lam_span=4, parts=2):
    coeffs = {}
    for _ in range(rng.randint(1, parts)):
        coeffs[rng.randint(-lam_span, lam_span)] = random_gauss(rng)
    return PhaseScalar(coeffs)


def random_element(rng, max_terms=6, span=5):
    x = Element()
    for _ in range(rng.randint(1, max_terms)):
        x = x + Element.monomial(
            rng.randint(-span, span), rng.randint(-span, span), random_phase(rng)
        )
    return x


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
