"""Seeded input generators and exact reference answers for the benchmark.

Nothing here imports the package under test: every input and every
expected answer is derived from the seed with the standard library, so a
change to the program cannot change what it is asked or what counts as
right.

Angles are quadratic surds theta = (sqrt(D) - c) / d, which makes the
reference answers exact integer computations with ``math.isqrt``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# ------------------------------------------------------------------ angles


class Surd:
    """theta = (sqrt(D) - c) / d with D not a perfect square."""

    def __init__(self, name: str, spec: str, D: int, c: int, d: int):
        self.name, self.spec, self.D, self.c, self.d = name, spec, D, c, d
        self.value = (math.sqrt(D) - c) / d

    def floor_mul(self, b: int) -> int:
        """floor(b * theta), exact."""
        if b == 0:
            return 0
        r = math.isqrt(b * b * self.D)  # floor(|b| sqrt(D)); never exact
        floor_b_root = r if b > 0 else -r - 1
        return (floor_b_root - b * self.c) // self.d

    def sign_linear(self, a, b) -> int:
        """Exact sign of a + b*theta for rational a, b."""
        a, b = Fraction(a), Fraction(b)
        den = math.lcm(a.denominator, b.denominator)
        A, B = int(a * den), int(b * den)
        # d*(A + B*theta) = (d*A - B*c) + B*sqrt(D)
        P, Q = self.d * A - B * self.c, B
        if Q == 0:
            return (P > 0) - (P < 0)
        if P >= 0 and Q > 0:
            return 1
        if P <= 0 and Q < 0:
            return -1
        diff = P * P - Q * Q * self.D  # never 0: D is not a square
        return (1 if diff > 0 else -1) * (1 if P > 0 else -1)

    def in_open_interval(self, a, b, lo, hi) -> bool:
        return self.sign_linear(Fraction(a) - lo, b) > 0 and self.sign_linear(Fraction(a) - hi, b) < 0


# sqrt(2501) - 50 = [0; 100, 100, ...]: large partial quotients, so each
# convergent step is a big jump and bracket searches stop early.
ANGLES = (
    Surd("golden", "golden", 5, 1, 2),
    Surd("sqrt2", "sqrt2", 2, 1, 1),
    Surd("sqrt2501", "cf:" + ",".join(["100"] * 160), 2501, 50, 1),
)
ANGLE = {s.name: s for s in ANGLES}


def log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return max(lo, min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))))


# ---------------------------------------------------------------- elements
#
# An element is a dict (m, n) -> {k: (re, im)}: the coefficient of U^m V^n
# is sum_k (re + im*i) L^k.


# L-powers in the coefficient of the t-th term: the shape of an element, and
# so the cost of multiplying it, depends on its term count alone.
TERM_POWERS = (1, 2, 1, 3, 2, 1, 2, 1)


def random_element(rng: random.Random, n_terms: int, span: int = 3) -> dict:
    """Distinct monomials |m|, |n| <= span; term t has TERM_POWERS[t] powers of L."""
    monos = [(m, n) for m in range(-span, span + 1) for n in range(-span, span + 1)]
    out = {}
    for t, mono in enumerate(rng.sample(monos, n_terms)):
        coef = {}
        for k in rng.sample(range(-6, 7), TERM_POWERS[t]):
            re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            im = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if re == 0 and im == 0:
                re = Fraction(1)
            coef[k] = (re, im)
        out[mono] = coef
    return out


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coef_text(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return f"({_rat(re)})"
    if re == 0:
        return f"({_rat(im)}i)"
    return f"({_rat(re)}{'+' if im > 0 else '-'}{_rat(abs(im))}i)"


def _power(sym: str, k: int) -> str:
    return "" if k == 0 else sym if k == 1 else f"{sym}^{k}"


def element_text(el: dict) -> str:
    """The canonical text form the README documents: sorted monomials, then L-powers."""
    if not el:
        return "0"
    parts = []
    for (m, n) in sorted(el):
        for k in sorted(el[(m, n)]):
            factors = [_coef_text(*el[(m, n)][k])]
            factors += [p for p in (_power("L", k), _power("U", m), _power("V", n)) if p]
            parts.append(" ".join(factors))
    return " + ".join(parts)


def _slot_exponent(slot: str, m: int, n: int):
    """L-exponent of a character slot on U^m V^n, or None where its parity indicator is 0."""
    if slot == "tau":
        return 0 if (m, n) == (0, 0) else None
    if slot.startswith("phi"):  # phi_ij(U^m V^n) = L^{-2mn} [m = i] [n = j] (mod 2)
        return -2 * m * n if (m - int(slot[3])) % 2 == 0 and (n - int(slot[4])) % 2 == 0 else None
    if slot == "psi10":
        return -((m + n) ** 2) if (m - n) % 2 == 0 else None
    if slot == "psi11":
        return -((m + n) ** 2) if (m - n) % 2 == 1 else None
    if slot == "psi20":
        return -2 * m * n if m % 2 == 0 and n % 2 == 0 else None
    if slot == "psi21":
        return -2 * m * n if m % 2 == 1 and n % 2 == 1 else None
    return -2 * m * n if (m - n) % 2 == 1 else None  # psi22


T2_SLOTS = ("tau", "phi00", "phi01", "phi10", "phi11")
T4_SLOTS = ("tau", "psi10", "psi11", "psi20", "psi21", "psi22")


def character_reference(el: dict, slots) -> list:
    """Character slots of an element, each a dict k -> (re, im) without zeros."""
    out = []
    for slot in slots:
        acc: dict = {}
        for (m, n), coef in el.items():
            e = _slot_exponent(slot, m, n)
            if e is None:
                continue
            for k, (re, im) in coef.items():
                r0, i0 = acc.get(k + e, (0, 0))
                acc[k + e] = (r0 + re, i0 + im)
        out.append({k: v for k, v in acc.items() if v != (0, 0)})
    return out


def phase_numeric(slot: dict, theta: float) -> complex:
    return sum(complex(re, im) * complex(math.cos(math.pi * k * theta / 2), math.sin(math.pi * k * theta / 2))
               for k, (re, im) in slot.items())


# ----------------------------------------------------------------- lattice
#
# The nine spanning vectors of the character lattice (paper, Table of
# K0 generators), slots (tau; psi10, psi11; psi20, psi21, psi22), each slot
# (a, b, c, d) standing for (a + b*theta) + i*(c + d*theta).

_H = Fraction(1, 2)
_Z = (0, 0, 0, 0)
BASIS = (
    ((2, 0, 0, 0), _Z, _Z, (2, 0, 0, 0), _Z, _Z),
    ((2, 0, 0, 0), (1, 0, 1, 0), _Z, _Z, _Z, _Z),
    ((1, 0, 0, 0), (1, 0, 0, 0), _Z, (1, 0, 0, 0), _Z, _Z),
    ((2, 0, 0, 0), _Z, _Z, _Z, (2, 0, 0, 0), _Z),
    ((2, 0, 0, 0), _Z, (1, 0, 1, 0), _Z, _Z, _Z),
    ((1, 0, 0, 0), _Z, (1, 0, 0, 0), _Z, (1, 0, 0, 0), _Z),
    ((0, 1, 0, 0), (_H, 0, -_H, 0), (_H, 0, -_H, 0), (_H, 0, 0, 0), (_H, 0, 0, 0), (1, 0, 0, 0)),
    ((0, 1, 0, 0), (-_H, 0, -_H, 0), (-_H, 0, -_H, 0), (-_H, 0, 0, 0), (-_H, 0, 0, 0), (-1, 0, 0, 0)),
    ((0, 1, 0, 0), (-_H, 0, _H, 0), (-_H, 0, _H, 0), (_H, 0, 0, 0), (_H, 0, 0, 0), (1, 0, 0, 0)),
)


def combine(coords) -> tuple:
    """sum N_j V_j as six slots of four Fractions."""
    slots = [[Fraction(0)] * 4 for _ in range(6)]
    for n, vec in zip(coords, BASIS):
        for s, parts in enumerate(vec):
            for j, x in enumerate(parts):
                slots[s][j] += n * x
    return tuple(tuple(s) for s in slots)


def kscalar_text(parts) -> str:
    out = ""
    for x, suffix in zip(parts, ("", "t", "i", "ti")):
        if x:
            out += ("+" if x > 0 else "-") + _rat(abs(Fraction(x))) + suffix
    return out.lstrip("+") or "0"


def chern_text(slots) -> str:
    s = [kscalar_text(p) for p in slots]
    return f"({s[0]}; {s[1]}, {s[2]}; {s[3]}, {s[4]}, {s[5]})"


def semiflat_surface(n1, n2, n3, n4, n9) -> tuple:
    """Coordinates with psi10 = psi11 = 0 (paper: n5 = n2, n6 = n3, n7 = n9 - n3, n8 = 2 n2 + n3)."""
    return (n1, n2, n3, n4, n2, n3, n9 - n3, 2 * n2 + n3, n9)


def membership_reference(coords, surd: Surd) -> dict:
    """Expected semiflat-cone decision for integer coordinates."""
    slots = combine(coords)
    if any(slots[1]):
        return {"member": False, "reason": "psi10-nonzero"}
    if any(slots[2]):
        return {"member": False, "reason": "psi11-nonzero"}
    n1, n2, n3, n4, n5, n6, n7, n8, n9 = coords
    a = 2 * n1 + 2 * n2 + n3 + 2 * n4 + 2 * n5 + n6
    b = n7 + n8 + n9
    if surd.sign_linear(a, b) <= 0:
        return {"member": False, "reason": "nonpositive-trace"}
    genus = (2 * n1 - n2 + n9, 2 * n4 - n2 + n9, 2 * n9 - 2 * n2 - 2 * n3)
    return {"member": True, "reason": None, "genus": genus, "trace": (a, b)}


def random_coords(rng: random.Random, on_surface: bool) -> tuple:
    def n():
        return rng.choice((-1, 1)) * log_uniform_int(rng, 1, 10_000) if rng.random() < 0.9 else 0

    if on_surface:
        return semiflat_surface(n(), n(), n(), n(), n())
    return tuple(n() for _ in range(9))


# ------------------------------------------------------------ trace targets

KIND_DOMAIN = {  # (lo, hi, subgroup multiple)
    "cyclic": (Fraction(0), Fraction(1, 4), 1),
    "semicyclic": (Fraction(0), Fraction(1, 2), 1),
    "flat": (Fraction(0), Fraction(1), 4),
    "semiflat": (Fraction(0), Fraction(1), 2),
    "fourier_invariant": (Fraction(0), Fraction(1), 1),
}
KINDS = tuple(KIND_DOMAIN)


def trace_target(rng: random.Random, surd: Surd, kind: str, sign: int, expect: str, b_mag=None,
                 decade=None) -> tuple:
    """(a, b) for a trace a + b*theta with the wanted outcome.

    expect: "ok" (inside the kind's domain), "OutOfRange" (right subgroup,
    outside the interval) or "WrongSubgroup" (coordinates off the subgroup).
    |b| is b_mag when given, else log-uniform in [10^decade, 10^(decade+1))
    when a decade in 0..5 is given (widened upwards when the decade holds
    no such target, as happens for small |b|), else log-uniform in [1, 10^6].
    """
    lo, hi, mult = KIND_DOMAIN[kind]
    for attempt in itertools.count():
        if b_mag is not None:
            mag = b_mag
        elif decade is not None:
            mag = log_uniform_int(rng, 10 ** decade, 10 ** (decade + 1 + attempt // 64) - 1)
        else:
            mag = log_uniform_int(rng, 1, 1_000_000)
        if expect == "WrongSubgroup":
            b = sign * (mult * max(1, mag // mult) + rng.randint(1, mult - 1))
            return rng.randint(-3, 3) * mult + 1 - surd.floor_mul(b), b
        if b_mag is None:
            mag = mult * max(1, mag // mult)
        b = sign * mag
        a = -surd.floor_mul(b)  # a + b*theta = frac(b*theta) in (0, 1)
        if expect == "ok":
            if a % mult == 0 and surd.in_open_interval(a, b, lo, hi):
                return a, b
            if b_mag is not None:
                raise ValueError(f"{kind}: no target with |b| = {b_mag}")
            continue
        # out of range: one subgroup step below 0 or above 1, or in [hi, 1)
        if a % mult:
            continue
        if hi < 1 and not surd.in_open_interval(a, b, lo, hi) and rng.random() < 0.5:
            return a, b
        return a + rng.choice((-mult, mult)), b


def trace_text(a: int, b: int) -> str:
    return f"{a}{'+' if b >= 0 else '-'}{abs(b)}t"
