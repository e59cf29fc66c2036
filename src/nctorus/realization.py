"""Constructive realization of trace values, with machine-checkable certificates.

Each realization theorem has a constructive proof whose arithmetic content
fits in a small tree of integers: bracketing convergents, a four-square
decomposition, scaled-copy embeddings, orthogonal sums.  `realize` builds
such a tree for a requested trace value and `verify_certificate` replays
every claim exactly (subgroup membership, interval location, unimodularity,
square sums, branch selection, generator relations), reporting the first
failing node.  Certificates serialize to a stable JSON schema; every node
carries a `lemma` slug naming the step it encodes.

Supported kinds and their domains (t = a + b*theta):

  cyclic             (0, 1/4)  within  Z + Z*theta
  semicyclic         (0, 1/2)  within  Z + Z*theta
  flat               (0, 1)    within  4Z + 4Z*theta
  semiflat           (0, 1)    within  2Z + 2Z*theta
  fourier_invariant  (0, 1)    within  Z + Z*theta

A negative theta-coefficient is normalized through the angle reflection
theta -> 1 - theta, which maps (a, b) to (a + b, -b).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple, Union

from .theta import PrecisionExhausted, Record, ThetaParam

if TYPE_CHECKING:
    from .algebra import Element

KINDS = ("cyclic", "semicyclic", "flat", "semiflat", "fourier_invariant")

DEFAULT_CONVERGENT_DEPTH = 64


class RealizationError(ValueError):
    """Base for realize() domain rejections; .code carries the reason.

    Every message starts with ``code``, so ``str(exc)`` alone names it.
    """

    code = "realization-error"


class OutOfRange(RealizationError):
    code = "out-of-range"


class WrongSubgroup(RealizationError):
    code = "wrong-subgroup"


class NoBracketingConvergents(RealizationError):
    code = "no-bracketing-convergents"


class InternalAssertion(AssertionError):
    """A claim the construction proves can never fail did fail."""


class Convergent(NamedTuple):
    """A reduced rational p/q; consecutive pairs below/above theta satisfy p'q - pq' = 1."""

    p: int
    q: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


class TraceValue(Record):
    """The number a + b*theta with integer a, b."""

    __slots__ = ("a", "b")

    a: int
    b: int

    def __init__(self, a: int, b: int):
        set_a, set_b = self._setters
        set_a(self, a)
        set_b(self, b)

    def __eq__(self, other) -> bool:
        if other.__class__ is not TraceValue:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    __hash__ = Record.__hash__

    def value(self, theta: ThetaParam) -> float:
        return self.a + self.b * theta.value

    def in_open_interval(self, theta: ThetaParam, lo, hi) -> bool:
        return theta.in_open_interval(self.a, self.b, lo, hi)

    def in_subgroup(self, multiple: int) -> bool:
        return self.a % multiple == 0 and self.b % multiple == 0

    def reflected(self) -> "TraceValue":
        """Coordinates of the same number over theta' = 1 - theta."""
        return TraceValue(self.a + self.b, -self.b)

    def scale(self, k: int) -> "TraceValue":
        return TraceValue(k * self.a, k * self.b)

    def __str__(self) -> str:
        from .lattice import kscalar_to_text, KScalar

        return kscalar_to_text(KScalar.of(self.a, self.b))


def parse_trace(text: str) -> TraceValue:
    """Parse ``a+bt`` into a TraceValue (integer coefficients required)."""
    from .lattice import parse_kscalar

    s = parse_kscalar(text)
    if s.c or s.d:
        raise ValueError("trace values are real: no i parts allowed")
    if s.a.denominator != 1 or s.b.denominator != 1:
        raise ValueError("trace values need integer coordinates over {1, theta}")
    return TraceValue(int(s.a), int(s.b))


# ----------------------------------------------------------------- convergents


def convergents(theta: ThetaParam, depth: int) -> list[Convergent]:
    """The convergents c_0 = 0/1, c_1, ..., c_depth of theta."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [Convergent(p, q) for p, q in theta.convergents_pq(depth)]


def _bracketing_pair(
    theta: ThetaParam, bound: Fraction, depth: int
) -> Tuple[Convergent, Convergent]:
    """First consecutive-convergent pair (low, high) with bound < low < theta < high.

    Orientation: the member below theta is returned first; for any
    consecutive pair this ordering satisfies high.p*low.q - low.p*high.q = 1.
    """
    pq = theta.convergents_pq(min(depth, theta.max_depth))
    for j in range(len(pq) - 1):
        x, y = Convergent(*pq[j]), Convergent(*pq[j + 1])
        low, high = (x, y) if x.as_fraction() < y.as_fraction() else (y, x)
        if low.as_fraction() > bound:
            return low, high
    if theta.max_depth < depth:
        raise PrecisionExhausted(
            f"insufficient-cf-data: only {theta.max_depth} convergents stored, "
            f"none below the requested depth {depth} brackets past {bound}"
        )
    raise NoBracketingConvergents(
        f"no-bracketing-convergents: none of the first {depth} convergents exceeds {bound}; "
        "raise the search depth"
    )


def flat_decompose(
    t: TraceValue, theta: ThetaParam, depth: int = DEFAULT_CONVERGENT_DEPTH
) -> Tuple[int, int, Convergent, Convergent]:
    """Split t = 4k(n*theta - m) as 4a(q*theta - p) + 4b(p' - q'*theta).

    Requires t in (0,1) with theta-coefficient >= 4 and both coordinates
    multiples of 4.  The bracketing consecutive convergents satisfy
    m/n < p/q < theta < p'/q' with p'q - pq' = 1, and then
    a = k(np' - mq') and b = k(np - mq) are positive integers; the
    identity holds exactly in (Z, Z*theta) coordinates.
    """
    if not t.in_subgroup(4):
        raise WrongSubgroup(f"wrong-subgroup: {t} is not in 4Z + 4Z*theta")
    if t.b < 4:
        raise OutOfRange(f"out-of-range: theta-coefficient must be positive (got {t.b}); reflect first")
    if not t.in_open_interval(theta, 0, 1):
        raise OutOfRange(f"out-of-range: trace {t} is not in (0, 1)")
    k, n, m = _canonical_knm(t)
    low, high = _bracketing_pair(theta, Fraction(m, n), depth)
    a = k * (n * high.p - m * high.q)
    b = k * (n * low.p - m * low.q)
    if a < 1 or b < 1:
        raise InternalAssertion(f"split coefficients must be positive, got a={a}, b={b}")
    # exact identity check in (1, theta) coordinates
    if 4 * (a * low.q - b * high.q) != t.b or 4 * (b * high.p - a * low.p) != t.a:
        raise InternalAssertion("convergent split identity failed")
    return a, b, low, high


def _canonical_knm(t: TraceValue) -> Tuple[int, int, int]:
    """Canonical k, n, m with t = 4k(n*theta - m), k,n >= 1, m >= 0, gcd(n, m) = 1."""
    bn = t.b // 4
    am = -t.a // 4
    if am < 0:
        raise OutOfRange("out-of-range: constant coordinate must be nonpositive for a value in (0,1)")
    k = math.gcd(bn, am) if am else bn
    return k, bn // k, am // k


# ---------------------------------------------------------------- four squares


class FourSquares(NamedTuple):
    m1: int
    m2: int
    m3: int
    m4: int

    def total(self) -> int:
        return self.m1**2 + self.m2**2 + self.m3**2 + self.m4**2


def _not_three_squares(n: int) -> bool:
    """Legendre: n >= 0 is not a sum of three squares iff n = 4^a (8b + 7)."""
    while n and n % 4 == 0:
        n //= 4
    return n % 8 == 7


def four_squares(m: int) -> FourSquares:
    """Lexicographically largest descending (m1, m2, m3, m4) with sum of squares m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    # A sum of four squares divisible by 8 has only even terms, and halving
    # each term is an order-preserving bijection onto the splits of m/4.
    scale = 1
    while m and m % 8 == 0:
        m //= 4
        scale *= 2

    def two_square_tail(rest: int, cap: int) -> Optional[Tuple[int, int]]:
        a = min(cap, math.isqrt(rest))
        while a >= 0:
            b2 = rest - a * a
            b = math.isqrt(b2)
            if b * b == b2 and b <= a:
                return a, b
            # once a*a drops below rest/2, b would exceed a
            if a * a * 2 < rest:
                return None
            a -= 1
        return None

    for m1 in range(math.isqrt(m), -1, -1):
        r1 = m - m1 * m1
        if _not_three_squares(r1):
            continue
        for m2 in range(min(m1, math.isqrt(r1)), -1, -1):
            tail = two_square_tail(r1 - m2 * m2, m2)
            if tail is not None:
                return FourSquares(*(scale * x for x in (m1, m2, *tail)))
    raise InternalAssertion(f"no four-square decomposition found for {m}")


# -------------------------------------------------------- subalgebra embedding


def subalgebra_generators(m: int, n: int) -> Tuple[Element, Element, TraceValue]:
    """Scaled-copy generators  Ut = L^{2mn} V^{-n} U^m,  Vt = L^{2mn} U^n V^m.

    These satisfy Vt Ut = L^{4(m^2+n^2)} Ut Vt, sigma(Ut) = Vt^{-1} and
    sigma(Vt) = Ut, so they generate a copy of the rotation algebra with
    angle (m^2 + n^2) * theta carried inside the ambient one, compatibly
    with sigma.  The returned trace value is the raw multiple
    (m^2 + n^2) * theta; callers reduce mod 1 where needed.
    """
    from .algebra import Element, PhaseScalar

    if (m, n) == (0, 0):
        raise ValueError("(m, n) must be nonzero")
    # V^{-n} U^m = L^{-4mn} U^m V^{-n}, so Ut picks up net phase L^{-2mn}
    ut = Element.monomial(m, -n, PhaseScalar.lam(-2 * m * n))
    vt = Element.monomial(n, m, PhaseScalar.lam(2 * m * n))
    return ut, vt, TraceValue(0, m * m + n * n)


def _check_embedding(m: int, n: int) -> Optional[str]:
    """Exact generator relations; None when they hold."""
    from .algebra import Element, PhaseScalar, apply_automorphism

    ut, vt, _ = subalgebra_generators(m, n)
    s = m * m + n * n
    if apply_automorphism("sigma", ut) * vt != Element.one():
        return "sigma(Ut) * Vt != 1"
    if vt * ut != (ut * vt).scale(PhaseScalar.lam(4 * s)):
        return "Vt Ut != L^{4(m^2+n^2)} Ut Vt"
    if apply_automorphism("sigma", vt) != ut:
        return "sigma(Vt) != Ut"
    return None


# ---------------------------------------------------------------- certificates


class ApproximantCyclic(Record):
    """Leaf: a cyclic projection of trace k|q*theta - p| from a rational approximant.

    Valid when p/q is reduced, 0 < q|q*theta - p| < 1 and k|q*theta - p| < 1/4.
    """

    __slots__ = ("k", "p", "q")

    k: int
    p: int
    q: int

    def __init__(self, k: int, p: int, q: int):
        set_k, set_p, set_q = self._setters
        set_k(self, k)
        set_p(self, p)
        set_q(self, q)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ApproximantCyclic:
            return NotImplemented
        return (self.k, self.p, self.q) == (other.k, other.p, other.q)

    __hash__ = Record.__hash__

    lemma = "cyclic-from-rational-approximant"

    def trace(self, theta: ThetaParam) -> TraceValue:
        if theta.sign_linear(-self.p, self.q) > 0:
            return TraceValue(-self.k * self.p, self.k * self.q)
        return TraceValue(self.k * self.p, -self.k * self.q)


class OrbitFlat(Record):
    """A flat projection as the full orbit sum of a cyclic one; trace is 4x the leaf's."""

    __slots__ = ("leaf",)

    leaf: ApproximantCyclic

    def __init__(self, leaf: ApproximantCyclic):
        (set_leaf,) = self._setters
        set_leaf(self, leaf)

    def __eq__(self, other) -> bool:
        if other.__class__ is not OrbitFlat:
            return NotImplemented
        return (self.leaf,) == (other.leaf,)

    __hash__ = Record.__hash__

    lemma = "orbit-sum-of-cyclic"

    def trace(self, theta: ThetaParam) -> TraceValue:
        return self.leaf.trace(theta).scale(4)


class FlatCert(Record):
    """Flat realization via a bracketing-convergent split and an orthogonal sum."""

    __slots__ = ("target", "k", "n", "m", "low", "high", "a", "b", "legs")

    target: TraceValue
    k: int
    n: int
    m: int
    low: Convergent
    high: Convergent
    a: int
    b: int
    legs: Tuple[OrbitFlat, OrbitFlat]

    lemma = "bracketing-convergent-split"
    kind = "flat"


class CyclicCert(Record):
    """Cyclic realization: quarter split of the flat certificate for 4t."""

    __slots__ = ("target", "flat")

    target: TraceValue
    flat: FlatCert

    lemma = "quarter-split-of-flat"
    kind = "cyclic"


class SemicyclicCert(Record):
    """Semicyclic realization.

    mode "orbit-double": the target is 2x a cyclic trace and the projection
    is g + flip-conjugate(g).  mode "subprojection": an even bound 2x in
    (target, 1/2) is realized first and a flip-invariant subprojection of
    the right trace is taken beneath it.
    """

    __slots__ = ("target", "mode", "inner")

    target: TraceValue
    mode: str  # "orbit-double" | "subprojection"
    inner: Union[CyclicCert, "SemicyclicCert"]

    kind = "semicyclic"

    @property
    def lemma(self) -> str:
        return "flip-orbit-double" if self.mode == "orbit-double" else "invariant-subprojection"


class SemiflatCert(Record):
    """Semiflat realization: h + sigma(h) over a semicyclic h of half the trace."""

    __slots__ = ("target", "inner")

    target: TraceValue
    inner: SemicyclicCert

    lemma = "transform-orbit-pairing"
    kind = "semiflat"


class EmbeddingLeg(Record):
    """One scaled-copy leg of trace (m1^2 + m2^2)*theta - n_shift in [0, 1)."""

    __slots__ = ("m1", "m2", "n_shift")

    m1: int
    m2: int
    n_shift: int

    lemma = "scaled-generator-embedding"

    @property
    def scale(self) -> int:
        return self.m1**2 + self.m2**2

    def trace(self) -> TraceValue:
        return TraceValue(-self.n_shift, self.scale)


class FourierInvariantCert(Record):
    """Invariant realization via a four-square split into two embedded legs.

    k = n - n1 - n2 is forced into {0, 1}; k = 0 combines the legs as an
    orthogonal sum, k = 1 subtracts the complement of one leg from the other.
    """

    __slots__ = ("target", "squares", "leg1", "leg2", "k", "branch")

    target: TraceValue
    squares: FourSquares
    leg1: EmbeddingLeg
    leg2: EmbeddingLeg
    k: int
    branch: str  # "orthogonal-sum" | "complement-subtraction"

    lemma = "four-squares-split"
    kind = "fourier_invariant"


class ReflectedCert(Record):
    """Wrapper realizing a trace with negative theta-coefficient over 1 - theta."""

    __slots__ = ("target", "inner")

    target: TraceValue
    inner: "Certificate"

    lemma = "angle-reflection"

    @property
    def kind(self) -> str:
        return self.inner.kind


Certificate = Union[
    FlatCert, CyclicCert, SemicyclicCert, SemiflatCert, FourierInvariantCert, ReflectedCert
]


# -------------------------------------------------------------------- realize


def _require(cond: bool, exc: type, message: str) -> None:
    if not cond:
        raise exc(message)


def _interval_for_kind(kind: str) -> Tuple[Fraction, Fraction, int]:
    """(lo, hi, subgroup multiple) for each kind."""
    table = {
        "cyclic": (Fraction(0), Fraction(1, 4), 1),
        "semicyclic": (Fraction(0), Fraction(1, 2), 1),
        "flat": (Fraction(0), Fraction(1), 4),
        "semiflat": (Fraction(0), Fraction(1), 2),
        "fourier_invariant": (Fraction(0), Fraction(1), 1),
    }
    return table[kind]


def realize(
    kind: str,
    t: TraceValue,
    theta: ThetaParam,
    depth: int = DEFAULT_CONVERGENT_DEPTH,
) -> Certificate:
    """Build a realization certificate for the trace t of the given kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (expected one of {KINDS})")
    lo, hi, mult = _interval_for_kind(kind)
    _require(t.in_subgroup(mult), WrongSubgroup, f"wrong-subgroup: {t} is not in {mult}Z + {mult}Z*theta")
    _require(t.in_open_interval(theta, lo, hi), OutOfRange, f"out-of-range: {t} is not in ({lo}, {hi})")
    if t.b < 0:
        inner = realize(kind, t.reflected(), theta.reflect(), depth)
        return ReflectedCert(t, inner)
    if t.b == 0:
        # a alone cannot land strictly inside (0,1)
        raise OutOfRange(f"out-of-range: {t} has no theta part")
    builder = {
        "flat": _realize_flat,
        "cyclic": _realize_cyclic,
        "semicyclic": _realize_semicyclic,
        "semiflat": _realize_semiflat,
        "fourier_invariant": _realize_fourier,
    }[kind]
    return builder(t, theta, depth)


def _realize_flat(t: TraceValue, theta: ThetaParam, depth: int) -> FlatCert:
    a, b, low, high = flat_decompose(t, theta, depth)
    k, n, m = _canonical_knm(t)
    legs = (
        OrbitFlat(ApproximantCyclic(a, low.p, low.q)),
        OrbitFlat(ApproximantCyclic(b, high.p, high.q)),
    )
    return FlatCert(t, k, n, m, low, high, a, b, legs)


def _realize_cyclic(t: TraceValue, theta: ThetaParam, depth: int) -> CyclicCert:
    flat = _realize_flat(t.scale(4), theta, depth)
    return CyclicCert(t, flat)


def _realize_semicyclic(t: TraceValue, theta: ThetaParam, depth: int) -> SemicyclicCert:
    if t.in_subgroup(2):
        half = TraceValue(t.a // 2, t.b // 2)
        return SemicyclicCert(t, "orbit-double", _realize_cyclic(half, theta, depth))
    # find an even bound 2x with t < 2x < 1/2, via small positive steps q*theta - p
    gap = None
    for p, q in theta.convergents_pq(min(depth, theta.max_depth)):
        if q > 0 and theta.sign_linear(-p, q) > 0:
            step = TraceValue(-2 * p, 2 * q)
            # need the step smaller than the room above t: 1/2 - t
            if theta.sign_linear(Fraction(1, 2) - t.a - step.a, -t.b - step.b) > 0:
                gap = step
                break
    if gap is None:
        if theta.max_depth < depth:
            raise PrecisionExhausted(
                "insufficient-cf-data: stored convergents too shallow to fit a step "
                "between the target and 1/2"
            )
        raise NoBracketingConvergents(
            "no-bracketing-convergents: no convergent step fits between the target and 1/2; "
            "raise the search depth"
        )
    k = theta.floor_ratio(t.a, t.b, gap.a, gap.b) + 1
    bound = gap.scale(k)
    if not (bound.in_open_interval(theta, 0, Fraction(1, 2)) and theta.sign_linear(bound.a - t.a, bound.b - t.b) > 0):
        raise InternalAssertion("even bound selection failed")
    inner = _realize_semicyclic(bound, theta, depth)
    return SemicyclicCert(t, "subprojection", inner)


def _realize_semiflat(t: TraceValue, theta: ThetaParam, depth: int) -> SemiflatCert:
    half = TraceValue(t.a // 2, t.b // 2)
    return SemiflatCert(t, _realize_semicyclic(half, theta, depth))


def _realize_fourier(t: TraceValue, theta: ThetaParam, depth: int) -> FourierInvariantCert:
    m_total, n_total = t.b, -t.a
    squares = four_squares(m_total)
    s1 = squares.m1**2 + squares.m2**2
    s2 = squares.m3**2 + squares.m4**2
    n1 = theta.floor_linear(s1)
    n2 = theta.floor_linear(s2) if s2 else 0
    leg1 = EmbeddingLeg(squares.m1, squares.m2, n1)
    leg2 = EmbeddingLeg(squares.m3, squares.m4, n2)
    k = n_total - n1 - n2
    if k not in (0, 1):
        raise InternalAssertion(f"combination defect k = {k} escaped {{0, 1}}")
    branch = "orthogonal-sum" if k == 0 else "complement-subtraction"
    return FourierInvariantCert(t, squares, leg1, leg2, k, branch)


# ---------------------------------------------------------------- verification


class VerificationReport(Record):
    __slots__ = ("ok", "failures")
    _defaults = {"failures": ()}

    ok: bool
    failures: Tuple[Tuple[str, str], ...]  # (node path, message)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def first_failure(self) -> Optional[Tuple[str, str]]:
        return self.failures[0] if self.failures else None

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": [list(f) for f in self.failures]}


class _Verifier:
    def __init__(self, theta: ThetaParam):
        self.theta = theta
        self.failures: list[Tuple[str, str]] = []

    def fail(self, path: str, message: str) -> None:
        self.failures.append((path, message))

    def check(self, cond: bool, path: str, message: str) -> bool:
        if not cond:
            self.fail(path, message)
        return cond

    # ---- nodes

    def leaf(self, node: ApproximantCyclic, path: str) -> None:
        th = self.theta
        ok = self.check(node.k >= 1, path, "k must be >= 1")
        ok &= self.check(node.q >= 1, path, "q must be >= 1")
        if not ok:
            return
        self.check(math.gcd(node.p, node.q) == 1, path, "p/q must be reduced")
        # d = |q*theta - p| satisfies 0 < q*d < 1 and k*d < 1/4
        sign = th.sign_linear(-node.p, node.q)
        a, b = (-node.p, node.q) if sign > 0 else (node.p, -node.q)
        self.check(
            th.in_open_interval(node.q * a, node.q * b, 0, 1),
            path,
            "approximant quality 0 < q|q*theta - p| < 1 fails",
        )
        self.check(
            th.in_open_interval(node.k * a, node.k * b, 0, Fraction(1, 4)),
            path,
            "cyclic trace bound k|q*theta - p| < 1/4 fails",
        )

    def orbit_flat(self, node: OrbitFlat, path: str) -> TraceValue:
        self.leaf(node.leaf, f"{path}.leaf")
        return node.leaf.trace(self.theta).scale(4)

    def flat(self, node: FlatCert, path: str) -> None:
        th = self.theta
        t = node.target
        self.check(t.in_subgroup(4), path, "target not in 4Z + 4Z*theta")
        self.check(t.in_open_interval(th, 0, 1), path, "target not in (0, 1)")
        self.check(node.k >= 1 and node.n >= 1 and node.m >= 0, path, "need k, n >= 1 and m >= 0")
        self.check(
            4 * node.k * node.n == t.b and 4 * node.k * node.m == -t.a,
            path,
            "target does not equal 4k(n*theta - m)",
        )
        self.check(math.gcd(node.n, node.m) == 1 if node.m else node.n == 1, path, "n, m not canonical")
        low, high = node.low, node.high
        self.check(high.p * low.q - low.p * high.q == 1, path, "bracketing pair is not unimodular")
        self.check(node.m * low.q < node.n * low.p, path, "lower convergent does not exceed m/n")
        self.check(th.sign_linear(-low.p, low.q) > 0, path, "low is not below theta")
        self.check(th.sign_linear(high.p, -high.q) > 0, path, "high is not above theta")
        self.check(
            node.a == node.k * (node.n * high.p - node.m * high.q)
            and node.b == node.k * (node.n * low.p - node.m * low.q),
            path,
            "split coefficients a, b do not match the convergent data",
        )
        self.check(node.a >= 1 and node.b >= 1, path, "split coefficients must be positive")
        self.check(
            4 * (node.a * low.q - node.b * high.q) == t.b
            and 4 * (node.b * high.p - node.a * low.p) == t.a,
            path,
            "exact split identity 4a(q*theta-p) + 4b(p'-q'*theta) = t fails",
        )
        leg1, leg2 = node.legs
        self.check(
            (leg1.leaf.k, leg1.leaf.p, leg1.leaf.q) == (node.a, low.p, low.q),
            path,
            "first leg does not carry (a, low)",
        )
        self.check(
            (leg2.leaf.k, leg2.leaf.p, leg2.leaf.q) == (node.b, high.p, high.q),
            path,
            "second leg does not carry (b, high)",
        )
        t1 = self.orbit_flat(leg1, f"{path}.legs[0]")
        t2 = self.orbit_flat(leg2, f"{path}.legs[1]")
        total = TraceValue(t1.a + t2.a, t1.b + t2.b)
        self.check((total.a, total.b) == (t.a, t.b), path, "orthogonal sum of legs misses the target")

    def cyclic(self, node: CyclicCert, path: str) -> None:
        th = self.theta
        self.check(node.target.in_open_interval(th, 0, Fraction(1, 4)), path, "target not in (0, 1/4)")
        if not self.check(isinstance(node.flat, FlatCert), path, "cyclic needs a flat inner"):
            return
        self.check(
            (node.flat.target.a, node.flat.target.b) == (4 * node.target.a, 4 * node.target.b),
            path,
            "flat certificate is not for 4x the target",
        )
        self.flat(node.flat, f"{path}.flat")

    def semicyclic(self, node: SemicyclicCert, path: str) -> None:
        th = self.theta
        self.check(node.target.in_open_interval(th, 0, Fraction(1, 2)), path, "target not in (0, 1/2)")
        if node.mode == "orbit-double":
            ok = self.check(isinstance(node.inner, CyclicCert), path, "orbit-double needs a cyclic inner")
            if ok:
                self.check(
                    (node.target.a, node.target.b) == (2 * node.inner.target.a, 2 * node.inner.target.b),
                    path,
                    "target is not twice the inner cyclic trace",
                )
                self.cyclic(node.inner, f"{path}.inner")
        elif node.mode == "subprojection":
            ok = self.check(
                isinstance(node.inner, SemicyclicCert) and node.inner.mode == "orbit-double",
                path,
                "subprojection needs an orbit-double semicyclic bound",
            )
            if ok:
                bound = node.inner.target
                self.check(
                    th.sign_linear(bound.a - node.target.a, bound.b - node.target.b) > 0,
                    path,
                    "bound must strictly exceed the target",
                )
                self.semicyclic(node.inner, f"{path}.inner")
        else:
            self.fail(path, f"unknown semicyclic mode {node.mode!r}")

    def semiflat(self, node: SemiflatCert, path: str) -> None:
        self.check(node.target.in_subgroup(2), path, "target not in 2Z + 2Z*theta")
        self.check(node.target.in_open_interval(self.theta, 0, 1), path, "target not in (0, 1)")
        if not self.check(isinstance(node.inner, SemicyclicCert), path, "semiflat needs a semicyclic inner"):
            return
        self.check(
            (node.target.a, node.target.b) == (2 * node.inner.target.a, 2 * node.inner.target.b),
            path,
            "target is not twice the inner semicyclic trace",
        )
        self.semicyclic(node.inner, f"{path}.inner")

    def embedding_leg(self, node: EmbeddingLeg, path: str) -> None:
        th = self.theta
        s = node.scale
        if s == 0:
            self.check(node.n_shift == 0, path, "zero leg must carry a zero shift")
            return
        self.check(
            th.in_open_interval(-node.n_shift, s, 0, 1),
            path,
            "leg trace s*theta - n_shift is not in (0, 1)",
        )
        err = _check_embedding(node.m1, node.m2) if (node.m1, node.m2) != (0, 0) else None
        if (node.m1, node.m2) == (0, 0):
            self.fail(path, "nonzero scale with zero generator pair")
        elif err:
            self.fail(path, f"embedding relations fail: {err}")

    def fourier(self, node: FourierInvariantCert, path: str) -> None:
        th = self.theta
        t = node.target
        self.check(t.in_open_interval(th, 0, 1), path, "target not in (0, 1)")
        self.check(t.b >= 1, path, "theta-coefficient must be positive here")
        sq = node.squares
        self.check(sq.total() == t.b, path, "four squares do not sum to the theta-coefficient")
        self.check(sq.m1 >= sq.m2 >= sq.m3 >= sq.m4 >= 0, path, "squares must be sorted descending")
        self.check(
            (node.leg1.m1, node.leg1.m2) == (sq.m1, sq.m2)
            and (node.leg2.m1, node.leg2.m2) == (sq.m3, sq.m4),
            path,
            "legs do not carry the square pairs",
        )
        self.embedding_leg(node.leg1, f"{path}.leg1")
        self.embedding_leg(node.leg2, f"{path}.leg2")
        self.check(
            node.k == -t.a - node.leg1.n_shift - node.leg2.n_shift,
            path,
            "k != n - n1 - n2",
        )
        self.check(node.k in (0, 1), path, f"k = {node.k} escapes {{0, 1}}")
        want_branch = "orthogonal-sum" if node.k == 0 else "complement-subtraction"
        self.check(node.branch == want_branch, path, "branch does not match k")
        self.check(
            th.sign_linear(t.a + node.k - 2, t.b) < 0,
            path,
            "combined trace t + k must stay below 2",
        )

    def dispatch(self, node: Certificate, path: str) -> None:
        if isinstance(node, ReflectedCert):
            self.check(node.target.b < 0, path, "reflection wraps only negative theta-coefficients")
            inner_t = node.target.reflected()
            self.check(
                (node.inner.target.a, node.inner.target.b) == (inner_t.a, inner_t.b),
                path,
                "inner target is not the reflected target",
            )
            sub = _Verifier(self.theta.reflect())
            sub.dispatch(node.inner, f"{path}.inner")
            self.failures.extend(sub.failures)
        elif isinstance(node, FlatCert):
            self.flat(node, path)
        elif isinstance(node, CyclicCert):
            self.cyclic(node, path)
        elif isinstance(node, SemicyclicCert):
            self.semicyclic(node, path)
        elif isinstance(node, SemiflatCert):
            self.semiflat(node, path)
        elif isinstance(node, FourierInvariantCert):
            self.fourier(node, path)
        else:
            self.fail(path, f"unknown node type {type(node).__name__}")


def verify_certificate(cert: Certificate, theta: ThetaParam) -> VerificationReport:
    """Replay every arithmetic claim in a certificate against theta.

    All checks are exact (rational bracketing of theta).
    """
    v = _Verifier(theta)
    try:
        v.dispatch(cert, cert.kind)
    except PrecisionExhausted as exc:
        v.fail("theta", str(exc))
    return VerificationReport(not v.failures, tuple(v.failures))


# ------------------------------------------------------------- serialization


def _trace_json(t: TraceValue) -> dict:
    return {"a": t.a, "b": t.b}


def certificate_to_json(cert: Certificate) -> dict:
    """Stable JSON form; every node carries its `node` tag and `lemma` slug."""
    if isinstance(cert, ReflectedCert):
        return {
            "node": "reflected",
            "lemma": cert.lemma,
            "target": _trace_json(cert.target),
            "inner": certificate_to_json(cert.inner),
        }
    if isinstance(cert, FlatCert):
        return {
            "node": "flat",
            "lemma": cert.lemma,
            "target": _trace_json(cert.target),
            "k": cert.k,
            "n": cert.n,
            "m": cert.m,
            "low": {"p": cert.low.p, "q": cert.low.q},
            "high": {"p": cert.high.p, "q": cert.high.q},
            "a": cert.a,
            "b": cert.b,
            "legs": [
                {
                    "node": "orbit-flat",
                    "lemma": OrbitFlat.lemma,
                    "leaf": {
                        "node": "cyclic-approximant",
                        "lemma": ApproximantCyclic.lemma,
                        "k": leg.leaf.k,
                        "p": leg.leaf.p,
                        "q": leg.leaf.q,
                    },
                }
                for leg in cert.legs
            ],
        }
    if isinstance(cert, CyclicCert):
        return {
            "node": "cyclic",
            "lemma": cert.lemma,
            "target": _trace_json(cert.target),
            "flat": certificate_to_json(cert.flat),
        }
    if isinstance(cert, SemicyclicCert):
        return {
            "node": "semicyclic",
            "lemma": cert.lemma,
            "mode": cert.mode,
            "target": _trace_json(cert.target),
            "inner": certificate_to_json(cert.inner),
        }
    if isinstance(cert, SemiflatCert):
        return {
            "node": "semiflat",
            "lemma": cert.lemma,
            "target": _trace_json(cert.target),
            "inner": certificate_to_json(cert.inner),
        }
    if isinstance(cert, FourierInvariantCert):
        return {
            "node": "fourier-invariant",
            "lemma": cert.lemma,
            "target": _trace_json(cert.target),
            "squares": list(cert.squares),
            "legs": [
                {
                    "node": "embedding-leg",
                    "lemma": EmbeddingLeg.lemma,
                    "m1": leg.m1,
                    "m2": leg.m2,
                    "n_shift": leg.n_shift,
                }
                for leg in (cert.leg1, cert.leg2)
            ],
            "k": cert.k,
            "branch": cert.branch,
        }
    raise TypeError(f"cannot serialize {type(cert).__name__}")


class CertificateFormatError(ValueError):
    pass


def _int(value) -> int:
    """A JSON integer; bools, floats and strings are format errors, not coerced."""
    if type(value) is not int:
        raise CertificateFormatError(f"expected an integer, got {value!r}")
    return value


def _trace_from_json(d: dict) -> TraceValue:
    return TraceValue(_int(d["a"]), _int(d["b"]))


def certificate_from_json(data: dict) -> Certificate:
    try:
        node = data["node"]
        target = _trace_from_json(data["target"])
        if node == "reflected":
            return ReflectedCert(target, certificate_from_json(data["inner"]))
        if node == "flat":
            legs = tuple(
                OrbitFlat(
                    ApproximantCyclic(
                        _int(leg["leaf"]["k"]), _int(leg["leaf"]["p"]), _int(leg["leaf"]["q"])
                    )
                )
                for leg in data["legs"]
            )
            if len(legs) != 2:
                raise CertificateFormatError("flat node needs exactly two legs")
            return FlatCert(
                target,
                _int(data["k"]),
                _int(data["n"]),
                _int(data["m"]),
                Convergent(_int(data["low"]["p"]), _int(data["low"]["q"])),
                Convergent(_int(data["high"]["p"]), _int(data["high"]["q"])),
                _int(data["a"]),
                _int(data["b"]),
                legs,
            )
        if node == "cyclic":
            return CyclicCert(target, certificate_from_json(data["flat"]))
        if node == "semicyclic":
            return SemicyclicCert(target, data["mode"], certificate_from_json(data["inner"]))
        if node == "semiflat":
            return SemiflatCert(target, certificate_from_json(data["inner"]))
        if node == "fourier-invariant":
            legs = [
                EmbeddingLeg(_int(l["m1"]), _int(l["m2"]), _int(l["n_shift"])) for l in data["legs"]
            ]
            if len(legs) != 2:
                raise CertificateFormatError("fourier-invariant node needs exactly two legs")
            return FourierInvariantCert(
                target,
                FourSquares(*(_int(x) for x in data["squares"])),
                legs[0],
                legs[1],
                _int(data["k"]),
                data["branch"],
            )
        raise CertificateFormatError(f"unknown node tag {node!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CertificateFormatError):
            raise
        raise CertificateFormatError(f"malformed certificate JSON: {exc}") from exc
