"""Constructive realization of trace values, with machine-checkable certificates.

Each realization theorem has a constructive proof whose arithmetic content
fits in a small tree of integers: bracketing convergents, a four-square
decomposition, scaled-copy embeddings, orthogonal sums.  `realize` builds
such a tree for a requested trace value and `verify_certificate` replays
every claim exactly (subgroup membership, interval location, unimodularity,
square sums, branch selection, generator relations), reporting every
failing node.  Certificates serialize to a stable JSON schema; every node
carries a `lemma` slug naming the step it encodes.

Supported kinds and their domains (t = a + b*theta):

  cyclic             (0, 1/4)  within  Z + Z*theta
  semicyclic         (0, 1/2)  within  Z + Z*theta
  flat               (0, 1)    within  4Z + 4Z*theta
  semiflat           (0, 1)    within  2Z + 2Z*theta
  fourier_invariant  (0, 1)    within  Z + Z*theta

Each kind's domain is stated once, as its certificate class's `domain` row
(lo, hi, multiple): `realize` admits a target against that row, and the
replay checks every certificate node's target against its own row before
the node's other claims.  A negative theta-coefficient is normalized
through the angle reflection theta -> 1 - theta, which maps (a, b) to
(a + b, -b); the reflection keeps the subgroup and the value, so `realize`
checks a target's domain once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, index
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple, Union

from .theta import PrecisionExhausted, Record, ThetaParam, _kscalar_str, _numerators, _parse_numerators, _rat_str

if TYPE_CHECKING:
    from .algebra import Element

class RealizationError(ValueError):
    """Base for realize() domain rejections.

    The subclass names the reason, and every message starts with its code
    (``out-of-range: ...``), so ``str(exc)`` alone names it.
    """


class OutOfRange(RealizationError):
    """The trace lies outside the range the kind covers."""

    code = "out-of-range"


class WrongSubgroup(RealizationError):
    """The trace is not in the subgroup the kind reaches."""

    code = "wrong-subgroup"


class InternalAssertion(AssertionError):
    """A claim the construction proves can never fail did fail."""


class Convergent(NamedTuple):
    """A reduced rational p/q; consecutive pairs below/above theta satisfy p'q - pq' = 1."""

    p: int
    q: int


class TraceValue(Record):
    """The number a + b*theta with integer a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        set_a, set_b = self._setters
        set_a(self, a)
        set_b(self, b)

    def __eq__(self, other) -> bool:
        if other.__class__ is not TraceValue:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    __hash__ = Record.__hash__

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
        return _kscalar_str(*_numerators((self.a, self.b)))


def parse_trace(text: str) -> TraceValue:
    """Parse ``a+bt`` into a TraceValue (integer coefficients required)."""
    (a, b, c, d), den = _parse_numerators(text)
    if c or d:
        raise ValueError("trace values are real: no i parts allowed")
    if a % den or b % den:
        raise ValueError("trace values need integer coordinates over {1, theta}")
    return TraceValue(a // den, b // den)


# ----------------------------------------------------------------- convergents


def _bracketing_pair(theta: ThetaParam, m: int, n: int) -> Tuple[Convergent, Convergent]:
    """First consecutive-convergent pair (low, high) with m/n < low < theta < high (n > 0).

    Every stored convergent is searched, and compared by cross-multiplying.
    Orientation: the member below theta is returned first; for any
    consecutive pair this ordering satisfies high.p*low.q - low.p*high.q = 1.
    The two signs the certificate replays are settled here, so a pair the
    stored prefix cannot place raises PrecisionExhausted, as does a prefix
    with no pair past the bound.
    """
    pq = theta.convergents
    for j in range(len(pq) - 1):
        (p1, q1), (p2, q2) = pq[j], pq[j + 1]
        (p, q), high = (pq[j], pq[j + 1]) if p1 * q2 < p2 * q1 else (pq[j + 1], pq[j])
        if p * n > m * q and theta.sign_linear(-p, q) > 0 and theta.sign_linear(high[0], -high[1]) > 0:
            return Convergent(p, q), Convergent(*high)
    bound = _rat_str(m, n)
    raise PrecisionExhausted(f"insufficient-cf-data: no pair of stored convergents brackets theta past {bound}")


def _canonical_knm(t: TraceValue) -> Tuple[int, int, int]:
    """Canonical k, n, m with t = 4k(n*theta - m), k,n >= 1, m >= 0, gcd(n, m) = 1."""
    bn = t.b // 4
    am = -t.a // 4  # an admitted flat target with b >= 4 has a <= 0
    k = math.gcd(bn, am)
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
    m = index(m)
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

    m, n = index(m), index(n)
    if (m, n) == (0, 0):
        raise ValueError("(m, n) must be nonzero")
    # V^{-n} U^m = L^{-4mn} U^m V^{-n}, so Ut picks up net phase L^{-2mn}
    ut = Element.monomial(m, -n, PhaseScalar.lam(-2 * m * n))
    vt = Element.monomial(n, m, PhaseScalar.lam(2 * m * n))
    return ut, vt, TraceValue(0, m * m + n * n)


def _check_embedding(m: int, n: int) -> Optional[str]:
    """Exact generator relations; None when they hold."""
    from .algebra import ONE, PhaseScalar, apply_automorphism

    ut, vt, _ = subalgebra_generators(m, n)
    s = m * m + n * n
    if apply_automorphism("sigma", ut) * vt != ONE:
        return "sigma(Ut) * Vt != 1"
    if vt * ut != (ut * vt).scale(PhaseScalar.lam(4 * s)):
        return "Vt Ut != L^{4(m^2+n^2)} Ut Vt"
    if apply_automorphism("sigma", vt) != ut:
        return "sigma(Vt) != Ut"
    return None


# ---------------------------------------------------------------- certificates

# The most certificates a chain may nest below its root: the deepest chain replay accepts is
# reflected -> semiflat -> semicyclic subprojection -> orbit-double -> cyclic -> flat.
MAX_NESTING = 5


class CertificateFormatError(ValueError):
    """A certificate, or its JSON, that does not follow the declared layout of its nodes."""


def _shape_error(raw, keys, where: str, tag=None) -> CertificateFormatError:
    """Why raw is not a JSON object with exactly these keys (and this node tag)."""
    if not isinstance(raw, dict):
        return CertificateFormatError(f"{where}: expected an object, got {type(raw).__name__}")
    if raw.get("node", tag) != tag:
        return CertificateFormatError(f"{where}: expected node tag {tag!r}, got {raw['node']!r}")
    missing, extra = sorted(keys - raw.keys()), sorted(raw.keys() - keys, key=repr)
    return CertificateFormatError(f"{where}: missing keys {missing}, unexpected keys {extra}")


def _codec(kind) -> tuple:
    """(type, parts test or None, JSON type, dump or None for its own JSON, load, noun) of a field type."""
    if kind in (int, str):
        return kind, None, kind, None, None, "an integer" if kind is int else "a string"
    if isinstance(kind, tuple):  # a pair of leaf nodes
        leaf = kind[0]

        def load(raw: list, where: str):
            if len(raw) != 2:
                raise CertificateFormatError(f"{where}: expected a list of two {leaf.tag!r} nodes")
            return leaf._from_json(raw[0], where + "[0]"), leaf._from_json(raw[1], where + "[1]")

        return (tuple, lambda pair: tuple(map(type, pair)) == kind, list,
                lambda pair: [node._to_json() for node in pair], load, f"two {leaf.tag!r}")
    if issubclass(kind, _Node):
        return kind, None, dict, kind._to_json, kind._from_json, f"a {kind.tag!r}"
    names, ints = kind._fields, (int,) * len(kind._fields)  # FourSquares as a list, the others as an object
    get = attrgetter(*names)

    def load(raw, where: str):
        values = raw if kind is FourSquares else tuple(map(raw.get, names))
        if len(raw) != len(names) or tuple(map(type, values)) != ints:
            raise CertificateFormatError(f"{where}: expected the integers {', '.join(names)}, got {raw!r}")
        return kind(*values)

    json_type, dump = (list, list) if kind is FourSquares else (dict, lambda value: dict(zip(names, get(value))))
    return kind, lambda value: tuple(map(type, get(value))) == ints, json_type, dump, load, f"a {kind.__name__}"


class _Node(Record):
    """A certificate node, declared once: its JSON `node` tag, `lemma` slug and `layout`, its
    replay checks (`_replay`) and, for a certificate, how `realize` builds it (`_realize`).

    ``layout`` maps each JSON key after ``node`` and ``lemma``, in serialized order, to the type of
    the field of that name (``__slots__ = tuple(layout)``): ``int``, ``str``, ``TraceValue``,
    ``Convergent``, ``FourSquares``, a leaf node class, a pair of leaf classes, or ``_Certificate``
    for the certificate child, which comes last and is left to the replay; the other fields'
    ``_codec`` rows are the constructor's type check and the serializer's and parser's table."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        layout = cls.__dict__.get("layout", {})
        if cls.__dict__["__slots__"] != tuple(layout):
            raise TypeError(f"{cls.__name__}: a node's __slots__ are tuple(layout)")
        if not layout:
            return
        cls._child = cls._fields[-1] if layout[cls._fields[-1]] is _Certificate else None
        own = cls._fields[:-1] if cls._child else cls._fields
        if _Certificate in map(layout.get, own):
            raise TypeError(f"{cls.__name__}: the certificate child must be the last key and field")
        cls._keys = frozenset(("node", "lemma", *layout))
        cls._codecs = tuple((key, *_codec(layout[key])) for key in own)  # (key, type, parts, ...) per own field
        cls._shape = tuple(row[1] for row in cls._codecs)  # the constructor's fast path: the exact types first
        cls._parts = tuple((i, row[2]) for i, row in enumerate(cls._codecs) if row[2])

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        values = args[: len(self._shape)]  # the certificate child, if any, is not checked
        if tuple(map(type, values)) != self._shape or self._parts and not all(
                parts(values[i]) for i, parts in self._parts):
            for (key, kind, parts, *_, noun), value in zip(self._codecs, values):
                if type(value) is not kind or parts and not parts(value):
                    what = "certificate" if isinstance(self, _Certificate) else "node"
                    raise CertificateFormatError(f"a {self.tag} {what} needs {noun} {key}, got {value!r}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _to_json(self) -> dict:
        """This node's JSON, without its certificate child."""
        out = {"node": self.tag, "lemma": self.lemma}
        for (key, _, _, _, dump, _, _), value in zip(self._codecs, self._astuple(self)):
            out[key] = value if dump is None else dump(value)
        return out

    @classmethod
    def _from_json(cls, raw, where: str, child=None) -> "_Node":
        """The node in raw, strictly checked, built by the constructor; a certificate is given its parsed child."""
        if not isinstance(raw, dict) or raw.get("node") != cls.tag or raw.keys() != cls._keys:
            raise _shape_error(raw, cls._keys, where, cls.tag)
        values = []
        for key, _, _, json_type, _, load, _ in cls._codecs:
            if type(value := raw[key]) is not json_type:
                want = {int: "an integer", str: "a string", dict: "an object", list: "a list"}[json_type]
                raise CertificateFormatError(f"{where}.{key}: expected {want}, got {value!r}")
            values.append(value if load is None else load(value, f"{where}.{key}"))
        node = cls(*values, child) if cls._child else cls(*values)
        if raw["lemma"] != node.lemma:
            raise CertificateFormatError(f"{where}: a {cls.tag} node has lemma {node.lemma!r}, not {raw['lemma']!r}")
        return node


class _Certificate(_Node):
    """A certificate node; ``kind`` is the realization kind it certifies and ``target`` the trace."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        node = self
        for _ in range(MAX_NESTING + 1):
            node = getattr(node, node._child) if node._child else None
            if not isinstance(node, _Certificate):
                return
        raise CertificateFormatError(f"a certificate nests at most {MAX_NESTING} certificates below its root")


class ApproximantCyclic(_Node):
    """Leaf: a cyclic projection of trace k|q*theta - p| from a rational approximant.

    Valid when p/q is reduced, 0 < q|q*theta - p| < 1 and k|q*theta - p| < 1/4.
    """

    tag, lemma = "cyclic-approximant", "cyclic-from-rational-approximant"
    layout = {"k": int, "p": int, "q": int}
    __slots__ = tuple(layout)

    def trace(self, theta: ThetaParam) -> TraceValue:
        if theta.sign_linear(-self.p, self.q) > 0:
            return TraceValue(-self.k * self.p, self.k * self.q)
        return TraceValue(self.k * self.p, -self.k * self.q)

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str) -> None:
        k, p, q = self.k, self.p, self.q
        ok = v.check(k >= 1, path, "k must be >= 1")
        if not v.check(q >= 1, path, "q must be >= 1") or not ok:
            return
        v.check(math.gcd(p, q) == 1, path, "p/q must be reduced")
        # d = |q*theta - p| satisfies 0 < q*d < 1 and k*d < 1/4, i.e. 0 < 4k*d < 1
        a, b = (-p, q) if theta.sign_linear(-p, q) > 0 else (p, -q)
        v.check(theta.in_open_interval(q * a, q * b, 0, 1), path, "approximant quality 0 < q|q*theta - p| < 1 fails")
        v.check(theta.in_open_interval(4 * k * a, 4 * k * b, 0, 1), path,
                "cyclic trace bound k|q*theta - p| < 1/4 fails")


class OrbitFlat(_Node):
    """A flat projection as the full orbit sum of a cyclic one; trace is 4x the leaf's."""

    tag, lemma = "orbit-flat", "orbit-sum-of-cyclic"
    layout = {"leaf": ApproximantCyclic}
    __slots__ = tuple(layout)

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str) -> TraceValue:
        """The leaf's checks; returns this projection's trace, 4x the leaf's."""
        self.leaf._replay(v, theta, f"{path}.leaf")
        return self.leaf.trace(theta).scale(4)


class FlatCert(_Certificate):
    """Flat realization via a bracketing-convergent split and an orthogonal sum."""

    tag, lemma, kind = "flat", "bracketing-convergent-split", "flat"
    domain = (0, 1, 4)  # (lo, hi, subgroup multiple): the targets realize admits and the replay accepts
    layout = {"target": TraceValue, "k": int, "n": int, "m": int, "low": Convergent,
              "high": Convergent, "a": int, "b": int, "legs": (OrbitFlat, OrbitFlat)}
    __slots__ = tuple(layout)

    @classmethod
    def _realize(cls, t: TraceValue, theta: ThetaParam) -> "FlatCert":
        """Split t = 4k(n*theta - m) as 4a(q*theta - p) + 4b(p' - q'*theta): the bracketing consecutive
        convergents satisfy m/n < p/q < theta < p'/q' with p'q - pq' = 1, and then a = k(np' - mq') and
        b = k(np - mq) are positive integers; the identity holds exactly in (Z, Z*theta) coordinates."""
        k, n, m = _canonical_knm(t)
        low, high = _bracketing_pair(theta, m, n)
        a = k * (n * high.p - m * high.q)
        b = k * (n * low.p - m * low.q)
        if a < 1 or b < 1:
            raise InternalAssertion(f"split coefficients must be positive, got a={a}, b={b}")
        # exact identity check in (1, theta) coordinates
        if 4 * (a * low.q - b * high.q) != t.b or 4 * (b * high.p - a * low.p) != t.a:
            raise InternalAssertion("convergent split identity failed")
        legs = OrbitFlat(ApproximantCyclic(a, *low)), OrbitFlat(ApproximantCyclic(b, *high))
        return cls(t, k, n, m, low, high, a, b, legs)

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str) -> None:
        t, k, n, m, low, high, a, b, (leg1, leg2) = self._astuple(self)
        v.check(k >= 1 and n >= 1 and m >= 0, path, "need k, n >= 1 and m >= 0")
        v.check(4 * k * n == t.b and 4 * k * m == -t.a, path, "target does not equal 4k(n*theta - m)")
        v.check(math.gcd(n, m) == 1 if m else n == 1, path, "n, m not canonical")
        v.check(high.p * low.q - low.p * high.q == 1, path, "bracketing pair is not unimodular")
        v.check(m * low.q < n * low.p, path, "lower convergent does not exceed m/n")
        v.check(theta.sign_linear(-low.p, low.q) > 0, path, "low is not below theta")
        v.check(theta.sign_linear(high.p, -high.q) > 0, path, "high is not above theta")
        v.check(a == k * (n * high.p - m * high.q) and b == k * (n * low.p - m * low.q), path,
                "split coefficients a, b do not match the convergent data")
        v.check(a >= 1 and b >= 1, path, "split coefficients must be positive")
        v.check(4 * (a * low.q - b * high.q) == t.b and 4 * (b * high.p - a * low.p) == t.a, path,
                "exact split identity 4a(q*theta-p) + 4b(p'-q'*theta) = t fails")
        v.check((leg1.leaf.k, leg1.leaf.p, leg1.leaf.q) == (a, *low), path, "first leg does not carry (a, low)")
        v.check((leg2.leaf.k, leg2.leaf.p, leg2.leaf.q) == (b, *high), path, "second leg does not carry (b, high)")
        t1 = leg1._replay(v, theta, f"{path}.legs[0]")
        t2 = leg2._replay(v, theta, f"{path}.legs[1]")
        v.check(TraceValue(t1.a + t2.a, t1.b + t2.b) == t, path, "orthogonal sum of legs misses the target")


class CyclicCert(_Certificate):
    """Cyclic realization: quarter split of the flat certificate for 4t."""

    tag, lemma, kind = "cyclic", "quarter-split-of-flat", "cyclic"
    domain = (0, Fraction(1, 4), 1)
    layout = {"target": TraceValue, "flat": _Certificate}
    __slots__ = tuple(layout)

    @classmethod
    def _realize(cls, t: TraceValue, theta: ThetaParam) -> "CyclicCert":
        return cls(t, FlatCert._realize(t.scale(4), theta))

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str):
        t, flat = self.target, self.flat
        if not v.check(isinstance(flat, FlatCert), path, "cyclic needs a flat inner"):
            return None
        v.check(flat.target == t.scale(4), path, "flat certificate is not for 4x the target")
        return flat, theta


class SemicyclicCert(_Certificate):
    """Semicyclic realization.

    mode "orbit-double": the target is 2x a cyclic trace and the projection
    is g + flip-conjugate(g).  mode "subprojection": an even bound 2x in
    (target, 1/2) is realized first and a flip-invariant subprojection of
    the right trace is taken beneath it.
    """

    tag, kind = "semicyclic", "semicyclic"
    domain = (0, Fraction(1, 2), 1)
    layout = {"mode": str, "target": TraceValue, "inner": _Certificate}
    __slots__ = tuple(layout)

    lemma = property(lambda self: "flip-orbit-double" if self.mode == "orbit-double" else "invariant-subprojection")

    @classmethod
    def _realize(cls, t: TraceValue, theta: ThetaParam) -> "SemicyclicCert":
        if t.in_subgroup(2):
            return cls("orbit-double", t, CyclicCert._realize(TraceValue(t.a // 2, t.b // 2), theta))
        # find an even bound 2x with t < 2x < 1/2, via a positive step 2(q*theta - p)
        # smaller than the room 1/2 - t above t: 1/2 - t - 2(q*theta - p) > 0, doubled
        for p, q in theta.convergents:
            if q > 0 and theta.sign_linear(-p, q) > 0 and theta.sign_linear(1 - 2 * t.a + 4 * p, -2 * t.b - 4 * q) > 0:
                gap = TraceValue(-2 * p, 2 * q)
                break
        else:
            raise PrecisionExhausted(f"insufficient-cf-data: no stored convergent fits a step between {t} and 1/2")
        bound = gap.scale(theta.floor_ratio(t.a, t.b, gap.a, gap.b) + 1)
        if not bound.in_open_interval(theta, *cls.domain[:2]) or theta.sign_linear(bound.a - t.a, bound.b - t.b) <= 0:
            raise InternalAssertion("even bound selection failed")
        return cls("subprojection", t, cls._realize(bound, theta))

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str):
        t, inner = self.target, self.inner
        if self.mode == "orbit-double":
            if not v.check(isinstance(inner, CyclicCert), path, "orbit-double needs a cyclic inner"):
                return None
            v.check(t == inner.target.scale(2), path, "target is not twice the inner cyclic trace")
        elif self.mode == "subprojection":
            if not v.check(isinstance(inner, SemicyclicCert) and inner.mode == "orbit-double", path,
                           "subprojection needs an orbit-double semicyclic bound"):
                return None
            bound = inner.target
            v.check(theta.sign_linear(bound.a - t.a, bound.b - t.b) > 0, path, "bound must strictly exceed the target")
        else:
            v.append((path, f"unknown semicyclic mode {self.mode!r}"))
            return None
        return inner, theta


class SemiflatCert(_Certificate):
    """Semiflat realization: h + sigma(h) over a semicyclic h of half the trace."""

    tag, lemma, kind = "semiflat", "transform-orbit-pairing", "semiflat"
    domain = (0, 1, 2)
    layout = {"target": TraceValue, "inner": _Certificate}
    __slots__ = tuple(layout)

    @classmethod
    def _realize(cls, t: TraceValue, theta: ThetaParam) -> "SemiflatCert":
        return cls(t, SemicyclicCert._realize(TraceValue(t.a // 2, t.b // 2), theta))

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str):
        t, inner = self.target, self.inner
        if not v.check(isinstance(inner, SemicyclicCert), path, "semiflat needs a semicyclic inner"):
            return None
        v.check(t == inner.target.scale(2), path, "target is not twice the inner semicyclic trace")
        return inner, theta


class EmbeddingLeg(_Node):
    """One scaled-copy leg of trace (m1^2 + m2^2)*theta - n_shift in [0, 1)."""

    tag, lemma = "embedding-leg", "scaled-generator-embedding"
    layout = {"m1": int, "m2": int, "n_shift": int}
    __slots__ = tuple(layout)

    @property
    def scale(self) -> int:
        return self.m1**2 + self.m2**2

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str) -> None:
        s = self.scale
        if s == 0:
            v.check(self.n_shift == 0, path, "zero leg must carry a zero shift")
            return
        v.check(theta.in_open_interval(-self.n_shift, s, 0, 1), path, "leg trace s*theta - n_shift is not in (0, 1)")
        err = _check_embedding(self.m1, self.m2)
        v.check(err is None, path, f"embedding relations fail: {err}")


class FourierInvariantCert(_Certificate):
    """Invariant realization via a four-square split into two embedded legs.

    k = n - n1 - n2 is forced into {0, 1}; k = 0 combines the legs as an
    orthogonal sum (branch "orthogonal-sum"), k = 1 subtracts the complement
    of one leg from the other (branch "complement-subtraction").
    """

    tag, lemma, kind = "fourier-invariant", "four-squares-split", "fourier_invariant"
    domain = (0, 1, 1)
    layout = {"target": TraceValue, "squares": FourSquares, "legs": (EmbeddingLeg, EmbeddingLeg),
              "k": int, "branch": str}
    __slots__ = tuple(layout)
    leg1, leg2 = property(lambda self: self.legs[0]), property(lambda self: self.legs[1])

    @classmethod
    def _realize(cls, t: TraceValue, theta: ThetaParam) -> "FourierInvariantCert":
        sq = four_squares(t.b)
        s2 = sq.m3**2 + sq.m4**2
        leg1 = EmbeddingLeg(sq.m1, sq.m2, theta.floor_linear(sq.m1**2 + sq.m2**2))
        leg2 = EmbeddingLeg(sq.m3, sq.m4, theta.floor_linear(s2) if s2 else 0)
        k = -t.a - leg1.n_shift - leg2.n_shift
        if k not in (0, 1):
            raise InternalAssertion(f"combination defect k = {k} escaped {{0, 1}}")
        return cls(t, sq, (leg1, leg2), k, "orthogonal-sum" if k == 0 else "complement-subtraction")

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str) -> None:
        t, sq, (leg1, leg2), k, branch = self._astuple(self)
        v.check(t.b >= 1, path, "theta-coefficient must be positive here")
        v.check(sq.total() == t.b, path, "four squares do not sum to the theta-coefficient")
        v.check(sq.m1 >= sq.m2 >= sq.m3 >= sq.m4 >= 0, path, "squares must be sorted descending")
        v.check((leg1.m1, leg1.m2, leg2.m1, leg2.m2) == sq, path, "legs do not carry the square pairs")
        leg1._replay(v, theta, f"{path}.leg1")
        leg2._replay(v, theta, f"{path}.leg2")
        v.check(k == -t.a - leg1.n_shift - leg2.n_shift, path, "k != n - n1 - n2")
        v.check(k in (0, 1), path, f"k = {k} escapes {{0, 1}}")
        v.check(branch == ("orthogonal-sum" if k == 0 else "complement-subtraction"), path, "branch does not match k")
        v.check(theta.sign_linear(t.a + k - 2, t.b) < 0, path, "combined trace t + k must stay below 2")


class ReflectedCert(_Certificate):
    """Wrapper realizing a trace with negative theta-coefficient over 1 - theta."""

    tag, lemma, domain = "reflected", "angle-reflection", None
    layout = {"target": TraceValue, "inner": _Certificate}
    __slots__ = tuple(layout)

    # a malformed inner has no kind; the replay reports it under the node's tag
    kind = property(lambda self: self.inner.kind if isinstance(self.inner, _Certificate) else self.tag)

    def _replay(self, v: "_Replay", theta: ThetaParam, path: str):
        t, inner = self.target, self.inner
        v.check(t.b < 0, path, "reflection wraps only negative theta-coefficients")
        if not v.check(isinstance(inner, _Certificate), path, "reflected needs a certificate inner"):
            return None
        v.check(inner.target == t.reflected(), path, "inner target is not the reflected target")
        return inner, theta.reflect()


Certificate = Union[CyclicCert, SemicyclicCert, FlatCert, SemiflatCert, FourierInvariantCert, ReflectedCert]
_CERTIFICATES = {cls.tag: cls for cls in Certificate.__args__}  # node tag -> class
_BY_KIND = {cls.kind: cls for cls in Certificate.__args__ if cls is not ReflectedCert}
KINDS = tuple(_BY_KIND)


def _misses(domain: tuple, t: TraceValue, theta: ThetaParam):
    """(rejection, set) for each set of a domain row (lo, hi, multiple) that t lies outside: the
    subgroup, then the interval, each tested only when the one before has been handed out."""
    lo, hi, multiple = domain
    if not t.in_subgroup(multiple):
        yield WrongSubgroup, f"{multiple}Z + {multiple}Z*theta"
    if not t.in_open_interval(theta, lo, hi):
        yield OutOfRange, f"({lo}, {hi})"


# -------------------------------------------------------------------- realize


def realize(kind: str, t: TraceValue, theta: ThetaParam) -> Certificate:
    """Build a realization certificate for the trace t of the given kind.

    t is admitted by the kind's domain row, the one the replay checks: a target
    outside its subgroup raises WrongSubgroup, one outside its interval OutOfRange.
    The convergent searches walk every stored convergent of theta; a target the
    stored prefix cannot settle raises PrecisionExhausted (insufficient-cf-data).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (expected one of {KINDS})")
    cls = _BY_KIND[kind]
    t = _admit(cls.domain, t, theta)
    if t.b < 0:  # the reflection keeps the subgroup and the value: the admission holds for it
        return ReflectedCert(t, cls._realize(t.reflected(), theta.reflect()))
    return cls._realize(t, theta)


def _admit(domain: tuple, t: TraceValue, theta: ThetaParam) -> TraceValue:
    """t, its coordinates read by operator.index (a bool or numpy integer is the int it stands for,
    1.5 a TypeError), once it lies in the domain row; the first set it misses is the rejection."""
    t = TraceValue(index(t.a), index(t.b))
    for rejection, where in _misses(domain, t, theta):
        raise rejection(f"{rejection.code}: {t} is not in {where}")
    return t


# ---------------------------------------------------------------- verification


class VerificationReport(Record):
    """Whether a certificate replays, and its (node path, message) failures in replay order."""

    __slots__ = ("ok", "failures")
    _defaults = {"failures": ()}

    def __bool__(self) -> bool:
        return self.ok

    @property
    def first_failure(self) -> Optional[Tuple[str, str]]:
        return self.failures[0] if self.failures else None

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": [list(f) for f in self.failures]}


class _Replay(list):
    """The (node path, message) failures of one replay, in the order found."""

    def check(self, cond: bool, path: str, message: str) -> bool:
        if not cond:
            self.append((path, message))
        return cond


def verify_certificate(cert: Certificate, theta: ThetaParam) -> VerificationReport:
    """Replay every arithmetic claim in a certificate against theta; all checks are exact.

    Each certificate node's target is checked against its kind's domain row, the row
    realize admits by; the node then replays its own claims and hands back its
    certificate child (when of the type the node needs) with the angle to replay it under.
    """
    v = _Replay()
    node, path = cert, cert.kind
    try:
        while True:
            if node.domain is not None:
                for _, where in _misses(node.domain, node.target, theta):
                    v.append((path, f"target not in {where}"))
            if (step := node._replay(v, theta, path)) is None:
                break
            path = f"{path}.{node._child}"
            node, theta = step
    except PrecisionExhausted as exc:
        v.append(("theta", str(exc)))
    return VerificationReport(not v, tuple(v))


# ------------------------------------------------------------- serialization


def certificate_to_json(cert: Certificate) -> dict:
    """Stable JSON form; every node carries its `node` tag and `lemma` slug."""
    if not isinstance(cert, _Certificate):
        raise TypeError(f"cannot serialize {type(cert).__name__}")
    out = cert._to_json()
    if cert._child:
        out[cert._child] = certificate_to_json(getattr(cert, cert._child))
    return out


def certificate_from_json(data) -> Certificate:
    """Parse certificate JSON strictly: each node has exactly its declared keys, its own `node`
    tag and `lemma`, JSON integers and strings where declared, and at most MAX_NESTING
    certificates below it, or CertificateFormatError is raised.  A certificate child of the
    wrong type parses; the replay reports it."""
    return _certificate_from_json(data, "certificate", 0)


def _certificate_from_json(raw, where: str, depth: int) -> Certificate:
    """The certificate in raw, found ``depth`` certificates below the root; its chain is checked
    down to the innermost node before any node is parsed, from the innermost out."""
    tag = raw.get("node") if isinstance(raw, dict) else None
    cls = _CERTIFICATES.get(tag) if type(tag) is str else None
    if cls is None:
        raise _shape_error(raw, (), where) if not isinstance(raw, dict) else CertificateFormatError(
            f"{where}: unknown certificate node tag {tag!r}")
    key = cls._child
    if key is None:
        return cls._from_json(raw, where)
    if depth == MAX_NESTING:
        raise CertificateFormatError("the certificate is nested too deeply to read")
    if key not in raw:
        raise _shape_error(raw, cls._keys, where)
    return cls._from_json(raw, where, _certificate_from_json(raw[key], f"{where}.{key}", depth + 1))
