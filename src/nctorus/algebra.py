"""Exact *-algebra of Laurent polynomials in the rotation-algebra generators U, V.

Elements are finite sums  sum c_{mn} U^m V^n  in normal order (U-powers to
the left), with VU = e(theta) UV.  Every phase that occurs is an integer
power of the formal generator  L = e(theta/4)  (e(x) means exp(2*pi*i*x)),
so scalars are Laurent polynomials in L with Gaussian-rational
coefficients and all arithmetic is exact.  L is treated as a free
transcendental: theta is irrational, so no relation among its powers is
imposed.

Storage.  An Element is one flat dict  (m, n, k) -> (re, im)  of integer
Gaussian numerators over one positive denominator d, standing for
sum (re + im*i)/d L^k U^m V^n; a PhaseScalar is the same with keys k.  The
form is canonical: no zero entry is stored and gcd(d, all numerators) = 1,
so equality and hashing are plain dict and tuple comparisons.  Products
multiply the denominators, sums bring both sides to the lcm of theirs, and
each result is reduced by one gcd; arithmetic, the automorphisms, traces
and text output never build a Fraction.  GaussRational, the public
coefficient type, appears only at the boundary: ``PhaseScalar(mapping)``
reads it and ``PhaseScalar.items()`` builds it.  The parser reads text
straight into the store.

All operations return new values; nothing is mutated in place.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Mapping, NamedTuple, Sequence, Tuple, Union

from .theta import Record, ThetaParam, _numerators, _rat_str, _rational, _read_int, _read_ratio

Rat = Union[int, Fraction]


class GaussRational(Record):
    """A Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        set_re, set_im = self._setters
        set_re(self, Fraction(_rational(re)))
        set_im(self, Fraction(_rational(im)))

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __repr__(self) -> str:
        return f"GaussRational({self.re}, {self.im})"

    def __str__(self) -> str:
        (a, da), (b, db) = self.re.as_integer_ratio(), self.im.as_integer_ratio()
        return _gauss_str(a * db, b * da, da * db)


class Monomial(NamedTuple):
    """Exponent pair (m, n) standing for U^m V^n in normal order."""

    m: int
    n: int


# ------------------------------------------------------------ integer store
#
# A store is a dict key -> (re, im) of integer numerators together with one
# positive denominator d.  Keys are k (PhaseScalar) or (m, n, k) (Element).


def _canonical(c: dict, d: int) -> Tuple[dict, int]:
    """Drop zero entries and divide out gcd(d, all numerators)."""
    if (0, 0) in c.values():
        c = {key: v for key, v in c.items() if v != (0, 0)}
    if not c:
        return c, 1
    if d != 1:
        g = d
        for a, b in c.values():
            g = gcd(g, a, b)
            if g == 1:
                return c, d
        c = {key: (a // g, b // g) for key, (a, b) in c.items()}
        d //= g
    return c, d


def _scaled(c: dict, f: int) -> dict:
    return c if f == 1 else {key: (a * f, b * f) for key, (a, b) in c.items()}


def _sum(c1: dict, d1: int, c2: dict, d2: int) -> Tuple[dict, int]:
    d = lcm(d1, d2)
    c = dict(_scaled(c1, d // d1))
    get = c.get
    for key, (a, b) in _scaled(c2, d // d2).items():
        old = get(key)
        c[key] = (a, b) if old is None else (old[0] + a, old[1] + b)
    return _canonical(c, d)


class PhaseScalar(Record):
    """A Laurent polynomial  sum_k c_k L^k  with Gaussian-rational c_k.

    L = e(theta/4).  Stored as k -> (re, im) integer numerators over one
    shared denominator, in canonical form (see the module docstring).
    """

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs: Mapping[int, GaussRational] = ()):
        coeffs = dict(coeffs)
        nums, d = _numerators([x for v in coeffs.values() for x in (v.re, v.im)])
        re_im = iter(nums)
        c, d = _canonical({index(k): (a, b) for k, a, b in zip(coeffs, re_im, re_im)}, d)
        _PHASE_C(self, c)
        _PHASE_D(self, d)

    def __reduce__(self):
        return _phase, (self._c, self._d)

    # ------------------------------------------------------------- factories

    @classmethod
    def one(cls) -> "PhaseScalar":
        return _phase({0: (1, 0)}, 1)

    @classmethod
    def lam(cls, k: int = 1) -> "PhaseScalar":
        """The phase L^k."""
        return _phase({index(k): (1, 0)}, 1)

    @classmethod
    def of(cls, value: Union[int, Fraction, GaussRational, "PhaseScalar"]) -> "PhaseScalar":
        if isinstance(value, PhaseScalar):
            return value
        if isinstance(value, GaussRational):
            return cls({0: value})
        num, den = _rational(value).as_integer_ratio()
        return _phase({0: (num, 0)} if num else {}, den)

    # ------------------------------------------------------------ arithmetic

    def items(self) -> Iterable[Tuple[int, GaussRational]]:
        d = self._d
        return {k: GaussRational(Fraction(a, d), Fraction(b, d)) for k, (a, b) in self._c.items()}.items()

    def __add__(self, other: "PhaseScalar") -> "PhaseScalar":
        return _phase(*_sum(self._c, self._d, other._c, other._d))

    def __sub__(self, other: "PhaseScalar") -> "PhaseScalar":
        return self + (-other)

    def __neg__(self) -> "PhaseScalar":
        return _phase({k: (-a, -b) for k, (a, b) in self._c.items()}, self._d)

    def __mul__(self, other: "PhaseScalar") -> "PhaseScalar":
        return (Element.monomial(0, 0, self) * Element.monomial(0, 0, other)).coefficient(0, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseScalar):
            return NotImplemented
        return self._d == other._d and self._c == other._c

    def __hash__(self) -> int:
        return hash((self._d, frozenset(self._c.items())))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"PhaseScalar({dict(self.items())!r})"

    def __str__(self) -> str:
        return phase_to_text(self)


def _phase(c: dict, d: int) -> PhaseScalar:
    """A PhaseScalar over a store that is already canonical."""
    s = object.__new__(PhaseScalar)
    _PHASE_C(s, c)
    _PHASE_D(s, d)
    return s


_PHASE_C, _PHASE_D = PhaseScalar._setters


class Element(Record):
    """A finite normal-ordered Laurent polynomial  sum_{(m,n)} c_{mn} U^m V^n.

    Stored as (m, n, k) -> (re, im) integer numerators over one shared
    denominator, in canonical form (see the module docstring).
    """

    __slots__ = ("_t", "_d")

    def __init__(self, terms: Mapping[Monomial, PhaseScalar] = ()):
        items = [(mono, coef) for mono, coef in dict(terms).items() if coef]
        d = lcm(*(coef._d for _, coef in items))
        t = {}
        for (m, n), coef in items:
            m, n, f = index(m), index(n), d // coef._d
            for k, (a, b) in coef._c.items():
                t[(m, n, k)] = (a * f, b * f)
        t, d = _canonical(t, d)
        _ELEMENT_T(self, t)
        _ELEMENT_D(self, d)

    def __reduce__(self):
        return _element, (self._t, self._d)

    # ------------------------------------------------------------- factories

    @classmethod
    def one(cls) -> "Element":
        return _element({(0, 0, 0): (1, 0)}, 1)

    @classmethod
    def monomial(cls, m: int, n: int, coef: Union[int, Fraction, GaussRational, PhaseScalar] = 1) -> "Element":
        s, m, n = PhaseScalar.of(coef), index(m), index(n)
        return _element({(m, n, k): v for k, v in s._c.items()}, s._d)

    # --------------------------------------------------------------- queries

    def terms(self) -> Iterable[Tuple[Monomial, PhaseScalar]]:
        groups: dict[Monomial, dict] = {}
        for (m, n, k), v in self._t.items():
            groups.setdefault(Monomial(m, n), {})[k] = v
        d = self._d
        return {mono: _phase(*_canonical(c, d)) for mono, c in groups.items()}.items()

    def coefficient(self, m: int, n: int) -> PhaseScalar:
        c = {k: v for (mm, nn, k), v in self._t.items() if mm == m and nn == n}
        return _phase(*_canonical(c, self._d))

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._d == other._d and self._t == other._t

    def __hash__(self) -> int:
        return hash((self._d, frozenset(self._t.items())))

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "Element") -> "Element":
        return _element(*_sum(self._t, self._d, other._t, other._d))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return _element({key: (-a, -b) for key, (a, b) in self._t.items()}, self._d)

    def scale(self, scalar: Union[int, Fraction, GaussRational, PhaseScalar]) -> "Element":
        return self * Element.monomial(0, 0, scalar)

    def __mul__(self, other: "Element") -> "Element":
        acc: dict[tuple[int, int, int], tuple[int, int]] = {}
        get = acc.get
        right = [(m2, n2, k2, a2, b2) for (m2, n2, k2), (a2, b2) in other._t.items()]
        for (m1, n1, k1), (a1, b1) in self._t.items():
            shift = 4 * n1  # V^{n1} U^{m2} = L^{4 n1 m2} U^{m2} V^{n1}
            for m2, n2, k2, a2, b2 in right:
                key = (m1 + m2, n1 + n2, k1 + k2 + shift * m2)
                re_, im_ = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                old = get(key)
                acc[key] = (re_, im_) if old is None else (old[0] + re_, old[1] + im_)
        return _element(*_canonical(acc, self._d * other._d))

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("only nonnegative powers are defined on generic elements")
        out = Element.one()
        for _ in range(n):
            out = out * self
        return out

    def star(self) -> "Element":
        """The adjoint:  (c U^m V^n)* = conj(c) L^{4mn} U^{-m} V^{-n}."""
        return _element({(-m, -n, 4 * m * n - k): (a, -b) for (m, n, k), (a, b) in self._t.items()}, self._d)

    def __repr__(self) -> str:
        return f"Element({element_to_text(self)!r})"

    def __str__(self) -> str:
        return element_to_text(self)


def _element(t: dict, d: int) -> Element:
    """An Element over a store that is already canonical."""
    x = object.__new__(Element)
    _ELEMENT_T(x, t)
    _ELEMENT_D(x, d)
    return x


_ELEMENT_T, _ELEMENT_D = Element._setters


U = Element.monomial(1, 0)
V = Element.monomial(0, 1)
ONE = Element.one()


# ----------------------------------------------------------------- operations


def star(x: Element) -> Element:
    return x.star()


AUTOMORPHISMS = ("sigma", "flip", "gamma")


def apply_automorphism(which: str, x: Element) -> Element:
    """Apply one of the canonical automorphisms.

    sigma: U -> V^{-1}, V -> U   (order four); on monomials
           sigma(U^m V^n) = L^{-4mn} U^n V^{-m}.
    flip:  U -> U^{-1}, V -> V^{-1}; flip = sigma^2.
    gamma: U -> -U, V -> -V (parity).

    Each maps distinct keys (m, n, k) to distinct keys, so the result
    keeps x's denominator and stays canonical.
    """
    if which == "sigma":
        t = {(n, -m, k - 4 * m * n): v for (m, n, k), v in x._t.items()}
    elif which == "flip":
        t = {(-m, -n, k): v for (m, n, k), v in x._t.items()}
    elif which == "gamma":
        t = {key: v if (key[0] + key[1]) % 2 == 0 else (-v[0], -v[1]) for key, v in x._t.items()}
    else:
        raise ValueError(f"unknown automorphism {which!r} (expected one of {AUTOMORPHISMS})")
    return _element(t, x._d)


def sigma_average(g: Element) -> Element:
    """The orbit sum g + sigma(g) + sigma^2(g) + sigma^3(g); always sigma-invariant."""
    out = g
    cur = g
    for _ in range(3):
        cur = apply_automorphism("sigma", cur)
        out = out + cur
    return out


def canonical_trace(x: Element) -> PhaseScalar:
    """Coefficient of the identity monomial; a trace, invariant under sigma and gamma."""
    return x.coefficient(0, 0)


def monomial_functionals(x: Element, rules: Sequence[tuple]) -> list[PhaseScalar]:
    """The linear functional of each rule on x, from one pass over x.

    A rule ((a, b, c), classes) maps U^m V^n to L^{a m^2 + b mn + c n^2} when
    (m mod 2, n mod 2) is in classes, else to 0.  The rules are grouped by
    class first, so a store entry meets only the rules of its own class.
    """
    accs: list[dict] = [{} for _ in rules]
    by_class: dict = {(0, 0): [], (0, 1): [], (1, 0): [], (1, 1): []}
    for (form, classes), acc in zip(rules, accs):
        for parity in classes:
            by_class[parity].append((*form, acc))
    for (m, n, k), (a, b) in x._t.items():
        for wa, wb, wc, acc in by_class[m & 1, n & 1]:
            e = wa * m * m + wb * m * n + wc * n * n + k
            old = acc.get(e)
            acc[e] = (a, b) if old is None else (old[0] + a, old[1] + b)
    return [_phase(*_canonical(acc, x._d)) for acc in accs]


def numeric_eval(s: PhaseScalar, theta: ThetaParam) -> complex:
    """Evaluate a phase scalar at L = e(theta/4).

    Each L^k is e(x) with x = theta.turns(0, k/4), within TURNS_ERROR of
    (k*theta/4) mod 1; a k the stored prefix cannot settle to that bound
    (a short decimal or cf: theta, or a huge |k|) raises PrecisionExhausted.
    """
    d, total = s._d, 0j
    for k, (a, b) in s._c.items():
        total += complex(a / d, b / d) * cmath.exp(2j * cmath.pi * theta.turns(0, Fraction(k, 4)))
    return total


# ------------------------------------------------------------- serialization


def _gauss_str(a: int, b: int, d: int) -> str:
    """The Gaussian rational (a + b*i)/d: ``3``, ``-1/2i`` or ``1/2+3i``."""
    if b == 0:
        return _rat_str(a, d)
    if a == 0:
        return f"{_rat_str(b, d)}i"
    sign = "+" if b > 0 else "-"
    return f"{_rat_str(a, d)}{sign}{_rat_str(abs(b), d)}i"


def _power_str(sym: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return sym
    return f"{sym}^{k}"


def phase_to_text(s: PhaseScalar) -> str:
    """Render a phase scalar as ``(re+imi)L^k`` terms joined by ``+``."""
    if not s:
        return "0"
    parts = []
    for k in sorted(s._c):
        piece = f"({_gauss_str(*s._c[k], s._d)})"
        lam = _power_str("L", k)
        parts.append(f"{piece}{lam}" if lam else piece)
    return " + ".join(parts)


def element_to_text(x: Element) -> str:
    """Canonical text form: ``(re+imi)L^k U^m V^n`` terms joined by ``+``.

    Terms are sorted by (m, n), then k.  An element whose coefficient at
    one monomial has several L-powers prints as several terms sharing that
    monomial; parsing adds them back together, so the round trip is
    lossless.
    """
    if not x:
        return "0"
    parts = []
    for key in sorted(x._t):
        m, n, k = key
        factors = [f"({_gauss_str(*x._t[key], x._d)})"]
        for sym, e in (("L", k), ("U", m), ("V", n)):
            piece = _power_str(sym, e)
            if piece:
                factors.append(piece)
        parts.append(" ".join(factors))
    return " + ".join(parts)


# A number (n or n/d, ASCII digits only) or one symbol per token.
_TOKEN = re.compile(r"\s*([0-9]+/[0-9]+|[0-9]+|[iLUV^()+\-*])")
_FACTOR_STARTS = frozenset("(iLUV")


class ElementParseError(ValueError):
    """Malformed element text; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _token_starts(text: str) -> list[int]:
    """Where each token of text starts; raises at the first character that starts none."""
    starts, pos = [], 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            break
        starts.append(m.start(1))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ElementParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    return starts


def _error(message: str, text: str, i: int) -> ElementParseError:
    """The error at token i of text; one past the last token is the end of text."""
    return ElementParseError(message, (_token_starts(text) + [len(text)])[i])


def _gaussian(toks: list, i: int, text: str) -> Tuple[int, int, int, int]:
    """The sum (re + im*i)/d of the pieces r, r i, i from token i to ')', as (re, im, d, index past it)."""
    a, b, d = 0, 0, 1
    while True:
        tok = toks[i]
        sign = 1
        if tok == "+" or tok == "-":
            sign = -1 if tok == "-" else 1
            i += 1
            tok = toks[i]
        if tok == "i":
            p, q, imaginary = sign, 1, True
        elif tok[:1].isdigit():
            p, q = _read_ratio(tok, lambda message: _error(message, text, i))
            p *= sign
            imaginary = toks[i + 1] == "i"
            i += imaginary
        else:
            raise _error("expected a number", text, i)
        if q != d:
            a, b, p, d = a * q, b * q, p * d, d * q
        if imaginary:
            b += p
        else:
            a += p
        tok = toks[i + 1]
        if tok == ")":
            return a, b, d, i + 2
        if tok != "+" and tok != "-":
            raise _error("expected ')'", text, i + 1)
        i += 1


def parse_element(text: str) -> Element:
    """Parse the element grammar: signed terms of scalar/L/U/V factors.

    One scan straight into the store: a term is one key (m, n, k) with a
    Gaussian numerator over a denominator.  U^e after V^n adds 4ne to k
    (V^n U^e = L^{4ne} U^e V^n), so ``V U`` comes out normal-ordered with
    its phase.  The terms are added over the lcm of their denominators.
    """
    toks = _TOKEN.findall(text)
    if len("".join(toks)) != len("".join(text.split())):
        _token_starts(text)  # a character starts no token: raise at it
    if not toks:
        raise ElementParseError("empty input", 0)
    toks.append("")  # the end of input
    terms = []
    tok = toks[0]
    sign = -1 if tok == "-" else 1
    i = 1 if tok == "-" or tok == "+" else 0
    while True:
        a, b, d, m, n, k = sign, 0, 1, 0, 0, 0
        tok = toks[i]
        while True:  # one factor per round; a term needs at least one
            i += 1
            if tok == "(":
                p, q, r, i = _gaussian(toks, i, text)
                a, b, d = a * p - b * q, a * q + b * p, d * r
            elif tok == "i":
                a, b = -b, a
            elif tok == "L" or tok == "U" or tok == "V":
                e = 1
                if toks[i] == "^":  # an optional sign, then digits
                    j = i + 1 + (toks[i + 1] in ("+", "-"))
                    if not toks[j].isdigit():
                        raise _error("expected an integer exponent", text, j)
                    e = _read_int(toks[j], lambda message: _error(message, text, j))
                    e, i = (-e if toks[i + 1] == "-" else e), j + 1
                if tok == "U":
                    k += 4 * n * e
                    m += e
                elif tok == "V":
                    n += e
                else:
                    k += e
            elif tok[:1].isdigit():
                p, q = _read_ratio(tok, lambda message: _error(message, text, i - 1))
                a, b, d = a * p, b * p, d * q
            else:
                raise _error(f"unexpected token {tok!r}" if tok else "unexpected end of input", text, i - 1)
            tok = toks[i]
            if tok == "*":  # an explicit product sign must be followed by a factor
                i += 1
                tok = toks[i]
            elif tok not in _FACTOR_STARTS and not tok[:1].isdigit():
                break
        terms.append((m, n, k, a, b, d))
        if not tok:
            break
        if tok != "+" and tok != "-":
            raise _error(f"unexpected token {tok!r}", text, i)
        sign = -1 if tok == "-" else 1
        i += 1
    den = lcm(*[term[5] for term in terms])
    acc: dict[tuple[int, int, int], tuple[int, int]] = {}
    get = acc.get
    for m, n, k, a, b, d in terms:
        f = den // d
        old = get((m, n, k))
        acc[m, n, k] = (a * f, b * f) if old is None else (old[0] + a * f, old[1] + b * f)
    return _element(*_canonical(acc, den))


def parse_phase(text: str) -> PhaseScalar:
    """Parse a phase scalar (an element with no U or V factors)."""
    x = parse_element(text)
    if any(m or n for m, n, _ in x._t):
        raise ElementParseError("phase scalar must not contain U or V", 0)
    return _phase({k: v for (_, _, k), v in x._t.items()}, x._d)
