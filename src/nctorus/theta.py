"""Irrational angle parameters backed by continued fractions.

A :class:`ThetaParam` stores a finite prefix of the continued-fraction
expansion of an irrational number in (0, 1).  Consecutive convergents
bracket the number by rationals, so questions like "is a + b*theta
positive?" are answered exactly at some finite depth (a + b*theta is
never zero for integer (a, b) != (0, 0) when theta is irrational).  The
brackets are nested, so every such question is put, in integer
arithmetic, to the tightest stored bracket alone.  Integer arguments go
to the bracket as they are; only other inputs (Fractions, floats, bools,
numpy integers) are first normalised to integers over a common
denominator.

This module also holds the one rule by which the exact layers (theta,
lattice, algebra, realization, loops) read a caller's numbers.  An integer
field (an exponent, an L-power, a continued-fraction term, a K0 coordinate,
``r`` and ``s``, a trace coordinate) is read by ``operator.index``: a bool or
a numpy integer becomes the Python int it stands for, and 1.5 is a
TypeError, never truncated.  A rational field is read by :func:`_rational`,
and several rationals kept over one denominator by :func:`_numerators`.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, index
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

Rat = Union[int, Fraction]

_PRESET_TERMS = 160  # continued-fraction terms stored for a preset
_DECIMAL_TERMS = 128  # the most terms read off a decimal's bounds
_CF_TERMS = "continued-fraction terms must be positive integers"
# far more digits than a 128-term continued-fraction prefix can use
_MAX_DECIMAL_PLACE = 10_000
# ThetaParam.turns' absolute error bound, in turns; rounding to a float takes 2^-54 of it
TURNS_ERROR = 1e-15
_BRACKET_BUDGET = Fraction(TURNS_ERROR) - Fraction(1, 1 << 54)
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# The twisted traces phi_ij, psi_jk (see traces), one row per slot: the power of L = e(theta/4) on
# U^m V^n as weights on (m^2, mn, n^2), and the classes (m mod 2, n mod 2) the slot is nonzero on.
# Here in the one layer that traces and loops both import.  psi20, psi21 and psi22 repeat phi00,
# phi11 and phi01 + phi10 in rows of their own, so each bridge identity compares two declarations.
_MN, _SQUARE = (0, -2, 0), (-1, -2, -1)  # L^{-2mn}, L^{-(m+n)^2}
_SLOTS = {
    "phi00": (_MN, ((0, 0),)),
    "phi01": (_MN, ((0, 1),)),
    "phi10": (_MN, ((1, 0),)),
    "phi11": (_MN, ((1, 1),)),
    "psi10": (_SQUARE, ((0, 0), (1, 1))),
    "psi11": (_SQUARE, ((1, 0), (0, 1))),
    "psi20": (_MN, ((0, 0),)),
    "psi21": (_MN, ((1, 1),)),
    "psi22": (_MN, ((1, 0), (0, 1))),
}


class PrecisionExhausted(ArithmeticError):
    """The stored continued-fraction prefix cannot settle the question (insufficient-cf-data)."""


def _cf_terms_of_fraction(x: Fraction) -> list[int]:
    """The first _DECIMAL_TERMS terms a1, a2, ... of x = [0; a1, a2, ...] for rational x in (0, 1)."""
    out: list[int] = []
    frac = x
    for _ in range(_DECIMAL_TERMS):
        if frac == 0:
            break
        inv = 1 / frac
        a = inv.numerator // inv.denominator
        out.append(a)
        frac = inv - a
    return out


def _rational(x) -> Rat:
    """The exact layers' one reading of a caller's rational: x itself when int or Fraction, else its exact
    value, a Python int for an integer type (``operator.index``) and otherwise ``Fraction(x)``."""
    if isinstance(x, (int, Fraction)):
        return x
    try:
        return index(x)  # Fraction(np.int64(n)) keeps a fixed-width numerator, which overflows
    except TypeError:
        return Fraction(x)


def _numerators(values: Iterable) -> Tuple[Tuple[int, ...], int]:
    """values, each read by _rational, as integer numerators over their least common denominator: lowest terms."""
    ratios = [_rational(x).as_integer_ratio() for x in values]
    den = math.lcm(*[d for _, d in ratios])
    return tuple(n * (den // d) for n, d in ratios), den


def _integer_form(a: Rat, b: Rat, c: Rat = 0, d: Rat = 0) -> Tuple[int, int, int, int]:
    """Integers (A, B, C, D): the numbers a, b, c, d times one positive rational.

    The sign decisions' one normaliser: a linear form a + b*theta, or two of
    them, or a form and two bounds, keeps every sign it has.  Exact ints
    (``x.__class__ is int``, so no bool or numpy integer) come back as they
    are; any other argument is read as a rational and the four are scaled by
    their least common denominator, building no Fraction from int or Fraction
    arguments.
    """
    if a.__class__ is int and b.__class__ is int and c.__class__ is int and d.__class__ is int:
        return a, b, c, d
    a, b, c, d = _rational(a), _rational(b), _rational(c), _rational(d)
    ad, bd, cd, dd = a.denominator, b.denominator, c.denominator, d.denominator
    m = math.lcm(ad, bd, cd, dd)
    return a.numerator * (m // ad), b.numerator * (m // bd), c.numerator * (m // cd), d.numerator * (m // dd)


def _unsettled(a: Rat, b: Rat) -> PrecisionExhausted:
    return PrecisionExhausted(f"insufficient-cf-data: cannot settle sign of {a} + {b}*theta")


def _unsettled_at(k: int, a: Rat, b: Rat, c: Rat, d: Rat) -> PrecisionExhausted:
    """The unsettled sign of (a + b*theta) - k*(c + d*theta), over the arguments read as rationals."""
    a, b, c, d = _rational(a), _rational(b), _rational(c), _rational(d)
    return _unsettled(a - k * c, b - k * d)


def _rat_str(num: int, den: int = 1) -> str:
    """The rational num/den (den > 0) in lowest terms: ``3`` or ``-1/2``.

    The package's one rational formatter; it lives in this lowest module so
    every layer can use it without importing another.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _read_int(digits: str, error: Callable[[str], Exception]) -> int:
    """int(digits) for a digit run of a text grammar; a run longer than int() takes
    (``sys.get_int_max_str_digits()``) raises ``error(message)``, the grammar's positioned error."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise error(f"number too long ({len(digits)} digits, limit {limit})") from None


def _read_ratio(tok: str, error: Callable[[str], Exception]) -> Tuple[int, int]:
    """A number token ``n`` or ``n/d`` as (n, d); a zero d raises ``error("zero denominator")``."""
    p, _, q = tok.partition("/")
    q = _read_int(q, error) if q else 1
    if not q:
        raise error("zero denominator")
    return _read_int(p, error), q


class Record:
    """Immutable value type: what ``@dataclass(frozen=True)`` gave, minus its import.

    A subclass names its fields in ``__slots__`` (adding ``"__dict__"`` when
    it needs one, e.g. for ``cached_property``) and their defaults, if any,
    in ``_defaults``.  Fields are set once by ``__init__`` and never again;
    ``==`` (same class only) and ``hash`` go over the tuple of fields; the
    repr is ``Name(field=value, ...)``; pickle and copy rebuild through the
    constructor.  Defining a subclass generates no code, so a module of
    them imports fast.  Types built many times per operation write their
    own ``__init__`` (through ``_setters``) and ``__eq__`` (with
    ``__hash__ = Record.__hash__``).  A subclass keeps its own ``__eq__``,
    ``__hash__`` or ``__reduce__`` for one of three reasons only: a field
    is unhashable (a dict store hashes as a frozenset of its items), the
    type is equal only to itself (numpy fields, whose tuple ``==`` raises:
    ``__eq__, __hash__ = object.__eq__, object.__hash__``), or its
    constructor takes another form than the fields (``__reduce__`` then
    names a function that takes them).
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _setters: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__dict__["__slots__"] if f != "__dict__")
        if not cls._fields:  # an abstract base; its subclasses name the fields
            return
        # the slot descriptors' own setters: the fastest way past __setattr__
        cls._setters = tuple(cls.__dict__[f].__set__ for f in cls._fields)
        get = attrgetter(*cls._fields)
        cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Positional, keyword and default arguments as one tuple in field order."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[: len(args)]):
            raise TypeError(f"{name}() got too many or repeated arguments")
        values = {**cls._defaults, **kwargs}
        try:
            args += tuple(map(values.pop, fields[len(args):]))
        except KeyError as exc:
            raise TypeError(f"{name}() missing required argument: {exc.args[0]!r}") from None
        if not values.keys() <= cls._defaults.keys():
            raise TypeError(f"{name}() got an unexpected argument {min(values.keys() - cls._defaults.keys())!r}")
        return args

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._astuple(self)


class ThetaParam(Record):
    """An irrational number theta in (0, 1), given as [0; a1, a2, ...] prefix.

    ``interval`` optionally records outer rational bounds for inexact
    (decimal) inputs; exact presets leave it None and rely on the
    convergents alone.
    """

    __slots__ = ("cf_terms", "name", "interval", "__dict__")

    cf_terms: tuple[int, ...]
    name: Optional[str]
    interval: Optional[tuple[Fraction, Fraction]]

    PRESETS = ("golden", "sqrt2")

    def __init__(
        self,
        cf_terms: tuple[int, ...],
        name: Optional[str] = None,
        interval: Optional[tuple[Fraction, Fraction]] = None,
    ) -> None:
        if not cf_terms and interval is None:
            raise ValueError("continued-fraction prefix must be nonempty")
        try:
            cf_terms = tuple(map(index, cf_terms))
        except TypeError:
            raise ValueError(_CF_TERMS) from None
        if cf_terms and min(cf_terms) < 1:
            raise ValueError(_CF_TERMS)
        if interval is not None:
            interval = lo, hi = tuple(map(_rational, interval))
            if not (0 < lo < hi < 1):
                raise ValueError("interval must satisfy 0 < lo < hi < 1")
        super().__init__(cf_terms, name, interval)

    # ------------------------------------------------------------------ ctors

    @classmethod
    def preset(cls, name: str) -> "ThetaParam":
        """Named angles: golden = (sqrt(5)-1)/2, sqrt2 = sqrt(2)-1, each with _PRESET_TERMS terms."""
        if name == "golden":
            return cls(cf_terms=(1,) * _PRESET_TERMS, name="golden")
        if name == "sqrt2":
            return cls(cf_terms=(2,) * _PRESET_TERMS, name="sqrt2")
        raise ValueError(f"unknown theta preset {name!r} (expected one of {cls.PRESETS})")

    @classmethod
    def from_cf(cls, terms: Sequence[int], name: Optional[str] = None) -> "ThetaParam":
        return cls(cf_terms=tuple(terms), name=name)

    @classmethod
    def from_decimal(cls, text: Union[str, float]) -> "ThetaParam":
        """Build from a decimal approximation; precision is taken at half an ulp.

        The stored continued-fraction prefix is the part shared by both ends
        of the uncertainty interval, so every exact answer derived from it is
        valid for any theta consistent with the input.
        """
        if isinstance(text, float):
            r = Fraction(text)
            u = Fraction(math.ulp(text)) / 2
        else:
            text = text.strip()
            if not _DECIMAL.fullmatch(text):
                raise ValueError(f"theta {text!r} is not a decimal number")
            # the last digit's place comes from the exponent, so "0.5",
            # "0.5e0" and "5e-1" all mean 0.5 +- 0.05
            d = Decimal(text)
            place = d.as_tuple().exponent
            if abs(place) > _MAX_DECIMAL_PLACE:
                # 10**place alone would take unbounded time and memory
                raise ValueError(f"theta {text!r} has its last digit at 10^{place}, out of range")
            r = Fraction(d)
            u = Fraction(10) ** place / 2
        lo, hi = r - u, r + u
        if not (0 < lo and hi < 1):
            raise ValueError("theta must lie strictly inside (0, 1)")
        ta = _cf_terms_of_fraction(lo)
        tb = _cf_terms_of_fraction(hi)
        common = []
        for x, y in zip(ta, tb):
            if x != y:
                break
            common.append(x)
        # an exactly-rational input can pin no terms at all; the raw interval
        # then carries all the precision there is
        return cls(cf_terms=tuple(common), interval=(lo, hi))

    # ------------------------------------------------------------ convergents

    @cached_property
    def convergents(self) -> tuple[tuple[int, int], ...]:
        """Every stored convergent p/q as (p, q): (p0, q0) = (0, 1), (p1, q1) = (1, a1), ..."""
        if not self.cf_terms:
            return ((0, 1),)
        ps = [0, 1]
        qs = [1, self.cf_terms[0]]
        for a in self.cf_terms[1:]:
            ps.append(a * ps[-1] + ps[-2])
            qs.append(a * qs[-1] + qs[-2])
        return tuple(zip(ps, qs))

    @cached_property
    def _bracket(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The narrowest rational bracket lo < theta < hi as integer pairs (p, q), q > 0.

        The brackets are pairs of consecutive convergents, each clipped to
        the interval when there is one, and the interval itself.  The
        convergent brackets are nested and shrink strictly, and clipping
        them to the interval keeps them nested, so the narrowest is the
        deepest nonempty one (or the interval itself when none is): a linear
        sign that any bracket settles, this one settles too.  Walking up from
        the deepest bracket finds it in one step for an exact prefix.
        """
        pq = self.convergents
        for j in range(len(pq) - 2, -1, -1):
            x, y = Fraction(*pq[j]), Fraction(*pq[j + 1])
            lo, hi = (x, y) if x < y else (y, x)
            if self.interval is not None:
                lo, hi = max(lo, self.interval[0]), min(hi, self.interval[1])
            if lo < hi:
                break
        else:
            lo, hi = self.interval
        return (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)

    def turns(self, a: Rat, b: Rat) -> float:
        """(a + b*theta) mod 1 as a float in [0, 1) within TURNS_ERROR: the numeric layers' one float of theta.

        Taken at the narrowest bracket's midpoint, reduced exactly and rounded once, it is off by at most |b|
        times the bracket's half width plus 2^-54; where that could exceed TURNS_ERROR, PrecisionExhausted.
        """
        a, b = _rational(a), _rational(b)
        (p1, q1), (p2, q2) = self._bracket
        if abs(b) * Fraction(p2 * q1 - p1 * q2, 2 * q1 * q2) > _BRACKET_BUDGET:
            raise PrecisionExhausted(f"insufficient-cf-data: cannot settle ({a} + {b}*theta) mod 1 to {TURNS_ERROR}")
        x = float((a + b * Fraction(p1 * q2 + p2 * q1, 2 * q1 * q2)) % 1)
        return x if x < 1.0 else 0.0  # within 2^-54 of 1 is within 2^-54 of 0 on the circle

    # ---------------------------------------------------------- exact queries

    def sign_linear(self, a: Rat, b: Rat) -> int:
        """Exact sign of a + b*theta.  Returns 0 only for a = b = 0."""
        A, B, _, _ = _integer_form(a, b)
        sign = self._sign(A, B)
        if sign is None:
            raise _unsettled(_rational(a), _rational(b))
        return sign

    def _sign(self, A: int, B: int) -> Optional[int]:
        """The sign of A + B*theta for integers A, B; None where the bracket cannot settle it."""
        if not B:
            return (A > 0) - (A < 0)
        # at an endpoint p/q, A + B*p/q has the sign of A*q + B*p
        (p1, q1), (p2, q2) = self._bracket
        v1, v2 = A * q1 + B * p1, A * q2 + B * p2
        if v1 > 0 and v2 > 0:
            return 1
        if v1 < 0 and v2 < 0:
            return -1
        return None

    def in_open_interval(self, a: Rat, b: Rat, lo: Rat, hi: Rat) -> bool:
        """Exact test of lo < a + b*theta < hi for rational lo, hi."""
        A, B, L, H = _integer_form(a, b, lo, hi)
        for bound, C, inside in ((lo, L, 1), (hi, H, -1)):
            sign = self._sign(A - C, B)
            if sign is None:
                raise _unsettled(_rational(a) - _rational(bound), _rational(b))
            if sign != inside:
                return False
        return True

    def floor_ratio(self, a: Rat, b: Rat, c: Rat, d: Rat) -> int:
        """floor((a + b*theta) / (c + d*theta)), exact, for c + d*theta > 0; ValueError where it is not."""
        A, B, C, D = _integer_form(a, b, c, d)
        p, q = self._bracket[0]
        den = C * q + D * p
        if den <= 0:
            c, d = _rational(c), _rational(d)
            if self._sign(C, D) is None:  # the denominator changes sign inside the bracket
                raise _unsettled(c, d)
            raise ValueError(f"floor_ratio needs c + d*theta > 0, got {c} + {d}*theta")
        # n is the floor at the endpoint p/q.  Two signs that settle on the
        # bracket make it the floor on all of it, theta included; a sign
        # that does not settle raises.
        n = (A * q + B * p) // den
        at_n = self._sign(A - n * C, B - n * D)
        if at_n is None:
            raise _unsettled_at(n, a, b, c, d)
        if at_n >= 0:
            past_n = self._sign(A - (n + 1) * C, B - (n + 1) * D)
            if past_n is None:
                raise _unsettled_at(n + 1, a, b, c, d)
            if past_n < 0:
                return n
        raise AssertionError(f"floor {n} at a bracket endpoint is not the floor on the bracket")

    def floor_linear(self, b: Rat) -> int:
        """floor(b * theta), exact."""
        return self.floor_ratio(0, b, 1, 0)

    # ------------------------------------------------------------- reflection

    def reflect(self) -> "ThetaParam":
        """The parameter 1 - theta (used to normalize signs of trace values)."""
        return self._reflected

    @cached_property
    def _reflected(self) -> "ThetaParam":
        a = self.cf_terms
        if not a or a == (1,):
            raise PrecisionExhausted("insufficient-cf-data: prefix too short to reflect")
        if a[0] == 1:
            new = (a[1] + 1,) + a[2:]
        else:
            new = (1, a[0] - 1) + a[1:]
        interval = None
        if self.interval is not None:
            lo, hi = self.interval
            interval = (1 - hi, 1 - lo)
        name = None if self.name is None else f"1-{self.name}"
        return ThetaParam(cf_terms=new, name=name, interval=interval)


def parse_theta(spec: str) -> ThetaParam:
    """Parse a command-line theta spec: preset name, ``cf:a1,a2,...`` or a decimal."""
    spec = spec.strip()
    if spec in ThetaParam.PRESETS:
        return ThetaParam.preset(spec)
    if spec.startswith("cf:"):
        terms = []
        pos = 3
        for tok in spec[3:].split(","):
            digits = tok.strip()
            at = pos + len(tok) - len(tok.lstrip())
            if not (digits.isascii() and digits.isdigit()):
                what = "empty" if not digits else f"invalid ({digits!r})"
                raise ValueError(f"{what} continued-fraction term at {at} in {spec!r}")
            terms.append(_read_int(digits, lambda why: ValueError(f"{why} in the continued-fraction term at {at}")))
            pos += len(tok) + 1
        return ThetaParam.from_cf(terms)
    return ThetaParam.from_decimal(spec)
