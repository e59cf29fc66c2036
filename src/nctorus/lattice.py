"""Integer-lattice arithmetic on six-slot character vectors.

The character range of sigma-invariant classes is the integer span of
nine vectors in (Q + Q*theta + iQ + iQ*theta)^6.  Flattening each slot
over the basis {1, theta} x {1, i} turns "is v an integral combination?"
into an exact 24 x 9 rational linear system.  It is eliminated once,
fraction-free, on the first solve rather than at import.  theta is
irrational, so {1, theta} is independent over Q and the flattening is
faithful.

Every lattice value is stored as ``Element`` is: integer numerators
``_n`` over one positive denominator ``_d``, in lowest terms.  A
``KScalar`` holds its four numerators (a, b, c, d), a ``ChernVector`` its
24 (six slots of four, in slot order), a ``Genus`` its three; equality
and hashing are tuple comparisons.  The solve, the integral combinations,
the membership decision, the synthesis recipe and its self-check, the
quantization check and the text I/O (theta's scalar grammar) all read and
build these rows.  A vector's system is solved at most once: the solve is
kept on the ``ChernVector`` (outside its fields), so ``decompose``,
``semiflat_membership`` and ``synthesis_recipe`` on one vector share it.
The membership decision carries the vector it decided, and its recipe is
read off the decision.
The public fields (``KScalar.a..d``, the six ``ChernVector`` slots,
``Genus`` entries) are built when read, so a ``Fraction`` appears only
where a caller asks for one.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache, cached_property
from operator import index
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple, Union

from .theta import ChernParseError, Record, ThetaParam, _kscalar_str, _numerators, _parse_numerators

if TYPE_CHECKING:
    from .traces import T4Vector

Rat = Union[int, Fraction]


def _reduced(nums: Sequence[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """The row nums/den (den > 0) with gcd(den, nums) divided out: numerators in lowest terms."""
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def _entry(i: int) -> property:
    """The read-only field that is numerator i over the denominator, as a Fraction."""
    return property(lambda self: Fraction(self._n[i], self._d))


class _Numerators(Record):
    """A value stored as integer numerators ``_n`` over one positive denominator ``_d``, in lowest terms.

    Its public fields, named in ``_public``, are read off the store; its
    repr is the one it had as a dataclass of them.  Pickle and copy rebuild
    through :meth:`_of`.
    """

    __slots__ = ()
    _public: Tuple[str, ...] = ()

    @classmethod
    def _of(cls, nums: Sequence[int], den: int):
        """The value nums/den (den > 0), reduced to lowest terms."""
        x = object.__new__(cls)
        x._set(*_reduced(nums, den))
        return x

    def _set(self, nums: Tuple[int, ...], den: int) -> None:
        set_n, set_d = self._setters
        set_n(self, nums)
        set_d(self, den)

    def __reduce__(self):
        return self._of, (self._n, self._d)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._public)
        return f"{self.__class__.__qualname__}({body})"


class KScalar(_Numerators):
    """An exact value (a + b*theta) + i*(c + d*theta) with rational a, b, c, d."""

    __slots__ = ("_n", "_d")
    _public = ("a", "b", "c", "d")
    a, b, c, d = map(_entry, range(4))

    def __init__(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0):
        self._set(*_numerators((a, b, c, d)))

    def __str__(self) -> str:
        return kscalar_to_text(self)


def _slot(i: int) -> property:
    """The read-only slot i of a ChernVector, as a KScalar."""
    return property(lambda self: KScalar._of(self._n[4 * i : 4 * i + 4], self._d))


class ChernVector(_Numerators):
    """Six exact slots (tau; psi10, psi11; psi20, psi21, psi22).

    Its lattice solve is made on the first query that needs it and kept with
    the vector (``_solution``); equality, hashing, repr and pickle read only
    ``_n`` and ``_d``.
    """

    __slots__ = ("_n", "_d", "__dict__")
    _public = ("tau", "psi10", "psi11", "psi20", "psi21", "psi22")
    tau, psi10, psi11, psi20, psi21, psi22 = map(_slot, range(6))

    def __init__(self, tau: KScalar, psi10: KScalar, psi11: KScalar, psi20: KScalar, psi21: KScalar,
                 psi22: KScalar):
        slots = (tau, psi10, psi11, psi20, psi21, psi22)
        den = math.lcm(*[s._d for s in slots])
        self._set(tuple(x * (den // s._d) for s in slots for x in s._n), den)

    def slots(self) -> Tuple[KScalar, ...]:
        n, d = self._n, self._d
        return tuple(KScalar._of(n[i : i + 4], d) for i in range(0, 24, 4))

    def __str__(self) -> str:
        return chern_to_text(self)

    @cached_property
    def _solution(self) -> Optional[Tuple[Tuple[int, ...], int]]:
        """``_solve_exact`` of this vector, made once however many queries read it."""
        return _solve_exact(self._n, self._d)


class K0Coordinates(NamedTuple):
    """Integer coordinates over the nine basis vectors."""

    n1: int
    n2: int
    n3: int
    n4: int
    n5: int
    n6: int
    n7: int
    n8: int
    n9: int


class Genus(_Numerators):
    """The topological genus (psi20, psi21, psi22) of a semiflat class."""

    __slots__ = ("_n", "_d")
    _public = ("g20", "g21", "g22")
    g20, g21, g22 = map(_entry, range(3))

    def __init__(self, g20: Rat, g21: Rat, g22: Rat):
        self._set(*_numerators((g20, g21, g22)))

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.g20, self.g21, self.g22)

    def is_integral(self) -> bool:
        return self._d == 1


_ks = KScalar  # short name for the basis table

_HALF = Fraction(1, 2)

_BASIS: Tuple[ChernVector, ...] = (
    # V1..V9; slot order (tau; psi10, psi11; psi20, psi21, psi22)
    ChernVector(_ks(2), _ks(), _ks(), _ks(2), _ks(), _ks()),
    ChernVector(_ks(2), _ks(1, 0, 1), _ks(), _ks(), _ks(), _ks()),
    ChernVector(_ks(1), _ks(1), _ks(), _ks(1), _ks(), _ks()),
    ChernVector(_ks(2), _ks(), _ks(), _ks(), _ks(2), _ks()),
    ChernVector(_ks(2), _ks(), _ks(1, 0, 1), _ks(), _ks(), _ks()),
    ChernVector(_ks(1), _ks(), _ks(1), _ks(), _ks(1), _ks()),
    ChernVector(_ks(0, 1), _ks(_HALF, 0, -_HALF), _ks(_HALF, 0, -_HALF), _ks(_HALF), _ks(_HALF), _ks(1)),
    ChernVector(_ks(0, 1), _ks(-_HALF, 0, -_HALF), _ks(-_HALF, 0, -_HALF), _ks(-_HALF), _ks(-_HALF), _ks(-1)),
    ChernVector(_ks(0, 1), _ks(-_HALF, 0, _HALF), _ks(-_HALF, 0, _HALF), _ks(_HALF), _ks(_HALF), _ks(1)),
)


def basis_vectors() -> Tuple[ChernVector, ...]:
    """The nine spanning vectors V1..V9 of the character lattice."""
    return _BASIS


@cache
def _elimination_transform() -> Tuple[Tuple[int, ...], Tuple[Tuple[Tuple[int, int], ...], ...], int]:
    """One-time RREF of [M | I]: pivot columns, the 24 x 24 transform E and its denominator.

    E is stored column-sparse as integer numerators over one common
    denominator: column j holds the (row, numerator) pairs of its nonzero
    entries.  Row r of E applied to any rhs gives the value of the r-th
    reduced row, so solving M x = rhs is a single sparse apply, which visits
    only the columns of the nonzero rhs entries.  Gauss-Jordan
    runs fraction-free: each row is integer numerators over a positive row
    denominator, reduced by their gcd after every row operation.  It runs
    on the first solve, not at import, and its result is kept.
    """
    # row i of [M | I] over 2, which clears every basis entry
    rows = [
        _reduced([v._n[i] * (2 // v._d) for v in _BASIS] + [2 * (i == j) for j in range(24)], 2) for i in range(24)
    ]
    pivots: list[int] = []
    rank = 0
    for col in range(9):
        piv = next((r for r in range(rank, 24) if rows[r][0][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        # dividing by the lead nums[col]/d leaves numerators over |nums[col]|
        nums = rows[rank][0]
        sign = 1 if nums[col] > 0 else -1
        rows[rank] = pivot_nums, pivot_den = _reduced([sign * x for x in nums], abs(nums[col]))
        for r in range(24):
            nums, d = rows[r]
            factor = nums[col]
            if r != rank and factor:
                # nums/d - (factor/d) * pivot_nums/pivot_den
                rows[r] = _reduced(
                    [x * pivot_den - factor * y for x, y in zip(nums, pivot_nums)], d * pivot_den
                )
        pivots.append(col)
        rank += 1
    den = math.lcm(*(d // math.gcd(d, x) for nums, d in rows for x in nums[9:]))
    transform = tuple(
        tuple((r, nums[9 + j] * den // d) for r, (nums, d) in enumerate(rows) if nums[9 + j]) for j in range(24)
    )
    return tuple(pivots), transform, den


def _solve_exact(nums: Sequence[int], den: int) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Solve M x = nums/den (den > 0) for the 24 x 9 basis matrix; None if inconsistent.

    The solution comes as integer numerators over one positive denominator,
    in lowest terms: it is integral exactly when that denominator is 1.
    """
    pivots, transform, transform_den = _elimination_transform()
    reduced = [0] * 24
    for x, column in zip(nums, transform):
        if x:
            for r, coef in column:
                reduced[r] += coef * x
    if any(reduced[len(pivots):]):
        return None
    solution = [0] * 9
    for r, col in enumerate(pivots):
        solution[col] = reduced[r]
    return _reduced(solution, transform_den * den)


def basis_rank() -> int:
    """Rank of the nine basis vectors over Q (exact)."""
    return len(_elimination_transform()[0])


# Every basis entry lies in (1/2)Z: each basis vector as the (index, numerator over 2) pairs of its nonzero entries.
_BASIS_NUMERATORS = tuple(tuple((i, x * (2 // v._d)) for i, x in enumerate(v._n) if x) for v in _BASIS)


def recompose(coords: K0Coordinates) -> ChernVector:
    """The exact integral combination sum N_j V_j."""
    acc = [0] * 24
    for n, row in zip(map(index, coords), _BASIS_NUMERATORS):
        if n:
            for i, x in row:
                acc[i] += n * x
    return ChernVector._of(acc, 2)


class DecomposeResult(Record):
    """Outcome of the lattice decomposition.

    status: "ok" (integral), "non-integer" (in the rational span only), or
    "not-in-span" (inconsistent system).  The rational solution is stored as
    integer numerators ``_n`` over one positive denominator ``_d``, in lowest
    terms (both None off the span); ``rational``, its nine Fractions, is
    built when read.  The repr is the one it had as a dataclass of
    (status, coordinates, rational).
    """

    __slots__ = ("status", "coordinates", "_n", "_d")
    _defaults = dict.fromkeys(__slots__[1:])

    status: str
    coordinates: Optional[K0Coordinates]

    @property
    def rational(self) -> Optional[Tuple[Fraction, ...]]:
        return None if self._n is None else tuple(Fraction(x, self._d) for x in self._n)

    def __bool__(self) -> bool:
        return self.status == "ok"

    def __repr__(self) -> str:
        return f"DecomposeResult(status={self.status!r}, coordinates={self.coordinates!r}, rational={self.rational!r})"


def decompose(v: ChernVector) -> DecomposeResult:
    """Express v over the nine basis vectors with integer coefficients, if possible."""
    sol = v._solution
    if sol is None:
        return DecomposeResult("not-in-span", None, None, None)
    nums, den = sol
    if den != 1:
        return DecomposeResult("non-integer", None, nums, den)
    return DecomposeResult("ok", K0Coordinates(*nums), nums, den)


def semiflat_coordinates(n1: int, n2: int, n3: int, n4: int, n9: int) -> K0Coordinates:
    """Fill in the coordinates forced by psi10 = psi11 = 0.

    Vanishing of the two order-four invariants pins n6 = n3, n5 = n2,
    n7 = n9 - n3, n8 = 2*n2 + n3, leaving (n1, n2, n3, n4, n9) free.
    """
    n1, n2, n3, n4, n9 = index(n1), index(n2), index(n3), index(n4), index(n9)
    return K0Coordinates(n1, n2, n3, n4, n2, n3, n9 - n3, 2 * n2 + n3, n9)


class MembershipDecision(Record):
    __slots__ = ("member", "reason", "coordinates", "genus", "trace", "vector")
    _defaults = dict.fromkeys(__slots__[1:])

    member: bool
    reason: Optional[str]
    coordinates: Optional[K0Coordinates]
    genus: Optional[Genus]
    trace: Optional[KScalar]
    vector: Optional[ChernVector]

    def __bool__(self) -> bool:
        return self.member

    def to_json(self) -> dict:
        """The cone record: the decision, the vector it decided and, for a member, its synthesis recipe."""
        return {
            "member": self.member,
            "reason": self.reason,
            "coordinates": list(self.coordinates) if self.coordinates else None,
            "genus": [str(g) for g in self.genus.as_tuple()] if self.genus else None,
            "trace": kscalar_to_text(self.trace) if self.trace else None,
            "vector": chern_to_text(self.vector) if self.vector else None,
            "recipe": _recipe(self).to_json() if self.member else None,
        }


def semiflat_membership(v: ChernVector, theta: ThetaParam) -> MembershipDecision:
    """Decide membership in the semiflat positive cone.

    A vector belongs iff it decomposes integrally over the basis, its two
    order-four invariant slots vanish exactly, and its trace is positive
    (decided exactly from rational brackets of theta).  On membership the
    genus, v's slots (psi20, psi21, psi22), is returned.
    """
    nums, den = v._n, v._d
    sol = v._solution
    if sol is None or sol[1] != 1:
        return MembershipDecision(False, "not-in-lattice", None, None, None, v)
    n = K0Coordinates(*sol[0])
    if any(nums[4:8]):
        return MembershipDecision(False, "psi10-nonzero", n, None, None, v)
    if any(nums[8:12]):
        return MembershipDecision(False, "psi11-nonzero", n, None, None, v)
    # cross-check the linear relations forced by the vanishing slots
    if semiflat_coordinates(n.n1, n.n2, n.n3, n.n4, n.n9) != n:
        raise AssertionError("decomposition violates the semiflat constraint relations")
    # v decomposed integrally, so tau lies in Z + Z*theta: its sign is that of nums[0] + nums[1]*theta
    trace = KScalar._of(nums[:4], den)
    if theta.sign_linear(nums[0], nums[1]) <= 0:
        return MembershipDecision(False, "nonpositive-trace", n, None, trace, v)
    return MembershipDecision(True, None, n, Genus._of(nums[12:24:4], den), trace, v)


# --------------------------------------------------------------- quantization


class QuantizationReport(Record):
    __slots__ = ("ok", "slots")

    ok: bool
    slots: dict

    def __bool__(self) -> bool:
        return self.ok


def _in_half_lattice(a: int, b: int, c: int, d: int, den: int) -> bool:
    """Membership of (a, b, c, d)/den in Z + Z*(1-i)/2: no theta part, p + q*(1-i)/2 solvable over Z."""
    return not (b or d) and (2 * c) % den == 0 and (a + c) % den == 0  # q = -2c, p = a + c


def _in_half_integers(a: int, b: int, c: int, d: int, den: int) -> bool:
    return not (b or c or d) and (2 * a) % den == 0


def _in_integers(a: int, b: int, c: int, d: int, den: int) -> bool:
    return not (b or c or d) and a % den == 0


def quantization_check(v: ChernVector) -> QuantizationReport:
    """Check each invariant slot against its quantization lattice.

    psi10, psi11 must lie in Z + Z*(1-i)/2; psi20, psi21 in (1/2)Z;
    psi22 in Z.  The trace slot is unconstrained.
    """
    n, den = v._n, v._d
    slots = {
        "psi10": _in_half_lattice(*n[4:8], den),
        "psi11": _in_half_lattice(*n[8:12], den),
        "psi20": _in_half_integers(*n[12:16], den),
        "psi21": _in_half_integers(*n[16:20], den),
        "psi22": _in_integers(*n[20:24], den),
    }
    return QuantizationReport(all(slots.values()), slots)


# ------------------------------------------------------------ genus arithmetic

BASIC_GENERA = ((2, 0, 0), (1, 1, 2), (0, 0, 2))


def genus_basis_decompose(g: Genus) -> Optional[Tuple[int, int, int]]:
    """Solve c1*(2,0,0) + c2*(1,1,2) + c3*(0,0,2) = g over the integers.

    Solvable iff g20 = g21 (mod 2) and g22 is even; then c2 = g21,
    c1 = (g20 - g21)/2, c3 = g22/2 - g21.
    """
    if not g.is_integral():
        raise ValueError("genus entries must be integers")
    g20, g21, g22 = g._n
    if (g20 - g21) % 2 != 0 or g22 % 2 != 0:
        return None
    c2 = g21
    c1 = (g20 - g21) // 2
    c3 = g22 // 2 - g21
    return (c1, c2, c3)


# ------------------------------------------------------------------- synthesis

# Canonical positive-trace class with each basic genus: (2,0,0) and (0,0,2)
# carry trace 2, (1,1,2) carries trace 2*theta.  A negated genus keeps the
# same trace coset mod 4Z + 4Z*theta, so generators for -G use the same trace.
_GENERATOR_TRACES = (KScalar(2), KScalar(0, 2), KScalar(2))


def _signed_generator(base: Tuple[int, int, int], sign: int, trace: KScalar) -> tuple:
    """(genus, trace, vector, the vector's nonzero (index, entry) pairs) of the generator of genus sign * base."""
    genus = tuple(sign * x for x in base)
    vector = ChernVector(trace, KScalar(), KScalar(), *map(KScalar, genus))
    return genus, trace, vector, tuple((i, x) for i, x in enumerate(vector._n) if x)  # integers: _d is 1


# The six signed generators, per basic genus: {sign: (genus, trace, vector, nonzero entries)}.
_GENERATORS = tuple(
    {sign: _signed_generator(base, sign, trace) for sign in (1, -1)}
    for base, trace in zip(BASIC_GENERA, _GENERATOR_TRACES)
)


class GeneratorSpec(Record):
    __slots__ = ("count", "genus", "trace", "vector")

    count: int
    genus: Tuple[int, int, int]
    trace: KScalar
    vector: ChernVector

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "genus": list(self.genus),
            "trace": kscalar_to_text(self.trace),
        }


class SynthesisRecipe(Record):
    __slots__ = ("generators", "flat_trace")

    generators: Tuple[GeneratorSpec, ...]
    flat_trace: KScalar

    def to_json(self) -> dict:
        return {
            "generators": [g.to_json() for g in self.generators],
            "flat_trace": kscalar_to_text(self.flat_trace),
        }


class SynthesisError(ArithmeticError):
    """Internal consistency failure while assembling a recipe."""


def _recipe(decision: MembershipDecision) -> SynthesisRecipe:
    """Write the decided cone member as basic-genus generators plus a flat class.

    The genus is decomposed over the three basic genera; each nonzero
    coefficient c contributes |c| copies of a generator of genus
    sign(c) * G (negation of a genus is realizable at class level) with
    the canonical trace for G.  The remaining trace is carried by a flat
    class and must land in 4Z + 4Z*theta; anything else indicates a
    corrupted input and raises.
    """
    if not decision:
        raise ValueError(f"not a semiflat cone member: {decision.reason}")
    coeffs = genus_basis_decompose(decision.genus)
    if coeffs is None:
        raise SynthesisError("cone member genus failed the basic-genus parity conditions")
    gens: list[GeneratorSpec] = []
    nums, den = decision.vector._n, decision.vector._d
    total = [0] * 24  # the generators' sum, then the recipe's, as integers
    for c, signed in zip(coeffs, _GENERATORS):
        if c == 0:
            continue
        genus, trace, vector, gen_row = signed[1 if c > 0 else -1]
        gens.append(GeneratorSpec(abs(c), genus, trace, vector))
        for i, x in gen_row:
            total[i] += abs(c) * x
    # the flat trace v.tau - (the generators' traces), times den
    flat = [x - den * used for x, used in zip(nums[:4], total)]
    flat_trace = KScalar._of(flat, den)
    if flat[0] % (4 * den) or flat[1] % (4 * den) or flat[2] or flat[3]:
        raise SynthesisError(f"flat remainder {flat_trace} is not in 4Z + 4Z*theta")
    total[0] += flat[0] // den
    total[1] += flat[1] // den
    recipe = SynthesisRecipe(tuple(gens), flat_trace)
    if tuple(den * x for x in total) != nums:
        raise SynthesisError("recipe does not recompose to its input")
    return recipe


def synthesis_recipe(v: ChernVector, theta: ThetaParam) -> SynthesisRecipe:
    """The synthesis recipe of a cone member: basic-genus generators plus a flat class (see ``_recipe``)."""
    return _recipe(semiflat_membership(v, theta))


# ------------------------------------------------------------- serialization


def kscalar_to_text(s: KScalar) -> str:
    """Render like ``4+2t``, ``-1/2+1/2i``, ``2t``; t stands for theta."""
    return _kscalar_str(s._n, s._d)


def parse_kscalar(text: str) -> KScalar:
    """Parse the ``a+bt+ci+dti`` grammar (see ``theta._parse_numerators``)."""
    return KScalar._of(*_parse_numerators(text))


def chern_to_text(v: ChernVector) -> str:
    s = [kscalar_to_text(x) for x in v.slots()]
    return f"({s[0]}; {s[1]}, {s[2]}; {s[3]}, {s[4]}, {s[5]})"


_CHERN_SEPARATOR = re.compile(r"[;,]")


def parse_chern(text: str) -> ChernVector:
    """Parse ``(tau; psi10, psi11; psi20, psi21, psi22)``; separators ; and , interchangeable.

    Every slot needs a scalar: a doubled or trailing separator is an empty
    slot, rejected with its position.
    """
    start, end = len(text) - len(text.lstrip()), len(text.rstrip())
    if end - start >= 2 and text[start] == "(" and text[end - 1] == ")":
        start, end = start + 1, end - 1
    # (start, end) of each slot in text, so that every error gives a position in text
    cuts = [m.start() for m in _CHERN_SEPARATOR.finditer(text, start, end)]
    slots = list(zip([start] + [c + 1 for c in cuts], cuts + [end]))
    for a, b in slots:
        if not text[a:b].strip():
            raise ChernParseError(f"empty slot at {a}")
    if len(slots) != 6:
        raise ChernParseError(f"expected 6 slots, got {len(slots)}")
    return ChernVector(*(KScalar._of(*_parse_numerators(text, a, b)) for a, b in slots))


def chern_from_t4(t4: T4Vector) -> ChernVector:
    """Convert an exact character vector whose slots are phase-free.

    Only slots that are plain Gaussian rationals (no L powers) convert;
    anything else raises, because a nontrivial phase polynomial has no
    canonical (a + b*theta) + i(c + d*theta) form.
    """
    out = []
    for slot in t4.slots():
        coeffs = dict(slot.items())
        if any(k != 0 for k in coeffs):
            raise ValueError("slot contains phase powers; not a lattice-compatible vector")
        g = coeffs.get(0)
        if g is None:
            out.append(KScalar())
        else:
            out.append(KScalar(g.re, 0, g.im, 0))
    return ChernVector(*out)
