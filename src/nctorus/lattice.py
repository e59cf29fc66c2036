"""Integer-lattice arithmetic on six-slot character vectors.

The character range of sigma-invariant classes is the integer span of
nine vectors in (Q + Q*theta + iQ + iQ*theta)^6.  Flattening each slot
over the basis {1, theta} x {1, i} turns "is v an integral combination?"
into an exact 24 x 9 rational linear system.  It is eliminated once,
fraction-free, on the first solve rather than at import.  theta is
irrational, so {1, theta} is independent over Q and the flattening is
faithful.

The values keep ``Fraction`` fields (a ``KScalar`` is four, a
``ChernVector`` six ``KScalar`` slots), but the arithmetic between them is
integer: a vector is read as its 24 integer numerators over one positive
denominator, and the solve, the integral combinations, the membership
decision, the synthesis recipe and its self-check, and the text parser
all work on such rows.  A Fraction is built only where a value is handed
out, and only for a nonzero entry; a zero entry is the shared ``_ZERO``,
an all-zero slot ``KSCALAR_ZERO``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .theta import Record, ThetaParam, _rat_str, _read_ratio

if TYPE_CHECKING:
    from .traces import T4Vector

Rat = Union[int, Fraction]


_ZERO = Fraction(0)


class KScalar(Record):
    """An exact value (a + b*theta) + i*(c + d*theta) with rational a, b, c, d."""

    __slots__ = ("a", "b", "c", "d")

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a: Rat = _ZERO, b: Rat = _ZERO, c: Rat = _ZERO, d: Rat = _ZERO):
        set_a, set_b, set_c, set_d = self._setters
        set_a(self, a if type(a) is Fraction else Fraction(a))
        set_b(self, b if type(b) is Fraction else Fraction(b))
        set_c(self, c if type(c) is Fraction else Fraction(c))
        set_d(self, d if type(d) is Fraction else Fraction(d))

    def __eq__(self, other) -> bool:
        if other.__class__ is not KScalar:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    __hash__ = Record.__hash__

    def __add__(self, other: "KScalar") -> "KScalar":
        return KScalar(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "KScalar") -> "KScalar":
        return KScalar(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "KScalar":
        return KScalar(-self.a, -self.b, -self.c, -self.d)

    def scale(self, r: Rat) -> "KScalar":
        r = Fraction(r)
        return KScalar(self.a * r, self.b * r, self.c * r, self.d * r)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def flatten(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return kscalar_to_text(self)


KSCALAR_ZERO = KScalar()


class ChernVector(Record):
    """Six exact slots (tau; psi10, psi11; psi20, psi21, psi22)."""

    __slots__ = ("tau", "psi10", "psi11", "psi20", "psi21", "psi22")

    tau: KScalar
    psi10: KScalar
    psi11: KScalar
    psi20: KScalar
    psi21: KScalar
    psi22: KScalar

    def __init__(self, tau: KScalar, psi10: KScalar, psi11: KScalar, psi20: KScalar, psi21: KScalar,
                 psi22: KScalar):
        set_tau, set_psi10, set_psi11, set_psi20, set_psi21, set_psi22 = self._setters
        set_tau(self, tau)
        set_psi10(self, psi10)
        set_psi11(self, psi11)
        set_psi20(self, psi20)
        set_psi21(self, psi21)
        set_psi22(self, psi22)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ChernVector:
            return NotImplemented
        return self.slots() == other.slots()

    __hash__ = Record.__hash__

    def slots(self) -> Tuple[KScalar, ...]:
        return (self.tau, self.psi10, self.psi11, self.psi20, self.psi21, self.psi22)

    def flatten(self) -> Tuple[Fraction, ...]:
        out: list[Fraction] = []
        for s in self.slots():
            out.extend(s.flatten())
        return tuple(out)

    def __add__(self, other: "ChernVector") -> "ChernVector":
        return ChernVector(*(x + y for x, y in zip(self.slots(), other.slots())))

    def __sub__(self, other: "ChernVector") -> "ChernVector":
        return ChernVector(*(x - y for x, y in zip(self.slots(), other.slots())))

    def scale(self, r: Rat) -> "ChernVector":
        return ChernVector(*(s.scale(r) for s in self.slots()))

    def __str__(self) -> str:
        return chern_to_text(self)


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


class Genus(Record):
    """The topological genus (psi20, psi21, psi22) of a semiflat class."""

    __slots__ = ("g20", "g21", "g22")

    g20: Fraction
    g21: Fraction
    g22: Fraction

    def __init__(self, g20: Rat, g21: Rat, g22: Rat):
        super().__init__(*(g if type(g) is Fraction else Fraction(g) for g in (g20, g21, g22)))

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.g20, self.g21, self.g22)

    def is_integral(self) -> bool:
        return all(g.denominator == 1 for g in self.as_tuple())


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


def _reduced(nums: List[int], den: int) -> Tuple[List[int], int]:
    """The row nums/den (den > 0) with gcd(den, nums) divided out."""
    g = math.gcd(den, *nums)
    return [x // g for x in nums], den // g


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
    flat = [v.flatten() for v in _BASIS]
    rows = []
    for i in range(24):
        entries = [f[i] for f in flat]
        d = math.lcm(*(x.denominator for x in entries))
        nums = [x.numerator * (d // x.denominator) for x in entries] + [d * (i == j) for j in range(24)]
        rows.append(_reduced(nums, d))
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


def _solve_exact(nums: Sequence[int], den: int) -> Optional[Tuple[List[int], int]]:
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


def _numerators(v: ChernVector, den: int) -> Tuple[Tuple[int, int], ...]:
    """The nonzero entries of den * v.flatten() as (index, integer) pairs; den clears v."""
    return tuple((i, x.numerator * (den // x.denominator)) for i, x in enumerate(v.flatten()) if x)


def _row(v: ChernVector) -> Tuple[List[int], int]:
    """v.flatten() as integer numerators over their least common denominator."""
    ratios = [x.as_integer_ratio() for x in v.flatten()]  # one call per entry, not two property reads
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _chern(nums: Sequence[int], den: int) -> ChernVector:
    """The vector whose flattened entries are nums[i]/den; only a nonzero entry builds a Fraction."""
    slots = []
    for i in range(0, 24, 4):
        part = nums[i : i + 4]
        slots.append(KScalar(*(Fraction(x, den) if x else _ZERO for x in part)) if any(part) else KSCALAR_ZERO)
    return ChernVector(*slots)


def _combination(terms: Iterable[Tuple[int, Tuple[Tuple[int, int], ...]]], den: int) -> ChernVector:
    """sum n * row / den over (n, row) pairs of sparse integer rows from :func:`_numerators`."""
    acc = [0] * 24
    for n, row in terms:
        if n:
            for i, x in row:
                acc[i] += n * x
    return _chern(acc, den)


# Every basis entry lies in (1/2)Z.
_BASIS_NUMERATORS = tuple(_numerators(v, 2) for v in _BASIS)


def recompose(coords: K0Coordinates) -> ChernVector:
    """The exact integral combination sum N_j V_j."""
    return _combination(zip(coords, _BASIS_NUMERATORS), 2)


class DecomposeResult(Record):
    """Outcome of the lattice decomposition.

    status: "ok" (integral), "non-integer" (in the rational span only), or
    "not-in-span" (inconsistent system).
    """

    __slots__ = ("status", "coordinates", "rational")
    _defaults = dict.fromkeys(__slots__[1:])

    status: str
    coordinates: Optional[K0Coordinates]
    rational: Optional[Tuple[Fraction, ...]]

    def __bool__(self) -> bool:
        return self.status == "ok"


def decompose(v: ChernVector) -> DecomposeResult:
    """Express v over the nine basis vectors with integer coefficients, if possible."""
    sol = _solve_exact(*_row(v))
    if sol is None:
        return DecomposeResult("not-in-span")
    nums, den = sol
    rational = tuple(Fraction(x, den) if x else _ZERO for x in nums)
    if den != 1:
        return DecomposeResult("non-integer", rational=rational)
    return DecomposeResult("ok", K0Coordinates(*nums), rational)


def semiflat_coordinates(n1: int, n2: int, n3: int, n4: int, n9: int) -> K0Coordinates:
    """Fill in the coordinates forced by psi10 = psi11 = 0.

    Vanishing of the two order-four invariants pins n6 = n3, n5 = n2,
    n7 = n9 - n3, n8 = 2*n2 + n3, leaving (n1, n2, n3, n4, n9) free.
    """
    return K0Coordinates(n1, n2, n3, n4, n2, n3, n9 - n3, 2 * n2 + n3, n9)


class MembershipDecision(Record):
    __slots__ = ("member", "reason", "coordinates", "genus", "trace")
    _defaults = dict.fromkeys(__slots__[1:])

    member: bool
    reason: Optional[str]
    coordinates: Optional[K0Coordinates]
    genus: Optional[Genus]
    trace: Optional[KScalar]

    def __bool__(self) -> bool:
        return self.member

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "reason": self.reason,
            "coordinates": list(self.coordinates) if self.coordinates else None,
            "genus": [str(g) for g in self.genus.as_tuple()] if self.genus else None,
            "trace": kscalar_to_text(self.trace) if self.trace else None,
        }


def semiflat_membership(v: ChernVector, theta: ThetaParam) -> MembershipDecision:
    """Decide membership in the semiflat positive cone.

    A vector belongs iff it decomposes integrally over the basis, its two
    order-four invariant slots vanish exactly, and its trace is positive
    (decided exactly from rational brackets of theta).  On membership the
    genus, v's slots (psi20, psi21, psi22), is returned.
    """
    return _membership(v, _row(v), theta)


def _membership(v: ChernVector, row: Tuple[List[int], int], theta: ThetaParam) -> MembershipDecision:
    """semiflat_membership of v, whose integer row (numerators, denominator) is given."""
    sol = _solve_exact(*row)
    if sol is None or sol[1] != 1:
        return MembershipDecision(False, reason="not-in-lattice")
    n = K0Coordinates(*sol[0])
    if not v.psi10.is_zero():
        return MembershipDecision(False, reason="psi10-nonzero", coordinates=n)
    if not v.psi11.is_zero():
        return MembershipDecision(False, reason="psi11-nonzero", coordinates=n)
    # cross-check the linear relations forced by the vanishing slots
    if semiflat_coordinates(n.n1, n.n2, n.n3, n.n4, n.n9) != n:
        raise AssertionError("decomposition violates the semiflat constraint relations")
    # v decomposed integrally, so v = recompose(n): its slots are the basis's values on n
    # (tau in Z + Z*theta); its row's first two numerators are tau's a, b over a positive denominator
    trace = v.tau
    if theta.sign_linear(row[0][0], row[0][1]) <= 0:
        return MembershipDecision(False, reason="nonpositive-trace", coordinates=n, trace=trace)
    genus = Genus(v.psi20.a, v.psi21.a, v.psi22.a)
    return MembershipDecision(True, coordinates=n, genus=genus, trace=trace)


# --------------------------------------------------------------- quantization


class QuantizationReport(Record):
    __slots__ = ("ok", "slots")

    ok: bool
    slots: dict

    def __bool__(self) -> bool:
        return self.ok


def _in_half_lattice(s: KScalar) -> bool:
    """Membership in Z + Z*(1-i)/2: no theta part, p + q*(1-i)/2 solvable over Z."""
    if s.b or s.d:
        return False
    q = -2 * s.c
    p = s.a + s.c
    return q.denominator == 1 and p.denominator == 1


def _in_half_integers(s: KScalar) -> bool:
    return not (s.b or s.c or s.d) and (2 * s.a).denominator == 1


def _in_integers(s: KScalar) -> bool:
    return not (s.b or s.c or s.d) and s.a.denominator == 1


def quantization_check(v: ChernVector) -> QuantizationReport:
    """Check each invariant slot against its quantization lattice.

    psi10, psi11 must lie in Z + Z*(1-i)/2; psi20, psi21 in (1/2)Z;
    psi22 in Z.  The trace slot is unconstrained.
    """
    slots = {
        "psi10": _in_half_lattice(v.psi10),
        "psi11": _in_half_lattice(v.psi11),
        "psi20": _in_half_integers(v.psi20),
        "psi21": _in_half_integers(v.psi21),
        "psi22": _in_integers(v.psi22),
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
    g20, g21, g22 = (int(x) for x in g.as_tuple())
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
    """(genus, trace, vector, the vector's integer row) of the generator of genus sign * base."""
    genus = tuple(sign * x for x in base)
    vector = ChernVector(trace, KSCALAR_ZERO, KSCALAR_ZERO, *(KScalar(g) if g else KSCALAR_ZERO for g in genus))
    return genus, trace, vector, _numerators(vector, 1)


# The six signed generators, per basic genus: {sign: (genus, trace, vector, integer row)}.
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

    def total(self) -> ChernVector:
        terms = [(1, ChernVector(self.flat_trace, *(KSCALAR_ZERO,) * 5))]
        terms += [(g.count, g.vector) for g in self.generators]
        den = math.lcm(*(x.denominator for _, v in terms for x in v.flatten()))
        return _combination(((n, _numerators(v, den)) for n, v in terms), den)

    def to_json(self) -> dict:
        return {
            "generators": [g.to_json() for g in self.generators],
            "flat_trace": kscalar_to_text(self.flat_trace),
        }


class SynthesisError(ArithmeticError):
    """Internal consistency failure while assembling a recipe."""


def synthesis_recipe(v: ChernVector, theta: ThetaParam) -> SynthesisRecipe:
    """Write a cone member as basic-genus generators plus a flat class.

    The genus of v is decomposed over the three basic genera; each nonzero
    coefficient c contributes |c| copies of a generator of genus
    sign(c) * G (negation of a genus is realizable at class level) with
    the canonical trace for G.  The remaining trace is carried by a flat
    class and must land in 4Z + 4Z*theta; anything else indicates a
    corrupted input and raises.
    """
    nums, den = row = _row(v)
    decision = _membership(v, row, theta)
    if not decision:
        raise ValueError(f"not a semiflat cone member: {decision.reason}")
    coeffs = genus_basis_decompose(decision.genus)
    if coeffs is None:
        raise SynthesisError("cone member genus failed the basic-genus parity conditions")
    gens: list[GeneratorSpec] = []
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
    if flat[0] % (4 * den) or flat[1] % (4 * den) or flat[2] or flat[3]:
        raise SynthesisError(f"flat remainder {KScalar(*(Fraction(x, den) for x in flat))} is not in 4Z + 4Z*theta")
    total[0] += flat[0] // den
    total[1] += flat[1] // den
    recipe = SynthesisRecipe(tuple(gens), KScalar(*(Fraction(x // den) if x else _ZERO for x in flat)))
    if [den * x for x in total] != nums:
        raise SynthesisError("recipe does not recompose to its input")
    return recipe


# ------------------------------------------------------------- serialization


def kscalar_to_text(s: KScalar) -> str:
    """Render like ``4+2t``, ``-1/2+1/2i``, ``2t``; t stands for theta."""
    parts: list[str] = []
    for coef, suffix in ((s.a, ""), (s.b, "t"), (s.c, "i"), (s.d, "ti")):
        if coef == 0:
            continue
        body = _rat_str(abs(coef.numerator), coef.denominator)
        if suffix and body == "1":
            body = ""
        piece = f"{body}{suffix}"
        if not parts:
            parts.append(piece if coef > 0 else f"-{piece}")
        else:
            parts.append(f"+{piece}" if coef > 0 else f"-{piece}")
    return "".join(parts) if parts else "0"


_KS_TOKEN = re.compile(r"\s*([0-9]+/[0-9]+|[0-9]+|ti|it|[ti+\-])")  # ASCII digits only
_KS_SLOTS = {"t": 1, "i": 2, "ti": 3, "it": 3}


class ChernParseError(ValueError):
    pass


def parse_kscalar(text: str, pos: int = 0, end: Optional[int] = None) -> KScalar:
    """Parse the ``a+bt+ci+dti`` grammar in ``text[pos:end]``.

    One optional sign may lead; every later atom needs exactly one sign
    before it, and the text may not end in a sign.  Error positions are
    indices into the whole of ``text``.
    """
    nums, den = _parse_numerators(text, pos, end)
    return KScalar(*(Fraction(x, den) if x else _ZERO for x in nums))


def _parse_numerators(text: str, pos: int = 0, end: Optional[int] = None) -> Tuple[List[int], int]:
    """parse_kscalar's (a, b, c, d) as integer numerators over one positive denominator."""
    end = len(text) if end is None else end
    nums, den = [0, 0, 0, 0], 1
    sign = None  # the sign read since the last atom, if any
    saw_any = False
    while pos < end:
        m = _KS_TOKEN.match(text, pos, end)
        if m is None:
            junk = text[pos:end].lstrip()
            if junk:
                raise ChernParseError(f"unexpected character {junk[0]!r} at {end - len(junk)}")
            break
        tok, start = m.group(1), m.start(1)
        pos = m.end()
        if tok in ("+", "-"):
            if sign is not None:
                raise ChernParseError(f"second sign in a row at {start}")
            sign = -1 if tok == "-" else 1
            continue
        if saw_any and sign is None:
            raise ChernParseError(f"missing sign before {tok!r} at {start}")
        p, q = 1, 1
        if tok not in _KS_SLOTS:
            p, q = _read_ratio(tok, lambda message: ChernParseError(f"{message} at {start}"))
            rest = _KS_TOKEN.match(text, pos, end)
            if rest and rest.group(1) in _KS_SLOTS:
                tok = rest.group(1)
                pos = rest.end()
        if den % q:  # widen the shared denominator to lcm(den, q)
            widen = q // math.gcd(den, q)
            nums = [x * widen for x in nums]
            den *= widen
        nums[_KS_SLOTS.get(tok, 0)] += (-p if sign == -1 else p) * (den // q)
        sign = None
        saw_any = True
    if sign is not None:
        raise ChernParseError("trailing sign")
    if not saw_any:
        raise ChernParseError("empty scalar")
    return nums, den


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
    return ChernVector(*(parse_kscalar(text, a, b) for a, b in slots))


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
            out.append(KSCALAR_ZERO)
        else:
            out.append(KScalar(g.re, 0, g.im, 0))
    return ChernVector(*out)
