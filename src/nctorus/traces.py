"""Unbounded twisted-trace functionals and the associated character vectors.

Two families of linear functionals on the exact algebra, defined on
monomials and extended linearly:

  phi_ij(U^m V^n) = L^{-2mn} [m = i (2)] [n = j (2)]        ij in {00,01,10,11}
  psi_10(U^m V^n) = L^{-(m+n)^2} [m = n   (2)]
  psi_11(U^m V^n) = L^{-(m+n)^2} [m = n+1 (2)]
  psi_20(U^m V^n) = L^{-2mn}     [m = 0 (2)] [n = 0 (2)]
  psi_21(U^m V^n) = L^{-2mn}     [m = 1 (2)] [n = 1 (2)]
  psi_22(U^m V^n) = L^{-2mn}     [m = n+1 (2)]

(L = e(theta/4), so L^{-2mn} = e(-theta*mn/2) and L^{-(m+n)^2} =
e(-theta*(m+n)^2/4); [..] denotes the parity indicator.)  The table is
declared once, as the rows of ``theta._SLOTS``, which the numeric layer
reads too.

The phi family is twisted by the flip (phi(xy) = phi(flip(y) x)); the
psi_1k family is twisted by sigma, as `twist_discovery` verifies by
exhaustive scan.  Character vectors bundle the canonical trace with one
family; on flip- resp. sigma-invariant projections they are complete
K-theoretic invariants, but both evaluate on arbitrary elements (needed
for oracle testing) and interpreting the result is the caller's business.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable, Iterator, Optional, Tuple

from .algebra import (
    Element,
    Monomial,
    PhaseScalar,
    apply_automorphism,
    canonical_trace,
    monomial_functionals,
    phase_to_text,
)
from .theta import _SLOTS, Record

_PHI_SLOTS = tuple(s for s in _SLOTS if s.startswith("phi"))
_PSI_SLOTS = tuple(s for s in _SLOTS if s.startswith("psi"))
PHI_INDICES = tuple(s[3:] for s in _PHI_SLOTS)
PSI_INDICES = tuple(s[3:] for s in _PSI_SLOTS)


def _slot_values(x: Element, slots: Iterable[str]) -> list[PhaseScalar]:
    """The named phi/psi slots of x, from one pass over x."""
    return monomial_functionals(x, [_SLOTS[s] for s in slots])


def phi_eval(ij: str, x: Element) -> PhaseScalar:
    """Evaluate the flip-twisted trace phi_ij on an element."""
    if ij not in PHI_INDICES:
        raise ValueError(f"unknown phi index {ij!r} (expected one of {PHI_INDICES})")
    return _slot_values(x, (f"phi{ij}",))[0]


def psi_eval(jk: str, x: Element) -> PhaseScalar:
    """Evaluate the order-four twisted trace psi_jk on an element."""
    if jk not in PSI_INDICES:
        raise ValueError(f"unknown psi index {jk!r} (expected one of {PSI_INDICES})")
    return _slot_values(x, (f"psi{jk}",))[0]


class _CharacterVector(Record):
    """The canonical trace, then the slots of one family; the fields are the slots."""

    __slots__ = ()

    def slots(self) -> Tuple[PhaseScalar, ...]:
        return self._astuple(self)

    def to_json(self) -> list[str]:
        return [phase_to_text(s) for s in self._astuple(self)]


class T2Vector(_CharacterVector):
    """(tau; phi00, phi01, phi10, phi11) with exact PhaseScalar slots."""

    __slots__ = ("tau", "phi00", "phi01", "phi10", "phi11")

    tau: PhaseScalar
    phi00: PhaseScalar
    phi01: PhaseScalar
    phi10: PhaseScalar
    phi11: PhaseScalar


class T4Vector(_CharacterVector):
    """(tau; psi10, psi11; psi20, psi21, psi22) with exact PhaseScalar slots."""

    __slots__ = ("tau", "psi10", "psi11", "psi20", "psi21", "psi22")

    tau: PhaseScalar
    psi10: PhaseScalar
    psi11: PhaseScalar
    psi20: PhaseScalar
    psi21: PhaseScalar
    psi22: PhaseScalar


def chern_T2(x: Element) -> T2Vector:
    return T2Vector(canonical_trace(x), *_slot_values(x, _PHI_SLOTS))


def chern_T4(x: Element) -> T4Vector:
    return T4Vector(canonical_trace(x), *_slot_values(x, _PSI_SLOTS))


# -------------------------------------------------------------- relation suite

# (name, slot, slots whose sum it equals)
_BRIDGE_IDENTITIES = (
    ("psi20 = phi00", "psi20", ("phi00",)),
    ("psi21 = phi11", "psi21", ("phi11",)),
    ("psi22 = phi01 + phi10", "psi22", ("phi01", "phi10")),
)

# (name, slot, sign of the slot after composing with gamma)
_GAMMA_SIGNS = (
    ("phi00 . gamma = phi00", "phi00", 1),
    ("phi11 . gamma = phi11", "phi11", 1),
    ("phi01 . gamma = -phi01", "phi01", -1),
    ("phi10 . gamma = -phi10", "phi10", -1),
    ("psi10 . gamma = psi10", "psi10", 1),
    ("psi20 . gamma = psi20", "psi20", 1),
    ("psi21 . gamma = psi21", "psi21", 1),
    ("psi11 . gamma = -psi11", "psi11", -1),
    ("psi22 . gamma = -psi22", "psi22", -1),
)


def _laws(x: Element) -> Iterator[Tuple[str, bool]]:
    """(name, holds) for each bridge identity, then each gamma sign law, on x."""
    s = dict(zip(_SLOTS, _slot_values(x, _SLOTS)))
    for name, slot, parts in _BRIDGE_IDENTITIES:
        yield name, s[slot] == reduce(add, (s[p] for p in parts))
    g = dict(zip(_SLOTS, _slot_values(apply_automorphism("gamma", x), _SLOTS)))
    for name, slot, sign in _GAMMA_SIGNS:
        yield name, g[slot] == (s[slot] if sign > 0 else -s[slot])


class RelationReport(Record):
    __slots__ = ("ok", "failed", "witness")
    _defaults = {"failed": None, "witness": None}

    ok: bool
    failed: Optional[str]
    witness: Optional[Monomial]

    def __bool__(self) -> bool:
        return self.ok


def relation_check(x: Element) -> RelationReport:
    """Check the psi/phi bridge identities and the gamma sign laws on x, exactly.

    On failure the report carries the first failing law's name and, when
    one exists, the first monomial term of x on which that law fails.
    """
    for name, holds in _laws(x):
        if not holds:
            witness = next((mono for mono, coef in x.terms() if not dict(_laws(Element({mono: coef})))[name]), None)
            return RelationReport(False, name, witness)
    return RelationReport(True)


# ------------------------------------------------------------- twist discovery

FUNCTIONALS = ("tau", *_SLOTS)

# Each candidate twist as the automorphisms it applies, first to last.
_TWISTS = {"id": (), "sigma": ("sigma",), "flip": ("flip",), "sigma3": ("flip", "sigma")}


class TwistDescriptor(Record):
    __slots__ = ("functional", "holds", "twist")

    functional: str
    holds: Tuple[str, ...]
    twist: Optional[str]  # first holding candidate in (id, sigma, flip, sigma3) order


def twist_discovery(functional: str, max_exp: int = 4) -> TwistDescriptor:
    """Find which laws f(xy) = f(alpha(y) x) hold identically on monomials.

    Brute force over all monomial pairs with exponents in [-max_exp, max_exp].
    Empirical results on this algebra: tau -> id; all phi_ij -> flip;
    psi10, psi11 -> sigma; psi20, psi21, psi22 -> flip.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r} (expected one of {sorted(FUNCTIONALS)})")
    if max_exp < 1:  # the unit alone satisfies every law
        raise ValueError(f"max_exp must be at least 1, got {max_exp}")
    f = canonical_trace if functional == "tau" else lambda x: _slot_values(x, (functional,))[0]
    rng = range(-max_exp, max_exp + 1)
    monos = [Element.monomial(m, n) for m in rng for n in rng]
    surviving = set(_TWISTS)
    for x in monos:
        for y in monos:
            if not surviving:
                break
            xy = f(x * y)
            for alpha in tuple(surviving):
                if f(reduce(lambda z, step: apply_automorphism(step, z), _TWISTS[alpha], y) * x) != xy:
                    surviving.discard(alpha)
    holds = tuple(a for a in _TWISTS if a in surviving)
    return TwistDescriptor(functional=functional, holds=holds, twist=holds[0] if holds else None)
