"""Numeric loop algebra: elements sum_k f_k(W) V^k with W = U^r.

Each coefficient f_k is a one-dimensional complex numpy array: its samples
on a uniform dyadic grid.  Off-grid values come from trigonometric
interpolation through the discrete Fourier coefficients.  With
beta = r*theta mod 1 (the float ``theta.turns(0, r)``) the base unitary
satisfies V W = e(beta) W V, hence the crossed-product rules

    (f V^a)(h V^b) = f * (h shifted by a*beta) V^{a+b}
    (f V^a)*       = conj(f) shifted by -a*beta, times V^{-a}

where "h shifted by s" means t -> h(t + s).

Projections of Powers-Rieffel type are built from a bump pair (f, g):
e = V g(W) + f(W) + g(W) V^{-1}.  The ramp transition is the
C-infinity two-branch blend B(u)/(B(u)+B(1-u)) with B(u) = exp(-1/u);
its spectral tails decay faster than any power, which is what lets the
projection residual, the trace and the invariant sums all meet their
gates on a 4096-point grid (a merely C^1 ramp provably cannot: the
square-root envelope g would have Lipschitz corners and O(1/j^2)
Fourier tails, i.e. ~1e-4 interpolation error).  g is computed as
sqrt(B(u) B(1-u))/(B(u)+B(1-u)) straight from the branches; going
through sqrt(f - f^2) would lose half the working precision to
cancellation next to the plateau.

Every shift goes through the spectrum, and each transform stage is one
batched numpy call over the stacked (K, n) rows of the coefficients it
moves.  A product makes one forward FFT call over the K right coefficients
and one inverse call of K rows per nonzero V-power of the left factor, with
one phase vector e(m*a*beta) per |a| (the vector for -a is the conjugate of
the one for +a): a product of two 3-term elements is 3 calls over 9 rows
and one complex exp.  A phase vector is one complex exp over the n/2 + 1
frequencies 0..n/2; the negative ones are their conjugates, bit for bit.
The adjoint is one forward and one inverse call over its moved
coefficients.  loop_invariants makes one forward call over all
coefficients, and sums each parity-class slice of a spectrum once for all
phi rows.  The results equal the plain shift-per-term formulas bit for
bit, so operand order is kept in every complex product (a*b and b*a may
differ in the last bit), and so is the order of each sum.

A gate attempt shares its phase table between e* and e*e, and when no
coefficient has a nonzero imaginary part (-0.0 is zero) its transforms
too.  e*'s moved coefficient conj(f_a) shifted by -a*beta is then f_a
shifted by -a*beta: e*e's row for the pair (-a, a) before its product
with f_{-a}, from the spectrum of f_a that e*e needs anyway.  So e* keeps
f_a's spectrum and that row, and e*e transforms only f_0 forward and its
other pairs inverse: a three-term element takes 5 calls over 9 rows (3
forward, 6 inverse) and one exp, against 13 rows (5 and 8) for complex
coefficients, which keep the plain path.  The values of the shared path
differ from conj(f_a)'s only in the signs of zeros: conj(f_a) is f_a with
its zero imaginary parts negated, IEEE +, - and * (all an FFT does) take
operands equal up to zero signs to results equal up to zero signs, and
|.| maps -0.0 to +0.0.  Every gate value is the same float either way.

A build attempt takes its gates from cheapest to dearest: the trace (a
mean), the adjoint (2 calls over 4 rows for a three-term element), the
flip (no transform) and then the square (3 calls over 9 rows, over 5 when
it shares the adjoint's).  An attempt below the refinement ceiling stops
at the first gate over its limit, as the next grid is tried whatever the
others read; the attempt at the ceiling and an accepted attempt take all
four, because ResidualExceeded reports them and pr_build's caller may
read them.  The values are those of projection_gates, which always takes
all four.

The bump profiles reduce t mod 1 as t - floor(t), not np.mod(t, 1.0):
both are exact for every finite float (the fractional part is exact, and
for t < 0 both round the same exact t - floor(t) once), so the samples are
the same bit for bit.  np.mod costs 1.1 ms on 65536 points, the floor and
the subtraction into its result 0.04 ms (numpy 2.4, 2-vCPU Xeon VM).

A call computes only in arrays it allocated itself, never in its
operands'; that is what lets the transforms and the elementwise steps work
in place (numpy.fft takes ``out=`` from numpy 2.0 on, hence the package's
numpy pin).  ``x.star()`` and flip_apply write their coefficients into one
fresh block each and freeze it; ``x * y`` computes in a block of
K * (m + 1) rows (K coefficients in y, m nonzero V-powers in x) and keeps
a copy of its coefficient rows only.  A gate attempt allocates one
workspace: the rows of e*e (K * (m + 1) for a K-term element with m
nonzero V-powers; with the adjoint's shared, also the rows e* keeps, less
the pairs they stand for, so 9 for a three-term projection either way), a
row per phase vector, and half a row for the |.| of the residuals.  e*,
the flip and e*e write into it in turn, each residual is taken in place
(out of place, into a free row, from the rows e* keeps), and no element
is built.  The workspace is freed when the attempt ends;
no LoopElement keeps it and there is no module-level buffer,
so calls stay safe to run concurrently.  Nor are spectra or phases ever
stored on a LoopElement: a failed build's element can outlive its call
until the cyclic garbage collector runs (a kept traceback references it),
and anything cached on it would live as long.

The one workspace is also what keeps a gate attempt off fresh pages, by
way of glibc's malloc and not of arithmetic.  glibc serves a block at or
above its mmap threshold (128 KiB at first) with mmap; when such a block is
freed it raises that threshold to the block's size, and its heap trim
threshold to twice that.  At grid 65536 a three-term projection's workspace
is 11.5 MiB, so after the first one is freed the trim threshold is about
23 MiB, above what a gate attempt frees, and the heap is no longer trimmed
between attempts: its pages stay mapped.  Separate 3 MiB (K, n) blocks and
phase vectors left that threshold near 6 MiB, so each attempt's heap was
trimmed and grown again, and a grid-65536 flip build (gates and
invariants) faulted in about 10,000 pages, a third of its time.  The
package sets no allocator option; this is glibc's default dynamic
behaviour, and another allocator just sees fewer, larger blocks.

loop_invariants reads only the phi rows of ``theta._SLOTS``: the psi10/psi11
phase e(-theta*(rm+k)^2/4) is quadratic in the frequency m, so it would take a
``turns`` call (20-30 us) per frequency, not one per V-power.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import index
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .theta import _SLOTS, Record, ThetaParam


class _LazyNumpy:
    """Stands in for numpy until its first use, then puts numpy in its place.

    Importing the package for its exact layers alone then neither waits
    for numpy nor holds its memory.
    """

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

DEFAULT_GRID = 4096
MIN_GRID = 256
MAX_GRID = 65536

SQUARE_RESIDUAL_GATE = 1e-8
ADJOINT_RESIDUAL_GATE = 1e-12
FLIP_RESIDUAL_GATE = 1e-8
TRACE_GATE = 1e-10
ROUND_TOL = 1e-6


class GridMismatch(ValueError):
    """Operands live on different grids or carry different base steps."""


class AlphaOutOfRange(ValueError):
    pass


class InvalidBumpWidth(ValueError):
    pass


class ResidualExceeded(ArithmeticError, ValueError):
    """Projection gates failed even on the largest allowed grid (residual-exceeded): a rejection, so a ValueError."""


def _check_grid(n: int) -> int:
    n = index(n)
    if n < MIN_GRID or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= {MIN_GRID}, got {n}")
    return n


def _frozen(f: np.ndarray) -> bool:
    """Whether f and every array under it (its base, the base's base, ...) is read-only.

    Only then can nothing write f's samples: a read-only view of a writable
    base still changes when the base is written, so it is not frozen, and
    neither is an array over a buffer that is not a numpy array.
    """
    while isinstance(f, np.ndarray):
        if f.flags.writeable:
            return False
        f = f.base
    return f is None


def _freeze(arrays: Iterable[np.ndarray]) -> None:
    """Mark arrays this module allocated, and every array under them, read-only.

    An operation calls it on its result rows once it has written them (a
    row's base is the block it was computed in; a row taken over from an
    operand is frozen already), so that LoopElement keeps them without a copy.
    """
    for f in arrays:
        while isinstance(f, np.ndarray):
            f.flags.writeable = False
            f = f.base


class LoopElement(Record):
    """Finite sum  sum_k f_k(W) V^k  over a fixed base step beta and grid.

    Each coefficient f_k is a one-dimensional complex array of its samples
    on the grid t_j = j/n, n a power of two >= 256.  The element is
    immutable: ``coeffs`` is a read-only mapping, and each coefficient is a
    frozen array (see :func:`_frozen`).  The constructor keeps an array
    that is frozen already, as the loop operations make their results, and
    takes a read-only copy of any other, such as a caller's writable array
    or a read-only view of one.
    """

    __slots__ = ("beta", "coeffs", "n")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, beta: float, coeffs: Mapping[int, np.ndarray], n: Optional[int] = None):
        # float() would parse text, and drop a numpy complex's imaginary part with only a warning
        if isinstance(beta, (str, bytes)) or np.iscomplexobj(beta):
            raise TypeError(f"beta must be a real number, not {beta!r}")
        beta = float(beta)
        if not math.isfinite(beta):
            raise ValueError(f"beta must be a finite number, got {beta}")
        cleaned: Dict[int, np.ndarray] = {}
        for k, f in dict(coeffs).items():
            f = np.asarray(f, dtype=complex)
            if f.ndim != 1:
                raise ValueError("coefficients must be one-dimensional arrays of samples")
            if n is None:
                n = f.shape[0]
            if f.shape[0] != n:
                raise GridMismatch("all coefficients must share one grid")
            if not _frozen(f):
                f = f.copy()
                f.flags.writeable = False
            cleaned[index(k)] = f  # an integral key: 1.5 is refused, not truncated
        if n is None:
            n = DEFAULT_GRID
        super().__init__(beta % 1.0, MappingProxyType(cleaned), _check_grid(n))

    def __reduce__(self):
        # a mapping proxy does not pickle; the constructor takes the plain dict
        return LoopElement, (self.beta, dict(self.coeffs), self.n)

    def coefficient(self, k: int) -> np.ndarray:
        """The samples of f_k, read-only; zeros when k is not a V-power of the element."""
        f = self.coeffs.get(k)
        if f is None:
            f = np.zeros(self.n, dtype=complex)
            f.flags.writeable = False
        return f

    def _compatible(self, other: "LoopElement") -> None:
        if self.n != other.n:
            raise GridMismatch(f"grid sizes differ: {self.n} vs {other.n}")
        if abs(self.beta - other.beta) > 1e-15:
            raise GridMismatch(f"base steps differ: {self.beta} vs {other.beta}")

    def __add__(self, other: "LoopElement") -> "LoopElement":
        self._compatible(other)
        out = dict(self.coeffs)
        for k, f in other.coeffs.items():
            out[k] = out[k] + f if k in out else f
        _freeze(out.values())
        return LoopElement(self.beta, out, self.n)

    def __sub__(self, other: "LoopElement") -> "LoopElement":
        self._compatible(other)
        out = dict(self.coeffs)
        for k, f in other.coeffs.items():
            out[k] = out[k] - f if k in out else -f
        _freeze(out.values())
        return LoopElement(self.beta, out, self.n)

    def __mul__(self, other: "LoopElement") -> "LoopElement":
        """(f V^a)(h V^b) = f * (h shifted by a*beta) V^{a+b}, extended bilinearly."""
        self._compatible(other)
        shifts = [a for a in self.coeffs if a]
        phases = _phase_table(self.beta, shifts, np.empty((len(shifts), self.n), dtype=complex))
        rows = np.empty(((len(shifts) + 1) * len(other.coeffs), self.n), dtype=complex)
        out = _mul(self, other, phases, rows)
        # the product keeps a block of its own coefficient rows, not the larger block they were computed in
        out = dict(zip(out, _rows(out.values(), self.n)))
        _freeze(out.values())
        return LoopElement(self.beta, out, self.n)

    def star(self) -> "LoopElement":
        """(f V^a)* = conj(f) shifted by -a*beta, times V^{-a}."""
        shifts = [-a for a in self.coeffs if a]
        phases = _phase_table(self.beta, shifts, np.empty((len(shifts), self.n), dtype=complex))
        out = _star(self, phases, np.empty((len(self.coeffs), self.n), dtype=complex))
        _freeze(out.values())
        return LoopElement(self.beta, out, self.n)

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "n": self.n,
            "coeffs": {str(k): np.stack((f.real, f.imag), 1).tolist() for k, f in sorted(self.coeffs.items())},
        }


def _phase_table(beta: float, shifts: Iterable[int], rows: np.ndarray) -> Dict[int, np.ndarray]:
    """{a: e(m*a*beta) over the FFT frequencies m} for the nonzero ``shifts`` a, one row of ``rows`` each.

    One complex exp per |a|, over the n/2 + 1 frequencies 0..n/2 (see _exp_i_freqs); the vector for -a
    is the conjugate of the one for +a, which equals the directly computed one bit for bit.
    """
    wanted = set(shifts)
    free = iter(rows)
    table: Dict[int, np.ndarray] = {}
    for a in {abs(a) for a in wanted}:
        phase = _exp_i_freqs(2j * np.pi, a * beta, next(free))
        if a in wanted:
            table[a] = phase
        if -a in wanted:  # conjugated in its own row, or in place when +a is not wanted
            table[-a] = np.conj(phase, out=next(free) if a in wanted else phase)
    return table


def _exp_i_freqs(scale: complex, x: float, out: np.ndarray) -> np.ndarray:
    """np.exp(scale * m * x) over the FFT frequencies m of len(out), written into out, bit for bit.

    The frequencies are np.fft.fftfreq's integers: 0 .. n/2 - 1, then -n/2 .. -1.  For an imaginary
    scale the exp at -m is the conjugate of the exp at +m to the last bit (cos is even and sin odd), so
    one complex exp over m = 0 .. n/2 fills out[: n/2 + 1] and the negative frequencies are conjugated
    from it, m = -n/2 last as it overwrites the value at +n/2.  A zero x is the one exception: every
    product scale * m * x is then a signed zero whose sign the mirror does not keep, and the negative
    half takes its own exp.
    """
    half = len(out) // 2
    pos = out[: half + 1]
    np.multiply(scale, np.arange(half + 1), out=pos)
    pos *= x
    np.exp(pos, out=pos)
    if x:
        np.conj(out[half - 1 : 0 : -1], out=out[half + 1 :])
        out[half] = out[half].conjugate()
    else:
        neg = out[half:]
        np.multiply(scale, np.arange(-half, 0), out=neg)
        neg *= x
        np.exp(neg, out=neg)
    return out


def _rows(coeffs: Iterable[np.ndarray], n: int) -> np.ndarray:
    """The given coefficients copied into the rows of one new (K, n) array; K may be 0."""
    return np.array(list(coeffs), dtype=complex).reshape(-1, n)


def _mul(
    x: LoopElement,
    y: LoopElement,
    phases: Mapping[int, np.ndarray],
    rows: np.ndarray,
    spectra: Mapping[int, np.ndarray] = MappingProxyType({}),
    shifted: Mapping[Tuple[int, int], np.ndarray] = MappingProxyType({}),
) -> Dict[int, np.ndarray]:
    """The coefficients {V-power: row} of x * y for compatible operands, written into ``rows``.

    ``phases`` covers every nonzero V-power of x.  The row of a pair (a, b)
    is f_a * (h_b shifted by a*beta), made from the FFT of h_b.  A caller
    may hand over some of those FFTs as ``spectra`` {b: row} and some
    shifted h_b as ``shifted`` {(a, b): row}: rows of its own, which are
    overwritten (a gate attempt hands over e*'s).  ``rows`` takes the other
    spectra, then the rows of the other pairs with a nonzero, then those of
    a = 0, which reuse the spectra once every shift is made.  With nothing
    handed over that is K * (m + 1) rows of n, K the number of coefficients
    of y and m the number of nonzero V-powers of x.  Each V-power sums its
    rows in the order of x's V-powers.  Every result row is a row of
    ``rows`` or a handed one, so a kept x * y holds all of them.
    """
    moved = [a for a in x.coeffs if a]
    spectra = dict(spectra)
    terms = dict(shifted)  # (a, b) -> its row, h_b shifted by a*beta and then times f_a
    missing = [b for b in y.coeffs if b not in spectra] if moved else []
    used = len(missing)
    for row, b in zip(rows, missing):
        row[...] = y.coeffs[b]
        spectra[b] = row
    if missing:
        np.fft.fft(rows[:used], out=rows[:used])
    for a in moved:
        wanted = [b for b in y.coeffs if (a, b) not in terms]
        block = rows[used : used + len(wanted)]
        for row, b in zip(block, wanted):
            np.multiply(spectra[b], phases[a], out=row)
        np.fft.ifft(block, out=block)
        terms.update(zip([(a, b) for b in wanted], block))
        used += len(wanted)
    for (a, b), row in terms.items():
        np.multiply(x.coeffs[a], row, out=row)
    if 0 in x.coeffs:
        spare = chain(spectra.values(), rows[used:])
        for b, hb in y.coeffs.items():
            terms[0, b] = np.multiply(x.coeffs[0], hb, out=next(spare))
    acc: Dict[int, np.ndarray] = {}
    for a in x.coeffs:
        for b in y.coeffs:
            row, k = terms[a, b], a + b
            if k in acc:
                acc[k] += row
            else:
                acc[k] = row
    return acc


def _star(
    x: LoopElement, phases: Mapping[int, np.ndarray], rows: np.ndarray, spectra: Optional[np.ndarray] = None
) -> Dict[int, np.ndarray]:
    """The coefficients {V-power: row} of x.star(), written into ``rows`` (one per coefficient of x).

    ``phases`` covers -a for every nonzero V-power a of x.  The moved
    coefficients take the first rows, the V-power 0 the row after them.
    Given ``spectra``, one row per moved coefficient, x's coefficients must
    be real: the FFT of f_a itself, equal to that of conj(f_a) up to the
    signs of zeros, is kept there and shifted into ``rows`` out of place.
    """
    moved = [a for a in x.coeffs if a]
    shifted = rows[: len(moved)]
    kept = shifted if spectra is None else spectra
    for row, a in zip(kept, moved):
        if spectra is None:
            np.conj(x.coeffs[a], out=row)
        else:
            row[...] = x.coeffs[a]
    np.fft.fft(kept, out=kept)
    for spectrum, row, a in zip(kept, shifted, moved):
        np.multiply(spectrum, phases[-a], out=row)
    np.fft.ifft(shifted, out=shifted)
    moved_rows, rest = iter(shifted), iter(rows[len(moved) :])
    return {-a: next(moved_rows) if a else np.conj(fa, out=next(rest)) for a, fa in x.coeffs.items()}


def _flip(e: LoopElement, rows: np.ndarray) -> Dict[int, np.ndarray]:
    """The coefficients {-k: f_k(-t)} of flip_apply(e), written into ``rows`` (one per coefficient of e).

    On the grid t_j -> t_{-j} is a reflection of the indices: sample 0 stays,
    samples 1..n-1 reverse.
    """
    out = {}
    for (k, f), row in zip(e.coeffs.items(), rows):
        row[0] = f[0]
        row[1:] = f[:0:-1]
        out[-k] = row
    return out


def _residual(
    rows: Mapping[int, np.ndarray], e: LoopElement, absrow: np.ndarray, scratch: Optional[np.ndarray] = None
) -> float:
    """|x - e| for the coefficients {V-power: row} of x, subtracting e from those rows in place.

    |.| is the norm surrogate of the gates: the sum over V-powers of the
    coefficient sup-norms.  It is submultiplicative for the product rule and
    dominates the operator norm, so gates in it are meaningful.  The sum runs
    in the order ``x - e`` lists its coefficients (x's V-powers, then e's that
    x lacks; |-f| is |f| bit for bit), as one ``sum`` call; each coefficient's
    |.| goes into ``absrow``, n floats.  Given a ``scratch`` row, each
    difference is written there instead and the rows are left as they are.
    """

    def differences() -> Iterator[np.ndarray]:
        for k, row in rows.items():
            f = e.coeffs.get(k)
            yield row if f is None else np.subtract(row, f, out=row if scratch is None else scratch)
        yield from (f for k, f in e.coeffs.items() if k not in rows)

    return sum(float(np.abs(f, out=absrow).max()) for f in differences())


def flip_apply(e: LoopElement) -> LoopElement:
    """The flip in loop coordinates: coefficient k becomes f_{-k}(-t).

    Matches the exact automorphism U^{rm} V^k -> U^{-rm} V^{-k} on
    monomial loop elements; exact on the grid (index reflection).
    """
    out = _flip(e, np.empty((len(e.coeffs), e.n), dtype=complex))
    _freeze(out.values())
    return LoopElement(e.beta, out, e.n)


# ------------------------------------------------------------------ bump pair


def _branches(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(B(u), B(1-u)) with B(u) = exp(-1/u) continued by 0 for u <= 0."""
    u = np.asarray(u, dtype=float)
    bu = np.zeros_like(u)
    b1 = np.zeros_like(u)
    inside = (u > 0) & (u < 1)
    ui = u[inside]
    with np.errstate(over="ignore"):  # -1/u is -inf for a subnormal u, and exp takes it to 0
        bu[inside] = np.exp(-1.0 / ui)
        b1[inside] = np.exp(-1.0 / (1.0 - ui))
    bu[u >= 1] = 1.0
    b1[u <= 0] = 1.0
    return bu, b1


def _fractional_part(t: np.ndarray) -> np.ndarray:
    """t - floor(t) as floats, in one new array: np.mod(t, 1.0) bit for bit on finite t (module docstring)."""
    t = np.asarray(t, dtype=float)
    frac = np.floor(t, out=np.empty_like(t))  # an array also when t is 0-d
    return np.subtract(t, frac, out=frac)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    bu, b1 = _branches(u)
    return bu / (bu + b1)


def bump_profiles(alpha: float, eps: float) -> Tuple[Callable, Callable]:
    """Closed-form bump pair on the circle.

    f ramps 0 -> 1 on [0, eps], holds 1 on [eps, alpha], ramps back on
    [alpha, alpha + eps] and vanishes elsewhere; g lives on the down-ramp
    with g^2 = f - f^2 there.  On the grid these satisfy exactly the
    projection identities

        g(t) g(t + alpha) = 0
        g(t) (f(t) + f(t - alpha) - 1) = 0
        f - f^2 = g^2 + (g shifted by alpha)^2

    which make V g(W) + f(W) + g(W) V^{-1} idempotent.
    """
    if not 0 < alpha < 1:
        raise AlphaOutOfRange(f"alpha must be in (0, 1), got {alpha}")
    if not 0 < eps < min(alpha, 1 - alpha) / 2:
        raise InvalidBumpWidth(
            f"need 0 < eps < min(alpha, 1-alpha)/2 = {min(alpha, 1 - alpha) / 2}, got {eps}"
        )

    def f_profile(t: np.ndarray) -> np.ndarray:
        t = _fractional_part(t)
        out = np.zeros_like(t)
        up = t < eps
        out[up] = _smoothstep(t[up] / eps)
        out[(t >= eps) & (t <= alpha)] = 1.0
        down = (t > alpha) & (t < alpha + eps)
        out[down] = 1.0 - _smoothstep((t[down] - alpha) / eps)
        return out

    def g_profile(t: np.ndarray) -> np.ndarray:
        t = _fractional_part(t)
        out = np.zeros_like(t)
        down = (t > alpha) & (t < alpha + eps)
        bu, b1 = _branches((t[down] - alpha) / eps)
        denom = bu + b1
        out[down] = np.sqrt(bu * b1) / np.where(denom > 0, denom, 1.0)
        return out

    return f_profile, g_profile


# ------------------------------------------------------------------- building


class BuildGates(Record):
    __slots__ = ("square_residual", "adjoint_residual", "flip_residual", "trace_error")

    square_residual: float
    adjoint_residual: float
    flip_residual: Optional[float]
    trace_error: float


def assemble_projection(
    alpha: float,
    *,
    n: int = DEFAULT_GRID,
    eps: Optional[float] = None,
    centered: bool = False,
    offset: float = 0.0,
) -> LoopElement:
    """Assemble  e = V g(W) + f(W) + g(W) V^{-1}  by exact profile sampling.

    alpha is both the trace of e and its base step: a build over W = U^r
    has trace (r*theta) mod 1.  All three coefficient arrays are evaluated
    from the closed-form profiles (no interpolation enters the build
    itself).  With ``centered=True`` both profiles are translated by
    (alpha + eps - 1)/2, which puts the plateau of f at 1/2, makes f even,
    and makes g even about (alpha + 1)/2 -- exactly the symmetry that the
    flip preserves.
    An extra ``offset`` of 1/2 keeps the symmetry while moving the
    support to the opposite arc; other offsets break it.
    """
    if eps is None:
        eps = min(alpha, 1 - alpha) / 4
    f_profile, g_profile = bump_profiles(alpha, eps)
    delta = ((alpha + eps - 1) / 2 if centered else 0.0) + math.fmod(offset, 1.0)
    t = np.arange(_check_grid(n)) / n
    f0 = f_profile(t + delta).astype(complex)
    gm = g_profile(t + delta).astype(complex)
    gp = g_profile(t + delta + alpha).astype(complex)
    _freeze((gp, f0, gm))
    return LoopElement(alpha, {1: gp, 0: f0, -1: gm}, n)


def _gate_attempt(e: LoopElement, alpha: float, flip_symmetric: bool) -> Iterator[Tuple[Optional[float], bool]]:
    """Yield the gates of one build attempt as (value, met), cheapest first.

    In order: |tau(e) - alpha|, |e* - e|, |flip(e) - e| (None, and met, when
    the build is not flip-symmetric), then |e^2 - e|.  A caller that stops
    at a failed gate computes none of the dearer ones.  No element is built:
    e*, flip(e) and e*e are written in turn into one workspace allocated
    after the trace (see the module docstring), and each residual is taken
    without a new array; the workspace is freed when the generator finishes
    or is closed.  With real coefficients e*e reuses e*'s transforms.
    """
    trace = abs(float(e.coefficient(0).mean().real) - alpha)
    yield trace, trace <= TRACE_GATE
    # e* and e*e shift by the same -+a*beta: one phase table serves both
    moved = [a for a in e.coeffs if a]
    shifts = {s * a for a in moved for s in (1, -1)}
    # real coefficients (-0.0 is zero): e* keeps its spectra and moved rows for e*e (module docstring)
    real = bool(moved) and not any(f.imag.any() for f in e.coeffs.values())
    kept, K = len(moved) if real else 0, len(e.coeffs)
    shared = [a for a in moved if -a in e.coeffs] if real else []
    # e*e's rows: the kept spectra, then e*'s rows (its moved ones kept too), then e*e's other spectra
    # and pairs, the flip's first once the adjoint's residual has consumed e*'s V-power 0
    # ((len(moved) + 1) * K rows when nothing is kept); then a row per phase; then half a row, viewed
    # as the n floats each |.| goes into
    products = (kept + 1) * K + kept - len(shared) if real else (len(moved) + 1) * K
    size = (products + len(shifts)) * e.n
    workspace = np.empty(size + e.n // 2, dtype=complex)
    block = workspace[:size].reshape(-1, e.n)
    spectra, rows, absrow = block[:kept], block[kept:products], workspace[size:].view(float)
    phases = _phase_table(e.beta, shifts, block[products:])
    star = _star(e, phases, rows, spectra if real else None)
    # e*'s moved rows are kept as they are: each difference goes into the last product row
    adjoint = _residual(star, e, absrow, block[products - 1] if real else None)
    yield adjoint, adjoint <= ADJOINT_RESIDUAL_GATE
    rows = rows[kept:]
    flip_res = _residual(_flip(e, rows), e, absrow) if flip_symmetric else None
    yield flip_res, flip_res is None or flip_res <= FLIP_RESIDUAL_GATE
    square = _mul(e, e, phases, rows, dict(zip(moved, spectra)), {(-a, a): star[-a] for a in shared})
    square = _residual(square, e, absrow)
    yield square, square <= SQUARE_RESIDUAL_GATE


def projection_gates(e: LoopElement, alpha: float, flip_symmetric: bool) -> BuildGates:
    """The gates of one build attempt: |e^2 - e|, |e* - e|, |flip(e) - e| (or None) and |tau(e) - alpha|.

    It builds no element: e*, flip(e) and e*e are written in turn into one
    workspace allocated here (see the module docstring) and each residual is
    taken without a new array; the workspace is freed on return.
    """
    trace, adjoint, flip_res, square = (value for value, _ in _gate_attempt(e, alpha, flip_symmetric))
    return BuildGates(square, adjoint, flip_res, trace)


def _build_projection(
    r: int,
    s: int,
    theta: ThetaParam,
    flip_symmetric: bool,
    n: int,
    eps: Optional[float],
    offset: float,
) -> Tuple[LoopElement, BuildGates]:
    """pr_build, returning the accepted element together with its gates."""
    r, s = index(r), index(s)  # 1.5 is refused, not truncated
    if n > MAX_GRID:  # before anything is sampled on the grid
        raise ValueError(f"grid size {n} is above the refinement ceiling {MAX_GRID}")
    if r < 1:
        raise ValueError("r must be a positive integer")
    if not math.isfinite(offset):
        raise ValueError(f"offset must be a finite number, got {offset}")
    if flip_symmetric:
        # exact interval check on r*theta + s; the bound 1/2 (not the doubled
        # form 2s + 2r*theta against 1) keeps an unsettled check's "-1/2 + 1*theta"
        if not theta.in_open_interval(s, r, Fraction(1, 2), 1):
            raise AlphaOutOfRange(
                f"alpha-out-of-range: r*theta + s = {r}*theta{s:+d} is not in (1/2, 1)"
            )
        if offset not in (0.0, 0.5):
            raise ValueError("flip-symmetric builds admit only offsets 0 and 1/2")
    # the trace alpha is the base step: a plain alpha (r*theta + s) mod 1 is
    # beta, and a flip alpha in (1/2, 1) forces s = -floor(r*theta)
    beta = theta.turns(0, r)
    grid = _check_grid(n)
    while True:
        e = assemble_projection(beta, n=grid, eps=eps, centered=flip_symmetric, offset=offset)
        last = grid * 4 > MAX_GRID
        values, ok = [], True
        for value, met in _gate_attempt(e, beta, flip_symmetric):
            values.append(value)
            ok = ok and met
            if not (ok or last):  # below the ceiling the first failed gate decides: refine
                break
        if ok or last:  # every gate was taken: the ceiling's rejection reports them all
            trace, adjoint, flip_res, square = values
            gates = BuildGates(square, adjoint, flip_res, trace)
            if ok:
                return e, gates
            del e  # the raised traceback keeps this frame, and must not keep the element's arrays
            raise ResidualExceeded(
                f"residual-exceeded: gates {gates} not met at grid {grid} "
                f"(limit {MAX_GRID}); the grid is too coarse for this bump"
            )
        grid *= 4


def pr_build(
    r: int,
    s: int,
    theta: ThetaParam,
    flip_symmetric: bool = False,
    *,
    n: int = DEFAULT_GRID,
    eps: Optional[float] = None,
    offset: float = 0.0,
) -> LoopElement:
    """Build a Powers-Rieffel projection over the base W = U^r.

    Flip-symmetric builds use alpha = r*theta + s, which must lie in
    (1/2, 1) (the regime in which the invariant table below holds), and
    recentre the bump pair so the flip fixes the element; ``offset`` must
    then be 0 or 1/2.  Plain builds use alpha = (r*theta + s) mod 1 and
    any finite offset.  Residual gates |e^2 - e|, |e* - e| (and |flip(e) - e|
    when applicable) drive automatic grid refinement x4 up to MAX_GRID;
    if the gates still fail, ResidualExceeded is raised.  A first grid ``n``
    above MAX_GRID, or an offset that is not finite, is a ValueError.
    """
    return _build_projection(r, s, theta, flip_symmetric, n, eps, offset)[0]


# ----------------------------------------------------------------- invariants


class InvariantReport(Record):
    """Numeric trace and flip-type invariants of a loop element.

    ``raw`` holds the unrounded complex values (phi00, phi01, phi10,
    phi11); ``rounded`` snaps each to the nearest quarter-integer when it
    is within ROUND_TOL of one, else None.
    """

    __slots__ = ("tau", "raw", "rounded")

    tau: float
    raw: Tuple[complex, complex, complex, complex]
    rounded: Tuple[Optional[Fraction], ...]

    def to_json(self) -> dict:
        return {
            "tau": self.tau,
            "phi_raw": [[z.real, z.imag] for z in self.raw],
            "phi_rounded": [None if r is None else str(r) for r in self.rounded],
        }


def _round_quarter(z: complex) -> Optional[Fraction]:
    nearest = Fraction(round(4 * z.real), 4)
    if abs(z.real - float(nearest)) <= ROUND_TOL and abs(z.imag) <= ROUND_TOL:
        return nearest
    return None


def loop_invariants(e: LoopElement, theta: ThetaParam, r: int) -> InvariantReport:
    """Evaluate tau and the four flip-twisted traces through Fourier coefficients.

    For e = sum c_{k,m} U^{rm} V^k each phi slot is its row of ``theta._SLOTS``
    read on the monomials U^{rm} V^k: the sum, over the parity classes
    (rm mod 2, k mod 2) of the row, of c_{k,m} L^{w*rm*k} with w the row's mn
    weight; tau is the mean of the V^0 coefficient.
    """
    r = index(r)
    if r < 1:
        raise ValueError("r must be a positive integer")
    tau = e.coefficient(0).mean().real
    rows = [row for slot, row in _SLOTS.items() if slot.startswith("phi")]
    (w,) = {form[1] for form, _ in rows}  # their one mn weight
    # Each coefficient's spectrum times its phase L^{w*rm*k} = e(-m*x_k), x_k = (-w*r*k*theta/4) mod 1
    # as m is an integer, built once and shared by the slots of its parity; one exp per |k|.
    phases: Dict[int, np.ndarray] = {}
    for k in {abs(k) for k in e.coeffs if k}:
        phases[k] = _exp_i_freqs(-2j * np.pi, theta.turns(0, Fraction(-w * r * k, 4)), np.empty(e.n, dtype=complex))
        phases[-k] = np.conj(phases[k])
    # the Fourier coefficients c_m of each f = sum c_m e(m t), times the phase of its V-power
    terms = _rows(e.coeffs.values(), e.n)
    np.fft.fft(terms, out=terms)
    terms /= e.n
    for t, k in zip(terms, e.coeffs):
        if k:
            t *= phases[k]
    # rm mod 2 is the parity of the index of m when r is odd (n is even), and 0 when r is even
    parity_class = (slice(0, None, 2), slice(1, None, 2)) if r % 2 else (slice(None), None)
    # each (coefficient, parity class) slice is summed once; the phi rows share the sums
    sums = [None if c is None else [complex(np.sum(t[c])) for t in terms] for c in parity_class]
    raw = []
    for _, classes in rows:
        total = 0j
        for i, j in classes:
            if sums[i] is not None:
                for k, z in zip(e.coeffs, sums[i]):
                    if (k - j) % 2 == 0:
                        total += z
        raw.append(total)
    raw_t = (raw[0], raw[1], raw[2], raw[3])  # (00, 01, 10, 11)
    return InvariantReport(
        tau=float(tau),
        raw=raw_t,
        rounded=tuple(_round_quarter(z) for z in raw_t),
    )
