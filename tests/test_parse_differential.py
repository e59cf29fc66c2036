"""The one-scan element parser against the recursive-descent parser it replaced.

The reference below is the parser as it was before ``parse_element`` read
text straight into the integer store: a token list, one function per
grammar rule, a ``Fraction``/``GaussRational`` per number and an
``Element`` product per factor.  It is kept verbatim (only
``ElementParseError`` is imported rather than redefined), so the new parser
is held to the old behaviour on every input: the same ``Element``, or an
``ElementParseError`` at the same position.

Three differences are deliberate, and ``expected`` maps the reference's
outcome onto them:

- a zero denominator was a ``ZeroDivisionError``; it is now an
  ``ElementParseError`` at the number;
- an unexpected character was reported at the start of the whitespace in
  front of it; it is now reported at the character itself;
- only ASCII digits are digits (the reference's ``\\d`` took any Unicode
  digit); the generated text here is ASCII, and ``test_algebra`` pins the
  rejection.
"""

import re
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

from nctorus import algebra
from nctorus.algebra import Element, ElementParseError, GaussRational, PhaseScalar, canonical_trace, element_to_text

from test_algebra import elements

# ---------------------------------------------- reference (verbatim, old parser)

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[iLUV^()+\-*])")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ElementParseError(f"unexpected character {text[pos]!r}", pos)
                break
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i][0] if self.i < len(self.toks) else ""

    def pos(self) -> int:
        return self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)

    def take(self) -> str:
        tok = self.peek()
        self.i += 1
        return tok


def _parse_rational(ts: _Tokens) -> Fraction:
    tok = ts.peek()
    if not tok or not tok[0].isdigit():
        raise ElementParseError("expected a number", ts.pos())
    ts.take()
    return Fraction(tok)


def _parse_signed_int(ts: _Tokens) -> int:
    sign = 1
    if ts.peek() in ("+", "-"):
        sign = -1 if ts.take() == "-" else 1
    tok = ts.peek()
    if not tok.isdigit():
        raise ElementParseError("expected an integer exponent", ts.pos())
    ts.take()
    return sign * int(tok)


def _parse_gaussian(ts: _Tokens) -> GaussRational:
    """Sum of signed pieces of the form  rational, rational i, or i."""
    total = GaussRational(0)
    sign = 1
    first = True
    while True:
        tok = ts.peek()
        if tok in ("+", "-"):
            sign = -1 if ts.take() == "-" else 1
        elif not first:
            break
        if ts.peek() == "i":
            ts.take()
            total = total + GaussRational(0, sign)
        else:
            r = sign * _parse_rational(ts)
            if ts.peek() == "i":
                ts.take()
                total = total + GaussRational(0, r)
            else:
                total = total + GaussRational(r)
        sign = 1
        first = False
        if ts.peek() not in ("+", "-"):
            break
    return total


def _parse_atom(ts: _Tokens) -> Element:
    tok = ts.peek()
    if tok == "(":
        ts.take()
        g = _parse_gaussian(ts)
        if ts.peek() != ")":
            raise ElementParseError("expected ')'", ts.pos())
        ts.take()
        return Element.monomial(0, 0, g)
    if tok == "i":
        ts.take()
        return Element.monomial(0, 0, GaussRational(0, 1))
    if tok in ("L", "U", "V"):
        ts.take()
        k = 1
        if ts.peek() == "^":
            ts.take()
            k = _parse_signed_int(ts)
        if tok == "L":
            return Element.monomial(0, 0, PhaseScalar.lam(k))
        if tok == "U":
            return Element.monomial(k, 0)
        return Element.monomial(0, k)
    if tok and tok[0].isdigit():
        r = _parse_rational(ts)
        if ts.peek() == "i":
            ts.take()
            return Element.monomial(0, 0, GaussRational(0, r))
        return Element.monomial(0, 0, r)
    raise ElementParseError(f"unexpected token {tok!r}" if tok else "unexpected end of input", ts.pos())


def _parse_term(ts: _Tokens) -> Element:
    """A product of atoms; multiplication is honest algebra multiplication,
    so out-of-order factors like ``V U`` pick up the correct phase."""
    out = _parse_atom(ts)
    while True:
        tok = ts.peek()
        if tok == "*":
            ts.take()  # an explicit product sign must be followed by a factor
        elif not (tok in ("(", "i", "L", "U", "V") or (tok and tok[0].isdigit())):
            return out
        out = out * _parse_atom(ts)


def parse_element(text: str) -> Element:
    """Parse the element grammar: signed terms of scalar/L/U/V factors."""
    ts = _Tokens(text)
    if not ts.toks:
        raise ElementParseError("empty input", 0)
    total = Element()
    sign = 1
    if ts.peek() in ("+", "-"):
        sign = -1 if ts.take() == "-" else 1
    while True:
        term = _parse_term(ts)
        total = total + (term.scale(-1) if sign < 0 else term)
        tok = ts.peek()
        if not tok:
            return total
        if tok in ("+", "-"):
            sign = -1 if ts.take() == "-" else 1
        else:
            raise ElementParseError(f"unexpected token {tok!r}", ts.pos())


def parse_phase(text: str) -> PhaseScalar:
    """Parse a phase scalar (an element with no U or V factors)."""
    x = parse_element(text)
    for (m, n), _ in x.terms():
        if (m, n) != (0, 0):
            raise ElementParseError("phase scalar must not contain U or V", 0)
    return canonical_trace(x)


# ------------------------------------------------------------------ comparison


def outcome(parse, text):
    """("ok", value) or ("error", position)."""
    try:
        return "ok", parse(text)
    except ElementParseError as exc:
        return "error", exc.pos


def expected(text, parse=parse_element):
    """The reference's outcome on text, mapped onto the deliberate differences."""
    try:
        return "ok", parse(text)
    except ZeroDivisionError:  # the first number with a zero denominator stopped it
        return "error", next(pos for tok, pos in _Tokens(text).toks if re.fullmatch(r"\d+/0+", tok))
    except ElementParseError as exc:
        if str(exc).startswith("unexpected character"):
            return "error", len(text) - len(text[exc.pos :].lstrip())
        return "error", exc.pos


def assert_canonical(x):
    """No zero entry, gcd(d, all numerators) = 1, and zero over d = 1."""
    t, d = x._t, x._d
    assert d > 0 and (0, 0) not in t.values() and (t or d == 1)
    assert gcd(d, *(n for pair in t.values() for n in pair)) == 1


def assert_agrees(text):
    want = expected(text)
    got = outcome(algebra.parse_element, text)
    assert got == want, text
    if got[0] == "ok":
        assert_canonical(got[1])
    assert outcome(algebra.parse_phase, text) == expected(text, parse_phase), text


# ------------------------------------------------------------------ strategies

_ws = st.sampled_from(("", " ", "  ", "\t"))
_digits = st.integers(0, 12).map(str) | st.sampled_from(("0", "00", "007", "010"))
_number = st.one_of(_digits, st.builds(lambda p, q: f"{p}/{q}", _digits, _digits))
_sign = st.sampled_from(("", "+", "-"))


@st.composite
def gaussians(draw):
    """A parenthesised sum of signed pieces r, r i and i, spaced any way."""
    pieces = draw(st.lists(st.tuples(_sign, st.sampled_from(("r", "ri", "i")), _number), min_size=1, max_size=3))
    out = []
    for j, (sign, shape, num) in enumerate(pieces):
        sign = sign if j == 0 else (sign or "+")
        body = {"r": num, "ri": f"{num}{draw(_ws)}i", "i": "i"}[shape]
        out.append(f"{draw(_ws)}{sign}{draw(_ws)}{body}")
    return f"({''.join(out)}{draw(_ws)})"


_power = st.builds(
    lambda sym, sign, e, hat: sym if hat is None else f"{sym}{hat}{sign}{e}",
    st.sampled_from("LUV"),
    _sign,
    _digits,
    st.sampled_from((None, "^", " ^ ", "^ ")),
)
_factor = st.one_of(_power, gaussians(), _number, st.just("i"))


@st.composite
def spellings(draw):
    """Non-canonical element text: factors in any order, repeated, with * or implicit products."""
    terms = []
    for j in range(draw(st.integers(1, 4))):
        factors = draw(st.lists(_factor, min_size=1, max_size=5))
        term = factors[0]
        for f in factors[1:]:
            term += draw(st.sampled_from((" ", " * ", "*", "  "))) + f
        sign = draw(_sign if j == 0 else st.sampled_from(("+", "-")))
        terms.append(f"{sign}{draw(_ws)}{term}")
    return draw(_ws).join(terms) + draw(_ws)


_SOUP = ("U", "V", "L", "i", "^", "(", ")", "+", "-", "*", "0", "1", "2", "12", "1/2", "2/1", "1/0", "0/0",
         "007", "/", "x", " ", "  ", "\t")

_soup = st.lists(st.sampled_from(_SOUP), max_size=14).map("".join) | st.lists(
    st.sampled_from(_SOUP), max_size=10
).map(" ".join)


# ------------------------------------------------------------------ properties


@settings(max_examples=150, deadline=None)
@given(elements())
def test_canonical_text_parses_the_same(x):
    text = element_to_text(x)
    assert_agrees(text)
    assert algebra.parse_element(text) == x


@settings(max_examples=300, deadline=None)
@given(spellings())
@example("V^2 U^3")
@example("V U V U")
@example("U^-1 2 * i L^3 V^-2 U i")
@example("(+1/2 - 3i) i (-i) 007 V^+3 U^-0")
@example("- 2/4 V + (2/4) V")
@example("U - U")
def test_non_canonical_spellings_parse_the_same(text):
    assert_agrees(text)


@settings(max_examples=500, deadline=None)
@given(_soup)
@example("U^2/1")
@example("(i i)")
@example("((1))")
@example("i/2")
@example("1/0 U")
@example("(1/0)")
@example("U ^ 1/0")
@example("U + (1/2 + 3/0i)")
@example("U  x")
@example("  ")
@example("")
@example("(1/2) * ")
@example("U^")
@example("U^-")
@example("--U")
@example("(+-1)")
@example("()")
@example("(2)^3")
def test_token_soup_fails_or_parses_the_same(text):
    assert_agrees(text)
