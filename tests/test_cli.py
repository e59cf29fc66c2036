import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nctorus
from nctorus.cli import CERT_FORMAT, main
from nctorus.lattice import (
    K0Coordinates, KScalar, chern_to_text, parse_chern, parse_kscalar, recompose, semiflat_coordinates)
from nctorus import realization
from nctorus.realization import KINDS, MAX_NESTING, TraceValue
from nctorus.theta import PrecisionExhausted, parse_theta

from conftest import mp_turns, reflected_chain_json

SRC = str(Path(nctorus.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out.strip() else None, err


# ------------------------------------------------------------------------ eval


def test_eval_identity(capsys):
    code, rec, _ = run_json(capsys, "eval", "--theta", "golden", "--expr", "1")
    assert code == 0
    assert rec["t4"] == ["(1)", "(1)", "0", "(1)", "0", "0"]
    assert rec["t2"] == ["(1)", "(1)", "0", "0", "0"]
    assert rec["t4_numeric"][0] == [1.0, 0.0]


def test_eval_grammar(capsys):
    code, rec, _ = run_json(capsys, "eval", "--expr", "L^4 U^2 V^-1 + 1/2")
    assert code == 0
    assert "U^2" in rec["expr"]


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--expr", "U ^^ oops")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--expr", "(1/0)"),
        ("eval", "--expr", "1/0 U"),
        ("decompose", "--vector", "(1/0;0,0;0,0,0)"),
        ("realize", "--kind", "flat", "--trace=1/0+4t"),
    ],
)
def test_zero_denominator_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "zero denominator" in err and "internal error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--expr", "{long}"),
        ("decompose", "--vector", "({long};0,0;0,0,0)"),
        ("realize", "--kind", "flat", "--trace={long}+4t"),
        ("eval", "--theta", "cf:1,{long}", "--expr", "1"),
    ],
)
def test_number_too_long_to_convert_exits_2(capsys, argv):
    # 5000 digits is more than int() converts (sys.get_int_max_str_digits() is 4300)
    code, _, err = run(capsys, *(arg.format(long="1" * 5000) for arg in argv))
    assert code == 2
    assert "number too long" in err and "internal error" not in err


# ------------------------------------------------------------------- decompose


def test_decompose_identity_vector(capsys):
    code, rec, _ = run_json(capsys, "decompose", "--vector", "(1;1,0;1,0,0)")
    assert code == 0
    assert rec["coordinates"] == [0, 0, 1, 0, 0, 0, 0, 0, 0]


def test_decompose_non_lattice(capsys):
    code, rec, _ = run_json(capsys, "decompose", "--vector", "(1;0,0;0,0,0)")
    assert code == 0
    assert rec["status"] == "non-integer" and rec["coordinates"] is None


# ------------------------------------------------------------------------ cone


def test_cone_member(capsys):
    code, rec, _ = run_json(capsys, "cone", "--theta", "golden", "--vector", "(2t;0,0;1,1,2)")
    assert code == 0
    assert rec["member"] is True
    assert rec["genus"] == ["1", "1", "2"]
    assert rec["recipe"]["generators"][0]["genus"] == [1, 1, 2]


def test_cone_rejection_reason(capsys):
    code, rec, _ = run_json(capsys, "cone", "--vector", "(1;1,0;1,0,0)")
    assert code == 0
    assert rec["member"] is False and rec["reason"] == "psi10-nonzero"


# -------------------------------------------------- decompose / cone property

_NUMBERS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.integers(10**30, 10**40).map(str),
)
_ATOMS = st.tuples(_NUMBERS, st.sampled_from(["", "t", "i", "ti"])).map("".join) | st.sampled_from(["t", "i", "ti"])


@st.composite
def _vector_texts(draw):
    """Chern text from the grammar's pieces: signed, fractional (a zero denominator included) and long
    numbers, the units t, i and ti, five to seven slots and extra parentheses.  At most one piece is
    then spoiled: a sign or separator doubled, spaced, taken out or crossed, or a number made one digit
    longer than Python converts to an int."""
    pieces = []
    for n in range(draw(st.sampled_from([6, 6, 6, 5, 7]))):
        if n:
            pieces.append(draw(st.sampled_from([";", ","])))
        atoms = draw(st.lists(_ATOMS, min_size=1, max_size=3))
        signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(atoms), max_size=len(atoms)))
        signs[0] = signs[0] if draw(st.booleans()) else ""
        pieces += [x for pair in zip(signs, atoms) for x in pair]
    if draw(st.booleans()):
        x = pieces[i := draw(st.integers(0, len(pieces) - 1))]
        pieces[i] = draw(st.sampled_from(["", x * 2, f" {x} ", "+-"] if x in "+-;," else ["9" * 4301]))
    parens = draw(st.integers(0, 2))
    return "(" * parens + "".join(pieces) + ")" * parens


_LATTICE = st.tuples(*[st.integers(-4, 4)] * 9).map(lambda n: chern_to_text(recompose(K0Coordinates(*n))))


@st.composite
def _semiflat_texts(draw):
    """A semiflat vector whose trace 2(n1 + 2n2 + n3 + n4) + 2(n2 + n9)*theta has both parts >= 0, a cone
    member on every theta unless it is 0, or its negation, a nonpositive trace."""
    n2, n3, n4 = draw(st.tuples(*[st.integers(-4, 4)] * 3))
    n1, n9 = draw(st.integers(0, 4)) - 2 * n2 - n3 - n4, draw(st.integers(0, 4)) - n2
    sign = draw(st.sampled_from([1, -1]))
    return chern_to_text(recompose(semiflat_coordinates(*(sign * n for n in (n1, n2, n3, n4, n9)))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["decompose", "cone"]), st.one_of(_vector_texts(), _LATTICE, _semiflat_texts()),
       st.sampled_from(["golden", "sqrt2", "cf:1,2,3", "0.618"]), st.booleans())
def test_decompose_and_cone_end_in_an_answer_or_a_rejection(command, vector, theta, as_json):
    argv = [command, f"--vector={vector}"] + ["--theta", theta] * (command == "cone") + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    if code == 2 or not as_json:
        return
    rec = json.loads(out.getvalue())
    v = parse_chern(vector)
    assert parse_chern(rec["vector"]) == v
    if command == "decompose" and rec["status"] == "ok" or command == "cone" and rec["coordinates"]:
        assert recompose(K0Coordinates(*rec["coordinates"])) == v
    if command == "cone" and rec["member"]:
        gens = rec["recipe"]["generators"]
        genus = [sum(g["count"] * g["genus"][j] for g in gens) for j in range(3)]
        traces = [(g["count"], parse_kscalar(g["trace"])) for g in gens]
        traces.append((1, parse_kscalar(rec["recipe"]["flat_trace"])))
        total = KScalar(*(sum(count * getattr(x, part) for count, x in traces) for part in "abcd"))
        assert genus == list(map(Fraction, rec["genus"])) == [v.psi20.a, v.psi21.a, v.psi22.a]
        assert total == parse_kscalar(rec["trace"]) == v.tau


# ----------------------------------------------- eval / realize / verify property

# angles weighted towards short continued-fraction prefixes, whose brackets settle little
_THETAS = st.sampled_from(["golden", "sqrt2", "cf:1", "cf:2", "cf:1,2", "cf:3,1,4", "cf:1,1,1,1,1,1",
                           "cf:" + ",".join(["2"] * 40), "0.618", "0.41421356", "3e-1"])
_EXPONENTS = st.one_of(st.none(), st.integers(-9, 9).map(str), st.integers(10**15, 10**80).map(str),
                       st.integers(-10**80, -10**15).map(str), st.sampled_from(["1/2", "-3/2", "1.5", "+2", "", "x"]))


@st.composite
def _element_texts(draw):
    """Element text from the grammar's pieces: one to three signed terms of a coefficient and up to three
    L, U and V factors, whose exponents are small, huge, fractional, signed or missing."""
    text = ""
    for n in range(draw(st.integers(1, 3))):
        factors = [draw(st.sampled_from(["", "2", "1/2", "(1+i)", "i", "3/0", "7" * 30]))]
        for _ in range(draw(st.integers(0 if factors[0] else 1, 3))):
            base, exponent = draw(st.sampled_from("LUV")), draw(_EXPONENTS)
            factors.append(base if exponent is None else f"{base}^{exponent}")
        text += draw(st.sampled_from(["+", "-", " - "] if n else ["", "-"])) + " ".join(filter(None, factors))
    return text


def _main(argv):
    """(exit code, stdout, stderr) of an in-process run, which must end in an answer or a rejection."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2) and "Traceback" not in err, err
    assert err == "" if code == 0 else err.startswith("error: ") or err == "" and out  # a failed replay: a record
    return code, out, err


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_element_texts(), _THETAS)
def test_eval_ends_in_an_answer_or_a_rejection(expr, theta):
    code, out, _ = _main(["eval", f"--expr={expr}", "--theta", theta, "--json"])
    if code == 0:
        rec = json.loads(out)
        assert len(rec["t2_numeric"]) == 5 and len(rec["t4_numeric"]) == 6


# (upper end of the interval, subgroup multiple) of each kind's domain
_DOMAIN = {"cyclic": (Fraction(1, 4), 1), "semicyclic": (Fraction(1, 2), 1), "flat": (1, 4), "semiflat": (1, 2),
           "fourier_invariant": (1, 1), "bogus": (1, 1)}


@st.composite
def _realize_args(draw):
    """(kind, trace text, theta) for ``realize``.  Most targets are the first m*(b*theta - floor(b*theta)) from
    a drawn b on that lies in the kind's domain (m its subgroup multiple); the rest are a step off it or
    anywhere, and a prefix too short to settle the floor gives a target anywhere.  A fourier_invariant
    theta-coefficient stays below 10^12, where four_squares is fast.  The text is then written in one of
    the grammar's forms, or spoiled."""
    kind = "bogus" if draw(st.integers(0, 9)) == 9 else draw(st.sampled_from(KINDS))
    theta, (hi, m) = draw(_THETAS), _DOMAIN[kind]
    th, huge = parse_theta(theta), 10**11 if kind == "fourier_invariant" else 10**40
    b = draw(st.one_of(st.integers(1, 60), st.integers(-60, -1), st.integers(-huge, huge)))
    plan = draw(st.integers(0, 9))  # 0-6: in the domain, 7 and 8: a step off it, 9: anywhere
    try:
        if plan < 7:
            step = 1 if b >= 0 else -1
            b = next((c for c in range(b, b + 50 * step, step)
                      if th.in_open_interval(-m * th.floor_linear(c), m * c, 0, hi)), b)
        a = m * ({7: 1, 8: -1}.get(plan, 0) - th.floor_linear(b))
    except PrecisionExhausted:
        plan = 9
    a, b = draw(st.integers(-99, 99)) if plan == 9 else a, m * b
    forms = [str(TraceValue(a, b)), f"{b}t{a:+d}", f" {a} {'-' if b < 0 else '+'} {abs(b)} t ", f"{2 * a}/2{b:+d}t"]
    if draw(st.integers(0, 4)) == 4:
        forms = [f"{a}{b:+d}t+i", f"{a}/2{b:+d}t", f"{a}{b:+d}tt", f"{a}{b:+d}/0t"]
    return kind, draw(st.sampled_from(forms)), theta


def _paths(node, path=()):
    """The path of node and of every value inside it, as tuples of keys and indices."""
    yield path
    for key, value in node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ():
        yield from _paths(value, path + (key,))


_JSON_VALUES = st.sampled_from([None, True, 0, -1, 1.5, "golden", "", [], {}, [1, 2], {"a": 1, "b": 2}])


@st.composite
def _mutations(draw):
    """A function that edits a ``realize -o`` payload in place: one integer of its envelope or certificate
    moved by one, or one value of either replaced or removed."""
    how, pick = draw(st.sampled_from(["step", "replace", "remove"])), draw(st.integers(0, 10**6))
    value, step = draw(_JSON_VALUES), draw(st.sampled_from([1, -1]))

    def mutate(payload):
        def at(path):
            node = payload
            for key in path:
                node = node[key]
            return node

        paths = [p for p in _paths(payload) if p and (how != "step" or type(at(p)) is int)]
        *where, key = paths[pick % len(paths)]
        node = at(where)
        if how == "step":
            node[key] += step
        elif how == "replace" or isinstance(node, list):
            node[key] = value
        else:
            del node[key]

    return mutate


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_realize_args(), _mutations())
def test_realize_and_verify_end_in_an_answer_or_a_rejection(oracle_dir, args, mutate):
    kind, trace, theta = args
    path, mutant = oracle_dir / "cert.json", oracle_dir / "mutant.json"
    path.unlink(missing_ok=True)
    code, out, _ = _main(["realize", "--kind", kind, f"--trace={trace}", "--theta", theta, "-o", str(path), "--json"])
    assert (code == 0) is path.exists() and out == ""
    if code == 2:
        return
    payload = json.loads(path.read_text())
    code, out, _ = _main(["verify", str(path), "--json"])  # every written certificate verifies, for its own target
    assert code == 0 and json.loads(out) == {"ok": True, "failures": [], "kind": kind, "target": payload["target"]}
    mutate(payload)
    mutant.write_text(json.dumps(payload))
    code, out, _ = _main(["verify", str(mutant), "--json"])
    if out:
        rec = json.loads(out)
        assert rec["ok"] is (code == 0) and rec["target"] == payload.get("target", rec["target"])


# ------------------------------------------------------------ realize / verify


def test_realize_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "realize", "--kind", "flat", "--trace", "8t-4", "--theta", "golden",
        "-o", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["kind"] == "flat"
    assert payload["certificate"]["a"] == 1 and payload["certificate"]["b"] == 1
    code, rec, _ = run_json(capsys, "verify", str(path))
    assert code == 0 and rec["ok"] is True


def test_realize_stdout_when_no_output(capsys):
    code, out, _ = run(capsys, "realize", "--kind", "cyclic", "--trace", "2t-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["node"] == "cyclic"


def test_realize_domain_rejection(capsys):
    code, _, err = run(capsys, "realize", "--kind", "flat", "--trace", "2t-1")
    assert code == 2 and "wrong-subgroup" in err


@pytest.mark.parametrize(
    "trace, code_slug",
    [("5", "wrong-subgroup"), ("2t+4", "out-of-range"), ("2t-4", "out-of-range")],
)
def test_realize_rejection_names_its_code_once(capsys, trace, code_slug):
    code, _, err = run(capsys, "realize", "--kind", "semiflat", f"--trace={trace}")
    assert code == 2
    assert err.startswith(f"error: {code_slug}: ") and err.count(code_slug) == 1


@pytest.mark.parametrize("argv, line", [
    (("realize", "--kind", "flat", "--trace", "4t"), "error: out-of-range: 4t is not in (0, 1)"),
    (("pr-build", "-r", "1", "-s", "0", "--eps", "0.9"),
     "error: need 0 < eps < min(alpha, 1-alpha)/2 = 0.19098300562505255, got 0.9"),
    (("pr-build", "--theta", "sqrt2", "-r", "1", "-s", "0", "--flip"),
     "error: alpha-out-of-range: r*theta + s = 1*theta+0 is not in (1/2, 1)"),
    (("pr-build", "-r", "6", "-s", "-3", "--flip", "--offset", "0.25"),
     "error: flip-symmetric builds admit only offsets 0 and 1/2"),
])
def test_rejection_is_one_error_line(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", line + "\n")


def test_realize_searches_every_stored_convergent(tmp_path, capsys):
    # 4(q*theta - p) for golden's 70th convergent p/q: its bracketing pair lies past the 64th
    path = tmp_path / "c.json"
    code, _, err = run(capsys, "realize", "--kind", "flat", "--trace", "1232246084680516t-761569962836540",
                       "-o", str(path))
    assert code == 0, err
    assert run(capsys, "verify", str(path))[0] == 0


def test_realize_rejects_a_target_the_prefix_cannot_settle(tmp_path, capsys):
    # 4(4181 theta - 2584): the bracketing pair past 2584/4181 has the last stored convergent,
    # 6765/10946, as its lower end, which the prefix cannot place against theta
    path = tmp_path / "c.json"
    theta = "cf:" + ",".join(["1"] * 20)
    code, _, err = run(capsys, "realize", "--theta", theta, "--kind", "flat", "--trace", "16724t-10336",
                       "-o", str(path))
    assert code == 2 and err.startswith("error: insufficient-cf-data: ")
    assert not path.exists()


def test_realize_rejects_a_semicyclic_target_with_no_step_that_fits(capsys):
    code, out, err = run(capsys, "realize", "--kind", "semicyclic", "--trace", "t", "--theta", "0.3")
    assert (code, out) == (2, "")
    assert err == "error: insufficient-cf-data: no stored convergent fits a step between t and 1/2\n"


@pytest.mark.parametrize("trace", ["t", "1-t"], ids=["direct", "reflected"])
def test_realize_reflects_a_decimal_whose_prefix_is_empty(tmp_path, capsys, trace):
    # 0.50 pins no continued-fraction term; its interval (0.495, 0.505) places 1 - theta as well
    path = tmp_path / "c.json"
    code, _, err = run(capsys, "realize", "--theta", "0.50", "--kind", "fourier_invariant", "--trace", trace,
                       "-o", str(path))
    assert code == 0, err
    assert run(capsys, "verify", str(path))[0] == 0


def test_realize_unknown_kind_exits_2(capsys):
    code, _, err = run(capsys, "realize", "--kind", "bogus", "--trace", "2t-1")
    assert code == 2 and "unknown kind 'bogus'" in err and "semiflat" in err


# an ArithmeticError that is not a ValueError is a defect too: main must not map ArithmeticError to 2
@pytest.mark.parametrize("exc", [AssertionError("boom"), RuntimeError("boom"), ZeroDivisionError("boom")],
                         ids=lambda exc: type(exc).__name__)
def test_a_crash_inside_a_command_exits_1(monkeypatch, capsys, exc):
    def crash(*args):
        raise exc

    monkeypatch.setattr(realization, "realize", crash)
    code, out, err = run(capsys, "realize", "--kind", "flat", "--trace", "8t-4")
    assert (code, out) == (1, "")
    assert err == f"internal error: {type(exc).__name__}: boom\n"


def test_verify_detects_tampering(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, "realize", "--kind", "flat", "--trace", "8t-4", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["certificate"]["a"] += 1
    path.write_text(json.dumps(payload))
    code, rec, _ = run_json(capsys, "verify", str(path))
    assert code == 2 and rec["ok"] is False


@pytest.mark.parametrize("kind", ["fourier_invariant", None, ["flat"]], ids=["other-kind", "null", "list"])
def test_verify_rejects_an_envelope_kind_that_is_not_the_certificates(tmp_path, capsys, kind):
    payload = _flat_certificate(tmp_path, capsys)
    payload["kind"] = kind
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--json", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: the file's kind {kind!r} is not the certificate's kind 'flat'\n"


@pytest.mark.parametrize("trace", ["8t-4", "8-12t"], ids=["flat", "reflected"])
def test_verify_reports_the_certificates_own_kind(tmp_path, capsys, trace):
    path = tmp_path / "cert.json"
    run(capsys, "realize", "--kind", "flat", "--trace", trace, "-o", str(path))
    code, rec, _ = run_json(capsys, "verify", str(path))
    assert (code, rec["ok"], rec["kind"]) == (0, True, "flat")
    payload = json.loads(path.read_text())
    del payload["kind"]  # a file without an envelope kind reports the certificate's own
    path.write_text(json.dumps(payload))
    code, rec, _ = run_json(capsys, "verify", str(path))
    assert (code, rec["ok"], rec["kind"]) == (0, True, "flat")


@pytest.mark.parametrize("trace, target, text", [("8t-4", {"a": -4, "b": 8}, "-4+8t"),
                                                 ("8-12t", {"a": 8, "b": -12}, "8-12t")], ids=["flat", "reflected"])
def test_verify_names_the_target_it_proved(tmp_path, capsys, trace, target, text):
    path = tmp_path / "cert.json"
    run(capsys, "realize", "--kind", "flat", "--trace", trace, "-o", str(path))
    code, rec, _ = run_json(capsys, "verify", str(path))
    assert (code, rec["ok"], rec["target"]) == (0, True, target)
    assert run(capsys, "verify", str(path)) == (0, f"certificate verifies: a flat projection of trace {text}\n", "")
    payload = json.loads(path.read_text())
    del payload["target"]  # a file without an envelope target reports the certificate's own
    path.write_text(json.dumps(payload))
    code, rec, _ = run_json(capsys, "verify", str(path))
    assert (code, rec["ok"], rec["target"]) == (0, True, target)


@pytest.mark.parametrize("target, line", [
    ({"a": 0, "b": 0}, "the file's target 0 is not the certificate's target -4+8t"),
    ({"a": -4, "b": 9}, "the file's target -4+9t is not the certificate's target -4+8t"),
    ({"b": 8, "a": -8}, "the file's target -8+8t is not the certificate's target -4+8t"),
    ({"a": -4.0, "b": 8}, "the file's target must be an object of the integers a and b, got {'a': -4.0, 'b': 8}"),
    ({"a": -4, "b": True}, "the file's target must be an object of the integers a and b, got {'a': -4, 'b': True}"),
    ({"a": -4}, "the file's target must be an object of the integers a and b, got {'a': -4}"),
    ({"a": -4, "b": 8, "c": 0},
     "the file's target must be an object of the integers a and b, got {'a': -4, 'b': 8, 'c': 0}"),
    ([-4, 8], "the file's target must be an object of the integers a and b, got [-4, 8]"),
    ("8t-4", "the file's target must be an object of the integers a and b, got '8t-4'"),
    (None, "the file's target must be an object of the integers a and b, got None"),
], ids=["zero", "other", "other-order", "float", "bool", "missing", "extra", "list", "text", "null"])
def test_verify_rejects_an_envelope_target_that_is_not_the_certificates(tmp_path, capsys, target, line):
    payload = _flat_certificate(tmp_path, capsys)
    payload["target"] = target
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, "verify", "--json", str(path)) == (2, "", f"error: {line}\n")


def test_verify_rejects_non_integer_field(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, "realize", "--kind", "flat", "--trace", "8t-4", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["certificate"]["a"] += 0.9
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "expected an integer" in err


def test_verify_rejects_child_of_wrong_node_type(tmp_path, capsys):
    flat, semiflat = tmp_path / "flat.json", tmp_path / "semiflat.json"
    run(capsys, "realize", "--kind", "flat", "--trace", "8t-4", "-o", str(flat))
    run(capsys, "realize", "--kind", "semiflat", "--trace", "4t-2", "-o", str(semiflat))
    payload = json.loads(semiflat.read_text())
    payload["certificate"]["inner"] = json.loads(flat.read_text())["certificate"]
    semiflat.write_text(json.dumps(payload))
    code, rec, _ = run_json(capsys, "verify", str(semiflat))
    assert code == 2 and rec["ok"] is False


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/cert.json")
    assert code == 2


def _flat_certificate(tmp_path, capsys) -> dict:
    path = tmp_path / "flat.json"
    run(capsys, "realize", "--kind", "flat", "--trace", "8t-4", "-o", str(path))
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "envelope",
    [
        lambda c: {"format": CERT_FORMAT, "theta": "golden"},
        lambda c: [1, 2, 3],
        lambda c: CERT_FORMAT,
        lambda c: None,
        lambda c: {"format": CERT_FORMAT, "kind": "flat", "certificate": c},
        lambda c: {"format": CERT_FORMAT, "theta": 0.618, "certificate": c},
        lambda c: {"theta": "golden", "certificate": c},
        lambda c: {"format": CERT_FORMAT, "theta": "golden", "certificate": [c]},
        lambda c: {"format": CERT_FORMAT, "theta": "golden", "certificate": 7},
        lambda c: {"format": CERT_FORMAT, "theta": "golden", "certificate": None},
    ],
    ids=[
        "no-certificate", "list", "string", "null", "no-theta", "theta-number", "no-format",
        "certificate-list", "certificate-int", "certificate-null",
    ],
)
def test_verify_malformed_envelope_exits_2(tmp_path, capsys, envelope):
    path = tmp_path / "envelope.json"
    path.write_text(json.dumps(envelope(_flat_certificate(tmp_path, capsys)["certificate"])))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip()) > len("error: ")


def test_verify_under_a_prefix_that_cannot_settle_a_sign_exits_2(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_flat_certificate(tmp_path, capsys)))
    assert run(capsys, "verify", "--theta", "cf:1,1", str(path)) == (
        2, "verification FAILED (1 failure); first at theta: insufficient-cf-data: cannot settle sign of "
        "-4 + 8*theta\n", "")


def test_verify_theta_override_needs_no_stored_theta(tmp_path, capsys):
    payload = _flat_certificate(tmp_path, capsys)
    del payload["theta"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, rec, _ = run_json(capsys, "verify", "--theta", "golden", str(path))
    assert code == 0 and rec["ok"] is True


def test_verify_text_mode_reports_the_failure_count(tmp_path, capsys):
    payload = _flat_certificate(tmp_path, capsys)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, "verify", str(path)) == (0, "certificate verifies: a flat projection of trace -4+8t\n", "")
    payload["certificate"]["a"] += 1
    path.write_text(json.dumps(payload))
    code, rec, _ = run_json(capsys, "verify", str(path))
    count = len(rec["failures"])
    assert code == 2 and count > 1
    path_, message = rec["failures"][0]
    assert run(capsys, "verify", str(path)) == (
        2, f"verification FAILED ({count} failures); first at {path_}: {message}\n", ""
    )
    payload["certificate"]["a"] -= 1
    payload["certificate"]["legs"][0]["leaf"]["lemma"] = "angle-reflection"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == "error: certificate.legs[0].leaf: a cyclic-approximant node has lemma " \
        "'cyclic-from-rational-approximant', not 'angle-reflection'\n"


def _cli_subprocess(*argv, cwd):
    """``python -m nctorus.cli`` in a fresh interpreter, so the stack depth is the command's own."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "nctorus.cli", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def _verify_nested(tmp_path, capsys, depth: int):
    """``verify --json`` in a fresh interpreter on a flat certificate under ``depth`` reflected wrappers."""
    chain = reflected_chain_json(depth, _flat_certificate(tmp_path, capsys)["certificate"])
    path = tmp_path / f"nested-{depth}.json"
    path.write_text(f'{{"format": "{CERT_FORMAT}", "theta": "golden", "kind": "flat", "certificate": {chain}}}')
    return _cli_subprocess("verify", "--json", str(path), cwd=tmp_path)


def test_verify_accepts_the_deepest_chain_realize_writes(tmp_path, capsys):
    # reflected -> semiflat -> subprojection -> orbit-double -> cyclic -> flat: MAX_NESTING below the root
    path = tmp_path / "semiflat.json"
    assert run(capsys, "realize", "--kind", "semiflat", "--trace", "2-2t", "-o", str(path))[0] == 0
    assert run(capsys, "verify", str(path)) == (0, "certificate verifies: a semiflat projection of trace 2-2t\n", "")


def test_verify_nested_max_nesting_levels_gives_failing_report(tmp_path, capsys):
    proc = _verify_nested(tmp_path, capsys, MAX_NESTING)
    assert proc.returncode == 2, proc.stderr
    rec = json.loads(proc.stdout)
    assert rec["ok"] is False and rec["failures"][0] == ["flat", "inner target is not the reflected target"]


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
def test_verify_too_deeply_nested_is_rejected(tmp_path, capsys, depth):
    # one level past MAX_NESTING is the parser's rejection; 5000 levels are the json decoder's
    proc = _verify_nested(tmp_path, capsys, depth)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and proc.stderr == "error: the certificate is nested too deeply to read\n"


# -------------------------------------------------------------------- pr-build


def test_pr_build_flip(capsys):
    code, rec, _ = run_json(
        capsys, "pr-build", "--theta", "golden", "-r", "6", "-s", "-3", "--flip"
    )
    assert code == 0
    assert rec["residuals"]["square"] <= 1e-8
    assert rec["invariants"]["phi_rounded"] == ["0", "1", "0", "0"]
    assert rec["invariants"]["tau"] == pytest.approx(6 * 0.6180339887 - 3, abs=1e-8)


def test_pr_build_domain_rejection(capsys):
    code, _, err = run(capsys, "pr-build", "--theta", "sqrt2", "-r", "1", "-s", "0", "--flip")
    assert code == 2 and "alpha-out-of-range" in err


def test_pr_build_rejects_a_grid_above_the_ceiling(capsys):
    # 131072 = 2 * loops.MAX_GRID; rejected before any sample is taken
    code, _, err = run(capsys, "pr-build", "-r", "1", "-s", "0", "--grid", "131072")
    assert code == 2 and "above the refinement ceiling 65536" in err


GOLDEN_38 = "0.61803398874989484820458683436563811772"  # golden to 38 decimal places


@pytest.mark.parametrize("argv,want", [
    (("-r", "6", "-s", "-3", "--flip", "--eps", "nan"), 2),
    (("-r", "1", "-s", "0", "--eps", "inf"), 2),
    (("-r", "1", "-s", "0", "--eps", "-1"), 2),
    (("-r", "1", "-s", "0", "--eps", "5e-324"), 2),  # refines to 65536, then exceeds the trace gate
    (("-r", "1", "-s", "0", "--offset", "nan"), 2),
    (("-r", "1", "-s", "0", "--offset", "1e308"), 0),
    (("-r", "6", "-s", "-3", "--flip", "--offset", "-0.0"), 0),
    (("-r", "6", "-s", "-3", "--flip", "--offset", "0.5"), 0),
    (("-r", "6", "-s", "-3", "--flip", "--offset", "0.25"), 2),  # flip builds admit only offsets 0 and 1/2
    (("-r", "1", "-s", "0", "--grid", "0"), 2),
    (("-r", "1", "-s", "0", "--grid", "-4096"), 2),
    (("-r", "100000000000000000000", "-s", "0"), 0),
    (("-r", "1", "-s", "0", "--theta", "cf:1,1,1"), 2),
    (("-r", "1", "-s", "0", "--theta", GOLDEN_38), 0),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_pr_build_fixed_cases_end_in_an_answer_or_a_rejection(capsys, argv, want):
    code, out, err = run(capsys, "pr-build", *argv, "--json")
    assert code == want, err
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["grid"] >= 256
    else:
        assert err.strip() and not out


def test_pr_build_save_element(tmp_path, capsys):
    path = tmp_path / "element.json"
    code, rec, _ = run_json(
        capsys, "pr-build", "-r", "1", "-s", "0", "--grid", "1024", "--save-element", str(path)
    )
    assert code == 0
    import numpy as np
    from nctorus.loops import pr_build
    from nctorus.theta import parse_theta

    saved = json.loads(path.read_text())
    e = pr_build(1, 0, parse_theta("golden"), n=1024)
    assert saved.keys() == {"beta", "n", "coeffs"} and (saved["beta"], saved["n"]) == (e.beta, e.n)
    assert list(saved["coeffs"]) == ["-1", "0", "1"]
    for k, f in e.coeffs.items():
        # [re, im] rows are the complex samples' own layout: equal bytes are the same samples, bit for bit
        assert np.array(saved["coeffs"][str(k)]).tobytes() == f.tobytes()


# ------------------------------------------------------------------ file paths


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "{dir}"),
        ("realize", "--kind", "flat", "--trace", "8t-4", "-o", "{dir}"),
        ("pr-build", "-r", "1", "-s", "0", "--grid", "1024", "--save-element", "{dir}"),
    ],
)
def test_a_directory_for_a_file_exits_2(tmp_path, capsys, argv):
    code, _, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2
    assert err.startswith("error:") and "internal error" not in err


@pytest.mark.parametrize("argv, work", [
    (("realize", "--kind", "flat", "--trace", "8t-4", "-o", "{dir}"), "nctorus.realization.realize"),
    (("pr-build", "-r", "1", "-s", "0", "--save-element", "{dir}"), "nctorus.loops.assemble_projection"),
], ids=["realize", "pr-build"])
def test_an_unwritable_output_is_rejected_before_the_work(tmp_path, monkeypatch, capsys, argv, work):
    def run_anyway(*args, **kwargs):
        raise AssertionError("the work ran before the output file was opened")

    monkeypatch.setattr(work, run_anyway)
    code, _, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2 and err.startswith("error:") and "the work ran" not in err


@pytest.mark.parametrize("argv", [
    ("realize", "--kind", "flat", "--trace", "4t", "-o", "{path}"),
    ("pr-build", "-r", "1", "-s", "0", "--eps", "0.9", "--save-element", "{path}"),
], ids=["realize", "pr-build"])
def test_a_rejected_run_leaves_an_existing_output_as_it_was(tmp_path, capsys, argv):
    path = tmp_path / "out.json"
    path.write_text("kept\n")
    code, _, _ = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2 and path.read_text() == "kept\n"


def test_an_existing_output_is_replaced_whole(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("x" * 100_000)
    code, _, _ = run(capsys, "realize", "--kind", "flat", "--trace", "8t-4", "-o", str(path))
    assert code == 0 and json.loads(path.read_text())["format"] == CERT_FORMAT


# ------------------------------------------------------------------ theta to float


def test_pr_build_alpha_is_r_theta_mod_1_correctly_rounded(capsys):
    # float64 r*theta put this alpha 9.2e-9 off, 92 times TRACE_GATE, and exited 0
    code, rec, _ = run_json(capsys, "pr-build", "-r", "1000000000", "-s", "0")
    assert code == 0 and rec["alpha"] == mp_turns("golden", 0, 10**9)


@pytest.mark.parametrize("theta, expr", [
    ("golden", "L^1" + "0" * 70),  # L^(10^70): the 160 stored terms cannot settle its phase
    ("cf:1", "L"),  # the prefix [0; 1] brackets theta only by (0, 1)
    ("0.618", "L^100000"),  # a decimal is known to +-0.0005, so 25000*theta mod 1 is unknown
])
def test_eval_rejects_a_phase_theta_cannot_settle(capsys, theta, expr):
    code, out, err = run(capsys, "eval", "--theta", theta, "--expr", expr)
    assert code == 2 and not out and err.startswith("error: insufficient-cf-data: ")


# ---------------------------------------------------------------------- docs


def test_selftest_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("nctorus ")]
    assert [argv[0] for argv in commands] == ["eval", "decompose", "cone", "realize", "verify", "pr-build"]
    monkeypatch.chdir(tmp_path)  # realize -o cert.json writes here, and verify cert.json reads it
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


# ------------------------------------------------------------------- theta spec


def test_theta_cf_spec(capsys):
    # ten terms bracket theta to about 1e-8, too wide to settle the phases of U V to TURNS_ERROR
    code, _, err = run_json(capsys, "eval", "--theta", "cf:2,2,2,2,2,2,2,2,2,2", "--expr", "U V")
    assert code == 2 and err.startswith("error: insufficient-cf-data: ")
    code, rec, _ = run_json(capsys, "eval", "--theta", "cf:" + ",".join(["2"] * 40), "--expr", "U V")
    _, want, _ = run_json(capsys, "eval", "--theta", "sqrt2", "--expr", "U V")
    assert code == 0 and sum(rec["t4_numeric"], []) == pytest.approx(sum(want["t4_numeric"], []), abs=2e-15)


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cone", "--vector", "(1;1,0;1,0,0)", "--frobnicate"])
    assert exc.value.code == 2
