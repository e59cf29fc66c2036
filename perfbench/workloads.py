"""The four workloads: how each builds its inputs, runs one op, and checks it.

Every workload has the same shape:

* ``setup(L)``: the process's one-time state (angles, first-use caches);
  it runs inside the measured ``setup_s``;
* ``pool(rng, size)``: plain inputs from ``gen`` (no package code);
* ``prepare(L, ctx, item)``, optional: turn an input into package objects,
  untimed;
* ``op(L, ctx, item, rec)``: the timed op; it stores what it got in ``rec``;
* ``check(L, ctx, item, rec)``: untimed; returns None or what was wrong;
* ``corrupt(item)``: the same input with a deliberately wrong expectation,
  used by the self-check.

Ops call the package only through ``L`` (a :class:`Layers`), so a traced
run can put a span around each call.  Inputs are stratified by their index
(sizes, kinds, grids cycle in a fixed pattern) so that any prefix of a pool
has the same mix whatever the seed.
"""

from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
import time
from fractions import Fraction

import gen

# <layer>.<fn> -> how to reach it once the package is imported
FUNCTIONS = (
    "theta.parse_theta", "theta.floor_linear", "theta.in_open_interval", "theta.reflect",
    "algebra.mul", "algebra.add", "algebra.eq", "algebra.pow", "algebra.star", "algebra.apply_automorphism",
    "algebra.canonical_trace", "algebra.parse_element", "algebra.element_to_text",
    "traces.chern_T2", "traces.chern_T4", "traces.relation_check",
    "lattice.recompose", "lattice.decompose", "lattice.semiflat_membership", "lattice.synthesis_recipe",
    "realization.parse_trace", "realization.realize", "realization.certificate_to_json",
    "realization.certificate_from_json", "realization.verify_certificate",
    "loops.pr_build", "loops.loop_invariants", "loops.projection_gates",
)
CLI_COMMANDS = ("eval", "decompose", "cone", "realize", "verify", "pr-build")


class Layers:
    """The package's public functions the ops call, each optionally traced."""

    def __init__(self, tracer=None):
        import nctorus
        from nctorus import algebra, lattice, loops, realization, theta, traces

        self.pkg = nctorus
        targets = {
            "theta.parse_theta": theta.parse_theta,
            "theta.floor_linear": theta.ThetaParam.floor_linear,
            "theta.in_open_interval": theta.ThetaParam.in_open_interval,
            "theta.reflect": theta.ThetaParam.reflect,
            "algebra.mul": operator.mul,
            "algebra.add": operator.add,
            "algebra.eq": operator.eq,
            "algebra.pow": operator.pow,
            "algebra.star": algebra.Element.star,
            "algebra.apply_automorphism": algebra.apply_automorphism,
            "algebra.canonical_trace": algebra.canonical_trace,
            "algebra.parse_element": algebra.parse_element,
            "algebra.element_to_text": algebra.element_to_text,
            "traces.chern_T2": traces.chern_T2,
            "traces.chern_T4": traces.chern_T4,
            "traces.relation_check": traces.relation_check,
            "lattice.recompose": lattice.recompose,
            "lattice.decompose": lattice.decompose,
            "lattice.semiflat_membership": lattice.semiflat_membership,
            "lattice.synthesis_recipe": lattice.synthesis_recipe,
            "realization.parse_trace": realization.parse_trace,
            "realization.realize": realization.realize,
            "realization.certificate_to_json": realization.certificate_to_json,
            "realization.certificate_from_json": realization.certificate_from_json,
            "realization.verify_certificate": realization.verify_certificate,
            "loops.pr_build": loops.pr_build,
            "loops.loop_invariants": loops.loop_invariants,
            "loops.projection_gates": loops.projection_gates,
        }
        for name in FUNCTIONS:
            fn = targets[name]
            setattr(self, name.split(".", 1)[1], tracer.wrap(name, fn) if tracer else fn)


def _thetas(L, names) -> dict:
    return {name: L.parse_theta(gen.ANGLE[name].spec) for name in names}


# ===================================================================== laws
#
# Term counts of (x, y, z) cycle through this pattern: every size 1..8
# appears in every position, and 2 of 16 ops multiply 7-8 term elements
# three ways, which is what sets latency_p90_ms.
LAWS_SIZES = (
    (1, 2, 3), (4, 5, 6), (7, 8, 1), (2, 3, 4), (5, 6, 7), (8, 1, 2), (3, 4, 5), (6, 7, 8),
    (2, 1, 4), (3, 6, 5), (8, 7, 2), (1, 4, 3), (6, 5, 8), (7, 2, 1), (4, 3, 6), (5, 8, 7),
)


def laws_setup(L):
    x = L.parse_element("(1/2+i) L U V^-1 + 3 L^-2 U^2")
    L.mul(x, x)
    return {}


def laws_pool(rng, size):
    items = []
    for i in range(size):
        els = [gen.random_element(rng, n) for n in LAWS_SIZES[i % len(LAWS_SIZES)]]
        items.append({
            "els": els,
            "text": gen.element_text(els[0]),
            "t2": gen.character_reference(els[0], gen.T2_SLOTS),
            "t4": gen.character_reference(els[0], gen.T4_SLOTS),
        })
    return items


def _element(pkg, el: dict):
    return pkg.Element({
        pkg.Monomial(m, n): pkg.PhaseScalar({k: pkg.GaussRational(re, im) for k, (re, im) in coef.items()})
        for (m, n), coef in el.items()
    })


def laws_prepare(L, ctx, item):
    item["xyz"] = [_element(L.pkg, el) for el in item["els"]]


def laws_op(L, ctx, item, rec):
    mul, add, eq, star, aut = L.mul, L.add, L.eq, L.star, L.apply_automorphism
    x, y, z = item["xyz"]
    xy = mul(x, y)
    s1 = aut("sigma", x)
    s2 = aut("sigma", s1)
    rec["laws"] = {
        "associativity": eq(mul(xy, z), mul(x, mul(y, z))),
        "distributivity": eq(mul(x, add(y, z)), add(xy, mul(x, z))),
        "star anti-homomorphism": eq(star(xy), mul(star(y), star(x))),
        "sigma^4 = id": eq(aut("sigma", aut("sigma", s2)), x),
        "sigma^2 = flip": eq(s2, aut("flip", x)),
        "gamma sigma = sigma gamma": eq(aut("gamma", s1), aut("sigma", aut("gamma", x))),
        "trace cyclicity": eq(L.canonical_trace(xy), L.canonical_trace(mul(y, x))),
    }
    rec["t2"] = L.chern_T2(x)
    rec["t4"] = L.chern_T4(x)
    rec["relations"] = L.relation_check(x)
    rec["text"] = L.element_to_text(x)
    rec["round trip"] = eq(L.parse_element(rec["text"]), x)
    try:  # a generic element has no inverse: the domain rejection of this workload
        rec["negative power"] = L.pow(z, -1)
    except Exception as exc:  # the check wants exactly ValueError
        rec["negative power"] = exc


def _slots_plain(vector) -> list:
    return [{k: (g.re, g.im) for k, g in s.items()} for s in vector.slots()]


def laws_check(L, ctx, item, rec):
    bad = [name for name, ok in rec["laws"].items() if ok is not True]
    if bad:
        return f"laws fail: {bad}"
    if not rec["relations"]:
        return f"relation_check: {rec['relations']}"
    if rec["text"] != item["text"]:
        return f"element_to_text {rec['text']!r} != {item['text']!r}"
    if rec["round trip"] is not True:
        return "parse_element(element_to_text(x)) != x"
    if type(rec["negative power"]) is not ValueError:
        return f"z ** -1 gave {rec['negative power']!r}, expected ValueError"
    if _slots_plain(rec["t2"]) != item["t2"]:
        return "chern_T2 differs from the reference"
    if _slots_plain(rec["t4"]) != item["t4"]:
        return "chern_T4 differs from the reference"
    return None


def laws_corrupt(item):
    item["t4"][0] = {99: (Fraction(1), Fraction(0))}


# ================================================================== certify
#
# Even indices are class ops (alternately on and off the semiflat
# surface), odd indices trace ops.  Trace ops cycle kind x angle x sign
# (5 x 3 x 2 = 30), then the decade of |b| (1 to 10^6, 6 x 30 = 180); the
# expected outcome changes every 5 trace ops, so every kind meets it, on a
# 10-cycle: 7 realizable, 1 out of range, 1 wrong subgroup (flat or
# semiflat: the other kinds admit every integer pair), 1 mutated certificate.
# Every other realizable fourier_invariant target has b = 7 * 4^k, k
# cycling 0..7 (four_squares grows ~6x per step in k).

CERTIFY_ANGLES = tuple(s.name for s in gen.ANGLES)
CERTIFY_OUTCOMES = ("ok", "ok", "OutOfRange", "ok", "mutant", "ok", "WrongSubgroup", "ok", "ok", "ok")


def certify_setup(L):
    thetas = _thetas(L, CERTIFY_ANGLES)
    for th in thetas.values():
        L.floor_linear(th, 7)
        L.floor_linear(L.reflect(th), 7)
    return {"theta": thetas}


def certify_pool(rng, size):
    items = []
    n_fourier = 0
    for i in range(size):
        j = i // 2
        if i % 2 == 0:
            surd = gen.ANGLES[j % 3]
            coords = gen.random_coords(rng, on_surface=(j % 2 == 0))
            items.append({"type": "class", "angle": surd.name, "coords": coords,
                          "expect": gen.membership_reference(coords, surd)})
            continue
        kind = gen.KINDS[j % 5]
        surd = gen.ANGLES[(j // 5) % 3]
        sign = 1 if (j // 15) % 2 == 0 else -1
        expect = CERTIFY_OUTCOMES[(j // 5) % 10]
        if expect == "WrongSubgroup" and kind not in ("flat", "semiflat"):
            kind = ("flat", "semiflat")[(j // 10) % 2]
        b_mag = None
        if kind == "fourier_invariant" and expect == "ok":
            n_fourier += 1
            if n_fourier % 2 == 0:
                b_mag = 7 * 4 ** ((n_fourier // 2) % 8)
        a, b = gen.trace_target(rng, surd, kind, sign, "ok" if expect == "mutant" else expect, b_mag,
                                decade=(j // 30) % 6)
        lo, hi, _ = gen.KIND_DOMAIN[kind]
        items.append({
            "type": "trace", "kind": kind, "angle": surd.name, "a": a, "b": b, "expect": expect,
            "text": gen.trace_text(a, b), "lo": lo, "hi": hi,
            "floor": surd.floor_mul(b), "inside": surd.in_open_interval(a, b, lo, hi),
            "floor_reflected": abs(b) - surd.floor_mul(abs(b)) - 1,
            "pick": rng.randrange(1 << 30),
        })
    return items


def certify_prepare(L, ctx, item):
    if item["type"] == "class":
        item["k0"] = L.pkg.K0Coordinates(*item["coords"])


def _int_paths(node, path=()):
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _int_paths(val, path + (key,))
    elif isinstance(node, list):
        for idx, val in enumerate(node):
            yield from _int_paths(val, path + (idx,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


def _mutate(data: dict, pick: int) -> tuple:
    paths = list(_int_paths(data))
    path = paths[pick % len(paths)]
    cursor = data
    for step in path[:-1]:
        cursor = cursor[step]
    cursor[path[-1]] += 1
    return path


def _mutant_still_valid(data: dict, path: tuple, surd) -> bool:
    """Whether a certificate with the integer at ``path`` incremented is still a valid one.

    Every integer of a certificate is tied to another by an identity the
    verifier replays, except the target of a top-level semicyclic
    "subprojection" node: any trace strictly between 0 and the node's even
    bound (and below 1/2) is realized by the same construction.
    """
    if data["node"] != "semicyclic" or data["mode"] != "subprojection" or path[0] != "target":
        return False
    a, b = data["target"]["a"], data["target"]["b"]
    bound = data["inner"]["target"]
    return surd.in_open_interval(a, b, 0, Fraction(1, 2)) and surd.sign_linear(bound["a"] - a, bound["b"] - b) > 0


def certify_op(L, ctx, item, rec):
    th = ctx["theta"][item["angle"]]
    if item["type"] == "class":
        v = L.recompose(item["k0"])
        rec["decomposed"] = L.decompose(v)
        rec["decision"] = L.semiflat_membership(v, th)
        if rec["decision"]:
            rec["recipe"] = L.synthesis_recipe(v, th)
        return
    b = item["b"]
    rec["floor"] = L.floor_linear(th, b)
    rec["inside"] = L.in_open_interval(th, item["a"], b, item["lo"], item["hi"])
    if b < 0:
        rec["floor_reflected"] = L.floor_linear(L.reflect(th), -b)
    t = rec["trace"] = L.parse_trace(item["text"])
    rec["stage"] = "realize"
    cert = rec["cert"] = L.realize(item["kind"], t, th)
    data = json.loads(json.dumps(L.certificate_to_json(cert)))
    if item["expect"] == "mutant":
        rec["mutated"] = _mutate(data, item["pick"])
        rec["still_valid"] = _mutant_still_valid(data, rec["mutated"], gen.ANGLE[item["angle"]])
    rec["stage"] = "certificate_from_json"
    rec["parsed"] = L.certificate_from_json(data)
    rec["stage"] = "verify"
    rec["report"] = L.verify_certificate(rec["parsed"], th)


def certify_check(L, ctx, item, rec):
    exc = rec.get("exc")
    if item["type"] == "class":
        if exc is not None:
            return f"class op raised {type(exc).__name__}: {exc}"
        want = item["expect"]
        d = rec["decomposed"]
        if d.status != "ok" or tuple(d.coordinates) != item["coords"]:
            return f"decompose(recompose(c)) gave {d.status} {d.coordinates}"
        got = rec["decision"]
        if bool(got) != want["member"] or got.reason != want["reason"]:
            return f"membership {bool(got)}/{got.reason}, expected {want['member']}/{want['reason']}"
        if not want["member"]:
            return None
        if got.genus.as_tuple() != want["genus"] or (got.trace.a, got.trace.b, got.trace.c, got.trace.d) != (*want["trace"], 0, 0):
            return f"genus/trace {got.genus.as_tuple()} {got.trace}, expected {want['genus']} {want['trace']}"
        total = tuple(sum(g.count * g.genus[s] for g in rec["recipe"].generators) for s in range(3))
        flat = rec["recipe"].flat_trace
        if total != want["genus"] or flat.a % 4 or flat.b % 4 or flat.c or flat.d:
            return f"synthesis recipe genus {total}, flat {flat}"
        return None
    for key in ("floor", "inside") + (("floor_reflected",) if item["b"] < 0 else ()):
        if key in rec and rec[key] != item[key]:
            return f"{key} = {rec[key]}, expected {item[key]}"
    if "trace" in rec and (rec["trace"].a, rec["trace"].b) != (item["a"], item["b"]):
        return f"parse_trace({item['text']!r}) = {rec['trace']}"
    expect = item["expect"]
    counters = ctx["counters"]
    if expect in ("OutOfRange", "WrongSubgroup"):
        counters["rejections"] += 1
        if exc is None or type(exc).__name__ != expect or rec.get("stage") != "realize":
            return f"expected {expect} from realize, got {type(exc).__name__ if exc else 'no error'}"
        counters["rejections_ok"] += 1
        return None
    if expect == "mutant":
        counters["mutants"] += 1
        if exc is not None:
            if type(exc).__name__ != "CertificateFormatError" or rec["stage"] != "certificate_from_json":
                return f"mutant at {rec['mutated']} raised {type(exc).__name__} in {rec['stage']}: {exc}"
        elif rec["report"].ok != rec["still_valid"]:
            return f"mutation at {rec['mutated']}: verify ok = {rec['report'].ok}, expected {rec['still_valid']}"
        counters["mutants_caught"] += 1
        return None
    if exc is not None:
        return f"{item['kind']} {item['text']} on {item['angle']} raised {type(exc).__name__} in {rec.get('stage')}: {exc}"
    if not rec["report"].ok:
        return f"verify failed: {rec['report'].first_failure}"
    if rec["parsed"] != rec["cert"]:
        return "certificate JSON round trip changed the certificate"
    node, surd = rec["cert"], gen.ANGLE[item["angle"]]
    floor = surd.floor_mul
    if type(node).__name__ == "ReflectedCert":
        node = node.inner
        floor = lambda s: s - surd.floor_mul(s) - 1  # floor(s * (1 - theta)), s > 0
    if (node.target.a, node.target.b) != ((item["a"], item["b"]) if item["b"] > 0 else (item["a"] + item["b"], -item["b"])):
        return f"certificate target {node.target}"
    if item["kind"] == "fourier_invariant":
        m = node.squares
        if m.m1 ** 2 + m.m2 ** 2 + m.m3 ** 2 + m.m4 ** 2 != node.target.b:
            return f"four squares {tuple(m)} do not sum to {node.target.b}"
        for leg in (node.leg1, node.leg2):
            s = leg.m1 ** 2 + leg.m2 ** 2
            if s and leg.n_shift != floor(s):
                return f"embedding leg n_shift {leg.n_shift} != floor({s} theta) = {floor(s)}"
    return None


def certify_corrupt(item):
    if item["type"] == "class":
        item["expect"] = dict(item["expect"], member=not item["expect"]["member"])
    else:
        item["floor"] += 1


# =============================================================== projection
#
# Ten-step cycle: flip-symmetric parity-table rows at requested grids
# 4096, 16384 and 65536 (6 of 10; every row at every grid once in 18
# rows), plain builds with random (r, s, offset)
# at 4096 (2 of 10) and narrow-eps builds at 4096 that must refine or
# raise ResidualExceeded (2 of 10).

PARITY_ROWS = (  # (angle, r, s, rounded (phi00, phi01, phi10, phi11)), README table
    ("golden", 6, -3, ("0", "1", "0", "0")),
    ("golden", 14, -8, ("0", "0", "0", "0")),
    ("golden", 3, -1, ("1/2", "1/2", "-1/2", "1/2")),
    ("sqrt2", 4, -1, ("0", "1", "0", "0")),
    ("sqrt2", 2, 0, ("0", "0", "0", "0")),
    ("sqrt2", 9, -3, ("1/2", "1/2", "-1/2", "1/2")),
)
PROJECTION_CYCLE = ("row", "plain", "row", "narrow", "row", "row", "plain", "row", "narrow", "row")
PROJECTION_GRIDS = (4096, 16384, 65536)
GATES = {"square": 1e-8, "adjoint": 1e-12, "flip": 1e-8, "trace": 1e-10}  # README, pinned


def projection_setup(L):
    thetas = _thetas(L, ("golden", "sqrt2"))
    e = L.pr_build(6, -3, thetas["golden"], True, n=4096)
    L.loop_invariants(e, thetas["golden"], 6)
    return {"theta": thetas}


def projection_pool(rng, size):
    items = []
    n_rows = 0
    for i in range(size):
        kind = PROJECTION_CYCLE[i % len(PROJECTION_CYCLE)]
        if kind == "row":
            angle, r, s, row = PARITY_ROWS[(n_rows // 3) % len(PARITY_ROWS)]
            items.append({"kind": kind, "angle": angle, "r": r, "s": s, "flip": True, "offset": 0.0,
                          "eps": None, "n": PROJECTION_GRIDS[n_rows % 3], "row": row})
            n_rows += 1
            continue
        angle = ("golden", "sqrt2")[rng.randrange(2)]
        theta = gen.ANGLE[angle].value
        while True:
            r, s = rng.randint(1, 40), rng.randint(-40, 40)
            alpha = (r * theta + s) % 1.0
            if 0.1 < alpha < 0.9:
                break
        eps = rng.uniform(0.0008, 0.002) if kind == "narrow" else None
        items.append({"kind": kind, "angle": angle, "r": r, "s": s, "flip": False,
                      "offset": rng.random(), "eps": eps, "n": 4096})
    return items


def projection_op(L, ctx, item, rec):
    th = ctx["theta"][item["angle"]]
    e = rec["e"] = L.pr_build(item["r"], item["s"], th, item["flip"], n=item["n"], eps=item["eps"],
                              offset=item["offset"])
    rec["invariants"] = L.loop_invariants(e, th, item["r"])


def projection_check(L, ctx, item, rec):
    exc = rec.get("exc")
    if exc is not None:
        if item["kind"] == "narrow" and type(exc).__name__ == "ResidualExceeded":
            ctx["counters"]["residual_exceeded"] += 1
            return None
        return f"{item['kind']} build raised {type(exc).__name__}: {exc}"
    e = rec.pop("e")
    refined = e.n > item["n"]
    ctx["counters"]["builds"] += 1
    ctx["counters"]["refined"] += refined
    if item["kind"] == "narrow" and not refined:
        return f"narrow eps {item['eps']} passed at grid {e.n} without refining"
    theta = gen.ANGLE[item["angle"]].value
    alpha = item["r"] * theta + item["s"]
    if not item["flip"]:
        alpha %= 1.0
    g = L.projection_gates(e, alpha, item["flip"])
    ctx["counters"]["square_residual_max"] = max(ctx["counters"]["square_residual_max"], g.square_residual)
    if not (g.square_residual <= GATES["square"] and g.adjoint_residual <= GATES["adjoint"]
            and g.trace_error <= GATES["trace"]
            and (not item["flip"] or g.flip_residual <= GATES["flip"])):
        return f"gates not met: {g}"
    inv = rec["invariants"]
    if abs(inv.tau - alpha) > GATES["trace"]:
        return f"tau {inv.tau} != alpha {alpha}"
    if item["kind"] == "row":
        got = tuple(None if v is None else str(v) for v in inv.rounded)
        if got != item["row"]:
            return f"rounded invariants {got} != parity row {item['row']}"
    return None


def projection_corrupt(item):
    if item["kind"] == "row":
        item["row"] = ("1", "1", "1", "1")
    else:
        item["kind"] = "narrow"


# ====================================================================== cli
#
# Seven-step cycle: eval, decompose, cone, realize -o, verify (of that
# certificate), verify of the same certificate with one integer mutated
# (the expected exit-2 rejection), pr-build (the parity rows in turn, one
# per cycle).  One subprocess at a time.

CLI_CYCLE = ("eval", "decompose", "cone", "realize", "verify", "verify-mutant", "pr-build")


def cli_setup(L):
    import nctorus.cli

    nctorus.cli.build_parser()
    return {}


def cli_pool(rng, size):
    items = []
    for i in range(size):
        step = CLI_CYCLE[i % len(CLI_CYCLE)]
        surd = gen.ANGLES[rng.randrange(2)]  # the presets golden, sqrt2
        cert = f"cert-{(i // len(CLI_CYCLE)) % 2}.json"
        item = {"step": step, "angle": surd.name, "code": 0}
        if step == "eval":
            el = gen.random_element(rng, rng.randint(1, 4))
            item["argv"] = ["eval", "--theta", surd.spec, "--expr", gen.element_text(el)]
            item["text"] = gen.element_text(el)
            item["t4"] = [gen.phase_numeric(s, surd.value) for s in gen.character_reference(el, gen.T4_SLOTS)]
        elif step in ("decompose", "cone"):
            coords = gen.random_coords(rng, on_surface=(step == "cone"))
            item["argv"] = [step, "--vector", gen.chern_text(gen.combine(coords))]
            if step == "cone":
                item["argv"] += ["--theta", surd.spec]
                item["expect"] = gen.membership_reference(coords, surd)
            item["coords"] = list(coords)
        elif step == "realize":
            kind = gen.KINDS[(i // len(CLI_CYCLE)) % 5]
            a, b = gen.trace_target(rng, surd, kind, rng.choice((1, -1)), "ok")
            item["argv"] = ["realize", "--theta", surd.spec, "--kind", kind,
                            f"--trace={gen.trace_text(a, b)}", "-o", cert]
            item["target"] = {"a": a, "b": b}
            item["kind"] = kind
        elif step == "verify":
            item["argv"] = ["verify", cert]
        elif step == "verify-mutant":
            item["argv"] = ["verify", "mutant.json"]
            item["source"], item["pick"], item["code"] = cert, rng.randrange(1 << 30), 2
        else:
            angle, r, s, row = PARITY_ROWS[(i // len(CLI_CYCLE)) % len(PARITY_ROWS)]
            item["argv"] = ["pr-build", "--theta", angle, "-r", str(r), "-s", str(s), "--flip"]
            item["row"] = list(row)
        item["argv"].append("--json")
        items.append(item)
    return items


def cli_before(L, ctx, item):
    """Write the mutated certificate a verify-mutant step reads (untimed)."""
    if item["step"] == "verify-mutant":
        with open(os.path.join(ctx["dir"], item["source"]), encoding="utf-8") as fh:
            payload = json.load(fh)
        item["mutated"] = _mutate(payload["certificate"], item["pick"])
        surd = next(a for a in gen.ANGLES if a.spec == payload["theta"])
        item["code"] = 0 if _mutant_still_valid(payload["certificate"], item["mutated"], surd) else 2
        with open(os.path.join(ctx["dir"], "mutant.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def cli_op(L, ctx, item, rec):
    cmd = [sys.executable] + (["-X", "importtime"] if ctx["traced"] else []) + ["-m", "nctorus.cli"] + item["argv"]
    start = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=ctx["dir"], env=ctx["env"], capture_output=True, text=True, timeout=120)
    end = time.perf_counter_ns()
    rec["proc"] = proc
    if ctx["traced"]:
        parent = ctx["tracer"].add(f"cli.{item['argv'][0]}", start, end)
        for line in proc.stderr.splitlines():  # import time: self [us] | cumulative | name
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "nctorus" and parts[1].strip().isdigit():
                ctx["tracer"].add("cli.import", start, start + int(parts[1]) * 1000, parent)


def cli_check(L, ctx, item, rec):
    if rec.get("exc") is not None:
        return f"{item['step']}: {type(rec['exc']).__name__}: {rec['exc']}"
    proc = rec["proc"]
    if proc.returncode != item["code"]:
        return f"{item['step']} exited {proc.returncode}, expected {item['code']}: {proc.stderr[-300:]}"
    step = item["step"]
    if step == "verify-mutant":
        if proc.stdout.strip() and json.loads(proc.stdout)["ok"] is not (item["code"] == 0):
            return f"mutation at {item['mutated']}: verify ok = {json.loads(proc.stdout)['ok']}"
        return None
    if step == "realize":
        with open(os.path.join(ctx["dir"], item["argv"][-2]), encoding="utf-8") as fh:
            payload = json.load(fh)
        if (payload["format"], payload["kind"], payload["target"]) != ("nctorus-certificate/1", item["kind"], item["target"]):
            return f"certificate header {payload['format']} {payload['kind']} {payload['target']}"
        return None
    rec_json = json.loads(proc.stdout)
    if step == "eval":
        if rec_json["expr"] != item["text"]:
            return f"eval expr {rec_json['expr']!r} != {item['text']!r}"
        for got, want in zip(rec_json["t4_numeric"], item["t4"]):
            if abs(complex(*got) - want) > 1e-9 * (1 + abs(want)):
                return f"eval t4 numeric {got} != {want}"
    elif step == "decompose":
        if rec_json["status"] != "ok" or rec_json["coordinates"] != item["coords"]:
            return f"decompose {rec_json['status']} {rec_json['coordinates']} != {item['coords']}"
    elif step == "cone":
        want = item["expect"]
        if rec_json["member"] != want["member"] or rec_json["reason"] != want["reason"]:
            return f"cone {rec_json['member']}/{rec_json['reason']} != {want['member']}/{want['reason']}"
        if want["member"] and [int(g) for g in rec_json["genus"]] != list(want["genus"]):
            return f"cone genus {rec_json['genus']} != {want['genus']}"
    elif step == "verify":
        if rec_json["ok"] is not True:
            return f"verify failed: {rec_json['failures'][:1]}"
    elif step == "pr-build":
        if rec_json["invariants"]["phi_rounded"] != item["row"]:
            return f"pr-build rounded {rec_json['invariants']['phi_rounded']} != {item['row']}"
    return None


def cli_corrupt(item):
    item["code"] = 2 if item["code"] == 0 else 0


WORKLOADS = {
    "laws": dict(setup=laws_setup, pool=laws_pool, prepare=laws_prepare, op=laws_op,
                 check=laws_check, corrupt=laws_corrupt, pool_size=256, trace_ops=128, warmup_ops=16,
                 reference="slice", reference_every_ns=100_000_000),
    "certify": dict(setup=certify_setup, pool=certify_pool, prepare=certify_prepare, op=certify_op,
                    check=certify_check, corrupt=certify_corrupt, pool_size=1800, trace_ops=1200,
                    warmup_ops=60, reference="slice", reference_every_ns=100_000_000),
    "projection": dict(setup=projection_setup, pool=projection_pool, op=projection_op,
                       check=projection_check, corrupt=projection_corrupt, pool_size=150, trace_ops=60, warmup_ops=10,
                       reference="slice", reference_every_ns=100_000_000),
    "cli": dict(setup=cli_setup, pool=cli_pool, op=cli_op, check=cli_check,
                corrupt=cli_corrupt, before=cli_before, pool_size=42, trace_ops=14, warmup_ops=0,
                reference="spawn", reference_every_ns=1_000_000_000),
}
