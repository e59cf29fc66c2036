"""Batch command-line front end.

Every subcommand computes one machine-readable record; ``--json`` prints
it as JSON, the default renders the same record as text.  Exit codes:
0 success, 2 domain rejection (bad input value, failed verification),
1 internal error.  One rule decides them: the package refuses an input
with a ValueError (insufficient-cf-data and residual-exceeded included)
and an unreadable or unwritable file is an OSError, both exit 2; any
other exception, such as the AssertionError of a failed invariant check,
is a defect and exits 1.

Each subcommand imports the layers it uses when it runs, so a process
pays only for those: ``cone`` never loads the algebra, ``realize`` and
``verify`` never load the lattice (the ``a+bt`` text of a trace is
theta's), and only ``pr-build`` loads numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from .theta import parse_theta

CERT_FORMAT = "nctorus-certificate/1"


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


@contextlib.contextmanager
def _output(path: Optional[str]):
    """``path`` opened before the work, so a path that cannot be written costs no run; None for no path.

    Mode "a" keeps an existing file until the caller truncates it; a file made here is removed if the work fails.
    """
    made = bool(path) and not os.path.exists(path)
    with open(path, "a", encoding="utf-8") if path else contextlib.nullcontext() as fh:
        try:
            yield fh
        except BaseException:
            if made:
                os.remove(path)
            raise


def _emit(record: dict, as_json: bool, render) -> None:
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        render(record)


# ------------------------------------------------------------- subcommands


def cmd_eval(args) -> int:
    from . import traces
    from .algebra import element_to_text, numeric_eval, parse_element

    theta = parse_theta(args.theta)
    x = parse_element(args.expr)
    t2 = traces.chern_T2(x)
    t4 = traces.chern_T4(x)
    record = {
        "expr": element_to_text(x),
        "t2": t2.to_json(),
        "t4": t4.to_json(),
        "t2_numeric": [_complex_pair(numeric_eval(s, theta)) for s in t2.slots()],
        "t4_numeric": [_complex_pair(numeric_eval(s, theta)) for s in t4.slots()],
    }

    def render(rec):
        print(f"element: {rec['expr']}")
        print(f"T2 = ({'; '.join(rec['t2'])})")
        print(f"T4 = ({'; '.join(rec['t4'])})")
        print("T2 numeric:", ", ".join(f"{a:+.12g}{b:+.12g}i" for a, b in rec["t2_numeric"]))
        print("T4 numeric:", ", ".join(f"{a:+.12g}{b:+.12g}i" for a, b in rec["t4_numeric"]))

    _emit(record, args.json, render)
    return 0


def cmd_decompose(args) -> int:
    from . import lattice

    v = lattice.parse_chern(args.vector)
    res = lattice.decompose(v)
    record = {
        "vector": lattice.chern_to_text(v),
        "status": res.status,
        "coordinates": list(res.coordinates) if res.coordinates else None,
        "rational": [str(x) for x in res.rational] if res.rational else None,
    }

    def render(rec):
        print(f"vector: {rec['vector']}")
        if rec["status"] == "ok":
            print("coordinates:", rec["coordinates"])
        else:
            print(f"not in lattice ({rec['status']})")

    _emit(record, args.json, render)
    return 0


def cmd_cone(args) -> int:
    from . import lattice

    theta = parse_theta(args.theta)
    record = lattice.semiflat_membership(lattice.parse_chern(args.vector), theta).to_json()

    def render(rec):
        print(f"vector: {rec['vector']}")
        if rec["member"]:
            print(f"member of the semiflat positive cone; genus {tuple(rec['genus'])}, trace {rec['trace']}")
            gens = rec["recipe"]["generators"]
            if gens:
                for g in gens:
                    print(f"  {g['count']} x genus {tuple(g['genus'])} of trace {g['trace']}")
            print(f"  flat remainder of trace {rec['recipe']['flat_trace']}")
        else:
            print(f"not a member: {rec['reason']}")

    _emit(record, args.json, render)
    return 0


def cmd_realize(args) -> int:
    from . import realization

    theta = parse_theta(args.theta)
    t = realization.parse_trace(args.trace)
    with _output(args.output) as fh:
        cert = realization.realize(args.kind, t, theta)
        payload = {
            "format": CERT_FORMAT,
            "kind": args.kind,
            "theta": args.theta,
            "target": {"a": t.a, "b": t.b},
            "certificate": realization.certificate_to_json(cert),
        }
        out = json.dumps(payload, indent=2, sort_keys=True)
        if fh:
            fh.truncate(0)
            fh.write(out + "\n")
    if not args.output:
        print(out)
    elif not args.json:
        print(f"certificate written to {args.output}")
    return 0


def cmd_verify(args) -> int:
    from . import realization

    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except RecursionError as exc:  # the stdlib decoder recurses once per nesting level
        raise ValueError("the certificate is nested too deeply to read") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"a certificate file holds a JSON object, not {type(payload).__name__}")
    if payload.get("format") != CERT_FORMAT:
        raise ValueError(f"unsupported certificate format {payload.get('format')!r}")
    spec = args.theta if args.theta else payload.get("theta")
    if not isinstance(spec, str):
        raise ValueError(f"the certificate file needs a theta spec string, got {spec!r}")
    if not isinstance(payload.get("certificate"), dict):
        raise ValueError("the certificate file needs a 'certificate' object")
    claimed = payload.get("target")  # optional; when present, the trace the certificate must prove
    if "target" in payload and not (type(claimed) is dict and claimed.keys() == {"a", "b"}
                                    and type(claimed["a"]) is int and type(claimed["b"]) is int):
        raise ValueError(f"the file's target must be an object of the integers a and b, got {claimed!r}")
    theta = parse_theta(spec)
    # off the node layouts or past realization.MAX_NESTING levels: CertificateFormatError, a ValueError (exit 2)
    cert = realization.certificate_from_json(payload["certificate"])
    if payload.get("kind", cert.kind) != cert.kind:
        raise ValueError(f"the file's kind {payload['kind']!r} is not the certificate's kind {cert.kind!r}")
    target = {"a": cert.target.a, "b": cert.target.b}  # the trace the certificate proves: its root node's
    if "target" in payload and claimed != target:
        raise ValueError(f"the file's target {realization.TraceValue(**claimed)} is not the certificate's "
                         f"target {cert.target}")
    report = realization.verify_certificate(cert, theta)
    record = report.to_json()
    record["kind"] = cert.kind
    record["target"] = target

    def render(rec):
        if rec["ok"]:
            print(f"certificate verifies: a {rec['kind']} projection of trace {cert.target}")
        else:
            count = len(rec["failures"])
            path, msg = rec["failures"][0]
            print(f"verification FAILED ({count} failure{'s' * (count != 1)}); first at {path}: {msg}")

    _emit(record, args.json, render)
    return 0 if report.ok else 2


def cmd_pr_build(args) -> int:
    from . import loops

    theta = parse_theta(args.theta)
    grid = loops.DEFAULT_GRID if args.grid is None else args.grid
    with _output(args.save_element) as fh:
        e, gates = loops._build_projection(args.r, args.s, theta, args.flip, grid, args.eps, args.offset)
        report = loops.loop_invariants(e, theta, args.r)
        if fh:
            fh.truncate(0)
            json.dump(e.to_json(), fh)
    record = {
        "r": args.r,
        "s": args.s,
        "flip_symmetric": args.flip,
        "grid": e.n,
        "alpha": e.beta,
        "residuals": {
            "square": gates.square_residual,
            "adjoint": gates.adjoint_residual,
            "flip": gates.flip_residual,
            "trace": gates.trace_error,
        },
        "invariants": report.to_json(),
    }
    if args.save_element:
        record["element_file"] = args.save_element

    def render(rec):
        print(f"projection over W = U^{rec['r']}, alpha = {rec['alpha']:.12f}, grid {rec['grid']}")
        res = rec["residuals"]
        print(
            f"residuals: |e^2-e| = {res['square']:.2e}, |e*-e| = {res['adjoint']:.2e}"
            + (f", |flip(e)-e| = {res['flip']:.2e}" if res["flip"] is not None else "")
        )
        inv = rec["invariants"]
        print(f"tau = {inv['tau']:.12f}")
        print("phi (rounded):", inv["phi_rounded"])

    _emit(record, args.json, render)
    return 0


# ------------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Exact and numeric toolkit for rotation-algebra invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, theta=True):
        if theta:
            p.add_argument("--theta", default="golden",
                           help="angle: preset (golden, sqrt2), cf:a1,a2,..., or a decimal")
        p.add_argument("--json", action="store_true", help="emit the JSON record only")

    p = sub.add_parser("eval", help="evaluate T2/T4 of an element expression")
    add_common(p)
    p.add_argument("--expr", required=True, help="element text, e.g. 'L^4 U^2 V^-1 + 1/2'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("decompose", help="integer coordinates of a character vector")
    add_common(p, theta=False)
    p.add_argument("--vector", required=True, help="six slots, e.g. '(2t;0,0;1,1,2)'")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cone", help="semiflat positive-cone membership, genus and recipe")
    add_common(p)
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("realize", help="build a trace-realization certificate")
    add_common(p)
    p.add_argument("--kind", required=True,
                   help="symmetry kind; an unknown kind is rejected with the list of kinds")
    p.add_argument("--trace", required=True, help="target trace, e.g. '8t-4'")
    p.add_argument("--output", "-o", help="write the certificate JSON to this path")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="replay a certificate file")
    p.add_argument("--theta", default=None, help="override the angle stored in the file")
    p.add_argument("--json", action="store_true", help="emit the JSON record only")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pr-build", help="numeric Powers-Rieffel projection and invariants")
    add_common(p)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--flip", action="store_true", help="flip-symmetric build (alpha in (1/2,1))")
    p.add_argument("--grid", type=int, default=None,
                   help="first grid size, at most loops.MAX_GRID; refined while a gate fails "
                   "(default: loops.DEFAULT_GRID)")
    p.add_argument("--eps", type=float, default=None, help="ramp width (default min(a,1-a)/4)")
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--save-element", help="also write the loop element JSON here")
    p.set_defaults(func=cmd_pr_build)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the contract maps crashes to exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
