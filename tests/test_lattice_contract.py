"""Golden contract of the lattice layer's command-line records.

``data/lattice_contract.json`` holds, one run per line, a ``decompose
--json`` or ``cone --json`` run (command, theta, vector), its exit code and
the record it printed.  The vectors are the README's, a few hand-picked
ones, and seeded vectors of the benchmark's generator (``perfbench/gen.py``):
on and off the semiflat surface, some halved or thirded (off the lattice)
and some moved off the rational span, each decided on golden, sqrt2 or
sqrt(2501) - 50 = [0; 100, 100, ...] in turn.  The printed text must stay
byte-identical: the record is stored as a value, and the run must print
exactly its rendering by the command's one emitter
(``json.dumps(record, indent=2, sort_keys=True)``).  Rebuild the fixture
(only when the records are meant to change) with
``PYTHONPATH=src python tests/test_lattice_contract.py``.
"""

import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from nctorus.cli import main

FIXTURE = Path(__file__).parent / "data" / "lattice_contract.json"
THETAS = {"golden": "golden", "sqrt2": "sqrt2", "sqrt2501": "cf:" + ",".join(["100"] * 160)}
SEED = 20_211
RANDOM_VECTORS = 300


def _argv(entry) -> list:
    theta = ["--theta", THETAS[entry["theta"]]] if entry["command"] == "cone" else []
    return [entry["command"], *theta, "--vector", entry["vector"], "--json"]


def _rendering(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_fixture_covers_both_commands_every_status_and_every_reason():
    entries = json.loads(FIXTURE.read_text())
    decompose = [e["record"]["status"] for e in entries if e["command"] == "decompose"]
    cone = [e for e in entries if e["command"] == "cone"]
    assert set(decompose) == {"ok", "non-integer", "not-in-span"}
    assert {e["record"]["reason"] for e in cone} == {
        None, "not-in-lattice", "psi10-nonzero", "psi11-nonzero", "nonpositive-trace"}
    for theta in THETAS:
        assert sum(e["record"]["member"] for e in cone if e["theta"] == theta) >= 20


def test_decompose_and_cone_print_the_contract(capsys):
    for entry in json.loads(FIXTURE.read_text()):
        code = main(_argv(entry))
        out = capsys.readouterr().out
        assert (code, out) == (entry["code"], _rendering(entry["record"])), entry


def _vectors():
    """(vector text, theta name) pairs in fixture order."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import gen

    fixed = ["(1;1,0;1,0,0)", "(2t;0,0;1,1,2)", "(1;0,0;0,0,0)", "(1/2;0,0;0,0,0)", "(t;0,0;0,0,0)",
             "(0;0,0;0,0,0)", "(2;i,0;2,0,0)", "(2;0,1+i;0,0,0)", "(4+4t;0,0;0,0,0)",
             "(-2t;0,0;-1,-1,-2)"]
    out = [(text, theta) for text in fixed for theta in THETAS]
    rng = random.Random(SEED)
    for i in range(RANDOM_VECTORS):
        coords = gen.random_coords(rng, on_surface=i % 2 == 0)
        slots = gen.combine(coords)
        theta = gen.ANGLES[(i // 2) % 3].name
        out.append((gen.chern_text(slots), theta))
        if i % 5 == 1:  # a halved or thirded copy: off the lattice, in the rational span
            out.append((gen.chern_text(gen.combine([Fraction(n, 2 + i % 2) for n in coords])), theta))
        if i % 7 == 3:  # a theta part in psi10 puts it off the span
            tau, psi10, *rest = slots
            out.append((gen.chern_text((tau, (psi10[0], psi10[1] + 1, *psi10[2:]), *rest)), theta))
    return out


if __name__ == "__main__":
    entries, decomposed = [], set()
    for vector, theta in _vectors():
        runs = [("cone", theta)] if vector in decomposed else [("decompose", None), ("cone", theta)]
        decomposed.add(vector)
        for command, angle in runs:
            entry = {"command": command, "theta": angle, "vector": vector}
            buf = StringIO()
            with redirect_stdout(buf):
                entry["code"] = main(_argv(entry))
            entry["record"] = json.loads(buf.getvalue())
            assert _rendering(entry["record"]) == buf.getvalue()
            entries.append(entry)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries) + "\n]\n")
