"""Golden contract of the certificate JSON and of the verifier's reports.

``data/certificate_contract.json`` holds, for certificates covering every
node type (flat, cyclic, both semicyclic modes, semiflat, both fourier
branches, reflected wrappers) on golden and sqrt2:

- ``json.dumps(certificate_to_json(cert))`` without ``sort_keys``, so the
  key insertion order is pinned as well as the values;
- ``verify_certificate(...).to_json()`` of every single-integer +1/-1
  mutant of that JSON, in walk order.

Both must stay byte-identical.  Rebuild the fixture (only when the schema
is meant to change) with ``PYTHONPATH=src python tests/test_certificate_contract.py``.
"""

import json
from pathlib import Path

import pytest

from nctorus.realization import (
    CertificateFormatError,
    certificate_from_json,
    certificate_to_json,
    parse_trace,
    realize,
    verify_certificate,
)
from nctorus.theta import ThetaParam

FIXTURE = Path(__file__).parent / "data" / "certificate_contract.json"

# (theta preset, kind, trace): the node under each is named in the comment
SPECS = [
    ("golden", "flat", "8t-4"),
    ("golden", "cyclic", "2t-1"),
    ("golden", "semicyclic", "4t-2"),  # orbit-double
    ("golden", "semicyclic", "2t-1"),  # subprojection
    ("golden", "semiflat", "4t-2"),
    ("golden", "fourier_invariant", "3t-1"),  # orthogonal-sum
    ("golden", "fourier_invariant", "18t-11"),  # complement-subtraction
    ("golden", "flat", "8-12t"),  # reflected
    ("golden", "semicyclic", "1-t"),  # reflected subprojection
    ("sqrt2", "flat", "12t-4"),
    ("sqrt2", "cyclic", "3t-1"),
    ("sqrt2", "semicyclic", "6t-2"),  # orbit-double
    ("sqrt2", "semicyclic", "t"),  # subprojection
    ("sqrt2", "semiflat", "2t"),
    ("sqrt2", "fourier_invariant", "t"),  # orthogonal-sum, one zero leg
    ("sqrt2", "fourier_invariant", "3t-1"),  # complement-subtraction
    ("sqrt2", "flat", "4-8t"),  # reflected
    ("sqrt2", "fourier_invariant", "3-6t"),  # reflected complement-subtraction
]


def _int_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _int_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _int_paths(value, path + (i,))
    elif type(node) is int:
        yield path


def _mutants(payload):
    """(path, delta, mutated JSON) for every integer leaf and delta +1, -1."""
    for path in _int_paths(payload):
        for delta in (1, -1):
            clone = json.loads(json.dumps(payload))
            cursor = clone
            for step in path[:-1]:
                cursor = cursor[step]
            cursor[path[-1]] += delta
            yield list(path), delta, clone


def contract_entry(spec):
    name, kind, trace = spec
    theta = ThetaParam.preset(name)
    payload = certificate_to_json(realize(kind, parse_trace(trace), theta))
    return {
        "spec": list(spec),
        "json": json.dumps(payload),
        "mutants": [
            [path, delta, verify_certificate(certificate_from_json(mutated), theta).to_json()]
            for path, delta, mutated in _mutants(payload)
        ],
    }


def _stored():
    return {tuple(entry["spec"]): entry for entry in json.loads(FIXTURE.read_text())}


def test_fixture_covers_every_spec_and_node_type():
    stored = _stored()
    assert set(stored) == {tuple(spec) for spec in SPECS}
    tags = set()
    for entry in stored.values():
        tags.update(_tags(json.loads(entry["json"])))
        assert entry["mutants"]
    assert tags == {
        "flat", "orbit-flat", "cyclic-approximant", "cyclic", "semicyclic", "semiflat",
        "fourier-invariant", "embedding-leg", "reflected",
    }


def _tags(node):
    if isinstance(node, dict):
        if "node" in node:
            yield node["node"]
        for value in node.values():
            yield from _tags(value)
    elif isinstance(node, list):
        for value in node:
            yield from _tags(value)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "-".join(s))
def test_serializer_and_verifier_match_the_contract(spec):
    entry = _stored()[tuple(spec)]
    got = contract_entry(spec)
    assert got["json"] == entry["json"]
    assert len(got["mutants"]) == len(entry["mutants"])
    for mine, theirs in zip(got["mutants"], entry["mutants"]):
        assert mine == theirs


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    entries = [contract_entry(spec) for spec in SPECS]
    # one spec, certificate or mutant per line keeps the diff of a schema change readable
    lines = []
    for entry in entries:
        head = json.dumps({"spec": entry["spec"], "json": entry["json"]})[:-1]
        mutants = ",\n  ".join(json.dumps(m, separators=(",", ":")) for m in entry["mutants"])
        lines.append(f'{head}, "mutants": [\n  {mutants}\n]}}')
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")


# ------------------------------------------------- widened mutation families


def _paths(node, path=()):
    """The path of every value in a JSON tree, the root included, parents first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _at(tree, path):
    for step in path:
        tree = tree[step]
    return tree


def _replaced(payload, path, value):
    if not path:
        return value
    clone = json.loads(json.dumps(payload))
    _at(clone, path[:-1])[path[-1]] = value
    return clone


TAGS = ["flat", "orbit-flat", "cyclic-approximant", "cyclic", "semicyclic", "semiflat",
        "fourier-invariant", "embedding-leg", "reflected"]
LEMMAS = ["bracketing-convergent-split", "orbit-sum-of-cyclic", "cyclic-from-rational-approximant",
          "quarter-split-of-flat", "flip-orbit-double", "invariant-subprojection", "transform-orbit-pairing",
          "four-squares-split", "scaled-generator-embedding", "angle-reflection"]
SWAPS = {"node": TAGS, "lemma": LEMMAS, "mode": ["orbit-double", "subprojection"],
         "branch": ["orthogonal-sum", "complement-subtraction"]}


def mutation_families(payload):
    """(family, path, mutated JSON) for every mutation of the widened families."""
    for path in _paths(payload):
        old = _at(payload, path)
        for wrong in (None, True, False, 1.5, "x", [], {}):
            if not (type(wrong) is type(old) and wrong == old):
                yield "type", path, _replaced(payload, path, wrong)
        if path and path[-1] in SWAPS:
            for value in SWAPS[path[-1]]:
                if value != old:
                    yield "swap", path, _replaced(payload, path, value)
        if type(old) is int:
            for wrong in (float(old), old + 0.5):
                yield "float", path, _replaced(payload, path, wrong)
        if isinstance(old, dict):
            for key in old:
                clone = json.loads(json.dumps(payload))
                del _at(clone, path)[key]
                yield "delete", path + (key,), clone
            yield "extra", path, _replaced(payload, path, {**old, "extra": 0})


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "-".join(s))
def test_widened_mutations_are_format_errors_or_failing_reports(spec):
    name, kind, trace = spec
    theta = ThetaParam.preset(name)
    payload = certificate_to_json(realize(kind, parse_trace(trace), theta))
    seen = {}
    for family, path, mutated in mutation_families(payload):
        try:
            cert = certificate_from_json(mutated)
        except CertificateFormatError:
            outcome = "format"
        else:
            assert not verify_certificate(cert, theta).ok, (family, path)
            outcome = "report"
        seen[family, outcome] = seen.get((family, outcome), 0) + 1
    # every family ran, and the strict parser caught all but the value swaps it cannot judge
    assert {family for family, _ in seen} == {"type", "swap", "float", "delete", "extra"}
    assert {family for family, outcome in seen if outcome == "report"} <= {"type", "swap"}
