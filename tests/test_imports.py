"""Import graph: each subcommand loads only the layers it uses.

Every case runs in a fresh interpreter, so the modules it reports are
the ones that subcommand pulled in and nothing a previous test imported.
No timing is asserted.  The last checks are on the source itself: the
layers each module imports, at module level and inside its functions,
are pinned as one graph, theta is the one module that turns theta into a
float, theta.Record is the one class that guards fields against
assignment, every exception class the package defines is a ValueError,
every public function or class has a caller in the package or is
exported, and every public method is read by the package or the
benchmark.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nctorus

SRC = str(Path(nctorus.__file__).resolve().parent.parent)

# Runs the CLI in-process with its stdout swallowed, then reports what was loaded.
PROBE = """
import contextlib, io, json, sys
from nctorus.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "modules": sorted(m for m in sys.modules if m.startswith("nctorus.") and m != "nctorus.cli"),
    "numpy": "numpy" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
}))
"""


def _probe(argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _layers(*names):
    return sorted(f"nctorus.{n}" for n in names)


CASES = [
    (["eval", "--expr", "L^4 U^2 V^-1 + 1/2"], _layers("theta", "algebra", "traces")),
    (["decompose", "--vector", "(1;1,0;1,0,0)"], _layers("theta", "lattice")),
    (["cone", "--vector", "(2t;0,0;1,1,2)"], _layers("theta", "lattice")),
    (["realize", "--kind", "semiflat", "--trace", "4t-2", "-o", "cert.json"], _layers("theta", "realization")),
    (["pr-build", "-r", "6", "-s", "-3", "--flip"], _layers("theta", "loops")),
]


@pytest.mark.parametrize("argv, modules", CASES, ids=[c[0][0] for c in CASES])
def test_subcommand_loads_only_its_layers(tmp_path, argv, modules):
    got = _probe(argv, tmp_path)
    assert got["code"] == 0
    assert got["modules"] == modules
    assert got["numpy"] is (argv[0] == "pr-build")


def test_a_realize_rejection_loads_only_theta_and_realization(tmp_path):
    # the rejection's message prints the trace, in the a+bt text that theta holds
    got = _probe(["realize", "--kind", "cyclic", "--trace", "4t-2"], tmp_path)
    assert got["code"] == 2
    assert got["modules"] == _layers("theta", "realization")


def test_verify_of_semiflat_certificate_loads_only_realization(tmp_path):
    assert _probe(["realize", "--kind", "semiflat", "--trace", "4t-2", "-o", "cert.json"], tmp_path)["code"] == 0
    got = _probe(["verify", "cert.json"], tmp_path)
    assert got["code"] == 0
    assert got["modules"] == _layers("theta", "realization")
    assert got["numpy"] is False


@pytest.mark.parametrize("argv", [c[0] for c in CASES] + [["verify", "cert.json"]],
                         ids=[c[0][0] for c in CASES] + ["verify"])
def test_subcommand_loads_no_dataclasses(tmp_path, argv):
    # the value types generate no code, so neither dataclasses nor the
    # inspect module it pulls in is imported; numpy imports inspect itself
    if argv[0] == "verify":
        assert _probe(CASES[3][0], tmp_path)["code"] == 0
    got = _probe(argv, tmp_path)
    assert got["code"] == 0
    assert got["dataclasses"] is False
    if argv[0] != "pr-build":
        assert got["inspect"] is False


def _layer_imports(tree):
    """The layers a module names in ``from .<layer> import`` or ``from . import <layer>``: at module
    level ("top"), inside a function ("local") and under ``if TYPE_CHECKING`` ("typing")."""
    found = {"top": set(), "local": set(), "typing": set()}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, "local")
            elif isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                visit(child, "typing")
            elif isinstance(child, ast.ImportFrom) and child.level == 1:
                found[where].update([child.module] if child.module else [a.name for a in child.names])
            else:
                visit(child, where)

    visit(tree, "top")
    return {where: sorted(layers) for where, layers in found.items() if layers}


def test_the_layer_graph_is_the_declared_one():
    # the subprocess cases see only the paths they run; this sees every import the source spells,
    # including one that runs only on a rejection.  realization reads and prints its a+bt traces
    # through theta and needs algebra only for the embedding checks, so it never loads lattice.
    graph = {p.stem: _layer_imports(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(Path(SRC, "nctorus").glob("*.py"))}
    assert graph == {
        "__init__": {},
        "algebra": {"top": ["theta"]},
        "cli": {"top": ["theta"], "local": ["algebra", "lattice", "loops", "realization", "traces"]},
        "lattice": {"top": ["theta"], "typing": ["traces"]},
        "loops": {"top": ["theta"]},
        "realization": {"top": ["theta"], "local": ["algebra"], "typing": ["algebra"]},
        "theta": {},
        "traces": {"top": ["algebra", "theta"]},
    }


def test_import_nctorus_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nctorus; print(sorted(m for m in sys.modules if m.startswith('nctorus')))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['nctorus']"


def test_importtime_reports_the_layer_the_package_looks_up(tmp_path):
    # cli's ``from . import realization`` goes through the package's lazy lookup; that import must show
    # in ``python -X importtime``, which sees __import__ and not importlib.import_module
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "nctorus.cli", "realize", "--kind", "flat", "--trace", "8t-4"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"nctorus.theta", "nctorus.realization"} <= traced


def test_every_exported_name_resolves():
    assert len(nctorus.__all__) == len(set(nctorus.__all__))
    for name in nctorus.__all__:
        value = getattr(nctorus, name)
        module = nctorus._MODULE_OF[name]
        layer = importlib.import_module(f"nctorus.{module}")
        assert value is (layer if name == module else getattr(layer, name))
    assert set(nctorus.__all__) <= set(dir(nctorus))


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from nctorus import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(nctorus.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nctorus.no_such_name


def test_every_exception_the_package_defines_is_a_value_error():
    # the exit-code rule (cli): a refused input raises a ValueError, exit 2; a failed invariant check
    # raises a plain AssertionError, which the package does not subclass, exit 1
    defined = {}
    for p in Path(SRC, "nctorus").glob("*.py"):
        layer = importlib.import_module(f"nctorus.{p.stem}") if p.stem != "__init__" else nctorus
        defined.update((name, obj) for name, obj in vars(layer).items() if isinstance(obj, type)
                       and issubclass(obj, BaseException) and obj.__module__ == layer.__name__)
    assert sorted(defined) == sorted([
        "ChernParseError", "PrecisionExhausted",  # theta
        "ElementParseError",  # algebra
        "RealizationError", "OutOfRange", "WrongSubgroup", "CertificateFormatError",  # realization
        "GridMismatch", "AlphaOutOfRange", "InvalidBumpWidth", "ResidualExceeded",  # loops
    ])
    assert [name for name, cls in defined.items() if not issubclass(cls, ValueError)] == []
    # and callers that catch ArithmeticError still catch the two numeric rejections
    assert issubclass(defined["PrecisionExhausted"], ArithmeticError)
    assert issubclass(defined["ResidualExceeded"], ArithmeticError)


@pytest.mark.parametrize("module", sorted(p.name for p in Path(SRC, "nctorus").glob("*.py") if p.name != "theta.py"))
def test_only_theta_turns_theta_into_a_float(module):
    # ThetaParam.turns is the one float of theta, with an error bound; no .value or rational_approx
    # may come back.  Every .value read is flagged: no value type of the package has one.
    tree = ast.parse(Path(SRC, "nctorus", module).read_text(encoding="utf-8"))
    reads = [f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("value", "rational_approx")]
    assert not reads, f"{module} reads a float of theta outside theta.turns: {reads}"


@pytest.mark.parametrize("module", sorted(p.name for p in Path(SRC, "nctorus").glob("*.py")))
def test_only_record_guards_its_fields(module):
    # every immutable value type is a theta.Record: none calls object.__setattr__ past a
    # guard of its own, and Record is the one class that defines __setattr__/__delattr__
    tree = ast.parse(Path(SRC, "nctorus", module).read_text(encoding="utf-8"))
    found = [f"line {node.lineno}: object.__setattr__" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        if (module, cls.name) == ("theta.py", "Record"):
            continue
        for node in ast.walk(cls):
            targets = [node.name] if isinstance(node, ast.FunctionDef) else [
                n.id for t in getattr(node, "targets", ()) for n in ast.walk(t) if isinstance(n, ast.Name)]
            found += [f"line {node.lineno}: {cls.name}.{t}" for t in targets if t in ("__setattr__", "__delattr__")]
    assert not found, f"{module} hand-rolls what theta.Record gives: {found}"


def test_every_public_name_is_exported_or_used_in_the_package():
    # a public top-level function or class that is neither exported nor used by name in its own
    # module, imported by another (``from .<module> import``) or read there as ``<module>.<name>``
    # is a second spelling of an operation that only its own tests call
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(SRC, "nctorus").glob("*.py") if p.name != "__init__.py"}
    reached = set()  # (module, name) used from another module
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees.keys() - {module}:
                reached.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in trees.keys() - {module}):
                reached.add((node.value.id, node.attr))
    unused = []
    for module, tree in trees.items():
        used = set(nctorus._EXPORTS.get(module, ())) | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{module}.{node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                   and node.name not in used and (module, node.name) not in reached]
    assert not unused, f"public names no module uses and the package does not export: {unused}"


def _module_names(tree):
    """The names a file binds to a module: ``import m [as n]``, ``from <package> import <layer>``
    (of the package itself) and ``n = m`` of such a name (the lazy ``np = numpy``)."""
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "nctorus") == "nctorus":
            names.update(a.asname or a.name for a in node.names if a.name in nctorus._EXPORTS)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            aliases.update((t.id, node.value.id) for t in node.targets if isinstance(t, ast.Name))
    return names | {alias for alias, name in aliases.items() if name in names}


def test_module_names_are_the_imported_modules_and_their_aliases():
    tree = ast.parse("import numpy\nimport os.path as osp\nfrom . import loops\nfrom .theta import Record\n"
                     "from math import gcd\nnp = numpy\nr = Record\n")
    assert _module_names(tree) == {"numpy", "osp", "loops", "np"}


def test_every_public_method_is_read_in_the_package_or_the_benchmark():
    # a public method that nothing in src/nctorus or perfbench/ reads by name, as an attribute or as a
    # string (for attrgetter), is library code that only its own tests run.  An attribute of a module
    # (np.conj, math.gcd, loops.pr_build) is a module's function, not a read of a method.
    read = set()
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    for path in [*Path(SRC, "nctorus").glob("*.py"), *bench.glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                    read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = set()
    for path in Path(SRC, "nctorus").glob("*.py"):
        for cls in (n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(n, ast.ClassDef)):
            unread.update(f"{path.stem}.{cls.name}.{node.name}" for node in cls.body
                          if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                          and node.name not in read)
    assert not unread, f"public methods the package and the benchmark never read: {sorted(unread)}"
