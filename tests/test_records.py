"""The immutable value types against the frozen dataclasses they replace.

Every value type of the package is a ``theta.Record``.  Those in FIELDS
must behave as ``@dataclass(frozen=True)`` did: the same fields in the
same order, ``==`` and ``hash`` over the field tuple (same class only),
the repr ``Name(field=value, ...)``, no assignment or deletion after
construction, and pickle/copy/deepcopy round trips.  The reference for
each sample is a frozen dataclass built here with the same name and
fields.  The types in OWN keep a constructor, ``==``, ``hash`` or repr of
their own; they share the immutability and round-trip tests, and their
own semantics are pinned in their table.
"""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import pytest

from nctorus import lattice, loops, realization, traces
from nctorus.algebra import Element, GaussRational, Monomial, PhaseScalar, parse_element, parse_phase
from nctorus.theta import Record, ThetaParam, parse_theta

GOLDEN = ThetaParam.preset("golden")
SQRT2 = ThetaParam.preset("sqrt2")

# The dataclass fields of each type, in order, as they were declared.
FIELDS = {
    ThetaParam: "cf_terms name interval",
    lattice.MembershipDecision: "member reason coordinates genus trace vector",
    lattice.QuantizationReport: "ok slots",
    lattice.GeneratorSpec: "count genus trace vector",
    lattice.SynthesisRecipe: "generators flat_trace",
    realization.TraceValue: "a b",
    realization.ApproximantCyclic: "k p q",
    realization.OrbitFlat: "leaf",
    realization.FlatCert: "target k n m low high a b legs",
    realization.CyclicCert: "target flat",
    realization.SemicyclicCert: "mode target inner",
    realization.SemiflatCert: "target inner",
    realization.EmbeddingLeg: "m1 m2 n_shift",
    realization.FourierInvariantCert: "target squares legs k branch",
    realization.ReflectedCert: "target inner",
    realization.VerificationReport: "ok failures",
    traces.T2Vector: "tau phi00 phi01 phi10 phi11",
    traces.T4Vector: "tau psi10 psi11 psi20 psi21 psi22",
    traces.RelationReport: "ok failed witness",
    traces.TwistDescriptor: "functional holds twist",
    loops.BuildGates: "square_residual adjoint_residual flip_residual trace_error",
    loops.InvariantReport: "tau raw rounded",
}


def _records(value, out):
    """Every Record reachable from value through fields, tuples and lists."""
    if isinstance(value, Record):
        out.setdefault(type(value), []).append(value)
        for f in value._fields:
            _records(getattr(value, f), out)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _records(v, out)
    return out


def _samples():
    roots = [
        GOLDEN,
        parse_theta("0.6180339887"),
        lattice.KScalar(),
        lattice.parse_kscalar("1/2+t-3i+2ti"),
        lattice.decompose(lattice.parse_chern("(2t;0,0;1,1,2)")),
        lattice.decompose(lattice.parse_chern("(4+4t;0,0;0,2,0)")),
        lattice.semiflat_membership(lattice.parse_chern("(2t;0,0;1,1,2)"), GOLDEN),
        lattice.semiflat_membership(lattice.parse_chern("(1;0,0;0,0,0)"), GOLDEN),
        lattice.semiflat_membership(lattice.parse_chern("(4+2t;0,0;-1,-1,-2)"), GOLDEN),
        lattice.quantization_check(lattice.parse_chern("(1;0,0;0,0,1/2)")),
        lattice.quantization_check(lattice.parse_chern("(2t;0,0;1,1,2)")),
        lattice.synthesis_recipe(lattice.parse_chern("(2t;0,0;1,1,2)"), GOLDEN),
        lattice.synthesis_recipe(lattice.parse_chern("(4+2t;0,0;-1,-1,-2)"), GOLDEN),
    ]
    for kind, trace, theta in (
        ("flat", "8t-4", GOLDEN),
        ("cyclic", "2t-1", GOLDEN),
        ("semicyclic", "t", SQRT2),
        ("semicyclic", "2t-1", GOLDEN),
        ("semiflat", "4t-2", GOLDEN),
        ("semiflat", "2-2t", GOLDEN),
        ("semicyclic", "1-t", GOLDEN),
        ("fourier_invariant", "3t-1", SQRT2),
        ("fourier_invariant", "-t+1", SQRT2),
    ):
        cert = realization.realize(kind, realization.parse_trace(trace), theta)
        roots += [cert, realization.verify_certificate(cert, theta)]
    bad = realization.certificate_from_json(
        dict(realization.certificate_to_json(realization.realize("flat", realization.parse_trace("8t-4"), GOLDEN)), k=2)
    )
    roots.append(realization.verify_certificate(bad, GOLDEN))
    for text in ("L^4 U^2 V^-1 + 1/2 + U V", "(1+i) V^2"):
        x = parse_element(text)
        roots += [traces.chern_T2(x), traces.chern_T4(x)]
    roots += [traces.relation_check(x), traces.RelationReport(False, "psi20 = phi00", Monomial(1, 2))]
    roots += [traces.twist_discovery("tau", max_exp=1), traces.twist_discovery("psi10", max_exp=1)]
    for r, s, flip in ((6, -3, True), (2, 0, False)):
        e, gates = loops._build_projection(r, s, GOLDEN, flip, 256, None, 0.0)
        roots += [gates, loops.loop_invariants(e, GOLDEN, r)]
    found = {}
    for root in roots:
        _records(root, found)
    return found


SAMPLES = _samples()


def _numerators(fractions):
    """The Fractions as integer numerators over their least common denominator."""
    den = math.lcm(*(f.denominator for f in fractions))
    return tuple(f.numerator * (den // f.denominator) for f in fractions), den


class Own(NamedTuple):
    """A value type that keeps parts of its own: its fields, two samples with
    their reprs, a rebuild from public parts, and the hash it has always had
    (None: equal only to itself, hashed by identity)."""

    fields: str
    samples: list
    reprs: Optional[list]
    rebuild: Callable
    value_hash: Optional[Callable]


OWN = {
    GaussRational: Own(
        "re im", [GaussRational(Fraction(1, 2), 3), GaussRational(0, Fraction(-2, 3))],
        ["GaussRational(1/2, 3)", "GaussRational(0, -2/3)"],
        lambda x: GaussRational(x.re, x.im), lambda x: hash((x.re, x.im)),
    ),
    PhaseScalar: Own(
        "_c _d", [PhaseScalar.lam(3), parse_phase("1/2 - 2/3 i L^-2")],
        ["PhaseScalar({3: GaussRational(1, 0)})",
         "PhaseScalar({0: GaussRational(1/2, 0), -2: GaussRational(0, -2/3)})"],
        lambda x: PhaseScalar(dict(x.items())), lambda x: hash((x._d, frozenset(x._c.items()))),
    ),
    Element: Own(
        "_t _d", [parse_element("(1+i) L^2 U V^-1 + 1/2"), parse_element("U^2 - 3/4 V")],
        ["Element('(1/2) + (1+1i) L^2 U V^-1')", "Element('(-3/4) V + (1) U^2')"],
        lambda x: Element(dict(x.terms())), lambda x: hash((x._d, frozenset(x._t.items()))),
    ),
    lattice.KScalar: Own(
        "_n _d", [lattice.KScalar(), lattice.parse_kscalar("2/4+t-3i+4/2ti")],
        ["KScalar(a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1))",
         "KScalar(a=Fraction(1, 2), b=Fraction(1, 1), c=Fraction(-3, 1), d=Fraction(2, 1))"],
        lambda x: lattice.KScalar(x.a, x.b, x.c, x.d), lambda x: hash((x._n, x._d)),
    ),
    lattice.ChernVector: Own(
        "_n _d", [lattice.parse_chern("(2t;0,0;1,1,2)"), lattice.parse_chern("(1/3; 1/2-1/2i, 0; 0, 0, 3ti)")],
        ["ChernVector(tau=KScalar(a=Fraction(0, 1), b=Fraction(2, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi10=KScalar(a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi11=KScalar(a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi20=KScalar(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi21=KScalar(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi22=KScalar(a=Fraction(2, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)))",
         "ChernVector(tau=KScalar(a=Fraction(1, 3), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi10=KScalar(a=Fraction(1, 2), b=Fraction(0, 1), c=Fraction(-1, 2), d=Fraction(0, 1)), "
         "psi11=KScalar(a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi20=KScalar(a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi21=KScalar(a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(0, 1)), "
         "psi22=KScalar(a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1), d=Fraction(3, 1)))"],
        lambda x: lattice.ChernVector(*x.slots()), lambda x: hash((x._n, x._d)),
    ),
    lattice.Genus: Own(
        "_n _d", [lattice.Genus(1, 1, 2), lattice.Genus(Fraction(1, 2), 0, Fraction(-6, 2))],
        ["Genus(g20=Fraction(1, 1), g21=Fraction(1, 1), g22=Fraction(2, 1))",
         "Genus(g20=Fraction(1, 2), g21=Fraction(0, 1), g22=Fraction(-3, 1))"],
        lambda x: lattice.Genus(*x.as_tuple()), lambda x: hash((x._n, x._d)),
    ),
    lattice.DecomposeResult: Own(
        "status coordinates _n _d",
        [lattice.decompose(lattice.parse_chern("(2t;0,0;1,1,2)")), lattice.decompose(lattice.parse_chern("(1;0,0;0,0,0)"))],
        ["DecomposeResult(status='ok', coordinates=K0Coordinates(n1=0, n2=0, n3=0, n4=0, n5=0, n6=0, n7=1, n8=0, "
         "n9=1), rational=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
         "Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)))",
         "DecomposeResult(status='non-integer', coordinates=None, rational=(Fraction(1, 4), Fraction(1, 4), "
         "Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(-1, 2), Fraction(1, 4), Fraction(0, 1), "
         "Fraction(-1, 4)))"],
        lambda x: lattice.DecomposeResult(x.status, x.coordinates, *_numerators(x.rational)),
        lambda x: hash((x.status, x.coordinates, x._n, x._d)),
    ),
    loops.LoopElement: Own(
        "beta coeffs n", [loops.LoopElement(0.25, {0: [0.5] * 256, 1: [1] * 256}), loops.LoopElement(0.5, {}, 512)],
        None, lambda x: loops.LoopElement(x.beta, {k: f.copy() for k, f in x.coeffs.items()}, x.n), None,
    ),
}


def _concrete_records():
    """Every Record subclass of the package that names fields."""
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub._fields and sub.__module__.startswith("nctorus."):
                found.add(sub)
    return found


def test_every_value_type_is_sampled_twice_with_different_values():
    assert _concrete_records() == set(FIELDS) | set(OWN)
    assert not set(FIELDS) & set(OWN)
    # PhaseScalar is reached through the character vectors, the lattice values through the
    # lattice records, DecomposeResult as a root; OWN samples them
    assert set(SAMPLES) == set(FIELDS) | {PhaseScalar, lattice.KScalar, lattice.ChernVector, lattice.Genus,
                                          lattice.DecomposeResult}
    for cls, objs in SAMPLES.items():
        assert len(set(map(repr, objs))) >= 2, cls.__name__
    for cls, own in OWN.items():
        assert len(set(map(repr, own.samples))) == 2, cls.__name__


def _reference(obj):
    """A frozen dataclass instance with obj's class name, fields and values."""
    cls = type(obj)
    ref_cls = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return ref_cls(*(getattr(obj, f) for f in cls._fields))


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


CASES = [(cls, i) for cls in FIELDS for i in range(2)]
ALL_CASES = CASES + [(cls, i) for cls in OWN for i in range(2)]


def _sample(cls, i):
    return OWN[cls].samples[i] if cls in OWN else SAMPLES[cls][i]


def _same_value(a, b):
    """a and b hold the same fields; by == except for the types equal only to themselves."""
    if type(a) in OWN and OWN[type(a)].value_hash is None:
        return a.to_json() == b.to_json()
    return a == b and not (a != b) and _hash(a) == _hash(b)


@pytest.mark.parametrize("cls, i", CASES, ids=[f"{c.__name__}-{i}" for c, i in CASES])
def test_value_type_behaves_as_the_frozen_dataclass(cls, i):
    obj = SAMPLES[cls][i]
    assert cls._fields == tuple(FIELDS[cls].split())
    ref = _reference(obj)
    assert repr(obj) == repr(ref)
    assert _hash(obj) == _hash(ref)
    # equality holds within the class only
    assert obj.__eq__(ref) is NotImplemented
    assert obj != ref
    assert obj.__eq__(tuple(getattr(obj, f) for f in cls._fields)) is NotImplemented
    # a value built from the same fields, by position or by name, is equal
    values = [getattr(obj, f) for f in cls._fields]
    for twin in (cls(*values), cls(**dict(zip(cls._fields, values)))):
        assert twin == obj and not (twin != obj)
        assert _hash(twin) == _hash(obj)
    # a sample with other values is not
    other = next(o for o in SAMPLES[cls] if repr(o) != repr(obj))
    assert obj != other and not (obj == other)
    # and every field takes part: swapping in another sample's value of
    # one field alone breaks equality
    for k, f in enumerate(cls._fields):
        donor = next((o for o in SAMPLES[cls] if repr(getattr(o, f)) != repr(values[k])), None)
        if donor is not None:
            assert cls(*values[:k], getattr(donor, f), *values[k + 1:]) != obj, f


@pytest.mark.parametrize("cls, i", ALL_CASES, ids=[f"{c.__name__}-{i}" for c, i in ALL_CASES])
def test_value_type_is_immutable(cls, i):
    obj = _sample(cls, i)
    for f in cls._fields:
        before = getattr(obj, f)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(obj, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(obj, f)
        assert getattr(obj, f) is before
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls, i", ALL_CASES, ids=[f"{c.__name__}-{i}" for c, i in ALL_CASES])
def test_value_type_pickles_and_copies(cls, i):
    obj = _sample(cls, i)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls
        assert _same_value(twin, obj)
        assert repr(twin) == repr(obj)


OWN_CASES = [(cls, i) for cls in OWN for i in range(2)]


@pytest.mark.parametrize("cls, i", OWN_CASES, ids=[f"{c.__name__}-{i}" for c, i in OWN_CASES])
def test_own_value_type_keeps_its_equality_hash_and_repr(cls, i):
    own, obj = OWN[cls], OWN[cls].samples[i]
    other = OWN[cls].samples[1 - i]
    assert cls._fields == tuple(own.fields.split())
    twin = own.rebuild(obj)
    assert type(twin) is cls and twin is not obj
    assert obj == obj and not (obj != obj) and obj != other
    assert obj.__eq__(tuple(getattr(obj, f) for f in cls._fields)) is NotImplemented
    if own.value_hash is None:
        # numpy fields: equal only to itself, hashed by identity
        assert twin != obj and not (twin == obj)
        assert hash(obj) == object.__hash__(obj)
        assert _same_value(twin, obj)
    else:
        assert twin == obj and not (twin != obj)
        assert hash(obj) == hash(twin) == own.value_hash(obj)
        assert repr(obj) == own.reprs[i]


def test_constructor_argument_errors():
    MD = lattice.MembershipDecision
    assert MD(False, reason="x") == MD(False, "x", None, None, None)
    assert realization.VerificationReport(True).failures == ()
    with pytest.raises(TypeError, match="missing required argument: 'member'"):
        MD()
    with pytest.raises(TypeError, match="missing required argument: 'ok'"):
        realization.VerificationReport(failures=())
    with pytest.raises(TypeError, match="too many or repeated"):
        MD(True, None, None, None, None, None, None)
    with pytest.raises(TypeError, match="too many or repeated"):
        MD(True, "x", reason="y")
    with pytest.raises(TypeError, match="unexpected argument 'bogus'"):
        MD(True, bogus=1)


def test_coercing_constructors():
    assert lattice.KScalar(1, 2).a == Fraction(1) and type(lattice.KScalar(1, 2).b) is Fraction
    g = lattice.Genus(2, 0, Fraction(4, 2))
    assert all(type(x) is Fraction for x in g.as_tuple())
    with pytest.raises(ValueError):
        ThetaParam(())
    with pytest.raises(ValueError):
        ThetaParam((1, 0))


def test_cached_properties_survive_immutability_and_pickle():
    th = parse_theta("cf:1,2,3,4")
    assert th._bracket == th._bracket  # cached on the instance
    twin = pickle.loads(pickle.dumps(th))
    assert twin == th and twin._bracket == th._bracket and twin.reflect() == th.reflect()


def test_a_solved_chern_vector_is_the_value_of_a_fresh_one():
    # the lattice solve is kept on the vector that was solved, outside its fields
    text = "(-2+4t; 0, 0; -2, 10, 6)"
    solved, fresh = lattice.parse_chern(text), lattice.parse_chern(text)
    assert lattice.synthesis_recipe(solved, GOLDEN) and lattice.decompose(solved)
    assert "_solution" in vars(solved) and not vars(fresh)
    assert solved == fresh and hash(solved) == hash(fresh) and repr(solved) == repr(fresh)
    assert str(solved) == str(fresh) and pickle.dumps(solved) == pickle.dumps(fresh)
    for twin in (pickle.loads(pickle.dumps(solved)), copy.copy(solved), copy.deepcopy(solved)):
        assert type(twin) is lattice.ChernVector and twin == fresh and hash(twin) == hash(fresh)
        assert repr(twin) == repr(fresh) and not vars(twin)  # no solve is pickled or copied
