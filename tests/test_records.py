"""The immutable value types: construction, immutability, value equality
within one type, hash, repr, copy and pickle, and the refusals made at
construction.  Importing the command line loads neither dataclasses nor
inspect."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import shq
from shq.blowup import SurfaceRing
from shq.gw import TauTable
from shq.linalg import CharPoly
from shq.novikov import F2, GradingContext, Novikov, QQ
from shq.pipeline import (
    Diagnostic, PartialFacts, Regime, ShResult, ZeroRing, build_r_matrix, compute_sh,
    result_to_dict,
)
from shq.ring import RingElement, RingPresentation

from oracles import presentation

zero, one, t = Novikov.zero(QQ), Novikov.one(QQ), Novikov.monomial(QQ, 1, 1)


def line_presentation():
    """Lambda[w]/(w^2 - t) at N = 2, built afresh on each call."""
    return presentation("omega", (-t, zero, one), 2)


def _result_fields():
    r = compute_sh(2, 1)
    return {f: getattr(r, f) for f in ShResult.__slots__}


# each record type with its fields in declaration order
RECORDS = [
    (GradingContext, lambda: {"N": 2}),
    (TauTable, lambda: {"n": 3, "coeffs": (2, 5, 2)}),
    (
        SurfaceRing,
        lambda: {"labels": ("h",), "form": ((1,),), "canonical": (-3,), "euler": 3},
    ),
    (CharPoly, lambda: {"field": QQ, "grading": GradingContext(1), "values": (0, -1)}),
    (
        RingPresentation,
        lambda: {
            "generator": "omega",
            "field": QQ,
            "grading": GradingContext(2),
            "values": (-1, 0, 1),
            "unknown_terms": (),
        },
    ),
    (RingElement, lambda: {"pres": line_presentation(), "values": (0, 1), "weight": 3}),
    (Regime, lambda: {"kind": "monotone", "exact_mode": True, "description": "N = 2"}),
    (ZeroRing, lambda: {"reason": "c1 is nilpotent"}),
    (
        PartialFacts,
        lambda: {
            "nonzero": True,
            "rank_multiple_of": 2,
            "possible_ranks": (2, 4),
            "lead_index": 2,
            "lead_coefficient": t,
            "undetermined": ((3, 0, 2),),
        },
    ),
    (Diagnostic, lambda: {"name": "lead_coefficient", "passed": True, "detail": "ok"}),
    (ShResult, _result_fields),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, fields):
    kw = fields()
    assert list(kw) == list(cls._fields)
    first, *rest = kw
    by_position, by_keyword = cls(*kw.values()), cls(**kw)
    mixed = cls(kw[first], **{name: kw[name] for name in rest})
    for name, value in kw.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
        assert getattr(mixed, name) is value
    assert by_position == by_keyword == mixed
    # derived slots are bound alike
    for name in cls.__slots__:
        assert getattr(by_position, name) == getattr(by_keyword, name) == getattr(mixed, name)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_wrong_fields_are_refused(cls, fields):
    kw = fields()
    values = list(kw.values())
    first = next(iter(kw))
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one positional argument too many
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in kw.items() if name != first})  # missing
    with pytest.raises(TypeError):
        cls(values[0], **kw)  # the first field by position and by keyword
    with pytest.raises(TypeError):
        cls(**kw, extra=1)  # unknown


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_immutable(cls, fields):
    kw = fields()
    rec = cls(**kw)
    for name, value in kw.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert all(getattr(rec, name) is value for name, value in kw.items())


def test_fields_and_matrices_are_immutable():
    r = build_r_matrix(3, 1)
    for obj, name, value in ((QQ, "kind", "GF2"), (F2, "characteristic", 0),
                             (r, "weight", 5), (r, "rows", ())):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert (QQ.kind, F2.characteristic, r.weight, len(r.rows)) == ("Q", 2, 1, 4)


def copies(x) -> list:
    """x through copy.copy, copy.deepcopy and a pickle round trip."""
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_copy_and_pickle(cls, fields):
    rec = cls(**fields())
    for y in copies(rec):
        assert type(y) is cls and y == rec and hash(y) == hash(rec) and repr(y) == repr(rec)


def test_scalars_fields_and_matrices_copy_and_pickle():
    # the derived slots, characteristic and size, are rebuilt
    r = build_r_matrix(5, 4)
    assert r.unknown
    for x in (t, Novikov.monomial(F2, 1, -2), QQ, F2, r):
        for y in copies(x):
            assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)
    assert [y.characteristic for y in copies(F2)] == [2] * 3
    assert all(y.size == 6 and y.unknown == r.unknown for y in copies(r))


@pytest.mark.parametrize(
    "m, n, field",
    [(3, 1, QQ), (5, 2, QQ), (3, 3, QQ), (4, 4, F2), (6, 7, QQ)],
    ids=["3-1-Q", "5-2-Q", "3-3-Q", "4-4-GF2", "6-7-Q"],
)
def test_results_copy_and_pickle(m, n, field):
    res = compute_sh(m, n, field)
    for y in copies(res):
        assert y == res and result_to_dict(y) == result_to_dict(res)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equal_values_compare_and_hash_equal(cls, fields):
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_values_differ():
    assert GradingContext(2) != GradingContext(3)
    assert Diagnostic("a", True, "b") != Diagnostic("a", True, "c")
    assert TauTable(3, (2, 5, 2)) != TauTable(3, (2, 5, 3))
    pres = line_presentation()
    other = presentation("omega", (t, zero, one), 2)
    assert pres != other
    assert RingElement(pres, (0, 1), 3) != RingElement(pres, (0, 1), 1)
    assert RingElement(pres, (0, 1), 3) != RingElement(pres, (1, 0), 0)
    assert RingElement(pres, (0, 1), 3) != RingElement(other, (0, 1), 3)
    assert CharPoly(QQ, GradingContext(1), (0, -1)) != CharPoly(QQ, GradingContext(2), (0, -1))


def test_different_types_never_equal():
    records = [cls(**fields()) for cls, fields in RECORDS]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) == (i == j)
    # same field values, different types
    assert GradingContext(2) != ZeroRing(2)
    assert GradingContext.__eq__(GradingContext(2), ZeroRing(2)) is NotImplemented
    assert Diagnostic("a", True, "b") != Regime("a", True, "b")
    assert GradingContext(2) != 2 and GradingContext(2) != (2,)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_repr_has_the_dataclass_form(cls, fields):
    kw = fields()
    args = ", ".join(f"{name}={value!r}" for name, value in kw.items())
    assert repr(cls(**kw)) == f"{cls.__name__}({args})"


def test_repr_examples():
    assert repr(GradingContext(2)) == "GradingContext(N=2)"
    assert (
        repr(Diagnostic("lead_coefficient", False, "x"))
        == "Diagnostic(name='lead_coefficient', passed=False, detail='x')"
    )


def test_presentation_ignores_its_core(constructions):
    # the core, the companion's columns, follows from the stored values;
    # the Novikov views relation, coeffs and a are built on each call, and
    # equality, hash and repr build none
    a, b = (RingPresentation("omega", QQ, GradingContext(2), (-1, 0, 1)) for _ in range(2))
    relation = a.relation
    assert len(constructions) == 3 and relation == (-t, zero, one)
    constructions.clear()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == (
        "RingPresentation(generator='omega', field=CoefficientField(kind='Q'), "
        "grading=GradingContext(N=2), values=(-1, 0, 1), unknown_terms=())"
    )
    object.__setattr__(b, "_companion", None)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    x, y = RingElement(a, (0, 1), 3), RingElement(b, (0, 1), 3)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    p, q = (CharPoly(QQ, GradingContext(1), (0, -1)) for _ in range(2))
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert constructions == []
    assert x.coeffs == (zero, t) and x.coeffs == y.coeffs
    assert p.a == (zero, Novikov.monomial(QQ, -1, 2)) and p.a == q.a
    assert repr(p) == (
        "CharPoly(field=CoefficientField(kind='Q'), grading=GradingContext(N=1), values=(0, -1))"
    )


def test_stored_values_are_normalized():
    # integral Fractions are stored as ints, GF(2) values as bits, and an
    # all-zero element has weight 0
    half = Fraction(1, 2)
    assert CharPoly(QQ, GradingContext(1), (Fraction(4, 2), half)).values == (2, half)
    assert type(CharPoly(QQ, GradingContext(1), [Fraction(3)]).values[0]) is int
    assert CharPoly(F2, GradingContext(1), (3, -2)).values == (1, 0)
    assert RingElement(line_presentation(), (0, 0), 5).weight == 0


def test_surface_ring_refuses_an_asymmetric_form():
    with pytest.raises(ValueError, match="symmetric"):
        SurfaceRing(("a", "b"), ((0, 1), (2, 0)), (0, 0), 4)


def test_list_fields_are_kept_as_tuples():
    # a caller's lists, nested ones included, are copied into tuples: the
    # value is hashable, cannot be changed past its checks, and equals the
    # value built from tuples
    terms = [(0, 2)]
    pres = RingPresentation("c", QQ, GradingContext(1), (0, 0, 1), terms)
    same = RingPresentation("c", QQ, GradingContext(1), (0, 0, 1), ((0, 2),))
    terms.append((1, 1))
    assert pres.unknown_terms == ((0, 2),) and type(pres.unknown_terms) is tuple
    assert pres == same and hash(pres) == hash(same)
    assert RingPresentation("c", QQ, GradingContext(1), (0, 0, 1), ([0, 2],)) == same
    surface = SurfaceRing(["h"], [[0]], [0], 1)
    assert surface == SurfaceRing(("h",), ((0,),), (0,), 1)
    assert hash(surface) == hash(SurfaceRing(("h",), ((0,),), (0,), 1))
    assert (surface.labels, surface.form, surface.canonical) == (("h",), ((0,),), (0,))
    assert all(type(f) is tuple for f in (surface.labels, surface.form, surface.form[0]))


def test_list_arguments_of_plain_records_are_stored_as_tuples():
    # Record.__init__ freezes every list argument, nested lists included,
    # also in the records with no __init__ of their own
    facts = PartialFacts(True, 2, [2, 4], 2, t, [[3, 0, 2]])
    same = PartialFacts(True, 2, (2, 4), 2, t, ((3, 0, 2),))
    assert facts == same and hash(facts) == hash(same)
    assert facts.undetermined == ((3, 0, 2),) and type(facts.undetermined[0]) is tuple
    table = TauTable(n=3, coeffs=[2, 5, 2])
    assert table == TauTable(3, (2, 5, 2)) and hash(table) == hash(TauTable(3, (2, 5, 2)))
    assert type(table.coeffs) is tuple
    rows = [[1], ([2],)]
    diagnostic = Diagnostic("x", True, rows)
    rows[0].append(3)
    assert diagnostic.detail == ((1,), ((2,),))


def test_ring_element_refuses_the_wrong_length():
    pres = line_presentation()
    for values in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="rank-2"):
            RingElement(pres, values, 0)


def test_ring_element_refuses_values_off_its_weight():
    # at N = 2 the coefficient of w^k has weight 2d + k: 1 and w mix parities
    with pytest.raises(ValueError, match="not homogeneous"):
        RingElement(line_presentation(), (1, 1), 0)


def test_presentation_refuses_a_non_monic_relation():
    for values in ((-1, 0, 2), (-1, 0, 0), ()):
        with pytest.raises(ValueError, match="monic"):
            RingPresentation("omega", QQ, GradingContext(2), values)


def test_char_poly_refuses_values_off_its_grading():
    # a_1 = c_1 * t^(1/2) at N = 2; at N = 0 no t-power gives a_1 weight 1
    for field, N in ((QQ, 2), (QQ, 0), (F2, 0)):
        with pytest.raises(ArithmeticError, match=f"does not fit grading N = {N}"):
            CharPoly(field, GradingContext(N), (1, 0))


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import shq.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "shq.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
