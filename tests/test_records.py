"""The immutable value types: construction, immutability, value equality
within one type, hash, repr, and the refusals made at construction.
Importing the command line loads neither dataclasses nor inspect."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import shq
from shq.blowup import SurfaceRing
from shq.gw import TauTable
from shq.linalg import CharPoly
from shq.localization import WeightVector
from shq.novikov import GradingContext, Novikov, QQ
from shq.pipeline import Diagnostic, PartialFacts, Regime, ShResult, ZeroRing, compute_sh
from shq.ring import RingElement, RingPresentation

zero, one, t = Novikov.zero(QQ), Novikov.one(QQ), Novikov.t(QQ)


def line_presentation():
    """Lambda[w]/(w^2 - t) at N = 2, built afresh on each call."""
    return RingPresentation("omega", (-t, zero, one), GradingContext(2))


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
    (WeightVector, lambda: {"alphas": (3, Fraction(1, 2), -7)}),
    (CharPoly, lambda: {"size": 2, "a": (zero, -t)}),
    (
        RingPresentation,
        lambda: {
            "generator": "omega",
            "relation": (-t, zero, one),
            "grading": GradingContext(2),
            "unknown_terms": (),
        },
    ),
    (RingElement, lambda: {"pres": line_presentation(), "coeffs": (one, t)}),
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
    by_position, by_keyword = cls(*kw.values()), cls(**kw)
    for name, value in kw.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword


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


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equal_values_compare_and_hash_equal(cls, fields):
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_values_differ():
    assert GradingContext(2) != GradingContext(3)
    assert Diagnostic("a", True, "b") != Diagnostic("a", True, "c")
    assert WeightVector((1, 2)) != WeightVector((2, 1))
    assert TauTable(3, (2, 5, 2)) != TauTable(3, (2, 5, 3))
    pres = line_presentation()
    other = RingPresentation("omega", (t, zero, one), GradingContext(2))
    assert pres != other
    assert RingElement(pres, (one, t)) != RingElement(pres, (one, zero))
    assert RingElement(pres, (one, t)) != RingElement(other, (one, t))


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
    assert repr(WeightVector((1, -2))) == "WeightVector(alphas=(1, -2))"


def test_presentation_ignores_its_core():
    a, b = line_presentation(), line_presentation()
    assert a._core_at_one is not b._core_at_one
    assert a == b and hash(a) == hash(b)
    assert "_core_at_one" not in repr(a)
    assert repr(a) == (
        "RingPresentation(generator='omega', relation="
        f"{(-t, zero, one)!r}, grading=GradingContext(N=2), unknown_terms=())"
    )
    object.__setattr__(b, "_core_at_one", None)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_surface_ring_refuses_an_asymmetric_form():
    with pytest.raises(ValueError, match="symmetric"):
        SurfaceRing(("a", "b"), ((0, 1), (2, 0)), (0, 0), 4)


@pytest.mark.parametrize(
    "alphas",
    [(1, True, 3), (1, 2.0, 3), (1, 2, 1), (Fraction(1, 2), Fraction(2, 4))],
    ids=["bool", "float", "repeated", "repeated_fraction"],
)
def test_weight_vector_refusals(alphas):
    with pytest.raises(ValueError):
        WeightVector(alphas)


def test_ring_element_refuses_the_wrong_length():
    pres = line_presentation()
    for coeffs in ((one,), (one, zero, zero)):
        with pytest.raises(ValueError, match="rank-2"):
            RingElement(pres, coeffs)


def test_presentation_refuses_a_non_monic_relation():
    for relation in ((-t, zero, one + one), (-t, zero, zero), ()):
        with pytest.raises(ValueError, match="monic"):
            RingPresentation("omega", relation, GradingContext(2))


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
