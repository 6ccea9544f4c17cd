"""Novikov scalar arithmetic: canonical form, ring axioms, units, grading.

The package never divides a Novikov scalar; the unit inverse the oracles
use (oracles.unit_inverse) is tested here."""

import random
from fractions import Fraction

import pytest

from oracles import unit_inverse
from shq.linalg import LambdaMatrix
from shq.novikov import (
    F2,
    GradingContext,
    Novikov,
    QQ,
    term_str,
)


def random_scalar(rng, field):
    def coeff():
        if field is QQ:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.randint(0, 1)

    num = {rng.randint(-3, 5): coeff() for _ in range(rng.randint(0, 3))}
    return Novikov(field, {e: field.of(c) for e, c in num.items()})


# -- ground values -----------------------------------------------------


OF_CASES = [
    (QQ, 5, 5, int),
    (QQ, -7, -7, int),
    (QQ, True, 1, int),
    (QQ, False, 0, int),
    (QQ, Fraction(6, 3), 2, int),
    (QQ, Fraction(-1, 3), Fraction(-1, 3), Fraction),
    (F2, 5, 1, int),
    (F2, -7, 1, int),
    (F2, -4, 0, int),
    (F2, True, 1, int),
    (F2, False, 0, int),
    (F2, Fraction(6, 3), 0, int),
    (F2, Fraction(-1, 3), 1, int),
    (F2, Fraction(4, 3), 0, int),
]


@pytest.mark.parametrize(
    "field, x, value, kind", OF_CASES, ids=[f"{f.kind}-{x!r}" for f, x, _, _ in OF_CASES]
)
def test_of_gives_the_ground_value(field, x, value, kind):
    got = field.of(x)
    assert got == value and type(got) is kind


def test_of_refusals():
    with pytest.raises(ZeroDivisionError):
        F2.of(Fraction(1, 2))
    for field in (QQ, F2):
        for x in (0.5, 1.0, "1", None):
            with pytest.raises(TypeError):
                field.of(x)
    # the constructor reads every coefficient through of
    with pytest.raises(TypeError):
        Novikov(QQ, {0: 0.5})
    with pytest.raises(ZeroDivisionError):
        Novikov(F2, {1: Fraction(3, 4)})


def test_coefficients_are_ground_values():
    a = Novikov(QQ, {0: Fraction(4, 2), 1: Fraction(1, 2), 2: True})
    assert a.num == {0: 2, 1: Fraction(1, 2), 2: 1}
    assert [type(c) for c in a.num.values()] == [int, Fraction, int]
    b = Novikov(F2, {0: 3, 1: Fraction(-1, 3), 2: -2})
    assert b.num == {0: 1, 1: 1} and all(type(c) is int for c in b.num.values())
    assert (-Novikov.t(F2)).num == {1: 1}
    three_t = Novikov.t(QQ) * Fraction(3, 1)
    assert three_t.num == {1: 3} and type(three_t.num[1]) is int


# -- canonical form ----------------------------------------------------


def test_zero_representation():
    z = Novikov.zero(QQ)
    assert z.num == {}
    assert not z
    assert z == 0


def test_t_plus_t():
    t = Novikov.t(QQ)
    assert t + t == Novikov.monomial(QQ, 2, 1)
    assert str(t + t) == "2*t"


def test_gf2_t_plus_t_is_zero():
    t = Novikov.t(F2)
    assert not (t + t)
    assert t + t == Novikov.zero(F2)


def test_invert_constant():
    c = Novikov.constant(QQ, -3)
    assert str(unit_inverse(c)) == "-1/3"
    assert c * unit_inverse(c) == 1
    assert unit_inverse(Novikov.t(F2, 2)) == Novikov.t(F2, -2)


def test_invert_one_plus_t():
    a = Novikov.one(QQ) + Novikov.t(QQ)
    with pytest.raises(ArithmeticError):
        unit_inverse(a)


def test_denominator_t_powers_absorbed():
    # t is a unit: multiplying by its inverse powers shifts the exponents
    t = Novikov.t(QQ)
    assert Novikov.t(QQ, 2) * unit_inverse(Novikov.t(QQ, 3)) == Novikov.t(QQ, -1)
    assert (t + t ** 3) * unit_inverse(t) == Novikov.one(QQ) + t ** 2
    assert unit_inverse(Novikov.monomial(QQ, 4, -2)) == Novikov.monomial(QQ, Fraction(1, 4), 2)


def test_recanonicalise_is_identity():
    rng = random.Random(7)
    for field in (QQ, F2):
        for _ in range(300):
            a = random_scalar(rng, field)
            # a zero coefficient is dropped, never stored
            again = Novikov(field, {**a.num, 9: 0})
            assert again.num == a.num and again == a
            assert all(again.num.values())


# -- ring axioms -------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_field_axioms_random(field):
    """The ring axioms, and inverses of exactly the units c*t^d."""
    rng = random.Random(42 if field is QQ else 43)
    one = Novikov.one(field)
    zero = Novikov.zero(field)
    for _ in range(1000):
        a = random_scalar(rng, field)
        b = random_scalar(rng, field)
        c = random_scalar(rng, field)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if len(a.num) == 1:
            assert a * unit_inverse(a) == one
        elif a:
            with pytest.raises(ArithmeticError):
                unit_inverse(a)


def test_gf2_self_negation():
    rng = random.Random(5)
    for _ in range(200):
        a = random_scalar(rng, F2)
        assert -a == a
        assert a + a == Novikov.zero(F2)


def test_powers():
    # only non-negative powers: nothing here inverts a scalar
    t = Novikov.t(QQ)
    u = Novikov.monomial(QQ, -2, 3)
    assert u ** 0 == Novikov.one(QQ)
    assert u ** 3 == Novikov.monomial(QQ, -8, 9)
    assert (t + 1) ** 2 == t * t + t + t + 1
    with pytest.raises(TypeError):
        t ** -2


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Novikov.t(QQ) + Novikov.t(F2)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        unit_inverse(Novikov.zero(QQ))
    with pytest.raises(ZeroDivisionError):
        unit_inverse(Novikov.zero(F2))


# -- grading -----------------------------------------------------------


def test_monomial_degree():
    # a monomial c*t^d reports (c, d); t has degree 2N, so its
    # cohomological degree is 2*N*d
    assert Novikov.monomial(QQ, 5, 2).monomial_parts() == (5, 2)
    assert Novikov.one(QQ).monomial_parts() == (1, 0)
    assert Novikov.zero(QQ).monomial_parts() is None
    assert (Novikov.one(QQ) + Novikov.t(QQ)).monomial_parts() is None


def test_monomial_degree_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        a = Novikov.monomial(QQ, Fraction(rng.randint(1, 9)), rng.randint(-3, 4))
        b = Novikov.monomial(QQ, Fraction(rng.randint(1, 9)), rng.randint(-3, 4))
        (ca, da), (cb, db) = a.monomial_parts(), b.monomial_parts()
        assert (a * b).monomial_parts() == (ca * cb, da + db)


def test_grading_context_cy():
    # N = 0: t has degree 0, so a matrix of weight 1 holds constants on
    # the superdiagonal, and nothing may sit elsewhere
    mat = LambdaMatrix(QQ, GradingContext(0), [{1: 3}, {}])
    assert mat.entries[0][1] == Novikov.constant(QQ, 3)
    with pytest.raises(ValueError):
        LambdaMatrix(QQ, GradingContext(0), [{0: 1}, {}])


# -- rendering ---------------------------------------------------------


def test_str_ascending_exponents():
    a = Novikov.monomial(QQ, 3, 2) + Novikov.constant(QQ, -1) + Novikov.t(QQ)
    assert str(a) == "-1 + t + 3*t^2"


def test_str_negative_and_fraction_coeffs():
    a = Novikov.monomial(QQ, Fraction(-1, 3), 1) + Novikov.monomial(QQ, -2, 3)
    assert str(a) == "-1/3*t - 2*t^3"


def test_int_and_fraction_built_scalars_print_alike():
    for num in ({0: 1, 1: -2}, {-1: -1, 2: 3}, {0: -1, 1: -1, 3: -5}):
        a = Novikov(QQ, num)
        b = Novikov(QQ, {e: Fraction(c) for e, c in num.items()})
        assert a == b and str(a) == str(b) and repr(a) == repr(b)
    assert str(Novikov(QQ, {0: 1, 1: -2})) == "1 - 2*t"
    assert str(Novikov(QQ, {-1: -1, 2: 3})) == "-t^-1 + 3*t^2"
    a, b = Novikov(F2, {0: 1, 1: -1}), Novikov(F2, {0: Fraction(1), 1: Fraction(-1, 3)})
    assert a == b and str(a) == str(b) == "1 + t"


def test_str_gf2():
    a = Novikov.one(F2) + Novikov.t(F2, 2)
    assert str(a) == "1 + t^2"


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_term_str_renders_a_monomial_as_str(field):
    coeffs = [1, -1, 2, -7, 10**30, Fraction(1, 3), Fraction(-5, 2), Fraction(6, 3)]
    for c in map(field.of, coeffs if field is QQ else coeffs[:6]):
        for d in (-2, -1, 0, 1, 2, 13):
            if c:
                assert term_str(c, d) == str(Novikov.monomial(field, c, d))
    assert term_str("?", 0) == "?" and term_str("?", 1) == "?*t"
    assert term_str("?", 3) == "?*t^3"


def test_hash_consistency():
    t = Novikov.t(QQ)
    a = (Novikov.one(QQ) - t) * (Novikov.one(QQ) + t) + t ** 2 + t
    b = Novikov(QQ, {0: Fraction(1), 1: Fraction(1), 2: Fraction(0)})
    assert a == b and hash(a) == hash(b)
