"""Novikov scalar arithmetic on the monomials c*t^d: canonical form, ring
axioms, the refusal of sums of two t-powers, units, grading.

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
    """A random monomial c*t^d, sometimes zero."""
    c = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if field is QQ else rng.randint(0, 1)
    return Novikov(field, c, rng.randint(-3, 5))


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
        Novikov(QQ, 0.5, 0)
    with pytest.raises(ZeroDivisionError):
        Novikov(F2, Fraction(3, 4), 1)


def test_a_non_integral_power_is_refused():
    # the power is read by operator.index, not truncated or parsed by int()
    for field, coeff, power in ((QQ, 1, 1.5), (QQ, 2, "3"), (F2, 1, 2.0), (QQ, 1, None)):
        with pytest.raises(TypeError):
            Novikov(field, coeff, power)
    # a zero scalar still ignores its power
    assert Novikov(QQ, 0, 1.5) == Novikov(QQ, 0, "3") == Novikov.zero(QQ)


def test_coefficients_are_ground_values():
    for c, want in ((Fraction(4, 2), 2), (Fraction(1, 2), Fraction(1, 2)), (True, 1)):
        a = Novikov(QQ, c, 1)
        assert a.coeff == want and type(a.coeff) is type(want)
    for c, want in ((3, 1), (Fraction(-1, 3), 1), (-2, 0)):
        b = Novikov(F2, c, 2)
        assert b.coeff == want and type(b.coeff) is int
    assert (-Novikov.monomial(F2, 1, 1)).coeff == 1
    three_t = Novikov.monomial(QQ, 1, 1) * Fraction(3, 1)
    assert (three_t.coeff, three_t.power) == (3, 1) and type(three_t.coeff) is int


# -- canonical form ----------------------------------------------------


def test_zero_representation():
    z = Novikov.zero(QQ)
    assert (z.coeff, z.power) == (0, 0)
    assert not z
    assert z == 0
    # a zero coefficient keeps no t-power
    assert Novikov(QQ, 0, 5) == z and Novikov(F2, 2, 3) == Novikov.zero(F2)


def test_t_plus_t():
    t = Novikov.monomial(QQ, 1, 1)
    assert t + t == Novikov.monomial(QQ, 2, 1)
    assert str(t + t) == "2*t"


def test_gf2_t_plus_t_is_zero():
    t = Novikov.monomial(F2, 1, 1)
    assert not (t + t)
    assert t + t == Novikov.zero(F2)


def test_invert_constant():
    c = Novikov.constant(QQ, -3)
    assert str(unit_inverse(c)) == "-1/3"
    assert c * unit_inverse(c) == 1
    assert unit_inverse(Novikov.monomial(F2, 1, 2)) == Novikov.monomial(F2, 1, -2)


def test_denominator_t_powers_absorbed():
    # t is a unit: multiplying by its inverse powers shifts the exponents
    t = Novikov.monomial(QQ, 1, 1)
    t2, t3 = Novikov.monomial(QQ, 1, 2), Novikov.monomial(QQ, 1, 3)
    assert t2 * unit_inverse(t3) == Novikov.monomial(QQ, 1, -1)
    assert (t + t) * (t + t) * (t + t) * unit_inverse(t) == Novikov.monomial(QQ, 8, 2)
    assert unit_inverse(Novikov.monomial(QQ, 4, -2)) == Novikov.monomial(QQ, Fraction(1, 4), 2)


def test_recanonicalise_is_identity():
    rng = random.Random(7)
    for field in (QQ, F2):
        for _ in range(300):
            a = random_scalar(rng, field)
            again = Novikov(field, a.coeff, a.power)
            assert again == a and hash(again) == hash(a)
            # a zero coefficient keeps no t-power
            assert Novikov(field, 0, a.power + 9) == Novikov.zero(field)
            assert (a - a).power == 0


# -- ring axioms -------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_field_axioms_random(field):
    """The ring axioms on monomials, products at any t-powers
    and sums at one, and inverses of exactly the nonzero ones."""
    rng = random.Random(42 if field is QQ else 43)
    one = Novikov.one(field)
    zero = Novikov.zero(field)
    for _ in range(1000):
        a, b, c = (random_scalar(rng, field) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * one == a
        # b and c moved to the t-power of a: every sum below is homogeneous
        b, c = (Novikov(field, x.coeff, a.power) for x in (b, c))
        d = random_scalar(rng, field)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert d * (a + b) == d * a + d * b
        assert a + zero == a
        assert a - a == zero
        if a:
            assert a * unit_inverse(a) == one


def test_sums_of_two_t_powers_are_refused():
    t, one = Novikov.monomial(QQ, 1, 1), Novikov.one(QQ)
    for build in (lambda: t + 1, lambda: one - t, lambda: Novikov.monomial(F2, 1, 1) + 1):
        with pytest.raises(ValueError, match="not homogeneous"):
            build()
    assert t + t == Novikov.monomial(QQ, 2, 1)
    assert t - t == 0 and not (t - t)
    assert 3 * t + (-3) * t == Novikov.zero(QQ)
    assert Novikov.monomial(F2, 1, 1) + Novikov.monomial(F2, 1, 1) == 0
    # zero has no t-power of its own, so it adds to any monomial
    assert Novikov.zero(QQ) + t == t + 0 == t - 0 == t


def test_gf2_self_negation():
    rng = random.Random(5)
    for _ in range(200):
        a = random_scalar(rng, F2)
        assert -a == a
        assert a + a == Novikov.zero(F2)


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Novikov.monomial(QQ, 1, 1) + Novikov.monomial(F2, 1, 1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        unit_inverse(Novikov.zero(QQ))
    with pytest.raises(ZeroDivisionError):
        unit_inverse(Novikov.zero(F2))


# -- grading -----------------------------------------------------------


def test_monomial_degree():
    # a monomial c*t^d stores (c, d); t has degree 2N, so its
    # cohomological degree is 2*N*d
    a, one = Novikov.monomial(QQ, 5, 2), Novikov.one(QQ)
    assert (a.coeff, a.power) == (5, 2) and (one.coeff, one.power) == (1, 0)


def test_monomial_degree_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        a = Novikov.monomial(QQ, Fraction(rng.randint(1, 9)), rng.randint(-3, 4))
        b = Novikov.monomial(QQ, Fraction(rng.randint(1, 9)), rng.randint(-3, 4))
        ab = a * b
        assert (ab.coeff, ab.power) == (a.coeff * b.coeff, a.power + b.power)


def test_grading_context_cy():
    # N = 0: t has degree 0, so a matrix of weight 1 holds constants on
    # the superdiagonal, and nothing may sit elsewhere
    mat = LambdaMatrix(QQ, GradingContext(0), [{1: 3}, {}])
    assert mat.entries[0][1] == Novikov.constant(QQ, 3)
    with pytest.raises(ValueError):
        LambdaMatrix(QQ, GradingContext(0), [{0: 1}, {}])
    # so an unknown there has t-power 0 too
    assert LambdaMatrix(QQ, GradingContext(0), [{}, {}], {(0, 1, 0)}).to_strings()[0][1] == "?"
    with pytest.raises(ValueError, match="declares t-power 1"):
        LambdaMatrix(QQ, GradingContext(0), [{}, {}], {(0, 1, 1)})


# -- rendering ---------------------------------------------------------


def test_str_negative_and_fraction_coeffs():
    assert str(Novikov.monomial(QQ, Fraction(-1, 3), 1)) == "-1/3*t"
    assert str(Novikov.monomial(QQ, -2, 3)) == "-2*t^3"
    assert str(Novikov.monomial(QQ, Fraction(3, 4), -1)) == "3/4*t^-1"
    assert str(-Novikov.monomial(QQ, 1, 2)) == "-t^2" and str(Novikov.zero(QQ)) == "0"


def test_int_and_fraction_built_scalars_print_alike():
    for c, d in ((1, 0), (-2, 1), (-1, -1), (3, 2), (-5, 3)):
        a, b = Novikov(QQ, c, d), Novikov(QQ, Fraction(c), d)
        assert a == b and str(a) == str(b) and repr(a) == repr(b)
    assert str(Novikov(QQ, -2, 1)) == "-2*t"
    assert str(Novikov(QQ, -1, -1)) == "-t^-1"
    a, b = Novikov(F2, -1, 1), Novikov(F2, Fraction(-1, 3), 1)
    assert a == b and str(a) == str(b) == "t"


def test_str_gf2():
    assert str(Novikov.monomial(F2, 1, 2)) == "t^2"
    assert str(Novikov.monomial(F2, 3, 0)) == "1"
    assert str(Novikov.monomial(F2, -1, -2)) == "t^-2"
    assert str(Novikov.monomial(F2, 1, 1) + Novikov.monomial(F2, 1, 1)) == "0"


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
    t = Novikov.monomial(QQ, 1, 1)
    a = (Novikov.one(QQ) - 3) * Novikov.monomial(QQ, 1, 2) + t * t
    b = Novikov(QQ, Fraction(-1), 2)
    assert a == b and hash(a) == hash(b)
    # int and Fraction coefficients hash alike, and zero has one hash
    assert hash(Novikov.monomial(QQ, Fraction(4, 2), 1)) == hash(Novikov.monomial(QQ, 2, 1))
    assert hash(Novikov(QQ, 0, 3)) == hash(Novikov.zero(QQ))


def test_a_constant_equals_its_number_and_hashes_alike():
    # a scalar equals a plain int or Fraction x only at t-power 0 with
    # coefficient x, read in no field, and then hashes as x does
    three, half, one_f2 = Novikov(QQ, 3, 0), Novikov(QQ, Fraction(1, 2), 0), Novikov(F2, 1, 0)
    assert three == 3 and half == Fraction(1, 2) and Novikov(QQ, 3, 1) != 3
    assert one_f2 == 1 and one_f2 != 3 and Novikov(F2, 2, 0) != 2
    pairs = ((three, 3), (half, Fraction(1, 2)), (one_f2, 1), (Novikov.zero(F2), 0))
    for scalar, number in pairs:
        assert scalar == number and hash(scalar) == hash(number)
        assert len({scalar, number}) == 1 and len({number: 0, scalar: 1}) == 1
