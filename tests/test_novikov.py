"""Novikov scalar arithmetic: canonical form, field axioms, grading."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shq.novikov import (
    F2,
    GF2Element,
    GradingContext,
    Novikov,
    QQ,
    _canonical,
    _pdiv_exact,
)


def nov(field, num, den=None):
    return Novikov(field, num, den)


def random_scalar(rng, field, allow_den=True):
    def coeff():
        if field is QQ:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.randint(0, 1)

    num = {rng.randint(-3, 5): coeff() for _ in range(rng.randint(0, 3))}
    den = {0: 1}
    if allow_den and rng.random() < 0.4:
        den = {rng.randint(0, 3): coeff() for _ in range(rng.randint(1, 3))}
        den[0] = den.get(0, 0)
        if not any(den.values()):
            den = {0: 1}
    num = {e: field.of(c) for e, c in num.items()}
    den = {e: field.of(c) for e, c in den.items()}
    if not any(bool(c) for c in den.values()):
        den = {0: field.one}
    return Novikov(field, num, den)


# -- canonical form ----------------------------------------------------


def test_zero_representation():
    z = Novikov.zero(QQ)
    assert z.num == {} and z.den == {0: Fraction(1)}
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
    assert str(c.inverse()) == "-1/3"
    assert c * c.inverse() == 1


def test_invert_one_plus_t():
    a = Novikov.one(QQ) + Novikov.t(QQ)
    inv = a.inverse()
    assert str(inv) == "(1)/(1 + t)"
    assert a * inv == Novikov.one(QQ)


def test_denominator_t_powers_absorbed():
    # t^2/(t + t^3) = t/(1 + t^2): denominator keeps a nonzero constant term
    a = nov(QQ, {2: Fraction(1)}, {1: Fraction(1), 3: Fraction(1)})
    assert a.den[0] == 1
    assert min(a.den) == 0
    assert a * nov(QQ, {1: Fraction(1), 3: Fraction(1)}) == nov(QQ, {2: Fraction(1)})


def test_gcd_reduction():
    # (1 - t^2)/(1 - t) canonicalises to 1 + t
    a = nov(QQ, {0: Fraction(1), 2: Fraction(-1)}, {0: Fraction(1), 1: Fraction(-1)})
    assert a == Novikov.one(QQ) + Novikov.t(QQ)
    assert a.is_laurent


def test_denominator_monic():
    a = nov(QQ, {0: Fraction(1)}, {0: Fraction(2), 1: Fraction(4)})
    assert a.den[max(a.den)] == 1


def test_recanonicalise_is_identity():
    rng = random.Random(7)
    for field in (QQ, F2):
        for _ in range(300):
            a = random_scalar(rng, field)
            again = Novikov(field, a.num, a.den)
            assert again.num == a.num and again.den == a.den


@given(
    st.dictionaries(st.integers(-4, 6), st.fractions(max_denominator=6), max_size=4),
    st.dictionaries(st.integers(0, 4), st.fractions(max_denominator=6), max_size=3),
)
def test_canonical_idempotent(numd, dend):
    numd = {e: Fraction(c) for e, c in numd.items()}
    dend = {e: Fraction(c) for e, c in dend.items() if c}
    if not dend:
        dend = {0: Fraction(1)}
    n1, d1 = _canonical(QQ, numd, dend)
    n2, d2 = _canonical(QQ, n1, d1)
    assert (n1, d1) == (n2, d2)


# -- field axioms ------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_field_axioms_random(field):
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
        if a:
            assert a * a.inverse() == one


def test_gf2_self_negation():
    rng = random.Random(5)
    for _ in range(200):
        a = random_scalar(rng, F2)
        assert -a == a
        assert a + a == Novikov.zero(F2)


def test_division_and_pow():
    t = Novikov.t(QQ)
    a = (Novikov.constant(QQ, 3) + t) / (Novikov.one(QQ) - t ** 2)
    assert a * (Novikov.one(QQ) - t ** 2) == Novikov.constant(QQ, 3) + t
    assert t ** -2 == t.inverse() * t.inverse()
    assert (a ** 3) * (a ** -3) == Novikov.one(QQ)


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Novikov.t(QQ) + Novikov.t(F2)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        nov(QQ, {0: Fraction(1)}, {})
    with pytest.raises(ZeroDivisionError):
        Novikov.zero(QQ).inverse()


# -- grading -----------------------------------------------------------


def test_monomial_degree():
    ctx = GradingContext(4)
    assert Novikov.monomial(QQ, 5, 2).monomial_degree(ctx) == 16
    assert Novikov.one(QQ).monomial_degree(ctx) == 0
    assert Novikov.zero(QQ).monomial_degree(ctx) is None
    assert (Novikov.one(QQ) + Novikov.t(QQ)).monomial_degree(ctx) is None


def test_monomial_degree_multiplicative():
    rng = random.Random(11)
    ctx = GradingContext(3)
    for _ in range(200):
        a = Novikov.monomial(QQ, Fraction(rng.randint(1, 9)), rng.randint(-3, 4))
        b = Novikov.monomial(QQ, Fraction(rng.randint(1, 9)), rng.randint(-3, 4))
        assert (a * b).monomial_degree(ctx) == a.monomial_degree(
            ctx
        ) + b.monomial_degree(ctx)


def test_grading_context_cy():
    ctx = GradingContext(0)
    assert Novikov.t(QQ).monomial_degree(ctx) == 0


# -- rendering ---------------------------------------------------------


def test_str_ascending_exponents():
    a = Novikov.monomial(QQ, 3, 2) + Novikov.constant(QQ, -1) + Novikov.t(QQ)
    assert str(a) == "-1 + t + 3*t^2"


def test_str_rational_function():
    a = nov(QQ, {0: Fraction(1)}, {0: Fraction(1), 2: Fraction(1)})
    assert str(a) == "(1)/(1 + t^2)"


def test_str_negative_and_fraction_coeffs():
    a = Novikov.monomial(QQ, Fraction(-1, 3), 1) + Novikov.monomial(QQ, -2, 3)
    assert str(a) == "-1/3*t - 2*t^3"


def test_str_gf2():
    a = Novikov.one(F2) + Novikov.t(F2, 2)
    assert str(a) == "1 + t^2"


def test_hash_consistency():
    a = nov(QQ, {0: Fraction(1), 2: Fraction(-1)}, {0: Fraction(1), 1: Fraction(-1)})
    b = Novikov.one(QQ) + Novikov.t(QQ)
    assert a == b and hash(a) == hash(b)


def test_inexact_polynomial_division_raises():
    assert _pdiv_exact({2: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}) == {
        1: Fraction(1),
        0: Fraction(1),
    }
    with pytest.raises(ArithmeticError):
        _pdiv_exact({1: Fraction(1)}, {1: Fraction(1), 0: Fraction(1)})
