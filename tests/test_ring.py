"""Quotient presentations: reduction, products, generator change."""

import random

import pytest

from shq.linalg import LambdaMatrix, char_poly
from shq.novikov import F2, GradingContext, Novikov, QQ
from shq.ring import (
    IncompletePresentationError,
    RingElement,
    RingPresentation,
    change_generator,
    is_nilpotent,
    multiplication_matrix,
    relation_str,
)

t = Novikov.t(QQ)
one = Novikov.one(QQ)
zero = Novikov.zero(QQ)


def omega_ring(coeffs, grading=None):
    return RingPresentation("omega", tuple(coeffs), grading)


def small_qh():
    # m = 1, n = 1: w^2 + t*w
    return omega_ring([zero, t, one], GradingContext(1))


def qh_52():
    # m = 5, n = 2: w^6 + 4t*w^2
    rel = [zero] * 7
    rel[2] = Novikov.monomial(QQ, 4, 1)
    rel[6] = one
    return omega_ring(rel, GradingContext(4))


def sh_52():
    # w^4 + 4t
    return omega_ring(
        [Novikov.monomial(QQ, 4, 1), zero, zero, zero, one], GradingContext(4)
    )


# -- reduction ----------------------------------------------------------


def test_reduce_example():
    qh = small_qh()
    # w^2 reduces to -t*w
    el = qh.reduce([zero, zero, one])
    assert el.coeffs == (zero, -t)
    assert str(el) == "-t*w"


def test_reduce_handles_long_input():
    qh = small_qh()
    # w^3 = -t*w^2 = t^2*w
    el = qh.gen_power(3)
    assert el.coeffs == (zero, t * t)


def test_reduce_noop_below_degree():
    qh = qh_52()
    el = qh.element([one, t, zero, zero, zero, one])
    assert el.coeffs == (one, t, zero, zero, zero, one)


def test_sh_square_example():
    sh = sh_52()
    w2 = sh.gen_power(2)
    prod = w2 * w2
    # w^4 = -4t
    assert prod.coeffs == (Novikov.monomial(QQ, -4, 1), zero, zero, zero)


def test_ring_axioms_random():
    rng = random.Random(8)
    qh = qh_52()

    def rand_el():
        return qh.element(
            [
                Novikov.monomial(QQ, rng.randint(-3, 3), rng.randint(0, 2))
                for _ in range(6)
            ]
        )

    for _ in range(60):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * qh.one() == a
        assert a + qh.zero() == a


def test_unit_and_zero():
    qh = small_qh()
    assert not qh.zero()
    assert qh.one() * qh.gen() == qh.gen()


# -- multiplication matrices ---------------------------------------------


def test_multiplication_matrix_smallest_case():
    qh = small_qh()
    c1 = qh.gen() * Novikov.constant(QQ, -1)  # c = -n*w with n = 1
    mat = multiplication_matrix(qh, c1)
    assert mat.entries == ((t, -one), (zero, zero))


def test_multiplication_by_one_is_identity():
    qh = qh_52()
    assert multiplication_matrix(qh, qh.one()) == LambdaMatrix.identity(QQ, 6)


def test_multiplication_matrix_is_ring_homomorphism():
    rng = random.Random(12)
    qh = qh_52()
    for _ in range(10):
        a = qh.element([Novikov.monomial(QQ, rng.randint(-2, 2), 1) for _ in range(6)])
        b = qh.element([Novikov.constant(QQ, rng.randint(-2, 2)) for _ in range(6)])
        ma, mb = multiplication_matrix(qh, a), multiplication_matrix(qh, b)
        assert multiplication_matrix(qh, a * b) == ma * mb


def test_char_poly_of_generator_recovers_relation():
    qh = qh_52()
    cp = char_poly(multiplication_matrix(qh, qh.gen()))
    # lambda^6 + 4t*lambda^2: coefficients a_1..a_6 with a_4 slot = 4t
    expected = [zero] * 6
    expected[3] = Novikov.monomial(QQ, 4, 1)
    assert list(cp.a) == expected


# -- generator change -----------------------------------------------------


def test_change_generator_example():
    # c^4 + 64t over n = 2 becomes w^4 + 4t
    pres_c = RingPresentation(
        "c", (Novikov.monomial(QQ, 64, 1), zero, zero, zero, one), GradingContext(4)
    )
    pres_w = change_generator(pres_c, 2)
    assert pres_w.generator == "omega"
    assert pres_w.relation == sh_52().relation


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_change_generator_matches_novikov_powers(field):
    # the rescaling (-n)^(k - degree) taken as a power of a Novikov scalar
    rng = random.Random(7)
    for n in (1, 3, 5):
        rel = [Novikov.monomial(field, rng.randint(-3, 3), rng.randint(0, 2)) for _ in range(6)]
        pres = RingPresentation("c", tuple(rel) + (Novikov.one(field),))
        s = Novikov.constant(field, -n)
        expected = tuple(c * s ** (k - 6) for k, c in enumerate(pres.relation))
        assert change_generator(pres, n).relation == expected


def test_change_generator_full_qh():
    # c^6 + 64t*c^2 over n = 2 becomes w^6 + 4t*w^2
    rel = [zero] * 7
    rel[2] = Novikov.monomial(QQ, 64, 1)
    rel[6] = one
    pres_c = RingPresentation("c", tuple(rel), GradingContext(4))
    assert change_generator(pres_c, 2).relation == qh_52().relation


def test_change_generator_sign():
    # c + t with n = 1: c = -w, relation becomes w + (-1)^(-1) t = w - ... :
    # coefficient scales by (-1)^(0-1) = -1, giving w - t mod signs:
    pres_c = RingPresentation("c", (t, one), GradingContext(1))
    pres_w = change_generator(pres_c, 1)
    assert pres_w.relation == (-t, one)


def test_change_generator_requires_c():
    with pytest.raises(ValueError):
        change_generator(small_qh(), 1)


def test_change_generator_gf2_even_twist_rejected():
    pres_c = RingPresentation("c", (Novikov.t(F2), Novikov.one(F2)))
    with pytest.raises(ValueError):
        change_generator(pres_c, 2)
    # odd twist is fine in characteristic two
    out = change_generator(pres_c, 3)
    assert out.relation == (Novikov.t(F2), Novikov.one(F2))


# -- nilpotency ------------------------------------------------------------


def test_is_nilpotent():
    qh = small_qh()
    assert is_nilpotent(qh, qh.gen()) is False  # w^2 = -t*w, never dies
    cy = omega_ring([zero, zero, zero, one], GradingContext(0))
    assert is_nilpotent(cy, cy.gen()) is True
    assert is_nilpotent(cy, cy.one()) is False
    assert is_nilpotent(cy, cy.zero()) is True


# -- homogeneity and completeness ------------------------------------------


def test_homogeneous_relation_enforced():
    with pytest.raises(ValueError):
        # w^2 + t relation with N = 1: constant slot needs N*d = 2
        omega_ring([t, zero, one], GradingContext(1))
    # same relation is fine with N = 2
    omega_ring([t, zero, one], GradingContext(2))


def test_monic_enforced():
    with pytest.raises(ValueError):
        omega_ring([t, t])


def test_incomplete_presentation_blocks_arithmetic():
    rel = [zero] * 7
    rel[4] = Novikov.monomial(QQ, 27, 1)
    rel[6] = one
    pres = RingPresentation(
        "omega",
        tuple(rel),
        GradingContext(2),
        unknown_terms=((2, 2), (0, 3)),
    )
    with pytest.raises(IncompletePresentationError):
        pres.gen_power(6)
    with pytest.raises(IncompletePresentationError):
        multiplication_matrix(pres, pres.zero())
    with pytest.raises(IncompletePresentationError):
        is_nilpotent(pres, pres.zero())


def test_unknown_terms_validated():
    with pytest.raises(ValueError):
        # slot already holds a trusted nonzero coefficient
        RingPresentation("omega", (zero, t, one), unknown_terms=((1, 1),))


def test_relation_rendering():
    assert relation_str(qh_52()) == "w^6 + 4*t*w^2"
    assert relation_str(sh_52()) == "w^4 + 4*t"
    rel = [zero] * 7
    rel[3] = Novikov.monomial(QQ, 27, 1)
    rel[6] = one
    pres = RingPresentation("omega", tuple(rel), None, unknown_terms=((0, 2),))
    assert relation_str(pres) == "w^6 + 27*t*w^3 + ?*t^2"


def test_element_length_checked():
    pres = RingPresentation("c", (t, zero, one))
    with pytest.raises(ValueError):
        RingElement(pres, (one,))
