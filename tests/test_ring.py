"""Quotient presentations: reduction, products, generator change."""

import random
from fractions import Fraction

import pytest

from shq.linalg import LambdaMatrix, char_poly
from shq.novikov import F2, Novikov, QQ
from shq.pipeline import compute_sh
from shq.ring import (
    IncompletePresentationError,
    RingElement,
    RingPresentation,
    change_generator,
    is_nilpotent,
    multiplication_matrix,
    relation_str,
)

from oracles import (
    novikov_is_nilpotent,
    novikov_multiplication_matrix,
    novikov_product,
    novikov_reduce,
    presentation,
    ring_sum,
    ring_zero,
    unit_inverse,
)
from test_graded import complete_pairs

t = Novikov.monomial(QQ, 1, 1)
one = Novikov.one(QQ)
zero = Novikov.zero(QQ)


def omega_ring(coeffs, N):
    return presentation("omega", tuple(coeffs), N)


def homogeneous(rng, pres, weight, length=None):
    """Random coefficients of one weight in pres, length rank unless
    given: the coefficient of g^k is c * t^d with N*d + k = weight
    (d = 0 when N = 0), c often zero."""
    N, field = pres.grading.N, pres.field
    out = []
    for k in range(pres.rank if length is None else length):
        c = rng.randint(-3, 3) if field is QQ else rng.randint(0, 1)
        fits = (weight - k) % N == 0 if N else k == weight
        d = (weight - k) // N if N else 0
        out.append(Novikov.monomial(field, c, d) if c and fits else Novikov.zero(field))
    return out


def small_qh():
    # m = 1, n = 1: w^2 + t*w
    return omega_ring([zero, t, one], 1)


def qh_52():
    # m = 5, n = 2: w^6 + 4t*w^2
    rel = [zero] * 7
    rel[2] = Novikov.monomial(QQ, 4, 1)
    rel[6] = one
    return omega_ring(rel, 4)


def sh_52():
    # w^4 + 4t
    return omega_ring([Novikov.monomial(QQ, 4, 1), zero, zero, zero, one], 4)


# -- reduction ----------------------------------------------------------


def test_reduce_example():
    qh = small_qh()
    # w^2 reduces to -t*w
    el = qh.reduce([zero, zero, one])
    assert el.coeffs == (zero, -t)


def test_reduce_handles_long_input():
    qh = small_qh()
    # w^3 = -t*w^2 = t^2*w
    el = qh.gen_power(3)
    assert el.coeffs == (zero, t * t)


def test_reduce_noop_below_degree():
    qh = qh_52()
    el = qh.reduce([zero, t, zero, zero, zero, one])
    assert el.coeffs == (zero, t, zero, zero, zero, one)


def test_sh_square_example():
    sh = sh_52()
    w2 = sh.gen_power(2)
    prod = w2 * w2
    # w^4 = -4t
    assert prod.coeffs == (Novikov.monomial(QQ, -4, 1), zero, zero, zero)


def test_ring_axioms_random():
    rng = random.Random(8)
    qh = qh_52()

    for _ in range(60):
        # a + b needs one weight; c may have another
        w = rng.randint(0, 9)
        a, b = (qh.reduce(homogeneous(rng, qh, w)) for _ in range(2))
        c = qh.reduce(homogeneous(rng, qh, rng.randint(0, 9)))
        assert ring_sum(a, b) * c == ring_sum(a * c, b * c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * qh.gen_power(0) == a
        assert ring_sum(a, ring_zero(qh)) == a


def test_unit_and_zero():
    qh = small_qh()
    assert ring_zero(qh).coeffs == (zero, zero)
    assert qh.gen_power(0).coeffs == (one, zero)
    assert qh.gen_power(0) * qh.gen() == qh.gen()


# -- multiplication matrices ---------------------------------------------


def test_multiplication_matrix_smallest_case():
    qh = small_qh()
    c1 = qh.gen() * Novikov.constant(QQ, -1)  # c = -n*w with n = 1
    mat = multiplication_matrix(qh, c1)
    assert mat.entries == ((t, -one), (zero, zero))


def test_multiplication_by_one_is_identity():
    qh = qh_52()
    identity = LambdaMatrix(QQ, qh.grading, [{i: 1} for i in range(6)], weight=0)
    assert multiplication_matrix(qh, qh.gen_power(0)) == identity


def test_multiplication_matrix_is_ring_homomorphism():
    rng = random.Random(12)
    qh = qh_52()
    for _ in range(10):
        a, b = (qh.reduce(homogeneous(rng, qh, rng.randint(0, 9))) for _ in range(2))
        ma, mb = multiplication_matrix(qh, a), multiplication_matrix(qh, b)
        # weights add; a zero product is the zero matrix at any weight
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
    pres_c = presentation("c", (Novikov.monomial(QQ, 64, 1), zero, zero, zero, one), 4)
    pres_w = change_generator(pres_c, 2)
    assert pres_w.generator == "omega"
    assert pres_w.relation == sh_52().relation


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_change_generator_matches_novikov_powers(field):
    # the rescaling (-n)^(k - degree) taken as a Novikov constant, the power
    # of the inverse of -n
    rng = random.Random(7)
    for n in (1, 3, 5):
        # N = 1: the coefficient of c^k is a multiple of t^(6-k)
        rel = [Novikov.monomial(field, rng.randint(-3, 3), 6 - k) for k in range(6)]
        pres = presentation("c", tuple(rel) + (Novikov.one(field),), 1)
        s = Novikov.constant(field, -n)
        expected = tuple(
            c * Novikov.monomial(field, unit_inverse(s).coeff ** (6 - k), 0)
            for k, c in enumerate(pres.relation)
        )
        assert change_generator(pres, n).relation == expected


def test_change_generator_full_qh():
    # c^6 + 64t*c^2 over n = 2 becomes w^6 + 4t*w^2
    rel = [zero] * 7
    rel[2] = Novikov.monomial(QQ, 64, 1)
    rel[6] = one
    pres_c = presentation("c", tuple(rel), 4)
    assert change_generator(pres_c, 2).relation == qh_52().relation


def test_change_generator_sign():
    # c + t with n = 1: c = -w, relation becomes w + (-1)^(-1) t = w - ... :
    # coefficient scales by (-1)^(0-1) = -1, giving w - t mod signs:
    pres_c = presentation("c", (t, one), 1)
    pres_w = change_generator(pres_c, 1)
    assert pres_w.relation == (-t, one)


def test_change_generator_requires_c():
    with pytest.raises(ValueError):
        change_generator(small_qh(), 1)


def test_change_generator_gf2_even_twist_rejected():
    pres_c = presentation("c", (Novikov.monomial(F2, 1, 1), Novikov.one(F2)), 1)
    with pytest.raises(ValueError):
        change_generator(pres_c, 2)
    # odd twist is fine in characteristic two
    out = change_generator(pres_c, 3)
    assert out.relation == (Novikov.monomial(F2, 1, 1), Novikov.one(F2))


# -- nilpotency ------------------------------------------------------------


def test_is_nilpotent():
    qh = small_qh()
    assert is_nilpotent(qh, qh.gen()) is False  # w^2 = -t*w, never dies
    cy = omega_ring([zero, zero, zero, one], 0)
    assert is_nilpotent(cy, cy.gen()) is True
    assert is_nilpotent(cy, cy.gen_power(0)) is False
    assert is_nilpotent(cy, ring_zero(cy)) is True


# -- homogeneity and completeness ------------------------------------------


def test_homogeneous_relation_enforced():
    with pytest.raises(ValueError):
        # w^2 + t relation with N = 1: constant slot needs N*d = 2
        omega_ring([t, zero, one], 1)
    # same relation is fine with N = 2
    omega_ring([t, zero, one], 2)


def test_monic_enforced():
    with pytest.raises(ValueError):
        omega_ring([t, t], 1)


def test_a_presentation_needs_a_grading():
    with pytest.raises(TypeError):
        RingPresentation("omega", QQ, (1, 1))


def test_incomplete_presentation_blocks_arithmetic():
    rel = [zero] * 7
    rel[4] = Novikov.monomial(QQ, 27, 1)
    rel[6] = one
    pres = presentation("omega", tuple(rel), 2, unknown_terms=((2, 2), (0, 3)))
    with pytest.raises(IncompletePresentationError):
        pres.gen_power(6)
    with pytest.raises(IncompletePresentationError):
        multiplication_matrix(pres, ring_zero(pres))
    with pytest.raises(IncompletePresentationError):
        is_nilpotent(pres, ring_zero(pres))


def test_unknown_terms_validated():
    with pytest.raises(ValueError):
        # slot already holds a trusted nonzero coefficient
        presentation("omega", (zero, t, one), 1, unknown_terms=((1, 1),))


def test_relation_rendering():
    assert relation_str(qh_52()) == "w^6 + 4*t*w^2"
    assert relation_str(sh_52()) == "w^4 + 4*t"
    rel = [zero] * 7
    rel[3] = Novikov.monomial(QQ, 27, 1)
    rel[6] = one
    pres = presentation("omega", tuple(rel), 3, unknown_terms=((0, 2),))
    assert relation_str(pres) == "w^6 + 27*t*w^3 + ?*t^2"


def test_element_length_checked():
    pres = presentation("c", (t, zero, one), 2)
    with pytest.raises(ValueError):
        RingElement(pres, (1,), 0)


def test_scalars_of_another_field_are_refused():
    qh = small_qh()
    for scalar in (Novikov.one(F2), Novikov.zero(F2), Novikov.monomial(F2, 1, 1)):
        with pytest.raises(ValueError, match="field mismatch"):
            qh.gen() * scalar
        with pytest.raises(ValueError, match="field mismatch"):
            qh.reduce([zero, scalar])


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_constant_scalars_multiply_like_novikov_constants(field):
    # an int, a bool or a Fraction is read through field.of on either side
    qh = compute_sh(3, 1, field, trials=1).qh
    g = qh.gen()
    for c in (3, -2, True, Fraction(1, 3), Fraction(-4, 2), Fraction(5, 7)):
        assert g * c == c * g == g * Novikov.constant(field, c)
    # the characteristic is a zero constant, of no weight
    assert qh.reduce([field.characteristic, Fraction(5, 7)]) == g * Fraction(5, 7)
    if field == QQ:
        assert (g * Fraction(1, 2)).values == (0, Fraction(1, 2), 0, 0)
    else:
        with pytest.raises(ZeroDivisionError):
            g * Fraction(1, 2)
    with pytest.raises(TypeError):
        g * 0.5


def test_is_nilpotent_checks_the_presentation():
    a = omega_ring([zero, zero, one], 1)  # w^2
    b = omega_ring([t, zero, zero, one], 3)  # w^3 + t
    assert is_nilpotent(a, a.gen()) is True
    with pytest.raises(ValueError, match="does not live in this presentation"):
        is_nilpotent(a, b.gen())


# -- the t = 1 core against the schoolbook Novikov oracles -----------------


def assert_matches_ring_oracles(pres, x, weight):
    """multiplication_matrix and is_nilpotent agree with the schoolbook
    Novikov oracles, and the matrix carries the grading of pres and the
    weight of x; a zero element has weight 0."""
    got = multiplication_matrix(pres, x)
    assert got.entries == novikov_multiplication_matrix(pres, x)
    assert (got.grading, got.weight) == (pres.grading, weight if any(x.values) else 0)
    assert is_nilpotent(pres, x) is novikov_is_nilpotent(pres, x)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_qh_presentations_match_the_oracles_up_to_12(field):
    for m, n in complete_pairs(12):
        res = compute_sh(m, n, field, trials=1)
        for pres, c1 in ((res.qh, res.qh.gen() * -n), (res.qh_c, None)):
            if pres is None:
                continue
            c1 = pres.gen() if c1 is None else c1
            for x, weight in ((c1, 1), (pres.gen(), 1), (pres.gen_power(0), 0)):
                assert_matches_ring_oracles(pres, x, weight)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
@pytest.mark.parametrize("N", [-2, 0, 1, 2, 3])
def test_random_graded_presentations_match_the_oracles(field, N):
    # homogeneous elements of random weights against the oracles
    rng = random.Random(50 + 10 * N + (0 if field is QQ else 1))
    zero_f, one_f = Novikov.zero(field), Novikov.one(field)
    for deg in (1, 2, 3, 5):
        rel = [zero_f] * deg + [one_f]
        for k in range(deg):
            if N and (deg - k) % N == 0 and rng.random() < 0.7:
                rel[k] = Novikov.monomial(field, rng.randint(1, 3), (deg - k) // N)
        pres = presentation("omega", tuple(rel), N)
        for _ in range(6):
            weight = rng.randint(0, deg)
            x = pres.reduce(homogeneous(rng, pres, weight))
            y = pres.reduce(homogeneous(rng, pres, rng.randint(0, deg)))
            assert_matches_ring_oracles(pres, x, weight)
            assert (x * y).coeffs == novikov_product(pres.relation, x.coeffs, y.coeffs)
            # a scalar c*t^d adds N*d to the weight
            s = Novikov.monomial(field, rng.randint(1, 3), rng.randint(-2, 2) if N else 0)
            assert (x * s).coeffs == tuple(c * s for c in x.coeffs) == (s * x).coeffs
            raw = homogeneous(rng, pres, rng.randint(0, 3 * deg), 3 * deg)
            assert pres.reduce(raw).coeffs == novikov_reduce(pres.relation, raw)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_multiplication_matrix_derives_its_grading(field):
    # the grading of pres and the weight of x
    zero_f, one_f = Novikov.zero(field), Novikov.one(field)
    qh = compute_sh(5, 3, field, trials=1).qh  # w^6 + 27t*w^3, N = 3
    cy = presentation("omega", (zero_f, zero_f, zero_f, one_f), 0)
    cases = [
        (qh, qh.gen() * -3, 1),
        (qh, qh.gen(), 1),
        (cy, cy.gen(), 1),
        (qh, qh.gen_power(0), 0),
        (qh, qh.gen_power(2), 2),
        (cy, ring_zero(cy), 0),
    ]
    for pres, x, weight in cases:
        mat = multiplication_matrix(pres, x)
        assert (mat.grading, mat.weight) == (pres.grading, weight)
        assert mat.entries == novikov_multiplication_matrix(pres, x)


def assert_not_read(pres, coeffs):
    """The polynomial coeffs in g has no reading at t = 1, so neither
    reduce nor multiplying by its constant term reads it: ValueError."""
    with pytest.raises(ValueError, match="not homogeneous"):
        pres.reduce(coeffs)
    if len(coeffs) == 1:
        with pytest.raises(ValueError, match="not homogeneous"):
            pres.gen() * coeffs[0]


def test_t_minus_one_is_refused():
    # evaluating t - 1 at t = 1 gives 0, so it is refused where it is
    # built, over each field; nor is 1 + g read at t = 1
    for field in (QQ, F2):
        with pytest.raises(ValueError, match="not homogeneous"):
            Novikov.monomial(field, 1, 1) - Novikov.one(field)
    for pres in (small_qh(), qh_52()):
        assert_not_read(pres, (one, one) + (zero,) * (pres.rank - 2))


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_grading_zero_with_a_t_power_is_refused(field):
    # N = 0: t has degree zero, so t*w must not be read as w at t = 1
    zero_f, one_f, t_f = Novikov.zero(field), Novikov.one(field), Novikov.monomial(field, 1, 1)
    cy = presentation("omega", (zero_f, zero_f, zero_f, one_f), 0)
    for coeffs in (
        (zero_f, t_f, zero_f),
        (t_f, zero_f, zero_f),
        (zero_f, zero_f, Novikov.monomial(field, 1, -1)),
        (t_f,),
    ):
        assert_not_read(cy, coeffs)
    # nor does an element hold a value off its weight
    with pytest.raises(ValueError, match="not homogeneous"):
        RingElement(cy, (0, 1, 0), 0)
