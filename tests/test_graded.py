"""linalg's core against the Novikov-matrix walk it replaced: graded
matrices read at t = 1, and ungraded ones run on their Novikov entries."""

import random
from fractions import Fraction

import pytest

from shq.linalg import (
    CharPoly,
    LambdaMatrix,
    _power_chain,
    char_poly,
    kernel,
    kernel_dims,
    rank,
    spectrum,
    stabilization_index,
    stabilized_kernel,
)
from shq.novikov import F2, GradingContext, Novikov, QQ
from shq.pipeline import build_r_matrix, classify_regime
from shq.ring import RingPresentation, change_generator, multiplication_matrix

from oracles import (
    novikov_berkowitz,
    novikov_power_chain,
    novikov_rank,
    permutation_charpoly,
    rref_kernel,
)

FIELDS = [QQ, F2]
FIELD_IDS = ["Q", "GF2"]


def complete_pairs(max_m):
    """Every (m, n) with m <= max_m whose r has no undetermined entry:
    low-twist monotone, Calabi-Yau and the two smallest large twists."""
    out = []
    for m in range(1, max_m + 1):
        for n in list(range(1, m + 2)) + [2 * m + 1, 2 * m + 2]:
            regime = classify_regime(m, n)
            if regime.exact_mode and regime.kind != "unsupported":
                out.append((m, n))
    return out


def qh_operator(m, n, field, cp):
    """The pipeline's cross-check matrix: multiplication by -n*omega in
    Lambda[omega]/(characteristic relation), graded."""
    ctx = GradingContext(1 + m - n)
    qh = change_generator(RingPresentation("c", tuple(reversed(cp.coefficients())), ctx), n)
    return multiplication_matrix(qh, qh.gen() * Novikov.constant(field, -n))


def assert_matches_oracle(mat, graded=True):
    """char_poly, the Cayley-Hamilton check, kernel_dims and rank equal
    those of the Novikov-matrix walk; graded says which path must run."""
    assert (mat._at_one is not None) == graded
    cp, annihilates, dims = spectrum(mat)
    assert cp.a == novikov_berkowitz(mat.entries)
    assert char_poly(mat) == cp
    assert annihilates
    assert novikov_power_chain(mat.entries, cp.a) == (True, dims)
    assert kernel_dims(mat) == dims
    assert rank(mat) == novikov_rank(mat.entries)
    return cp


def check_pair(m, n, field):
    r = build_r_matrix(m, n, field)
    assert r.is_complete
    cp = assert_matches_oracle(r)
    if field.of(-n):
        assert_matches_oracle(qh_operator(m, n, field, cp))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_complete_pair_up_to_16(field):
    pairs = complete_pairs(16)
    assert len(pairs) > 100
    for m, n in pairs:
        check_pair(m, n, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sampled_pairs_up_to_24(field):
    pool = [(m, n) for (m, n) in complete_pairs(24) if m > 16]
    for m, n in random.Random(24).sample(pool, 6):
        check_pair(m, n, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_stabilized_kernel_matches_the_rref_kernel_up_to_8(field):
    nonzero = 0
    for m, n in complete_pairs(8):
        r = build_r_matrix(m, n, field)
        k = stabilization_index(r)
        if not k:
            assert stabilized_kernel(r) == []
            continue
        power = r ** k
        expected = rref_kernel(power.entries)
        assert kernel(power) == expected
        assert stabilized_kernel(r) == expected
        nonzero += 1
    assert nonzero > 20


# -- graded matrices in general ---------------------------------------------


def random_graded(rng, field, s, N):
    """Random homogeneous matrix: entry (i, j) is c * t^d with
    N*d = i - j + 1, Fraction coefficients over Q."""
    rows = []
    for i in range(s):
        row = []
        for j in range(s):
            k = i - j + 1
            fits = k % N == 0 if N else k == 0
            if not fits or rng.random() < 0.3:
                row.append(Novikov.zero(field))
            elif field is QQ:
                c = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
                row.append(Novikov.monomial(field, c, k // N if N else 0))
            else:
                row.append(Novikov.monomial(field, rng.randint(0, 1), k // N if N else 0))
        rows.append(row)
    return LambdaMatrix(rows, grading=GradingContext(N))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("N", [-2, -1, 0, 1, 2, 3])
def test_random_graded_matrices(field, N):
    rng = random.Random(1000 + 10 * N + (0 if field is QQ else 1))
    for s in (1, 2, 3, 4, 6):
        for _ in range(6):
            mat = random_graded(rng, field, s, N)
            cp = assert_matches_oracle(mat)
            if s <= 4:
                assert list(cp.coefficients()) == permutation_charpoly(mat.entries)
            plain = LambdaMatrix(mat.entries)
            assert plain._at_one is None
            assert spectrum(plain) == spectrum(mat)


def test_graded_char_poly_raises_when_the_recurrence_is_wrong(corrupt_berkowitz):
    with pytest.raises(ArithmeticError):
        char_poly(build_r_matrix(5, 2))


def test_char_poly_off_the_grading_is_checked_on_the_novikov_path():
    # the true coefficients, but a_4 moved to t^2: not readable at t = 1
    r = build_r_matrix(5, 2)
    cp = char_poly(r)
    moved = list(cp.a)
    moved[3] = Novikov.monomial(QQ, 64, 2)
    assert _power_chain(r, CharPoly(6, tuple(moved)), want_dims=False)[0] is False
    assert _power_chain(r, cp, want_dims=False)[0] is True


# -- ungraded matrices: the core on Novikov entries --------------------------


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rational_function_entries_keep_the_novikov_path(field):
    one, t = Novikov.one(field), Novikov.t(field)
    zero = Novikov.zero(field)
    f = one + t
    mat = LambdaMatrix(((zero, -one, zero), (f, zero, -one), (zero, t, f)))
    assert_matches_oracle(mat, graded=False)
    with pytest.raises(ValueError):
        LambdaMatrix(mat.entries, grading=GradingContext(1))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_grading_zero_with_a_t_power_keeps_the_novikov_path(field):
    # N = 0 admits only the superdiagonal, with any t-power
    zero, t2 = Novikov.zero(field), Novikov.t(field, 2)
    one = Novikov.one(field)
    rows = ((zero, t2, zero), (zero, zero, one), (zero, zero, zero))
    mat = LambdaMatrix(rows, grading=GradingContext(0))
    assert_matches_oracle(mat, graded=False)
    assert spectrum(mat) == spectrum(LambdaMatrix(rows))
    constant = LambdaMatrix(((zero, one), (zero, zero)), grading=GradingContext(0))
    assert constant._at_one is not None


def random_ungraded(rng, field, s):
    """Random matrix without a grading: Laurent entries with t-powers
    from -1 to 2, a few of them plus a multiple of 1 + t, and half the
    time a last row that is a multiple of the first, so it is singular."""
    f = Novikov.one(field) + Novikov.t(field)

    def coefficient():
        return rng.randint(-2, 2) if field is QQ else 1

    def scalar():
        x = Novikov.zero(field)
        if rng.random() < 0.6:
            x = Novikov.monomial(field, coefficient(), rng.randint(-1, 2))
            if rng.random() < 0.15:
                x = x + f * Novikov.constant(field, coefficient())
        return x

    rows = [[scalar() for _ in range(s)] for _ in range(s)]
    if rng.random() < 0.5:
        k = Novikov.monomial(field, 1, rng.randint(-1, 1))
        rows[-1] = [x * k for x in rows[0]]
    return LambdaMatrix(rows)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_random_ungraded_matrices(field):
    rng = random.Random(7 if field is QQ else 8)
    for s, count in ((2, 4), (3, 4), (4, 3), (5, 2), (6, 1)):
        for _ in range(count):
            assert_matches_oracle(random_ungraded(rng, field, s), graded=False)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_inhomogeneous_multiplication_matrix_keeps_the_novikov_path(field):
    one, t = Novikov.one(field), Novikov.t(field)
    zero = Novikov.zero(field)
    ctx = GradingContext(2)
    qh = RingPresentation("omega", (zero, zero, t, zero, one), ctx)  # w^4 + t*w^2
    for x in (
        qh.one(),
        qh.element([one, one]),
        qh.element([t, zero, one]),
        qh.element([zero, one + t]),
    ):
        mat = multiplication_matrix(qh, x)
        assert mat.grading is None
        assert_matches_oracle(mat, graded=False)
        with pytest.raises(ValueError):
            LambdaMatrix(mat.entries, grading=ctx)
    graded = multiplication_matrix(qh, qh.gen())
    assert graded.grading == ctx
    assert_matches_oracle(graded)

