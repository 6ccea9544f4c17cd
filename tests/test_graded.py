"""linalg's Hessenberg core, rank and generalized kernel against the
Novikov-matrix Berkowitz recurrence, power walk, elimination and dense
products they replaced: every matrix is read at t = 1, and every shape
the core does not take, every weight other than 1 and every grid that
is not graded is refused."""

import random
from fractions import Fraction

import pytest

import shq.linalg
from shq.linalg import (
    LambdaMatrix,
    char_poly,
    jordan_zero_block_sizes,
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
    _novikov_dot,
    dense_powers,
    graded_matrix,
    novikov_berkowitz,
    novikov_multiplication_matrix,
    novikov_power_chain,
    novikov_rank,
    permutation_charpoly,
    presentation,
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
    qh = change_generator(RingPresentation("c", field, ctx, tuple(reversed(cp.values)) + (1,)), n)
    return multiplication_matrix(qh, qh.gen() * Novikov.constant(field, -n))


def assert_matches_oracle(mat):
    """char_poly, the Cayley-Hamilton check and kernel_dims equal those
    of the Novikov-matrix walk."""
    assert mat.weight == 1
    cp, annihilates, dims = spectrum(mat)
    assert cp.a == novikov_berkowitz(mat.entries)
    assert char_poly(mat) == cp
    assert annihilates
    assert novikov_power_chain(mat.entries, cp.a) == (True, dims)
    assert kernel_dims(mat) == dims
    return cp


def assert_rank_and_kernel(mat):
    """rank equals the dense elimination's, and stabilized_kernel spans
    the kernel of mat^k, k the stabilization index: mat applied k times
    over the Novikov entries kills each vector, and the basis is
    independent of the dimension kernel_dims gives."""
    entries, dims = mat.entries, kernel_dims(mat)
    assert rank(mat) == novikov_rank(entries)
    basis = stabilized_kernel(mat)
    assert len(basis) == dims[-1]
    zero = Novikov.zero(mat.field)
    for v in basis:
        for _ in range(len(dims) - 1):
            v = tuple(_novikov_dot(row, v, zero) for row in entries)
        assert not any(v)
    assert not basis or novikov_rank(basis) == len(basis)


def unreduced_or_zero(entries) -> bool:
    """Whether a matrix is lower Hessenberg with a unit c*t^d on every
    superdiagonal entry, or zero: the shapes the core accepts."""
    s = len(entries)
    if any(entries[i][j] for i in range(s) for j in range(i + 2, s)):
        return False
    units = all(entries[i][i + 1] for i in range(s - 1))
    return units or not any(x for row in entries for x in row)


# every entry point of linalg that reads the solve
SOLVE_READERS = (
    spectrum, char_poly, kernel_dims, stabilization_index, jordan_zero_block_sizes,
    rank, stabilized_kernel,
)


def assert_refused(mat):
    """Every entry point that reads the solve raises ValueError."""
    for f in SOLVE_READERS:
        with pytest.raises(ValueError, match="superdiagonal"):
            f(mat)


def assert_weight_refused(mat):
    """A matrix of weight other than 1 is refused by every entry point
    that reads the solve before its shape is looked at."""
    assert mat.weight != 1
    for f in SOLVE_READERS:
        with pytest.raises(ValueError, match="needs a matrix of weight 1"):
            f(mat)


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
def test_every_complete_pair_from_17_to_24(field):
    pairs = [(m, n) for (m, n) in complete_pairs(24) if m > 16]
    assert len(pairs) > 100
    for m, n in pairs:
        check_pair(m, n, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_stabilized_kernel_matches_the_rref_kernel_up_to_8(field):
    # the same span as the rref kernel of r^k, k the stabilization index
    nonzero = 0
    for m, n in complete_pairs(8):
        r = build_r_matrix(m, n, field)
        k, basis = stabilization_index(r), stabilized_kernel(r)
        if not k:
            assert basis == []
            continue
        expected = rref_kernel(dense_powers(r.entries, k)[-1])
        assert novikov_rank(basis + expected) == len(basis) == len(expected)
        nonzero += 1
    assert nonzero > 20


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rank_and_stabilized_kernel_match_the_oracles_up_to_12(field):
    # r and, where -n is nonzero in the field, multiplication by -n*omega
    nonzero = 0
    for m, n in complete_pairs(12):
        r = build_r_matrix(m, n, field)
        assert_rank_and_kernel(r)
        if field.of(-n):
            assert_rank_and_kernel(qh_operator(m, n, field, char_poly(r)))
        nonzero += stabilization_index(r) > 0
    assert nonzero > 40


# -- graded matrices in general ---------------------------------------------


def random_graded(rng, field, s, N, hessenberg=True):
    """Random homogeneous matrix: entry (i, j) is c * t^d with
    N*d = i - j + 1, Fraction coefficients over Q.  With hessenberg,
    nothing lies above the superdiagonal and every superdiagonal entry
    (t-power 0) is nonzero."""
    rows = []
    for i in range(s):
        row = []
        for j in range(s):
            k = i - j + 1
            fits = k % N == 0 if N else k == 0
            if hessenberg and k == 0:
                c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2]))
                row.append(Novikov.monomial(field, c if field is QQ else 1, 0))
            elif not fits or (hessenberg and k < 0) or rng.random() < 0.3:
                row.append(Novikov.zero(field))
            elif field is QQ:
                c = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
                row.append(Novikov.monomial(field, c, k // N if N else 0))
            else:
                row.append(Novikov.monomial(field, rng.randint(0, 1), k // N if N else 0))
        rows.append(row)
    return graded_matrix(rows, N)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("N", [-2, -1, 0, 1, 2, 3])
def test_random_graded_matrices(field, N):
    rng = random.Random(1000 + 10 * N + (0 if field is QQ else 1))
    refused = 0
    for s in (1, 2, 3, 4, 6):
        for _ in range(6):
            mat = random_graded(rng, field, s, N)
            cp = assert_matches_oracle(mat)
            assert_rank_and_kernel(mat)
            if s <= 4:
                assert [Novikov.one(field), *cp.a] == permutation_charpoly(mat.entries)
            # the general graded matrices of the same draw
            general = random_graded(rng, field, s, N, hessenberg=False)
            if unreduced_or_zero(general.entries):
                assert_matches_oracle(general)
                assert_rank_and_kernel(general)
            else:
                assert_refused(general)
                refused += 1
    assert refused >= 10


def test_graded_char_poly_raises_when_the_recurrence_is_wrong(corrupt_char_poly):
    with pytest.raises(ArithmeticError):
        char_poly(build_r_matrix(5, 2))


def test_a_solve_off_the_grading_raises(monkeypatch):
    # c_1 = 1 has weight 1, which no t-power fits at N = 4, nor at the
    # Calabi-Yau N = 0
    for (m, n), N in (((5, 2), 4), ((3, 4), 0)):
        r = build_r_matrix(m, n)
        cp = char_poly(r)
        monkeypatch.setattr(shq.linalg, "_solve", lambda op: [1] + [0] * m)
        with pytest.raises(ArithmeticError, match=f"does not fit grading N = {N}"):
            spectrum(r)
        with pytest.raises(ArithmeticError):
            char_poly(r)
        monkeypatch.undo()
        assert char_poly(r) == cp


def test_corrupted_r_is_refused():
    # one entry above the superdiagonal, or one superdiagonal entry zeroed
    for field in FIELDS:
        r = build_r_matrix(6, 3, field)
        # N = 4: entry (0, 5) above the superdiagonal fits t^-1
        for (i, j), x in (((0, 5), Novikov.monomial(field, 1, -1)), ((2, 3), Novikov.zero(field))):
            rows = [list(row) for row in r.entries]
            rows[i][j] = x
            assert_refused(graded_matrix(rows, r.grading.N))


# -- grids that are not graded, and other weights, are refused ---------------


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rational_function_entries_are_refused(field):
    # no matrix entry, relation coefficient or element coefficient holds
    # 1 + t: the sum is refused where it is built
    one, t, t2 = Novikov.one(field), Novikov.monomial(field, 1, 1), Novikov.monomial(field, 1, 2)
    for build in (lambda: one + t, lambda: t + 1, lambda: 1 - t, lambda: t2 * t + t2):
        with pytest.raises(ValueError, match="not homogeneous"):
            build()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_grading_zero_with_a_t_power_is_refused(field):
    # N = 0 admits only the superdiagonal, and rows at t = 1 only t^0
    # there: a grid with t^2 does not read into rows, and the ring
    # refuses t*g
    zero, t, t2 = Novikov.zero(field), Novikov.monomial(field, 1, 1), Novikov.monomial(field, 1, 2)
    one = Novikov.one(field)
    rows = ((zero, t2, zero), (zero, zero, one), (zero, zero, zero))
    with pytest.raises(ValueError, match="does not fit grading N = 0"):
        graded_matrix(rows, 0)
    cy = presentation("omega", (zero, zero, zero, one), 0)
    with pytest.raises(ValueError, match="not homogeneous"):
        cy.reduce((zero, t, zero))
    constant = graded_matrix(((zero, one), (zero, zero)), 0)
    assert_matches_oracle(constant)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_random_ungraded_matrices(field):
    # random rows with a position off the grading are refused at
    # construction, r's rows at another grading among them; the rows
    # that fit make a graded matrix
    rng = random.Random(7 if field is QQ else 8)
    refused = 0
    for s, count in ((2, 4), (3, 4), (4, 3), (5, 2), (6, 1)):
        for _ in range(count):
            N = rng.choice([-1, 0, 2, 3])
            rows = [
                {j: rng.choice([-1, 1, 3]) for j in range(s) if rng.random() < 0.4}
                for _ in range(s)
            ]
            positions = [i - j + 1 for i, row in enumerate(rows) for j in row]
            if all(k % N == 0 if N else k == 0 for k in positions):
                LambdaMatrix(field, GradingContext(N), rows)
                continue
            with pytest.raises(ValueError, match=f"does not fit grading N = {N}"):
                LambdaMatrix(field, GradingContext(N), rows)
            refused += 1
    assert refused >= 5
    with pytest.raises(ValueError, match="does not fit grading N = 5"):
        LambdaMatrix(field, GradingContext(5), build_r_matrix(6, 3, field).rows)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_inhomogeneous_multiplication_matrix_is_refused(field):
    one, t = Novikov.one(field), Novikov.monomial(field, 1, 1)
    zero = Novikov.zero(field)
    ctx = GradingContext(2)
    qh = presentation("omega", (zero, zero, t, zero, one), 2)  # w^4 + t*w^2
    # 1 + g mixes weights 0 and 1: the ring does not read it at t = 1, and
    # (1 + t)*g is refused where 1 + t is built
    with pytest.raises(ValueError, match="not homogeneous"):
        qh.reduce((one, one, zero, zero))
    with pytest.raises(ValueError, match="not homogeneous"):
        one + t
    # 1, g^2 and t + g^2 have weights 0, 2 and 2: graded matrices of
    # those weights, equal to the schoolbook ones, which the core refuses
    for x, weight in ((qh.gen_power(0), 0), (qh.gen_power(2), 2), (qh.reduce([t, zero, one]), 2)):
        mat = multiplication_matrix(qh, x)
        assert (mat.grading, mat.weight) == (ctx, weight)
        assert mat.entries == novikov_multiplication_matrix(qh, x)
        assert_weight_refused(mat)
    graded = multiplication_matrix(qh, qh.gen())
    assert (graded.grading, graded.weight) == (ctx, 1)
    assert_matches_oracle(graded)
