"""Matrices over the Novikov field: characteristic polynomial, kernels."""

import random
from fractions import Fraction

import pytest

from shq.linalg import (
    CharPoly,
    IncompleteMatrixError,
    LambdaMatrix,
    char_poly,
    jordan_zero_block_sizes,
    kernel,
    kernel_dims,
    rank,
    spectrum,
    stabilization_index,
    stabilized_kernel,
    stable_relation,
    zero_block_sizes,
)
from shq.novikov import F2, GradingContext, Novikov, QQ

from oracles import dense_apply, dense_product, novikov_rank, permutation_charpoly
from test_graded import assert_refused, random_graded


def mat_q(rows, N=None):
    """A matrix over Q, graded by N when N is given."""
    return LambdaMatrix(
        tuple(
            tuple(
                x if isinstance(x, Novikov) else Novikov.constant(QQ, x) for x in r
            )
            for r in rows
        ),
        grading=None if N is None else GradingContext(N),
    )


def random_matrix(rng, field, s, laurent_only=True):
    def scalar():
        if rng.random() < 0.4:
            return Novikov.zero(field)
        c = rng.randint(-4, 4) if field is QQ else rng.randint(0, 1)
        e = rng.randint(0, 2)
        out = Novikov.monomial(field, c, e) if c else Novikov.zero(field)
        if not laurent_only and rng.random() < 0.2:
            out = out + Novikov.one(field)
        return out

    return LambdaMatrix(
        tuple(tuple(scalar() for _ in range(s)) for _ in range(s))
    )


def draws(rng, field, s, count):
    """count random graded matrices of size s, lower Hessenberg with a
    nonzero superdiagonal, over a few gradings N."""
    return [random_graded(rng, field, s, rng.choice([-1, 0, 1, 2])) for _ in range(count)]


t = Novikov.t(QQ)
one = Novikov.one(QQ)
zero = Novikov.zero(QQ)

# graded examples at N = 1: the smallest quantum operator (m = n = 1),
# the companion matrix of (L - 2t)(L - 3t), the shift and t times the
# identity, whose zero superdiagonal is refused
QUANTUM = mat_q([[t, -1], [0, 0]], 1)
COMPANION = mat_q([[5 * t, 1], [-6 * t * t, 0]], 1)
SHIFT = mat_q([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 1)


def scalar_identity(s):
    return mat_q([[t if i == j else 0 for j in range(s)] for i in range(s)], 1)


# -- characteristic polynomial -------------------------------------------


def test_char_poly_smallest_quantum_operator():
    cp = char_poly(QUANTUM)
    assert cp.size == 2
    assert cp.a == (-t, zero)


def test_char_poly_identity():
    # a zero superdiagonal in a nonzero matrix: refused
    assert_refused(scalar_identity(3))
    assert char_poly(scalar_identity(1)).a == (-t,)


def test_char_poly_diagonal():
    assert_refused(mat_q([[2 * t, 0], [0, 3 * t]], 1))
    # (L-2t)(L-3t) = L^2 - 5t L + 6t^2 from its companion form
    assert char_poly(COMPANION).a == (-5 * t, 6 * t * t)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_char_poly_matches_permutation_expansion(field, s):
    rng = random.Random(100 * s + (0 if field is QQ else 1))
    for m in draws(rng, field, s, 12):
        got = char_poly(m).coefficients()
        expected = permutation_charpoly(m.entries)
        assert list(got) == list(expected)


def test_char_poly_raises_when_the_recurrence_is_wrong(corrupt_char_poly):
    with pytest.raises(ArithmeticError):
        char_poly(QUANTUM)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_cayley_hamilton_random(field):
    # char_poly re-verifies annihilation internally on every call
    rng = random.Random(17 if field is QQ else 18)
    for m in draws(rng, field, 3, 100):
        char_poly(m)


def test_char_poly_gf2():
    tf = Novikov.t(F2)
    m = LambdaMatrix(
        ((tf, Novikov.one(F2)), (Novikov.zero(F2), Novikov.zero(F2))),
        grading=GradingContext(1),
    )
    cp = char_poly(m)
    assert cp.a == (tf, Novikov.zero(F2))


# -- rank and kernels -----------------------------------------------------


def test_rank_and_kernel():
    m = QUANTUM
    assert rank(m) == 1
    (v,) = kernel(m)
    # kernel spanned by (1, t)
    assert v == (one, t)
    assert dense_apply(m.entries, v) == (zero, zero)


def test_kernel_of_invertible_is_empty():
    assert kernel(mat_q([[1, 2], [3, 4]])) == []
    assert stabilized_kernel(COMPANION) == []
    with pytest.raises(ValueError, match="superdiagonal"):
        stabilized_kernel(scalar_identity(4))


def test_kernel_rank_dimension_count():
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng, QQ, 4, laurent_only=False)
        assert rank(m) + len(kernel(m)) == 4
        for v in kernel(m):
            assert not any(dense_apply(m.entries, v))


def test_rank_with_rational_function_entries():
    f = one + t
    m = LambdaMatrix(((f, f), (f, f)))
    assert rank(m) == 1


def test_kernel_keeps_a_non_unit_common_factor():
    # an ungraded kernel vector is divided only by a unit, so it keeps
    # the common factor 1 + t: it is -(1 + t) times (1, -1)
    f = one + t
    m = LambdaMatrix(((f, f), (zero, zero)))
    (v,) = kernel(m)
    assert v == tuple(-f * x for x in (one, -one)) == (-one - t, one + t)
    assert dense_apply(m.entries, v) == (zero, zero)


# -- zero-skipping products against the dense loops ------------------------


def sparse_matrices(field, seed, count=30, s=5):
    rng = random.Random(seed)
    mats = [random_matrix(rng, field, s, laurent_only=False) for _ in range(count)]
    entries = [x for m in mats for row in m.entries for x in row]
    assert sum(1 for x in entries if not x) >= 0.4 * len(entries)
    return mats


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_products_match_dense_loops(field):
    # 1 + t brings in entries that are not monomials
    f = Novikov.one(field) + Novikov.t(field)
    mats = sparse_matrices(field, 53)
    for a, b in zip(mats, mats[1:]):
        b_f = LambdaMatrix(tuple(tuple(x * f for x in row) for row in b.entries))
        for rhs in (b, b_f):
            assert (a * rhs).entries == dense_product(a.entries, rhs.entries)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_rank_nullity_on_sparse_matrices(field):
    s = 5
    z = Novikov.zero(field)
    for k, m in enumerate(sparse_matrices(field, 59, s=s)):
        rows = [list(r) for r in m.entries]
        if k % 3 == 1:
            rows[k % s] = [z] * s
        elif k % 3 == 2:
            for row in rows:
                row[k % s] = z
        m = LambdaMatrix(rows)
        assert rank(m) + len(kernel(m)) == s
        for v in kernel(m):
            assert not any(dense_apply(m.entries, v))


def laurent_kernel_matrix(rng, field, s):
    """Random ungraded s x s matrix of Laurent entries, most of them not
    units (1 + t, t^-1 - 2t, ...), whose last d rows (d = 0, 1 or 2) are
    combinations of the first rows with Laurent multipliers that are not
    units either, so its kernel has dimension d or more."""
    def coefficient():
        return rng.choice([-2, -1, 1, 3]) if field is QQ else 1

    def scalar(terms):
        x = Novikov.zero(field)
        for _ in range(terms):
            x = x + Novikov.monomial(field, coefficient(), rng.randint(-1, 2))
        return x

    d = rng.randint(0, min(2, s - 1))
    rows = [[scalar(rng.randint(0, 2)) for _ in range(s)] for _ in range(s - d)]
    for _ in range(d):
        combo = [Novikov.zero(field)] * s
        for row in rows[: s - d]:
            k = scalar(2)
            combo = [x + k * y for x, y in zip(combo, row)]
        rows.append(combo)
    return LambdaMatrix(rows)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_kernel_of_laurent_matrices_against_the_dense_rank(field):
    rng = random.Random(61 if field is QQ else 62)
    seen_non_units = 0
    for s in range(1, 7):
        for _ in range(8):
            m = laurent_kernel_matrix(rng, field, s)
            basis = kernel(m)
            assert len(basis) == s - novikov_rank(m.entries)
            for v in basis:
                assert not any(dense_apply(m.entries, v))
            if basis:
                assert novikov_rank(basis) == len(basis)
            seen_non_units += any(
                len(x.num) > 1 for v in basis for x in v
            )
    assert seen_non_units >= 5


# -- nilpotent structure ---------------------------------------------------


def test_stabilization_index():
    assert stabilization_index(QUANTUM) == 1
    assert stabilization_index(COMPANION) == 0
    with pytest.raises(ValueError, match="superdiagonal"):
        stabilization_index(scalar_identity(3))
    assert stabilization_index(SHIFT) == 3


def test_stabilized_kernel_example():
    ker = stabilized_kernel(QUANTUM)
    assert ker == [(one, t)]


def test_dim_kernel_powers_nondecreasing():
    rng = random.Random(31)
    for _ in range(20):
        m = random_matrix(rng, QQ, 4)
        dims = [4 - rank(m ** k) for k in range(5)]
        assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_jordan_zero_blocks():
    assert jordan_zero_block_sizes(SHIFT) == [3]
    z3 = mat_q([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 1)
    assert jordan_zero_block_sizes(z3) == [1, 1, 1]
    assert jordan_zero_block_sizes(COMPANION) == []
    # blocks [2, 1] and t times the identity: no unreduced Hessenberg form
    mixed = mat_q([[0, 1, 0], [0, 0, 0], [0, 0, 0]], 1)
    for m in (mixed, scalar_identity(3)):
        with pytest.raises(ValueError, match="superdiagonal"):
            jordan_zero_block_sizes(m)


def test_jordan_blocks_sum_to_generalized_kernel():
    rng = random.Random(37)
    for m in draws(rng, QQ, 4, 20):
        blocks = jordan_zero_block_sizes(m)
        assert sum(blocks) == len(stabilized_kernel(m))


def test_image_power_rank():
    m = QUANTUM
    assert rank(m ** 0) == 2
    assert rank(m ** 1) == 1
    assert rank(m ** 2) == 1


def test_kernel_dims_match_powers():
    rng = random.Random(43)
    for m in draws(rng, QQ, 4, 20):
        dims = kernel_dims(m)
        assert dims == [4 - rank(m ** k) for k in range(len(dims))]
        assert 4 - rank(m ** len(dims)) == dims[-1]
    assert kernel_dims(SHIFT) == [0, 1, 2, 3]
    assert kernel_dims(COMPANION) == [0]
    with pytest.raises(ValueError, match="superdiagonal"):
        kernel_dims(scalar_identity(3))


def test_spectrum_agrees_with_the_wrappers():
    rng = random.Random(47)
    for field in (QQ, F2):
        for m in draws(rng, field, 4, 10):
            cp, annihilates, dims = spectrum(m)
            assert annihilates
            assert cp == char_poly(m)
            assert dims == kernel_dims(m)
            assert zero_block_sizes(dims) == jordan_zero_block_sizes(m)


# -- splitting off the nilpotent part --------------------------------------


def test_stable_relation_examples():
    cp = char_poly(QUANTUM)
    p, rel = stable_relation(cp)
    assert p == 1 and rel == (-t, one)

    p, rel = stable_relation(char_poly(SHIFT))
    assert p == 0 and rel == (one,)


def test_stable_relation_full_rank():
    p, rel = stable_relation(char_poly(COMPANION))
    assert p == 2
    assert rel == (6 * t * t, -5 * t, one)


def test_stable_relation_drops_exact_lambda_power():
    rng = random.Random(41)
    for m in draws(rng, QQ, 4, 20):
        cp = char_poly(m)
        p, rel = stable_relation(cp)
        assert len(rel) == p + 1
        assert rel[-1] == one
        if p:
            assert rel[0]
        assert p == rank(m ** 4)


# -- unknown entries --------------------------------------------------------


def test_unknown_positions_block_computation():
    m = LambdaMatrix(
        ((zero, -one), (zero, zero)),
        grading=GradingContext(1),
        unknown=frozenset({(1, 0, 2)}),
    )
    assert not m.is_complete
    with pytest.raises(IncompleteMatrixError):
        char_poly(m)
    with pytest.raises(IncompleteMatrixError):
        rank(m)
    with pytest.raises(IncompleteMatrixError):
        m * m


def test_unknown_positions_validated():
    with pytest.raises(ValueError):
        LambdaMatrix(((one, zero), (zero, zero)), unknown={(0, 0, 1)})
    with pytest.raises(ValueError):
        LambdaMatrix(((zero, zero), (zero, zero)), unknown={(5, 0, 1)})


def test_homogeneity_enforced():
    # N = 2: entry (1, 0) has i - j + 1 = 2, so t^1 fits but t^2 does not
    LambdaMatrix(((zero, -one), (t, zero)), grading=GradingContext(2))
    with pytest.raises(ValueError):
        LambdaMatrix(
            ((zero, -one), (Novikov.t(QQ, 2), zero)), grading=GradingContext(2)
        )
    with pytest.raises(ValueError):
        LambdaMatrix(((one + t, zero), (zero, zero)), grading=GradingContext(2))


def test_matrix_equality_ignores_labels():
    # the grading only validates; r and its multiplication-matrix
    # cross-check carry different grading objects and still compare
    a = LambdaMatrix(((t, -one), (zero, zero)), grading=GradingContext(1))
    b = LambdaMatrix(((t, -one), (zero, zero)))
    assert a == b and hash(a) == hash(b)


def test_rejects_mixed_fields_and_nonsquare():
    with pytest.raises(ValueError):
        LambdaMatrix(((Novikov.one(QQ), Novikov.one(F2)), (zero, zero)))
    with pytest.raises(ValueError):
        LambdaMatrix(((one, zero),))


def test_rejects_entries_that_are_not_novikov_scalars():
    for rows in ([[1]], [[Fraction(1), zero], [zero, zero]], [[one, 2], [zero, zero]]):
        with pytest.raises(ValueError, match="all entries must share one coefficient field"):
            LambdaMatrix(rows)
