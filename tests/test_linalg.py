"""Graded matrices over the Novikov field: characteristic polynomial,
rank, generalized kernels and products."""

import random

import pytest

import shq.linalg
from shq.linalg import (
    IncompleteMatrixError,
    LambdaMatrix,
    _annihilates,
    char_poly,
    horner,
    jordan_zero_block_sizes,
    kernel_dims,
    mat_vec,
    rank,
    spectrum,
    stabilization_index,
    stabilized_kernel,
    stable_relation,
)
from shq.novikov import F2, GradingContext, Novikov, QQ
from shq.pipeline import build_r_matrix

from oracles import (
    Scalar,
    dense_apply,
    dense_powers,
    dense_product,
    graded_matrix,
    novikov_rank,
    permutation_charpoly,
    rref_kernel,
)
from test_graded import (
    assert_matches_oracle,
    assert_rank_and_kernel,
    assert_refused,
    random_graded,
)


def mat_q(rows, N=1):
    """A matrix over Q of weight 1 at grading N, from a grid of ints and
    Novikov monomials."""
    return graded_matrix(
        [[x if isinstance(x, Novikov) else Scalar.constant(QQ, x) for x in r] for r in rows], N
    )


def draws(rng, field, s, count):
    """count random graded matrices of size s, lower Hessenberg with a
    nonzero superdiagonal, over a few gradings N."""
    return [random_graded(rng, field, s, rng.choice([-1, 0, 1, 2])) for _ in range(count)]


t = Scalar.monomial(QQ, 1, 1)
one = Scalar.one(QQ)
zero = Scalar.zero(QQ)

# graded examples at N = 1: the smallest quantum operator (m = n = 1),
# the companion matrix of (L - 2t)(L - 3t), the shift and t times the
# identity, whose zero superdiagonal is refused
QUANTUM = mat_q([[t, -1], [0, 0]])
COMPANION = mat_q([[5 * t, 1], [-6 * t * t, 0]])
SHIFT = mat_q([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def scalar_identity(s):
    return mat_q([[t if i == j else 0 for j in range(s)] for i in range(s)])


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
    assert_refused(mat_q([[2 * t, 0], [0, 3 * t]]))
    # (L-2t)(L-3t) = L^2 - 5t L + 6t^2 from its companion form
    assert char_poly(COMPANION).a == (-5 * t, 6 * t * t)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_char_poly_matches_permutation_expansion(field, s):
    rng = random.Random(100 * s + (0 if field is QQ else 1))
    for m in draws(rng, field, s, 12):
        got = [Novikov.one(field), *char_poly(m).a]
        assert got == permutation_charpoly(m.entries)


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
    tf = Novikov.monomial(F2, 1, 1)
    m = LambdaMatrix(F2, GradingContext(1), [{0: 1, 1: 1}, {}])
    cp = char_poly(m)
    assert cp.a == (tf, Novikov.zero(F2))


# -- rank and kernels -----------------------------------------------------


def test_rank_and_kernel():
    m = QUANTUM
    assert rank(m) == 1
    (v,) = stabilized_kernel(m)
    # kernel spanned by (1, t)
    assert v == (one, t)
    assert dense_apply(m.entries, v) == (zero, zero)


def test_kernel_of_invertible_is_empty():
    invertible = mat_q([[2 * t, 1], [3 * t * t, 4 * t]])
    assert stabilized_kernel(invertible) == [] and rank(invertible) == 2
    assert stabilized_kernel(COMPANION) == []
    with pytest.raises(ValueError, match="superdiagonal"):
        stabilized_kernel(scalar_identity(4))


def test_rank_and_stabilized_kernel_read_the_solve_once(monkeypatch):
    calls = []
    real = shq.linalg._solve

    def counted(op):
        calls.append(op)
        return real(op)

    monkeypatch.setattr(shq.linalg, "_solve", counted)
    for m in (QUANTUM, COMPANION, SHIFT, build_r_matrix(6, 3)):
        for f in (rank, stabilized_kernel):
            calls.clear()
            f(m)
            assert len(calls) == 1, (f.__name__, m)


def test_the_kernel_views_skip_cayley_hamilton(monkeypatch):
    # the views read the solve and the Jordan chain only; spectrum and
    # char_poly still run the Cayley-Hamilton check
    views = (rank, kernel_dims, stabilization_index, jordan_zero_block_sizes, stabilized_kernel)
    mats = (QUANTUM, COMPANION, SHIFT, build_r_matrix(6, 3))
    expected = [f(m) for m in mats for f in views]

    def refused(mat, c):
        raise RuntimeError("Cayley-Hamilton ran")

    monkeypatch.setattr(shq.linalg, "_annihilates", refused)
    assert [f(m) for m in mats for f in views] == expected
    for f in (spectrum, char_poly):
        with pytest.raises(RuntimeError, match="Cayley-Hamilton ran"):
            f(QUANTUM)


# -- zero-skipping products against the dense loops ------------------------


def sparse_matrices(field, seed, N, count=30, s=5):
    rng = random.Random(seed)
    mats = [random_graded(rng, field, s, N, hessenberg=False) for _ in range(count)]
    entries = [x for m in mats for row in m.entries for x in row]
    assert sum(1 for x in entries if not x) >= 0.4 * len(entries)
    return mats


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_products_match_dense_loops(field):
    # weights add: b * b has weight 2, the identity weight 0
    for N in (-2, 2, 3):
        mats = sparse_matrices(field, 53 + N, N)
        ident = LambdaMatrix(field, GradingContext(N), [{i: 1} for i in range(5)], weight=0)
        for a, b in zip(mats, mats[1:]):
            for rhs in (b, b * b, ident):
                product = a * rhs
                assert product.weight == a.weight + rhs.weight
                assert product.entries == dense_product(a.entries, rhs.entries)


def lift(field, grading, v: dict, s: int, weight) -> tuple:
    """The Novikov vector of the sparse vector v at t = 1, component i
    of weight weight(i)."""
    return tuple(Scalar(field, v.get(i, 0), grading.t_power(weight(i))) for i in range(s))


def columns(mat) -> list:
    """The columns of mat(1), {row: value} each."""
    return [{i: row[j] for i, row in enumerate(mat.rows) if j in row} for j in range(mat.size)]


def core_draws(field, seed, count=80):
    """(mat, u, coeffs): a random sparse graded matrix of weight 1 and
    any shape with s <= 12, a sparse vector whose component i has weight
    i, and coefficients c_0, ..., c_K with c_k of weight k."""
    rng = random.Random(seed)
    for _ in range(count):
        s, grading = rng.randint(1, 12), GradingContext(rng.choice([-1, 1, 2, 3]))

        def draw(k, density):
            if grading.t_power(k) is None or rng.random() >= density:
                return 0
            return field.of(rng.choice([-3, -2, -1, 1, 3, 5]))

        rows = [{j: draw(i - j + 1, 0.25) for j in range(s)} for i in range(s)]
        u = {i: x for i in range(s) if (x := draw(i, 0.4))}
        coeffs = [draw(k, 0.8) for k in range(rng.randint(0, 6))]
        yield LambdaMatrix(field, grading, rows), u, coeffs


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_mat_vec_and_horner_match_dense_loops(field):
    # p(mat) u = sum_k a_k mat^(K-k) u with a_k = c_k t^(k/N) is
    # homogeneous of weight K; the oracle is the dense double loop
    mod, nontrivial = field.characteristic, 0
    for mat, u, coeffs in core_draws(field, 261):
        s, grading, entries = mat.size, mat.grading, mat.entries
        cols, vec = columns(mat), lift(field, grading, u, s, lambda i: i)
        got = lift(field, grading, mat_vec(cols, u, mod), s, lambda i: i + 1)
        assert got == dense_apply(entries, vec)
        want = (Scalar.zero(field),) * s
        for k, c in enumerate(coeffs):
            a = Scalar(field, c, grading.t_power(k))
            want = tuple(x + a * y for x, y in zip(dense_apply(entries, want), vec))
        K = len(coeffs) - 1
        assert lift(field, grading, horner(cols, coeffs, u, mod), s, lambda i: i + K) == want
        nontrivial += any(want)
    assert nontrivial >= 20


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_horner_on_the_rows_is_the_row_vector_times_p(field):
    # the rows of mat are the columns of its transpose, so horner over
    # them gives u^T p(mat); p(mat) by dense products of the entries
    mod, nontrivial = field.characteristic, 0
    for mat, u, coeffs in core_draws(field, 262):
        s, grading = mat.size, mat.grading
        zero = Scalar.zero(field)
        p = [[zero] * s for _ in range(s)]
        for k, c in enumerate(coeffs):
            a = Scalar(field, c, grading.t_power(k))
            p = [
                [x + a if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(dense_product(p, mat.entries))
            ]
        # row component i has weight -i, so that of u^T p(mat) at j is K - j
        row = lift(field, grading, u, s, lambda i: -i)
        want = tuple(sum((row[i] * p[i][j] for i in range(s)), zero) for j in range(s))
        K = len(coeffs) - 1
        assert lift(field, grading, horner(mat.rows, coeffs, u, mod), s, lambda j: K - j) == want
        nontrivial += any(want)
    assert nontrivial >= 20


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_cayley_hamilton_refuses_each_single_changed_coefficient(field):
    # r(1) is not symmetric, so a check that read r where it should read
    # its transpose would pass some of these
    r = build_r_matrix(8, 3, field)
    assert list(r.rows) != columns(r)
    c = list(char_poly(r).values)
    assert _annihilates(r, c)
    for k in range(len(c)):
        changed = c[:k] + [field.of(c[k] + 1)] + c[k + 1:]
        assert not _annihilates(r, changed), k


def singular_graded(rng, field, s, N, k) -> LambdaMatrix:
    """A random graded lower Hessenberg matrix with a nonzero
    superdiagonal whose last row (k odd) or first column (k even) is
    zeroed: the shape the core takes, and singular."""
    rows = [dict(row) for row in random_graded(rng, field, s, N).rows]
    if k % 2:
        rows[-1] = {}
    else:
        rows = [{j: x for j, x in row.items() if j} for row in rows]
    return LambdaMatrix(field, GradingContext(N), rows)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_rank_nullity_on_sparse_matrices(field):
    # sparse Hessenberg matrices at N = 2, two in three made singular
    rng, s, singular = random.Random(59), 5, 0
    for k in range(30):
        m = singular_graded(rng, field, s, 2, k) if k % 3 else random_graded(rng, field, s, 2)
        nullity = len(rref_kernel(m.entries))
        assert rank(m) == novikov_rank(m.entries) == s - nullity
        singular += nullity > 0
    assert singular >= 20


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_kernel_of_laurent_matrices_against_the_dense_rank(field):
    # at N < 0 the generalized kernel vectors carry negative t-powers
    rng = random.Random(61 if field is QQ else 62)
    seen_negative = 0
    for s in range(1, 7):
        for k in range(8):
            m = singular_graded(rng, field, s, rng.choice([-2, -1, 1, 2, 3]), k)
            assert_matches_oracle(m)
            assert_rank_and_kernel(m)
            seen_negative += any(x.power < 0 for v in stabilized_kernel(m) for x in v if x)
    assert seen_negative >= 5


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


def test_jordan_zero_blocks():
    assert jordan_zero_block_sizes(SHIFT) == [3]
    z3 = mat_q([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert jordan_zero_block_sizes(z3) == [1, 1, 1]
    assert jordan_zero_block_sizes(COMPANION) == []
    # blocks [2, 1] and t times the identity: no unreduced Hessenberg form
    mixed = mat_q([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for m in (mixed, scalar_identity(3)):
        with pytest.raises(ValueError, match="superdiagonal"):
            jordan_zero_block_sizes(m)


def test_jordan_blocks_sum_to_generalized_kernel():
    rng = random.Random(37)
    for m in draws(rng, QQ, 4, 20):
        blocks = jordan_zero_block_sizes(m)
        assert sum(blocks) == len(stabilized_kernel(m))


def test_image_power_rank():
    # rank(m^k) = 2 - dim ker(m^k): 2, then 1 from k = 1 on
    assert rank(QUANTUM) == 1
    assert [2 - d for d in kernel_dims(QUANTUM)] == [2, 1]


def test_kernel_dims_match_powers():
    rng = random.Random(43)
    for m in draws(rng, QQ, 4, 20):
        # dim ker(m^k) for k = 0, ..., K + 1, K the stabilization index
        dims = kernel_dims(m)
        powers = dense_powers(m.entries, len(dims))
        assert dims + dims[-1:] == [0] + [4 - novikov_rank(p) for p in powers]
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
            # as many blocks as dim ker m, filling the generalized kernel
            blocks = jordan_zero_block_sizes(m)
            assert len(blocks) == (dims[1] if len(dims) > 1 else 0)
            assert sum(blocks) == dims[-1]


# -- splitting off the nilpotent part --------------------------------------


def test_stable_relation_examples():
    cp = char_poly(QUANTUM)
    p, rel = stable_relation(cp)
    assert p == 1 and rel == (-1, 1)

    p, rel = stable_relation(char_poly(SHIFT))
    assert p == 0 and rel == (1,)


def test_stable_relation_full_rank():
    p, rel = stable_relation(char_poly(COMPANION))
    assert p == 2
    assert rel == (6, -5, 1)


def test_stable_relation_drops_exact_lambda_power():
    rng = random.Random(41)
    for m in draws(rng, QQ, 4, 20):
        cp = char_poly(m)
        p, rel = stable_relation(cp)
        assert len(rel) == p + 1
        assert rel[-1] == 1
        if p:
            assert rel[0]
        assert p == novikov_rank(dense_powers(m.entries, 4)[-1])


# -- unknown entries --------------------------------------------------------


def test_unknown_positions_block_computation():
    m = LambdaMatrix(QQ, GradingContext(1), [{1: -1}, {}], unknown={(1, 0, 2)})
    assert not m.is_complete
    with pytest.raises(IncompleteMatrixError):
        char_poly(m)
    with pytest.raises(IncompleteMatrixError):
        rank(m)
    with pytest.raises(IncompleteMatrixError):
        m * m


def test_unknown_positions_validated():
    g = GradingContext(1)
    with pytest.raises(ValueError, match="zero placeholder"):
        LambdaMatrix(QQ, g, [{0: 1}, {}], unknown={(0, 0, 1)})
    with pytest.raises(ValueError, match="out of range"):
        LambdaMatrix(QQ, g, [{}, {}], unknown={(5, 0, 1)})
    with pytest.raises(ValueError, match="N\\*d = 2"):
        LambdaMatrix(QQ, g, [{}, {}], unknown={(1, 0, 1)})


def test_homogeneity_enforced():
    # N = 2: entry (1, 0) has i - j + 1 = 2, so it fits (as t), and
    # entry (0, 0) has i - j + 1 = 1, which fits no t-power; at weight 2
    # it fits (as t) and (1, 0) does not
    g = GradingContext(2)
    LambdaMatrix(QQ, g, [{1: -1}, {0: 1}])
    with pytest.raises(ValueError, match="does not fit grading N = 2 at weight 1"):
        LambdaMatrix(QQ, g, [{0: 1}, {}])
    assert LambdaMatrix(QQ, g, [{0: 1}, {}], weight=2).entries[0][0] == t
    with pytest.raises(ValueError, match="at weight 2"):
        LambdaMatrix(QQ, g, [{}, {0: 1}], weight=2)


def test_matrix_equality_sees_grading_and_weight():
    # the same rows are a different matrix at another weight, grading or
    # field: at N = 1 the identity (weight 0) is not t times it (weight 1)
    g1 = GradingContext(1)
    ident = LambdaMatrix(QQ, g1, [{0: 1}, {1: 1}], weight=0)
    t_ident = LambdaMatrix(QQ, g1, [{0: 1}, {1: 1}])
    assert ident.rows == t_ident.rows
    assert ident.entries == ((one, zero), (zero, one))
    assert t_ident.entries == ((t, zero), (zero, t))
    assert ident != t_ident and hash(ident) != hash(t_ident)
    shift = [{1: -1}, {}]
    for other in (
        LambdaMatrix(QQ, GradingContext(2), shift),
        LambdaMatrix(F2, g1, shift),
        LambdaMatrix(QQ, g1, shift, unknown={(1, 0, 2)}),
    ):
        assert LambdaMatrix(QQ, g1, shift) != other
    # equal data, separately built: equal and equally hashed
    a, b = QUANTUM, mat_q([[t, -1], [0, 0]])
    assert a is not b and a == b and hash(a) == hash(b)


def test_rejects_mixed_fields_and_nonsquare():
    g1 = GradingContext(1)
    q = LambdaMatrix(QQ, g1, [{1: 1}, {}])
    # a product across fields or gradings, or of two sizes, is refused
    for other in (
        LambdaMatrix(F2, g1, [{1: 1}, {}]),
        LambdaMatrix(QQ, GradingContext(2), [{1: 1}, {}]),
        LambdaMatrix(QQ, g1, [{}, {}, {}]),
    ):
        with pytest.raises(ValueError, match="one field, one grading and one size"):
            q * other
    with pytest.raises(ValueError, match="does not fit"):
        LambdaMatrix(QQ, g1, [{1: 1, 2: 1}, {}])
    with pytest.raises(ValueError, match="nonempty"):
        LambdaMatrix(QQ, g1, [])
