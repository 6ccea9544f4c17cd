"""Graded matrices are stored as their rows at t = 1.

r and the multiplication-matrix cross-check are written as ground rows;
these tests hold them to the Novikov grids built entry by entry, in
entries, rendering, equality and hash, and check that building and using
r at m = 400 no longer allocates an s^2 grid.
"""

import tracemalloc

import pytest

from oracles import novikov_grid_r, novikov_multiplication_matrix
from shq.linalg import LambdaMatrix
from shq.novikov import F2, QQ, GradingContext, Novikov
from shq.pipeline import UnsupportedRegimeError, build_r_matrix, compute_sh
from shq.ring import multiplication_matrix
from test_golden import MAX_M

FIELDS = [QQ, F2]
FIELD_IDS = ["Q", "GF2"]


def grid_strings(entries, unknown) -> list:
    grid = [[str(x) for x in row] for row in entries]
    for (i, j, d) in unknown:
        grid[i][j] = "?*t" if d == 1 else f"?*t^{d}"
    return grid


def assert_same_matrix(mat, entries, unknown=frozenset()):
    """mat has the given Novikov entries and unknowns, renders them the
    same way, and equals and hashes like the grid read with and without
    its grading."""
    assert mat.entries == entries
    assert mat.unknown == unknown
    assert mat.to_strings() == grid_strings(entries, unknown)
    for other in (LambdaMatrix(entries, mat.grading, unknown), LambdaMatrix(entries, None, unknown)):
        assert mat == other and other == mat
        assert hash(mat) == hash(other)


def golden_pairs():
    for m in range(1, MAX_M + 1):
        for n in range(1, 2 * m + 4):
            if not 2 + m <= n <= 2 * m:
                yield m, n


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_row_built_r_and_mm_match_the_novikov_grids(field):
    seen = 0
    for m, n in golden_pairs():
        r = build_r_matrix(m, n, field)
        entries, unknown = novikov_grid_r(m, n, field)
        assert_same_matrix(r, entries, unknown)
        # a fresh r, so no entry view is cached on either side of ==
        assert build_r_matrix(m, n, field) == LambdaMatrix(entries, r.grading, unknown)
        res = compute_sh(m, n, field, trials=1)
        if r.is_complete and field.of(-n):
            c1 = res.qh.gen() * Novikov.constant(field, -n)
            mm = multiplication_matrix(res.qh, c1)
            assert mm.grading == r.grading
            assert_same_matrix(mm, novikov_multiplication_matrix(res.qh, c1).entries)
            seen += 1
    assert seen >= 50


def test_refused_band_has_no_matrix():
    with pytest.raises(UnsupportedRegimeError):
        build_r_matrix(3, 5)


# -- pinned cases ----------------------------------------------------------------

zero, one, t = Novikov.zero(QQ), Novikov.one(QQ), Novikov.t(QQ)


def test_graded_and_ungraded_with_equal_entries_are_equal():
    entries = ((t, -one), (zero, zero))
    graded = LambdaMatrix(entries, GradingContext(1))
    ungraded = LambdaMatrix(entries)
    assert graded.at_one is not None and ungraded.at_one is None
    assert graded == ungraded and ungraded == graded
    assert hash(graded) == hash(ungraded)
    assert graded != LambdaMatrix(((t, -one), (zero, one)))


def test_gradings_that_differ_only_in_n_compare_by_entries():
    # superdiagonal constants fit every N: equal rows, equal entries
    shift = ((zero, -one), (zero, zero))
    a, b = LambdaMatrix(shift, GradingContext(1)), LambdaMatrix(shift, GradingContext(2))
    assert a.at_one[2] == b.at_one[2]
    assert a == b and hash(a) == hash(b)
    # equal rows at t = 1 but t^2 at N = 1 against t at N = 2
    c = LambdaMatrix(((zero, -one), (Novikov.t(QQ, 2), zero)), GradingContext(1))
    d = LambdaMatrix(((zero, -one), (t, zero)), GradingContext(2))
    assert c.at_one[2] == d.at_one[2]
    assert c != d and d != c
    # the same rows over another field differ too
    q = LambdaMatrix(((zero, one), (zero, zero)), GradingContext(1))
    f2 = LambdaMatrix(((Novikov.zero(F2), Novikov.one(F2)), (Novikov.zero(F2),) * 2), GradingContext(1))
    assert q.at_one[2] == f2.at_one[2]
    assert q != f2


def test_from_rows_reduces_and_checks_the_grading():
    mat = LambdaMatrix.from_rows(F2, GradingContext(1), [{0: 4, 1: -3}, {}])
    assert mat.at_one == (1, 2, ({1: 1}, {}))
    assert mat.to_strings() == [["0", "1"], ["0", "0"]]
    with pytest.raises(ValueError, match="does not fit grading N = 2"):
        LambdaMatrix.from_rows(QQ, GradingContext(2), [{0: 1}, {}])
    with pytest.raises(ValueError, match="zero placeholder"):
        LambdaMatrix.from_rows(QQ, GradingContext(1), [{0: 1}, {}], {(0, 0, 1)})


# -- memory --------------------------------------------------------------------


def test_r_at_m_400_keeps_no_novikov_grid():
    # the s^2 grid of r at (400, 401) held 1.37 MB; its rows hold about 0.1 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = build_r_matrix(400, 401)
        kept = tracemalloc.get_traced_memory()[0] - before
        del r
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        compute_sh(400, 401, trials=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert kept < 0.5e6, kept
    assert peak < 3e6, peak
