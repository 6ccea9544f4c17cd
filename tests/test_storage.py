"""Matrices are stored as their rows at t = 1, with a grading and a weight.

r and the multiplication-matrix cross-check are written as ground rows;
these tests hold them to the Novikov grids built entry by entry, in
entries, rendering, equality and hash, check that the stored values and
the Novikov views hold the same ground values, and check that building,
using and printing r at large m allocates no s^2 grid of Novikov scalars.
"""

import tracemalloc
from fractions import Fraction

import pytest

from oracles import graded_matrix, novikov_grid_r, novikov_multiplication_matrix
from shq.linalg import CharPoly, LambdaMatrix
from shq.novikov import F2, QQ, GradingContext, Novikov
from shq.pipeline import (
    UnsupportedRegimeError,
    build_r_matrix,
    compute_sh,
    result_to_dict,
    result_to_text,
)
from shq.ring import (
    RingElement,
    RingPresentation,
    change_generator,
    multiplication_matrix,
    relation_str,
)
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
    same way, and equals and hashes like the grid read into rows."""
    assert mat.entries == entries
    assert mat.unknown == unknown
    assert mat.to_strings() == grid_strings(entries, unknown)
    other = graded_matrix(entries, mat.grading.N, unknown, mat.weight)
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
        assert build_r_matrix(m, n, field) == graded_matrix(entries, r.grading.N, unknown)
        res = compute_sh(m, n, field, trials=1)
        if r.is_complete and field.of(-n):
            c1 = res.qh.gen() * Novikov.constant(field, -n)
            mm = multiplication_matrix(res.qh, c1)
            assert mm.grading == r.grading
            assert_same_matrix(mm, novikov_multiplication_matrix(res.qh, c1))
            seen += 1
    assert seen >= 50


def test_refused_band_has_no_matrix():
    with pytest.raises(UnsupportedRegimeError):
        build_r_matrix(3, 5)


# -- pinned cases ----------------------------------------------------------------

zero, one, t = Novikov.zero(QQ), Novikov.one(QQ), Novikov.monomial(QQ, 1, 1)


def test_gradings_that_differ_only_in_n_are_unequal():
    # superdiagonal constants fit every N: equal rows, equal entries, but
    # the grading is part of the matrix
    shift = [{1: -1}, {}]
    a, b = LambdaMatrix(QQ, GradingContext(1), shift), LambdaMatrix(QQ, GradingContext(2), shift)
    assert a.rows == b.rows and a.entries == b.entries
    assert a != b and b != a
    # equal rows at t = 1 but t^2 at N = 1 against t at N = 2
    c = LambdaMatrix(QQ, GradingContext(1), [{1: -1}, {0: 1}])
    d = LambdaMatrix(QQ, GradingContext(2), [{1: -1}, {0: 1}])
    assert c.entries[1][0] == Novikov.monomial(QQ, 1, 2) and d.entries[1][0] == t
    assert c != d and d != c
    # the same rows over another field differ too
    q = LambdaMatrix(QQ, GradingContext(1), [{1: 1}, {}])
    f2 = LambdaMatrix(F2, GradingContext(1), [{1: 1}, {}])
    assert q.rows == f2.rows
    assert q != f2


def test_zero_matrices_are_equal_at_every_weight():
    # the weight places the t-powers of nonzero entries; a zero matrix has none
    g = GradingContext(2)
    zero0, zero2 = (LambdaMatrix(QQ, g, [{}, {}], weight=w) for w in (0, 2))
    assert zero0.entries == zero2.entries
    assert zero0 == zero2 and hash(zero0) == hash(zero2)
    one0, one2 = (LambdaMatrix(QQ, g, [{0: 1}, {}], weight=w) for w in (0, 2))
    assert one0.entries != one2.entries and one0 != one2
    assert zero0 != LambdaMatrix(QQ, g, [{}, {}], {(1, 0, 1)}, weight=1)


def test_the_constructor_reduces_and_checks_the_grading():
    mat = LambdaMatrix(F2, GradingContext(1), [{0: 4, 1: -3}, {}])
    assert mat.rows == ({1: 1}, {})
    assert mat.to_strings() == [["0", "1"], ["0", "0"]]
    assert LambdaMatrix(QQ, GradingContext(1), [{1: Fraction(4, 2)}, {}]).rows == ({1: 2}, {})
    with pytest.raises(ValueError, match="does not fit grading N = 2"):
        LambdaMatrix(QQ, GradingContext(2), [{0: 1}, {}])
    with pytest.raises(ValueError, match="zero placeholder"):
        LambdaMatrix(QQ, GradingContext(1), [{0: 1}, {}], {(0, 0, 1)})


def test_gf2_constructors_read_fractions_as_bits():
    g = GradingContext(1)
    mat = LambdaMatrix(F2, g, [{0: Fraction(1, 3), 1: Fraction(2, 5)}, {}])
    assert mat.rows == ({0: 1}, {})
    pres = RingPresentation("c", F2, g, (Fraction(1, 3), 1))
    assert pres.values == (1, 1)
    assert RingElement(pres, (Fraction(-5, 3),), 0).values == (1,)
    assert CharPoly(F2, g, (Fraction(1, 3), Fraction(4, 7))).values == (1, 0)
    for stored in (mat.rows[0].values(), pres.values):
        assert all(type(c) is int for c in stored)
    with pytest.raises(ZeroDivisionError):
        LambdaMatrix(F2, g, [{0: Fraction(1, 2)}])
    with pytest.raises(ZeroDivisionError):
        RingPresentation("c", F2, g, (Fraction(1, 2), 1))
    with pytest.raises(ZeroDivisionError):
        RingElement(pres, (Fraction(3, 4),), 0)
    with pytest.raises(ZeroDivisionError):
        CharPoly(F2, g, (Fraction(1, 2),))


def assert_view_holds(field, view, stored):
    """Each stored value is a ground value of field.of, and the Novikov
    scalar beside it has that coefficient, of the same type."""
    for x, c in zip(view, stored, strict=True):
        assert c == field.of(c) and type(c) is type(field.of(c))
        assert x.coeff == c and type(x.coeff) is type(c)


def assert_text_holds(owner, view, ks):
    # the text rendered from the stored values is that of the view
    assert [owner.coefficient_str(k) for k in ks] == list(map(str, view))


def assert_ring_views_hold(pres):
    assert_view_holds(pres.field, pres.relation, pres.values)
    assert_text_holds(pres, pres.relation, range(len(pres.values)))
    elements = [pres.gen_power(k) for k in range(pres.rank + 2)]
    elements += [x * y for x in elements for y in elements[1:3]]
    for x in elements:
        assert_view_holds(pres.field, x.coeffs, x.values)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("m, n", [(2, 1), (4, 2), (5, 3), (6, 7), (7, 4)])
def test_views_hold_the_stored_values(field, m, n):
    res = compute_sh(m, n, field, trials=1)
    r, cp = res.r_matrix, res.char
    for i, row in enumerate(r.entries):
        assert_view_holds(field, row, [r.rows[i].get(j, 0) for j in range(r.size)])
    assert r.to_strings() == [list(map(str, row)) for row in r.entries]
    assert_view_holds(field, cp.a, cp.values)
    assert_text_holds(cp, cp.a, range(1, cp.size + 1))
    for pres in (res.qh, res.qh_c, res.sh):
        if isinstance(pres, RingPresentation):
            assert_ring_views_hold(pres)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_views_hold_fraction_values(field):
    # the closed forms are integral; a relation in c with a Fraction
    # constant term gives Fractions over Q again after c = -3 * omega
    pres = RingPresentation("c", field, GradingContext(1), (Fraction(1, 3), 0, 1))
    assert_ring_views_hold(pres)
    if field is QQ:
        omega = change_generator(pres, 3)
        assert omega.values == (Fraction(1, 27), 0, 1)
        assert_ring_views_hold(omega)


def test_repr_builds_no_novikov_grid(constructions):
    # (8, 6): N = 3, the d = 2 corrections unknown
    r = build_r_matrix(8, 6)
    text = repr(r)
    assert text.startswith("LambdaMatrix[0, -6, 0, 0, 0, 0, 0, 0, 0; 0, 0, -6,")
    assert "?*t^2" in text
    assert constructions == []
    assert repr(LambdaMatrix(QQ, GradingContext(1), [{0: 1}, {}])) == "LambdaMatrix[t, 0; 0, 0]"


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rendering_builds_no_novikov_scalar(field, constructions):
    # each rendered coefficient is one monomial c*t^d, rendered from its
    # ground value: no scalar per nonzero entry or coefficient
    r = build_r_matrix(32, 32, field)
    res = compute_sh(16, 8, field, trials=1)
    assert res.qh.complete and res.char is not None
    constructions.clear()
    r.to_strings()
    relation_str(res.qh)
    result_to_dict(res)
    result_to_text(res)
    assert constructions == []


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
