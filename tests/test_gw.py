"""Closed-form count data: tau coefficients, degree-one entries, the
line-bundle cohomology behind the obstruction bundle, and where each
curve degree can sit in r."""

import pytest

from shq.gw import h1_p1, subdiagonal_entries, subdiagonal_entry, tau, tau_table
from shq.linalg import LambdaMatrix
from shq.novikov import F2, QQ
from shq.pipeline import build_r_matrix, minimal_chern

from oracles import sympy_tau


# -- tau coefficients ---------------------------------------------------


def test_tau_empty_product():
    assert tau_table(1).coeffs == (1,)


def test_tau_n2():
    assert tau_table(2).coeffs == (1, 1)


def test_tau_n3():
    # (x + 2)(2x + 1) = 2 + 5x + 2x^2, frozen against the sympy oracle
    assert tau_table(3).coeffs == (2, 5, 2)
    assert sympy_tau(3) == [2, 5, 2]


@pytest.mark.parametrize("n", range(1, 9))
def test_tau_matches_sympy(n):
    assert list(tau_table(n).coeffs) == sympy_tau(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_tau_sum(n):
    # evaluating the product at x = 1 gives prod A+B=n of n = n^(n-1)
    assert sum(tau_table(n).coeffs) == n ** (n - 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_tau_palindromic(n):
    c = tau_table(n).coeffs
    assert c == tuple(reversed(c))


@pytest.mark.parametrize("n", range(1, 9))
def test_tau_positive(n):
    assert all(c > 0 for c in tau_table(n).coeffs)


@pytest.mark.parametrize("n", range(1, 12))
def test_tau_mod_two(n):
    # swapping A and B pairs the factors off mod 2, leaving for odd n
    # only the middle coefficient; for even n > 2 everything cancels
    c = [v % 2 for v in tau_table(n).coeffs]
    if n == 2:
        assert c == [1, 1]
    elif n % 2 == 0:
        assert c == [0] * n
    else:
        expected = [0] * n
        expected[(n - 1) // 2] = 1
        assert c == expected


def test_tau_rejects_bad_input():
    with pytest.raises(ValueError):
        tau_table(0)
    with pytest.raises(ValueError):
        tau(3, 3)
    with pytest.raises(ValueError):
        tau(-1, 3)


# -- degree-one entries -------------------------------------------------


def test_subdiagonal_entry_examples():
    assert subdiagonal_entry(4, 2, 0) == 4  # 2^2 * tau(0, 2)
    assert subdiagonal_entry(4, 2, 1) == 4
    assert subdiagonal_entry(5, 3, 1) == 45  # 3^2 * 5
    assert subdiagonal_entry(3, 3, 0) == 18
    assert subdiagonal_entry(1, 1, 0) == 1
    assert subdiagonal_entries(5, 3) == (18, 45, 18)


@pytest.mark.parametrize("n", range(1, 7))
def test_subdiagonal_row_sum(n):
    # sum_a n^2 tau(a, n) = n^2 * n^(n-1) = n^(n+1)
    m = n + 2
    assert sum(subdiagonal_entry(m, n, a) for a in range(n)) == n ** (n + 1)


def test_subdiagonal_entry_rejects_out_of_range():
    with pytest.raises(ValueError):
        subdiagonal_entry(4, 2, 2)
    with pytest.raises(ValueError):
        subdiagonal_entry(2, 3, 0)  # N < 1: no degree-one row fits


@pytest.mark.parametrize("n", range(1, 9))
def test_subdiagonal_entries_read_one_table(n):
    m = n + 1
    assert subdiagonal_entries(m, n) == tuple(subdiagonal_entry(m, n, a) for a in range(n))
    with pytest.raises(ValueError):
        subdiagonal_entries(n, n + 1)  # N < 1
    with pytest.raises(ValueError):
        subdiagonal_entries(m, 0)


# -- splitting type and line-bundle cohomology on the line ---------------


def splitting(m: int, n: int, d: int) -> tuple:
    """Degrees of the tangent bundle of the total space along a generic
    degree-d curve in the zero section, descending: 2d once, d with
    multiplicity m-1, then the vertical twist -1-n*d."""
    return (2 * d,) + (d,) * (m - 1) + (-1 - n * d,)


def h0_p1(k: int) -> int:
    return max(k + 1, 0)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_splitting_degree_sum(m, n, d):
    # c1 of the total space on a degree-d curve, less the curve's own
    # Euler characteristic, is the grading N*d - 1 of the product
    assert sum(splitting(m, n, d)) == minimal_chern(m, n) * d - 1
    assert len(splitting(m, n, d)) == m + 1


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_h1_concentrated_in_vertical_summand(m, n, d):
    # the obstruction bundle has rank n*d, all of it vertical
    split = splitting(m, n, d)
    assert sum(h1_p1(k) for k in split) == n * d
    assert all(h1_p1(k) == 0 for k in split[:-1])


def test_h0_h1_chi():
    assert [h1_p1(d) for d in (-3, -2, -1, 0, 1)] == [2, 1, 0, 0, 0]
    for d in range(-6, 7):
        # Riemann-Roch and Serre duality on the line
        assert h0_p1(d) - h1_p1(d) == d + 1
        assert h1_p1(d) == h0_p1(-2 - d)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("d", range(1, 5))
def test_virdim(m, n, d):
    # expected dimension of degree-d sections: chi of the splitting type
    chi = sum(h0_p1(k) - h1_p1(k) for k in splitting(m, n, d))
    assert chi == m + minimal_chern(m, n) * d


# -- which entries can a given degree hit --------------------------------
# A degree-d term of r sits at 1-indexed (i, j) with N*d = i - j + 1, and
# the last row receives nothing.


def nonzero_positions(r) -> dict:
    """1-indexed position -> (coefficient, t-power) of each nonzero entry."""
    return {
        (i + 1, j + 1): (x.coeff, x.power)
        for i, row in enumerate(r.entries)
        for j, x in enumerate(row)
        if x
    }


def test_entry_position_monotone():
    # m=5, n=2: N=4; degree one hits rows i = 4 + (j - 1), i.e. (4,1), (5,2)
    r = build_r_matrix(5, 2)
    assert not r.unknown
    assert nonzero_positions(r) == {
        **{(i, i + 1): (-2, 0) for i in range(1, 6)},
        (4, 1): (4, 1),
        (5, 2): (4, 1),
    }


def test_entry_position_last_row_empty():
    for field in (QQ, F2):
        for m in range(1, 9):
            for n in list(range(1, m + 2)) + [2 * m + 1]:
                r = build_r_matrix(m, n, field)
                assert not any(r.entries[m])
                assert all(i < m for (i, _, _) in r.unknown)


def test_entry_position_cy():
    # N = 0: only degree zero, only the superdiagonal
    assert nonzero_positions(build_r_matrix(3, 4)) == {
        (i, i + 1): (-4, 0) for i in range(1, 4)
    }


def test_entry_position_large_twist():
    # N = -3 with m = 2: no room below or above for a curve class
    assert nonzero_positions(build_r_matrix(2, 6)) == {(1, 2): (-6, 0), (2, 3): (-6, 0)}


def test_entry_position_bounds_checked():
    # the grading rejects an entry or a t-power where N*d != i - j + 1
    r = build_r_matrix(3, 2)
    rows = [dict(row) for row in r.rows]
    rows[0][0] = 1
    with pytest.raises(ValueError, match="does not fit grading N = 2"):
        LambdaMatrix(QQ, r.grading, rows)
    with pytest.raises(ValueError, match="grading needs N\\*d = -2"):
        LambdaMatrix(QQ, r.grading, r.rows, unknown={(0, 3, 1)})
