"""Closed-form count data: tau coefficients, ranks, splitting types."""

import pytest

from shq.gw import (
    chi_p1,
    entry_position_degree,
    h0_p1,
    h1_p1,
    obstruction_rank,
    splitting_type,
    subdiagonal_entries,
    subdiagonal_entry,
    tau,
    tau_table,
    virdim_sections,
)

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


# -- obstruction bundle and splitting -----------------------------------


def test_obstruction_rank():
    assert obstruction_rank(2, 3) == 6
    assert obstruction_rank(5, 0) == 0
    with pytest.raises(ValueError):
        obstruction_rank(0, 1)


def test_splitting_type_examples():
    assert splitting_type(2, 3, 1) == (2, 1, -4)
    assert splitting_type(1, 2, 2) == (4, -5)
    assert splitting_type(3, 1, 1) == (2, 1, 1, -2)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_splitting_degree_sum(m, n, d):
    assert sum(splitting_type(m, n, d)) == (1 + m - n) * d - 1
    assert len(splitting_type(m, n, d)) == m + 1


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_h1_concentrated_in_vertical_summand(m, n, d):
    split = splitting_type(m, n, d)
    assert sum(h1_p1(k) for k in split) == obstruction_rank(n, d)
    assert all(h1_p1(k) == 0 for k in split[:-1])


# -- line bundle cohomology on the line ----------------------------------


def test_h0_h1_chi():
    assert [h0_p1(d) for d in (-3, -2, -1, 0, 1, 2)] == [0, 0, 0, 1, 2, 3]
    assert [h1_p1(d) for d in (-3, -2, -1, 0, 1)] == [2, 1, 0, 0, 0]
    for d in range(-6, 7):
        assert chi_p1(d) == d + 1
        assert chi_p1(d) == h0_p1(d) - h1_p1(d)


# -- expected dimensions -------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("d", range(1, 5))
def test_virdim(m, n, d):
    assert virdim_sections(m, n, d) == m + (1 + m - n) * d


# -- which entries can a given degree hit --------------------------------


def test_entry_position_monotone():
    # m=5, n=2: N=4; degree one hits rows i = 4 + (j - 1), i.e. (4,1), (5,2)
    assert entry_position_degree(5, 2, 4, 1) == 1
    assert entry_position_degree(5, 2, 5, 2) == 1
    assert entry_position_degree(5, 2, 2, 1) is None
    assert entry_position_degree(5, 2, 5, 1) is None
    # constants on the superdiagonal
    assert entry_position_degree(5, 2, 1, 2) == 0
    assert entry_position_degree(5, 2, 3, 4) == 0


def test_entry_position_last_row_empty():
    for j in range(1, 7):
        assert entry_position_degree(5, 2, 6, j) is None


def test_entry_position_cy():
    # N = 0: only degree zero, only the superdiagonal
    assert entry_position_degree(3, 4, 1, 2) == 0
    assert entry_position_degree(3, 4, 2, 1) is None
    assert entry_position_degree(3, 4, 2, 2) is None


def test_entry_position_large_twist():
    # N = -3 with m = 2: no room below or above for a curve class
    for i in range(1, 4):
        for j in range(1, 4):
            expected = 0 if j == i + 1 and i != 3 else None
            assert entry_position_degree(2, 6, i, j) == expected


def test_entry_position_bounds_checked():
    with pytest.raises(ValueError):
        entry_position_degree(3, 2, 0, 1)
    with pytest.raises(ValueError):
        entry_position_degree(3, 2, 1, 5)
