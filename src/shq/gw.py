"""Closed-form section counts for the total space of O(-n) over P^m.

Degree-one holomorphic spheres in the total space are lines in the base
together with the zero section of O(-n) along them; the resulting
three-point counts with one interior constraint are polynomial in n.
They are packaged here through the generating product

    prod_{A+B=n, A,B>=1} (A*x + B)

whose x^a coefficient tau(a, n) satisfies: the degree-one count pairing
the (a+1)-st power of the hyperplane class with a fibrewise P^(n-a)
equals n^2 * tau(a, n).

Everything in this module is integer combinatorics; the equivariant
fixed-point computation that independently produces the same numbers
lives in the localization module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TauTable:
    """Coefficients tau(0, n) .. tau(n-1, n), exact integers."""

    n: int
    coeffs: tuple

    def __getitem__(self, a: int) -> int:
        return self.coeffs[a]


def tau_table(n: int) -> TauTable:
    """Expand prod_{A=1}^{n-1} (A*x + (n-A)); ascending coefficients.

    The empty product (n = 1) is 1, so tau(0, 1) = 1.
    """
    if n < 1:
        raise ValueError(f"twist must be a positive integer, got {n}")
    coeffs = [1]
    for A in range(1, n):
        B = n - A
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += B * c
            nxt[k + 1] += A * c
        coeffs = nxt
    coeffs += [0] * (n - len(coeffs))
    return TauTable(n, tuple(coeffs))


def tau(a: int, n: int) -> int:
    if not 0 <= a <= n - 1:
        raise ValueError(f"index {a} out of range for twist {n}")
    return tau_table(n)[a]


def subdiagonal_entry(m: int, n: int, a: int) -> int:
    """Coefficient of t in row N+a, column 1+a of the degree-one part
    of quantum multiplication by the first Chern class: n^2 * tau(a, n).

    Defined when lines in the base have nonnegative vertical obstruction
    weights on both markings, i.e. 0 <= a <= n-1, and the row index
    stays inside the matrix, i.e. n <= m (equivalently N >= 1).
    """
    entries = subdiagonal_entries(m, n)
    if not 0 <= a <= n - 1:
        raise ValueError(f"offset {a} out of range 0..{n - 1}")
    return entries[a]


def subdiagonal_entries(m: int, n: int) -> tuple:
    """subdiagonal_entry for a = 0, ..., n-1, from one tau table."""
    if not 1 <= n <= m:
        raise ValueError(f"degree-one entries need 1 <= n <= m, got n={n}, m={m}")
    return tuple(n * n * c for c in tau_table(n).coeffs)


def obstruction_rank(n: int, d: int) -> int:
    """Rank of the obstruction bundle over degree-d stable maps: n*d."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return n * d


def splitting_type(m: int, n: int, d: int) -> tuple:
    """Degrees of the tangent bundle of the total space pulled back
    along a generic degree-d rational curve in the zero section.

    Returned descending: 2d once, d with multiplicity m-1, then the
    vertical twist -1-n*d.  The degrees sum to (1+m-n)*d - 1.
    """
    if m < 1 or n < 1 or d < 1:
        raise ValueError("need m, n, d >= 1")
    return (2 * d,) + (d,) * (m - 1) + (-1 - n * d,)


def h0_p1(d: int) -> int:
    """dim H^0 of a degree-d line bundle on the projective line."""
    return d + 1 if d >= 0 else 0


def h1_p1(d: int) -> int:
    """dim H^1 of a degree-d line bundle on the projective line."""
    return -d - 1 if d <= -2 else 0


def chi_p1(d: int) -> int:
    return h0_p1(d) - h1_p1(d)


def virdim_sections(m: int, n: int, d: int) -> int:
    """Expected dimension of the space of degree-d sections, i.e. chi of
    the splitting type; comes out to m + (1 + m - n)*d."""
    split = splitting_type(m, n, d)
    return sum(chi_p1(k) for k in split)


def entry_position_degree(m: int, n: int, i: int, j: int) -> Optional[int]:
    """Which curve degree d can contribute to entry (i, j), 1-indexed,
    of multiplication by the first Chern class on the basis
    omega^m, ..., omega, 1.

    Grading forces N*d = i - j + 1 with N = 1 + m - n; additionally the
    last row receives nothing (the unit pairs with no positive power).
    Returns d >= 0, or None when no degree fits.
    """
    if not (1 <= i <= m + 1 and 1 <= j <= m + 1):
        raise ValueError("matrix positions are 1-indexed and at most m+1")
    if i == m + 1:
        return None
    N = 1 + m - n
    k = i - j + 1
    if N == 0:
        return 0 if k == 0 else None
    if k % N or k // N < 0:
        return None
    return k // N
