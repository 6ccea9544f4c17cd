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

import functools

from .novikov import Record, need_int


class TauTable(Record):
    """Coefficients tau(0, n) .. tau(n-1, n), exact integers."""

    __slots__ = ("n", "coeffs")


@functools.lru_cache(maxsize=32, typed=True)
def tau_table(n: int) -> TauTable:
    """Expand prod_{A=1}^{n-1} (A*x + (n-A)); ascending coefficients.

    The empty product (n = 1) is 1, so tau(0, 1) = 1.  Memoized: the
    matrix and the localization check of one run both read it.
    """
    need_int("n", n, 1)
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
    return tau_table(n).coeffs[need_int("a", a, 0, n - 1)]


def subdiagonal_entry(m: int, n: int, a: int) -> int:
    """Coefficient of t in row N+a, column 1+a of the degree-one part
    of quantum multiplication by the first Chern class: n^2 * tau(a, n).

    Defined when lines in the base have nonnegative vertical obstruction
    weights on both markings, i.e. 0 <= a <= n-1, and the row index
    stays inside the matrix, i.e. n <= m (equivalently N >= 1).
    """
    return subdiagonal_entries(m, n)[need_int("a", a, 0, n - 1)]


def subdiagonal_entries(m: int, n: int) -> tuple:
    """subdiagonal_entry for a = 0, ..., n-1, from one tau table."""
    need_int("n", n, 1, need_int("m", m, 1))
    return tuple(n * n * c for c in tau_table(n).coeffs)


def h1_p1(d: int) -> int:
    """dim H^1 of a degree-d line bundle on the projective line."""
    return -d - 1 if d <= -2 else 0
