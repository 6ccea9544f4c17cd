"""Equivariant fixed-point computation of the degree-one matrix entries.

The degree-one coefficient in row N+a of quantum multiplication by the
first Chern class is a two-point section count in the sphere bundle
compactification: sections through a fixed fibrewise cycle over z = 0
and a perturbed base plane over z = infinity.  A torus acting on the
base with generic weights alpha_0, ..., alpha_m leaves finitely many
stable sections fixed, each a broken configuration of a horizontal line
and a vertical bubble.  Summing the reciprocal Euler classes of their
virtual normal bundles gives the count.

Fixed sections come in pairs indexed by (i, j): a fixed point q_i of the
plane spanned by the first a+1 coordinates and a fixed point q_j of the
plane spanned by the last n-a coordinates; the bubble sits over z = 0 or
over z = infinity.  Merging the two members of a pair cancels the node
smoothing weight against the difference of the two line-bundle point
weights and leaves an overall factor -n.

The result is a weight-independent integer equal to n^2 * tau(a, n);
weight independence of the whole sum (not of individual terms) is what
the tests sample.

Every pair term is homogeneous of degree 0 in the weights, so integer
weights are as generic as rational ones.  Weights are distinct ints in
a tuple, and m, n, a ints as need_int accepts; others raise ValueError.

The sum is factored.  A pair term is S(i, j) / (D_i * E_j): the Serre
product S(i, j) of the obstruction weights does not depend on the
offset a, and the move products D_i and E_j each depend on one fixed
point.  So one Serre table serves every entry of a weight vector, and
each offset's move products are the previous offset's times or over one
factor each.  The pair sum is one integer numerator over lcm(D) * lcm(E),
and each entry costs one exact Fraction division: O(n^3) per weight
vector for all n entries.

Given a prime p, the same sum is taken modulo p on the inverse move
products: one modular inverse serves all 1/D_i and one all 1/E_j
(Montgomery's simultaneous inversion), and each step to the next offset
multiplies each by one weight difference.  The Serre residues are packed
into one integer per column, a lane of fixed width per row, so each
column's share of an offset is one big-int product by a word (Kronecker
substitution one lane deep); every other value kept is below p.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from itertools import repeat

from .novikov import need_int


@functools.lru_cache(maxsize=32, typed=True)
def sample_weights(m: int, seed: int = 0) -> tuple:
    """Deterministic generic integer weights for a torus of rank m+1:
    distinct draws from a range at least twice the rank."""
    top = max(360, need_int("m", m, 1) + 1)
    return tuple(random.Random(need_int("seed", seed)).sample(range(-top, top + 1), m + 1))


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BASES_PRODUCT = math.prod(_BASES)


def is_prime(k: int) -> bool:
    """Trial division by the first twelve primes, then strong-probable-prime
    rounds to those bases: exact for every k < 3.1 * 10^23 (Sorenson and
    Webster 2015), so for every 61-bit k."""
    if need_int("k", k) < 2:
        return False
    if math.gcd(k, _BASES_PRODUCT) != 1:
        return k in _BASES
    d, s = k - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _BASES:
        x = pow(b, d, k)
        if x == 1:
            continue
        for _ in range(s):
            if x == k - 1:
                break
            x = x * x % k
        else:
            return False
    return True


@functools.lru_cache(typed=True)
def sample_prime(seed: int = 0) -> int:
    """A prime in [2^60, 2^61), deterministic in the seed."""
    rng = random.Random(need_int("seed", seed))
    while True:
        k = rng.randrange(1 << 60, 1 << 61) | 1
        if is_prime(k):
            return k


def _check(m: int, n: int, weights: tuple) -> None:
    need_int("n", n, 1, need_int("m", m, 1))
    if len(weights) != m + 1:
        raise ValueError(f"need {m + 1} torus weights, got {len(weights)}")
    if any(isinstance(x, bool) or not isinstance(x, int) for x in weights):
        raise ValueError(f"torus weights must be ints, got {weights!r}")
    if len(set(weights)) != len(weights):
        raise ValueError("torus weights must be pairwise distinct")


def _serre_row(n: int, x: int, ys) -> list:
    """S(i, j) for a_i = x and each a_j = y in ys: the obstruction weights
    A*x + (n-A)*y, 0 < A < n, are n*y + A*(x - y), one range per product."""
    return [math.prod(range(n * y + x - y, n * x, x - y)) for y in ys]


def _pair_sums(m: int, n: int, weights: tuple, offsets: range, scale: int) -> list:
    """scale * sum_{i, j} S(i, j) / (D_i * E_j) for each offset a, with
    i in 0..a and j in N+a..m.  From one offset to the next the i-plane
    gains the point a and the j-plane loses N+a-1.  Per offset the
    numerator is summed in integers over lcm(D) * lcm(E), then divided
    once."""
    al = weights
    N = m + 1 - n
    first = offsets[0]
    # S(i, j) is needed only when some offset a has i <= a and N + a <= j
    serre = [
        _serre_row(n, x, al[N + max(i, first) :]) for i, x in enumerate(al[: offsets[-1] + 1])
    ]
    iset, jset = al[: first + 1], al[N + first :]
    ds = [math.prod(x - y for y in iset if y != x) for x in iset]
    es = [math.prod(x - y for y in jset if y != x) for x in jset]
    out = []
    for a in offsets:
        if a > first:
            new, old = al[a], al[N + a - 1]
            ds = [d * (x - new) for d, x in zip(ds, al)]
            ds.append(math.prod(new - x for x in al[:a]))
            es = [e // (y - old) for e, y in zip(es[1:], al[N + a :])]
        d_tot, e_tot = math.lcm(*ds), math.lcm(*es)
        cofactors = [e_tot // e for e in es]
        num = sum(
            d_tot // d * sum(map(operator.mul, row[a - max(i, first) :], cofactors))
            for i, (d, row) in enumerate(zip(ds, serre))
        )
        out.append(Fraction(scale * num, d_tot * e_tot))
    return out


def _inverse_moves(xs: list, p: int) -> list:
    """1 / prod_{y != x} (x - y) mod p for each point x of a plane, by one
    pow (Montgomery): prefix products, the inverse of the total, then
    back-substitution.  ValueError if p divides a move product."""
    moves = [math.prod([x - y for y in xs if y != x]) % p for x in xs]
    pre = [1]
    for d in moves:
        pre.append(pre[-1] * d % p)
    if not pre[-1]:
        raise ValueError(f"the prime {p} divides a move product")
    inv, out = pow(pre[-1], -1, p), [0] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        out[k], inv = pre[k] * inv % p, inv * moves[k] % p
    return out


def _pair_residues(m: int, n: int, weights: tuple, p: int) -> list:
    """n^2 * sum_{i <= a} (1/D_i) * sum_{j >= N+a} S(i, j) * (1/E_j) mod p
    for each offset a.  The 1/D_i are inverted at the last offset; as the
    point a leaves the i-plane, each gains the factor x_i - x_a.  The 1/E_j
    are inverted at offset 0; as N+a-1 leaves, each gains x_j - x_{N+a-1}.

    The Serre table is one integer per column j, j descending: lane i, w
    bits wide, holds S(i, j) mod p.  A lane of sum_j column_j * (1/E_j)
    adds at most n products of two residues below p, so with
    w = 2*bits(p) + bits(n) no lane carries into the next, and each inner
    sum over j is one big-int product by a word per column."""
    al = weights
    N = m + 1 - n
    w = 2 * p.bit_length() + n.bit_length()
    shifts, mask = range(0, n * w, w), (1 << w) - 1
    ys = al[: N - 1 : -1]
    # column k is the point a_(m-k), paired with a_i for i <= n - 1 - k; S
    # is symmetric in its two points (A <-> n - A), so it is their Serre row
    cols = []
    for k, y in enumerate(ys):
        residues = map(operator.mod, _serre_row(n, y, al[: n - k]), repeat(p))
        cols.append(sum(map(operator.lshift, residues, shifts)))
    inv_ds = [_inverse_moves(al[:n], p)]
    for a in range(n - 1, 0, -1):
        inv_ds.append([v * (x - al[a]) % p for v, x in zip(inv_ds[-1], al[:a])])
    inv_e, out = _inverse_moves(ys, p), []
    for a, inv_d in enumerate(reversed(inv_ds)):
        if a:
            inv_e = [v * (y - al[N + a - 1]) % p for v, y in zip(inv_e, ys[: n - a])]
        # the pairs of offset a are the first n - a columns and lanes 0..a
        total = sum(map(operator.mul, cols, inv_e))
        inner = map(operator.and_, map(operator.rshift, repeat(total), shifts), repeat(mask))
        out.append(n * n * sum(map(operator.mul, inv_d, inner)) % p)
    return out


def fixed_point_integral(m: int, n: int, a: int, weights: tuple) -> Fraction:
    """Sum of reciprocal Euler classes over all fixed graphs: -n times
    the pair sum.  Equals -n * tau(a, n) for any generic weights."""
    _check(m, n, weights)
    need_int("a", a, 0, n - 1)
    return _pair_sums(m, n, weights, range(a, a + 1), -n)[0]


def localize_entry(m: int, n: int, a: int, weights: tuple) -> Fraction:
    """Degree-one matrix entry by localization: the perturbed base plane
    meets the zero section in -n copies of the constraint cycle, so the
    fixed-point integral is rescaled by -n.  Equals n^2 * tau(a, n)."""
    return -fixed_point_integral(m, n, a, weights) * n


def localize_row(m: int, n: int, weights: tuple, p: int = 0) -> tuple:
    """localize_entry for every offset a = 0, ..., n-1 at once, from one
    Serre table: the n degree-one entries n^2 * tau(a, n).  Given a prime
    p, the entries as residues mod p; ValueError if p divides a move
    product, where the residues would say nothing.  A p that is not an
    int (a bool included), or is negative or 1, raises ValueError; it is
    not tested for primality."""
    _check(m, n, weights)
    if type(p) is not int or p < 0 or p == 1:
        raise ValueError(f"the modulus must be 0 or an int of at least 2, got {p!r}")
    if p:
        return tuple(_pair_residues(m, n, weights, p))
    return tuple(_pair_sums(m, n, weights, range(n), n * n))
