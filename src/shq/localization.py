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
the tests sample.  All arithmetic is exact over Fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class WeightVector:
    """Pairwise-distinct rational torus weights alpha_0, ..., alpha_m."""

    alphas: tuple

    def __post_init__(self):
        if len(set(self.alphas)) != len(self.alphas):
            raise ValueError("torus weights must be pairwise distinct")

    def __getitem__(self, k: int) -> Fraction:
        return self.alphas[k]

    def __len__(self) -> int:
        return len(self.alphas)


def sample_weights(m: int, seed: int = 0) -> WeightVector:
    """Deterministic generic weights for a torus of rank m+1."""
    rng = random.Random(seed)
    # |a| <= 40, 1 <= b <= 9 gives exactly 469 distinct a/b; past that
    # the numerators widen so the pool stays about twice the rank
    top = 40 if m + 1 <= 469 else 40 * -(-2 * (m + 1) // 469)
    seen = set()
    out = []
    while len(out) < m + 1:
        w = Fraction(rng.randint(-top, top), rng.randint(1, 9))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return WeightVector(tuple(out))


def two_graph_contributions(a0: Fraction, a1: Fraction) -> tuple:
    """Warm-up on O(-1) over the line: the two broken sections
    contribute -alpha_k/(alpha_k - alpha_other); the sum is -1."""
    if a0 == a1:
        raise ValueError("torus weights must be pairwise distinct")
    return (-a0 / (a0 - a1), -a1 / (a1 - a0))


def _check_inputs(m: int, n: int, a: int, weights: WeightVector):
    if not 1 <= n <= m:
        raise ValueError(f"fixed-point count needs 1 <= n <= m, got n={n}, m={m}")
    if not 0 <= a <= n - 1:
        raise ValueError(f"offset {a} out of range 0..{n - 1}")
    if len(weights) != m + 1:
        raise ValueError(f"need {m + 1} torus weights, got {len(weights)}")


def _index_sets(m: int, n: int, a: int) -> tuple[range, range]:
    # fixed points of the two constraint planes; disjoint since n <= m
    return range(0, a + 1), range(m - (n - a - 1), m + 1)


@dataclass(frozen=True)
class GraphWeights:
    """Uncancelled equivariant data of one fixed broken section.

    bubble_over records where the vertical bubble sits ("zero" or
    "infinity").  Numerator weights are obstruction directions, the
    denominator weights are deformations: the node smoothing and the
    motion of each marked point inside its constraint plane.
    """

    i: int
    j: int
    bubble_over: str
    node_smoothing: Fraction
    marked_point_moves: tuple
    line_bundle_point: Fraction
    serre_dual: tuple

    def reciprocal_euler(self) -> Fraction:
        num = self.line_bundle_point
        for w in self.serre_dual:
            num *= w
        den = self.node_smoothing
        for w in self.marked_point_moves:
            den *= w
        return num / den


def graph_weights(
    m: int, n: int, a: int, i: int, j: int, weights: WeightVector
) -> tuple[GraphWeights, GraphWeights]:
    """The two fixed graphs through (q_i, q_j), with all weights shown."""
    _check_inputs(m, n, a, weights)
    iset, jset = _index_sets(m, n, a)
    if i not in iset or j not in jset:
        raise ValueError(f"pair ({i}, {j}) outside the constraint planes")
    al = weights
    moves = tuple(al[i] - al[I] for I in iset if I != i) + tuple(
        al[j] - al[J] for J in jset if J != j
    )
    serre = tuple(A * al[i] + (n - A) * al[j] for A in range(1, n))
    over_zero = GraphWeights(
        i, j, "zero", al[j] - al[i], moves, Fraction(-n) * al[j], serre
    )
    over_inf = GraphWeights(
        i, j, "infinity", al[i] - al[j], moves, Fraction(-n) * al[i], serre
    )
    return over_inf, over_zero


def pair_contribution(
    m: int, n: int, a: int, i: int, j: int, weights: WeightVector
) -> Fraction:
    """Merged contribution of the two graphs through (q_i, q_j), with
    the overall -n factored out:

        prod_{A+B=n} (A a_i + B a_j)
        / [prod_{I != i} (a_i - a_I) * prod_{J != j} (a_j - a_J)].
    """
    _check_inputs(m, n, a, weights)
    iset, jset = _index_sets(m, n, a)
    if i not in iset or j not in jset:
        raise ValueError(f"pair ({i}, {j}) outside the constraint planes")
    al = weights
    num = Fraction(1)
    for A in range(1, n):
        num *= A * al[i] + (n - A) * al[j]
    den = Fraction(1)
    for I in iset:
        if I != i:
            den *= al[i] - al[I]
    for J in jset:
        if J != j:
            den *= al[j] - al[J]
    return num / den


def fixed_point_integral(m: int, n: int, a: int, weights: WeightVector) -> Fraction:
    """Sum of reciprocal Euler classes over all fixed graphs: -n times
    the pair sum.  Equals -n * tau(a, n) for any generic weights."""
    _check_inputs(m, n, a, weights)
    iset, jset = _index_sets(m, n, a)
    total = Fraction(0)
    for i in iset:
        for j in jset:
            total += pair_contribution(m, n, a, i, j, weights)
    return Fraction(-n) * total


def localize_entry(m: int, n: int, a: int, weights: WeightVector) -> Fraction:
    """Degree-one matrix entry by localization: the perturbed base plane
    meets the zero section in -n copies of the constraint cycle, so the
    fixed-point integral is rescaled by -n.  Equals n^2 * tau(a, n)."""
    return Fraction(-n) * fixed_point_integral(m, n, a, weights)
