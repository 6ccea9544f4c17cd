"""Fixed-point sums: weight independence, integrality, closed forms."""

import math
import random
from fractions import Fraction

import pytest

from shq.gw import subdiagonal_entries, subdiagonal_entry, tau, tau_table
from shq.localization import (
    _serre_row,
    fixed_point_integral,
    is_prime,
    localize_entry,
    localize_row,
    sample_prime,
    sample_weights,
)

from oracles import fixed_graph_terms, pair_sum_entry, sympy_entry

# Warm-up: O(-1) over the line (m = n = 1) has two fixed broken sections,
# contributing -a_k/(a_k - a_other) each; their sum is -1.


def two_graphs(a0, a1) -> tuple:
    terms = fixed_graph_terms(1, 1, 0, (a0, a1))
    return terms[0, 1, "infinity"], terms[0, 1, "zero"]


def test_two_graph_warmup():
    a0, a1 = 3, -2
    c0, c1 = two_graphs(a0, a1)
    assert c0 == Fraction(-a0, a0 - a1)
    assert c1 == Fraction(-a1, a1 - a0)
    assert c0 + c1 == -1 == fixed_point_integral(1, 1, 0, (a0, a1))


def test_two_graph_sum_weight_independent():
    rng = random.Random(2)
    for _ in range(50):
        a0, a1 = rng.randint(-20, 20), rng.randint(-20, 20)
        if a0 == a1:
            continue
        assert sum(two_graphs(a0, a1)) == -1
        assert fixed_point_integral(1, 1, 0, (a0, a1)) == -1


def test_two_graph_exact_for_int_weights():
    c0, c1 = two_graphs(3, -2)
    assert (c0, c1) == (Fraction(-3, 5), Fraction(-2, 5))
    got = fixed_point_integral(1, 1, 0, (3, -2))
    assert type(got) is Fraction and got == c0 + c1 == -1


def test_two_graph_rejects_equal_weights():
    with pytest.raises(ValueError, match="pairwise distinct"):
        fixed_point_integral(1, 1, 0, (1, 1))


ENTRY_POINTS = {
    "localize_row": lambda w: localize_row(2, 1, w),
    "localize_entry": lambda w: localize_entry(2, 1, 0, w),
    "fixed_point_integral": lambda w: fixed_point_integral(2, 1, 0, w),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "weights",
    [(0, Fraction(1, 2), 3), (0, True, 3), (0, 2.0, 3), (0, 3, 0)],
    ids=["fraction", "bool", "float", "repeated"],
)
def test_weights_must_be_distinct_ints(entry, weights):
    # every answer is exact and every term finite: the weights are ints
    # (not bools), no two equal; each entry point refuses any other
    with pytest.raises(ValueError, match="torus weights must be"):
        ENTRY_POINTS[entry](weights)


def test_sample_weights_deterministic_and_distinct():
    for m in list(range(1, 9)) + [359, 360, 468, 469, 800, 2000]:
        for seed in range(20):
            w1 = sample_weights(m, seed)
            w2 = sample_weights(m, seed)
            assert type(w1) is tuple and w1 == w2
            assert len(w1) == m + 1
            assert len(set(w1)) == m + 1
            assert all(type(x) is int for x in w1)


def test_o_minus_one_over_line():
    # m = n = 1: empty vertical product, single pair, integral -1
    for seed in range(5):
        w = sample_weights(1, seed)
        assert fixed_point_integral(1, 1, 0, w) == -1
        assert localize_entry(1, 1, 0, w) == 1


def test_localize_entry_examples():
    assert localize_entry(3, 2, 1, sample_weights(3, 0)) == 4
    assert localize_entry(5, 3, 1, sample_weights(5, 0)) == 45
    assert localize_entry(3, 3, 0, sample_weights(3, 1)) == 18


def test_fixed_graphs_merge_to_the_fixed_point_integral():
    # the unmerged sum over both graphs of every pair equals the
    # factored pair sum the product computes
    for m, n, seed in [(4, 3, 7), (5, 2, 1), (6, 4, 3), (3, 3, 0)]:
        w = sample_weights(m, seed)
        for a in range(n):
            terms = fixed_graph_terms(m, n, a, w)
            assert len(terms) == 2 * (a + 1) * (n - a)
            assert sum(terms.values()) == fixed_point_integral(m, n, a, w)


def test_serre_products_are_progressions():
    # each product of the obstruction weights A*x + (n-A)*y, 0 < A < n, is
    # one range stepping by x - y, up or down; n = 1 leaves the empty product
    for n in (1, 2, 3, 7):
        for x, ys in ((3, (-4, 11, 0)), (-2, (5, -9, 0)), (0, (6, -1))):
            expected = [math.prod(A * x + (n - A) * y for A in range(1, n)) for y in ys]
            assert _serre_row(n, x, ys) == expected
    assert _serre_row(1, 3, (5, -1)) == [1, 1]
    assert _serre_row(4, 1, (5,)) == [(1 + 15) * (2 + 10) * (3 + 5)]


def test_weight_independence():
    for m, n, a in [(2, 2, 0), (4, 2, 1), (5, 3, 2), (6, 4, 1), (5, 5, 2)]:
        values = {localize_entry(m, n, a, sample_weights(m, s)) for s in range(4)}
        assert len(values) == 1
        v = values.pop()
        assert v.denominator == 1 and v > 0


def test_matches_closed_form_and_oracle():
    for m, n, a in [(3, 2, 0), (4, 3, 1), (5, 4, 3), (6, 3, 2)]:
        w = sample_weights(m, 11)
        got = localize_entry(m, n, a, w)
        assert got == subdiagonal_entry(m, n, a)
        assert got == n * n * tau(a, n)
        assert got == sympy_entry(m, n, a, w)
    for seed in range(3):
        assert localize_entry(5, 3, 1, sample_weights(5, seed)) == 9 * tau(1, 3)


def test_translation_invariance():
    # adding a constant to every weight does not move the sum
    w = sample_weights(4, 5)
    shifted = tuple(x + 7 for x in w)
    assert localize_entry(4, 3, 1, w) == localize_entry(4, 3, 1, shifted)


def test_scaling_the_weights_changes_nothing():
    # every pair term is homogeneous of degree 0 in the weights, which is
    # why integer weights are as generic as rational ones
    w = sample_weights(5, 9)
    for c in (-7, 11, 5):
        scaled = tuple(c * x for x in w)
        assert localize_entry(5, 3, 1, scaled) == localize_entry(5, 3, 1, w)
        assert localize_row(5, 3, scaled) == localize_row(5, 3, w)


def test_results_are_fractions_for_int_and_fraction_weights():
    # the weights are ints, the entries exact Fractions
    w = sample_weights(4, 2)
    for weights in (w, tuple(3 * x + 1 for x in w)):
        assert type(localize_entry(4, 3, 1, weights)) is Fraction
        assert all(type(x) is Fraction for x in localize_row(4, 3, weights))


def test_individual_terms_do_depend_on_weights():
    # only the full sum is an invariant
    w1, w2 = sample_weights(3, 0), sample_weights(3, 1)
    t1, t2 = fixed_graph_terms(3, 2, 0, w1), fixed_graph_terms(3, 2, 0, w2)
    assert all(t1[key] != t2[key] for key in t1)
    assert fixed_point_integral(3, 2, 0, w1) == fixed_point_integral(3, 2, 0, w2)


def test_input_validation():
    w = sample_weights(3, 0)
    with pytest.raises(ValueError):
        localize_entry(3, 4, 0, w)  # needs n <= m
    with pytest.raises(ValueError):
        localize_entry(3, 2, 2, w)  # offset past n-1
    with pytest.raises(ValueError):
        localize_entry(4, 2, 0, w)  # wrong number of weights
    with pytest.raises(ValueError):
        localize_row(3, 4, w)  # needs n <= m
    with pytest.raises(ValueError):
        localize_row(3, 0, w)
    with pytest.raises(ValueError):
        localize_row(4, 2, w)  # wrong number of weights


def _scaled_weights(w):
    # the distinct rationals x / (1 + k % 4) times 12: distinct ints whose
    # ratios are not those of w
    return tuple(12 * x // (1 + k % 4) for k, x in enumerate(w))


def test_localize_row_matches_entries_and_oracles():
    # localize_row carries move products across offsets; fixed_point_integral
    # at one offset a > 0 starts both planes part-way
    for m in range(1, 13):
        for n in range(1, m + 1):
            w = sample_weights(m, m + n)
            for weights in (w, _scaled_weights(w)):
                row = localize_row(m, n, weights)
                assert len(row) == n
                assert all(type(x) is Fraction for x in row)
                for a in range(n):
                    assert row[a] == pair_sum_entry(m, n, a, weights)
                    assert -n * fixed_point_integral(m, n, a, weights) == row[a]
                    if m <= 6:
                        assert row[a] == sympy_entry(m, n, a, weights)
                assert row == subdiagonal_entries(m, n)


def test_localize_row_past_a_thousand_bits():
    # at n = 64 the Serre products reach 900 bits and lcm(D) * lcm(E) 1400
    for m in (64, 90):
        assert localize_row(m, 64, sample_weights(m, 3)) == subdiagonal_entries(m, 64)


def test_localize_row_at_the_largest_benchmark_case():
    for s in (0, 1):
        row = localize_row(32, 32, sample_weights(32, s))
        assert row == tuple(subdiagonal_entry(32, 32, a) for a in range(32))


# -- the row modulo a prime -------------------------------------------------


def test_residue_row_is_the_exact_row_mod_p():
    primes = (2**61 - 1, sample_prime(0), sample_prime(5))
    for m in range(1, 13):
        for n in range(1, m + 1):
            w = sample_weights(m, m + n)
            for weights in (w, _scaled_weights(w)):
                exact = localize_row(m, n, weights)
                for p in primes:
                    row = localize_row(m, n, weights, p)
                    assert all(type(x) is int for x in row)
                    assert row == tuple(int(x) % p for x in exact)


def test_residue_row_refuses_a_prime_dividing_a_move_product():
    # the residues would compare 0 with 0; weights p apart make D_1 or
    # E_0 a multiple of p
    p = sample_prime(0)
    for alphas in ((0, p, 1, 2), (0, 1, 2, 2 + p)):
        with pytest.raises(ValueError, match=f"the prime {p} divides a move product"):
            localize_row(3, 3, alphas, p)
        assert localize_row(3, 3, alphas) == subdiagonal_entries(3, 3)


def test_residue_row_at_the_partial_benchmark_cases():
    # the inverse move products are walked across all n offsets; both
    # trials' weights of each seed, as localization_match draws them.  The
    # last three pairs pack many lanes into each Serre column, and 2^61 - 1
    # gives lanes of the widest residues a 61-bit prime allows
    pairs = ((24, 24), (28, 22), (28, 28), (32, 32), (48, 48), (64, 33), (64, 64))
    for m, n in pairs:
        exact = {s: localize_row(m, n, sample_weights(m, s)) for s in range(6)}
        for seed in range(5):
            for p in (sample_prime(seed), 2**61 - 1):
                for s in (seed, seed + 1):
                    row = localize_row(m, n, sample_weights(m, s), p)
                    assert row == tuple(x % p for x in exact[s])


def test_residue_row_refuses_p_at_either_end_of_the_walks():
    # m = 4, n = 3, N = 2.  x_0 - x_2 is a factor only at the last offset,
    # where the i-plane is 0..2; x_2 - x_4 only at offset 0, where the
    # j-plane is 2..4
    p = sample_prime(1)
    for alphas in ((0, 1, p, 2, 3), (0, 1, 2, 3, 2 + p)):
        with pytest.raises(ValueError, match=f"the prime {p} divides a move product"):
            localize_row(4, 3, alphas, p)
        assert localize_row(4, 3, alphas) == subdiagonal_entries(4, 3)


def test_seeded_draws_are_memoized():
    assert sample_prime(7) is sample_prime(7)
    assert sample_weights(30, 3) is sample_weights(30, 3)
    assert sample_weights(30, 4) != sample_weights(30, 3)


def test_tau_table_is_memoized():
    # build_r_matrix and localization_match of one run share one expansion
    assert tau_table(30) is tau_table(30)
    assert tau_table(31) is not tau_table(30)


def test_is_prime_agrees_with_a_sieve():
    top = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (top - 2)
    for k in range(2, math.isqrt(top) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytearray(len(range(k * k, top, k)))
    assert [k for k in range(top) if is_prime(k)] == [k for k in range(top) if sieve[k]]
    # strong pseudoprimes: 2047 = 23 * 89 to base 2; 3215031751 to the
    # bases 2 to 7 and 3825123056546413051 to every prime base up to 31,
    # both with no factor below 150
    assert not is_prime(2047) and not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)


def test_is_prime_agrees_with_trial_division():
    def trial(k):
        return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))

    assert all(is_prime(k) == trial(k) for k in range(20_000))


def test_sample_prime_draws_are_unchanged():
    assert [sample_prime(seed) for seed in range(10)] == [
        1481491205600622547, 1174146646898508319, 1992281633327587397,
        2068651483832928433, 1898940620383269313, 1979648110353563801,
        1765823875890824311, 1344271184579182781, 1598218165300967633,
        1231869329985410609,
    ]


def test_sample_prime_is_seeded_and_in_range():
    drawn = [sample_prime(seed) for seed in range(20)]
    assert drawn == [sample_prime(seed) for seed in range(20)]
    assert all(2**60 <= p < 2**61 and is_prime(p) for p in drawn)
    assert len(set(drawn)) == 20
