"""End-to-end computation of quantum and symplectic cohomology of the
total space of O(-n) over P^m.

Multiplication by the quantum first Chern class of the line bundle is
an (m+1) x (m+1) matrix r over the Novikov field on the basis
omega^m, ..., omega, 1.  Its entries: constants -n on the
superdiagonal (the classical cup product), degree-one section counts
n^2 * tau(a, n) * t on the N-th subdiagonal when N = 1 + m - n >= 1,
and possibly further corrections t^d for d >= 2 whose positions are
pinned by the grading but whose coefficients are genuinely
undetermined here.  Everything downstream is linear algebra:

  QH = Lambda[c] / (characteristic polynomial of r at c),
  SH = QH / (stable kernel of r) = Lambda[c] / (relation of degree p),

where p is the largest index with a nonzero characteristic
coefficient.  Since every entry of r is -n times an integer section
count, the twist being even kills the whole matrix over GF(2).

Supported regimes by twist:
  1 <= n <= m          monotone; exact when 2N > m, else the d >= 2
                       corrections are undetermined and only partial
                       facts are produced
  n = 1 + m            Calabi-Yau: first Chern class of the total
                       space vanishes, no corrections, SH = 0
  2 + m <= n <= 2m     refused: weak positivity fails, the counts
                       below are not defined
  n >= 1 + 2m          every sphere is obstructed, r is classical and
                       nilpotent, SH = 0

The operator multiplies by the plain first Chern class; the unit
rescaling that can accompany it in general is trivial for projective
space bases and is dropped here.

A basis subtlety worth stating once: the matrix r lives on the
classical classes omega^m, ..., 1, while a quotient presentation
Lambda[omega]/(relation) carries the basis of quantum powers of its
generator.  The two bases agree up to and including omega^N, and for
n = 1 (and in the correction-free regimes) they agree entirely, so
there r equals the multiplication matrix of the presentation
entrywise.  For n >= 2 the top n - 1 classical classes differ from
the quantum powers by lower-order Novikov terms, so only
basis-independent data (characteristic polynomial, rank, block
structure) can be compared across the two constructions.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Union

from .blowup import obstruction_bundle_degree
from .gw import subdiagonal_entries
from .linalg import (
    CharPoly,
    LambdaMatrix,
    spectrum,
    stable_relation,
)
from .localization import localize_row, sample_prime, sample_weights
from .novikov import CoefficientField, GradingContext, Novikov, QQ, Record
from .ring import (
    RingPresentation,
    change_generator,
    is_nilpotent,
    multiplication_matrix,
    relation_str,
)


class UnsupportedRegimeError(ValueError):
    """The pair (m, n) sits in the band where the theory is undefined."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        super().__init__(
            f"refusing (m, n) = ({m}, {n}): for {2 + m} <= n <= {2 * m} the "
            "total space fails weak positivity and the section counts "
            "underlying the computation are not defined"
        )


class Regime(Record):
    """kind is monotone, calabi_yau, unsupported or large_min_chern."""

    __slots__ = ("kind", "exact_mode", "description")


def minimal_chern(m: int, n: int) -> int:
    return 1 + m - n


def _validate_mn(m: int, n: int):
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (m, n)) or m < 1 or n < 1:
        raise ValueError(f"need integers m >= 1 and n >= 1, got m={m!r}, n={n!r}")


def classify_regime(m: int, n: int) -> Regime:
    _validate_mn(m, n)
    N = minimal_chern(m, n)
    if n <= m:
        exact = 2 * N > m
        tail = (
            "all corrections determined"
            if exact
            else f"corrections of degree >= 2 reach the matrix (2N = {2 * N} <= m)"
        )
        return Regime("monotone", exact, f"monotone with N = {N}; {tail}")
    if n == 1 + m:
        return Regime(
            "calabi_yau", True, "first Chern class of the total space vanishes"
        )
    if n <= 2 * m:
        return Regime(
            "unsupported", False, "weak positivity fails; computation refused"
        )
    return Regime(
        "large_min_chern",
        True,
        "twist below the Kodaira bound: every sphere is fully obstructed",
    )


def build_r_matrix(m: int, n: int, field: CoefficientField = QQ) -> LambdaMatrix:
    """Multiplication by the quantum first Chern class of O(-n) on the
    basis omega^m, ..., omega, 1; ValueError first for a field that is
    not a CoefficientField."""
    if not isinstance(field, CoefficientField):
        raise ValueError(f"need a CoefficientField field, got field={field!r}")
    regime = classify_regime(m, n)
    if regime.kind == "unsupported":
        raise UnsupportedRegimeError(m, n)
    N = minimal_chern(m, n)
    # the rows of r at t = 1: -n on the superdiagonal, n^2 * tau(a, n)
    # at (N + a - 1, a); LambdaMatrix reduces them mod 2 over GF(2)
    rows = [{i + 1: -n} for i in range(m)] + [{}]
    unknown = set()
    if N >= 1:
        for a, entry in enumerate(subdiagonal_entries(m, n)):
            rows[N + a - 1][a] = entry
        if not _c1_vanishes(field, n):
            # d >= 2 coefficients are undetermined unless they vanish
            # identically: each is -n times an integer count, so even
            # twist over GF(2) clears them all
            for d in _correction_degrees(m, N):
                for a in range(min(n, m + 1 - d * N)):
                    unknown.add((d * N + a - 1, a, d))
    return LambdaMatrix(field, GradingContext(N), rows, unknown)


class ZeroRing(Record):
    """SH is the zero ring."""

    __slots__ = ("reason",)


class PartialFacts(Record):
    """What is still provable when the matrix has undetermined entries.

    The leading correction a_N is known in closed form, so the stable
    part is nonzero; homogeneity forces every characteristic
    coefficient index to be a multiple of N, so the rank is one of
    possible_ranks.  No coefficients are invented for the rest.
    lead_coefficient is the Novikov scalar a_N; undetermined holds the
    unknown entries of r as (row, col, t_power), 0-indexed."""

    __slots__ = (
        "nonzero", "rank_multiple_of", "possible_ranks", "lead_index",
        "lead_coefficient", "undetermined",
    )


class Diagnostic(Record):
    __slots__ = ("name", "passed", "detail")


class ShResult(Record):
    """The answer for one (m, n, field).  char, a CharPoly, is None in
    partial mode, and qh_c, QH presented in c, is None when c1 vanishes;
    sh is a RingPresentation, ZeroRing or PartialFacts, and sh_rank an
    int, or in partial mode a str naming the possible ranks."""

    __slots__ = (
        "m", "n", "field", "N", "regime", "r_matrix", "char", "qh", "qh_c",
        "sh", "sh_rank", "diagnostics",
    )


def _c1_vanishes(field: CoefficientField, n: int) -> bool:
    """Whether c1 = -n * omega is zero in the field: even twist over GF(2)."""
    return not field.of(-n)


def _lead_coefficient(m: int, n: int, field: CoefficientField) -> Novikov:
    """Closed form for a_N: (-1)^N n^(1+m) t."""
    return Novikov.monomial(field, (-1) ** minimal_chern(m, n) * n ** (1 + m), 1)


def _lead_from_r(r: LambdaMatrix, m: int, n: int) -> Novikov:
    """a_N from r (monotone): the only principal N x N minors with a t^1
    term are the N-cycles through one subdiagonal entry r[N+a-1][a]."""
    N, rows = minimal_chern(m, n), r.rows
    total = sum(rows[N + a - 1].get(a, 0) for a in range(n))
    return Novikov.monomial(r.field, -((-n) ** (N - 1)) * total, 1)


def _classical_omega_ring(m: int, field, ctx, unknown_terms=()) -> RingPresentation:
    return RingPresentation("omega", field, ctx, (0,) * (m + 1) + (1,), unknown_terms)


def _zero_reason(regime: Regime, field: CoefficientField, n: int) -> str:
    if _c1_vanishes(field, n):
        return (
            "the first Chern class of the line bundle is zero over GF(2) "
            "for even twist, hence nilpotent"
        )
    if regime.kind == "calabi_yau":
        return (
            "c1(TM) = 0: the total space has vanishing first Chern class, "
            "so multiplication by c1 of the line bundle is nilpotent"
        )
    if regime.kind == "large_min_chern":
        return (
            "no sphere corrections survive the obstruction bundle; the "
            "classical multiplication is nilpotent"
        )
    # monotone with c1 nonzero in the field: only a wrong solve gets here,
    # and its cayley_hamilton and lead_coefficient checks fail
    return "the characteristic polynomial was computed as lambda^s although a_N != 0"


class unlimited_int_digits:
    """Within the block Python's limit on turning an int into text (4300
    digits since 3.10.7) is lifted, so exact numbers are written in full;
    leaving it, also by an exception, restores the limit."""

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 before 3.10.7
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc_info):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


def compute_sh(
    m: int,
    n: int,
    field: CoefficientField = QQ,
    seed: int = 0,
    trials: int = 2,
) -> ShResult:
    """Full pipeline for O(-n) over P^m; raises UnsupportedRegimeError
    in the refused band, and ValueError for trials < 1, a trials or seed
    that is not an int, or a field that is not a CoefficientField."""
    with unlimited_int_digits():
        return _compute_sh(m, n, field, seed, trials)


def _compute_sh(m, n, field, seed, trials) -> ShResult:
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"need an integer trials >= 1, got trials={trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"need an integer seed, got seed={seed!r}")
    r = build_r_matrix(m, n, field)  # refuses the field before reading m and n
    regime = classify_regime(m, n)
    N = minimal_chern(m, n)
    ctx = r.grading

    cp = annihilates = dims = c1 = None
    if r.is_complete:
        cp, annihilates, dims = spectrum(r)
        p, rel_c = stable_relation(cp)
        sh_rank: Union[int, str] = p
        if not _c1_vanishes(field, n):
            qh_c = RingPresentation("c", field, ctx, tuple(reversed(cp.values)) + (1,))
            qh = change_generator(qh_c, n)
            # c1 = -n * omega, for the nilpotency and multiplication checks
            c1 = qh.gen() * -n
            if p == 0:
                sh = ZeroRing(_zero_reason(regime, field, n))
            else:
                sh = change_generator(RingPresentation("c", field, ctx, rel_c), n)
        else:
            # even twist over GF(2): c = 0, so its powers present nothing;
            # the omega-relation is classical exactly when no correction
            # degree fits (2N > m, Calabi-Yau, or large twist)
            qh_c = None
            unknown = () if regime.exact_mode else sorted(_unknown_relation_terms(m, N))
            qh = _classical_omega_ring(m, field, ctx, unknown)
            if p:
                raise ArithmeticError("even twist over GF(2) left a non-nilpotent operator")
            sh = ZeroRing(_zero_reason(regime, field, n))
    else:
        # monotone, partial: never fabricate the d >= 2 numbers
        possible = tuple(range(N, m + 1, N))
        sh = PartialFacts(
            nonzero=True,
            rank_multiple_of=N,
            possible_ranks=possible,
            lead_index=N,
            lead_coefficient=_lead_coefficient(m, n, field),
            undetermined=tuple(sorted(r.unknown)),
        )
        sh_rank = f"positive multiple of {N} (at most {possible[-1]})"
        qh_c = _partial_presentation(m, n, field, ctx)
        qh = change_generator(qh_c, n)

    run = SimpleNamespace(
        m=m, n=n, field=field, N=N, regime=regime, r=r, cp=cp, annihilates=annihilates,
        dims=dims, qh=qh, c1=c1, sh=sh, sh_rank=sh_rank, seed=seed, trials=trials,
    )
    diags = tuple(
        Diagnostic(name, *outcome)
        for name, check in _CHECKS
        if (outcome := check(run)) is not None
    )
    return ShResult(m, n, field, N, regime, r, cp, qh, qh_c, sh, sh_rank, diags)


def _correction_degrees(m: int, N: int) -> range:
    """The t-powers d >= 2 of the corrections that fit, d * N <= m (N >= 1)."""
    return range(2, m // N + 1)


def _unknown_relation_terms(m: int, N: int) -> list:
    """(generator power, t-power) of each undetermined relation term,
    d ascending."""
    return [(m + 1 - d * N, d) for d in _correction_degrees(m, N)]


def _partial_presentation(m, n, field, ctx) -> RingPresentation:
    """Incomplete characteristic relation in c: leading term, the known
    a_N slot, zeros where homogeneity forbids entries, unknowns at d >= 2."""
    N, deg = ctx.N, m + 1
    values = [0] * deg + [1]
    values[deg - N] = _lead_coefficient(m, n, field).coeff
    return RingPresentation("c", field, ctx, values, _unknown_relation_terms(m, N))


def vanishing_nilpotency(result: ShResult) -> bool:
    """Is the quantum first Chern class of the line bundle nilpotent?
    Must agree with SH being the zero ring.  Where c1 is not zero in the
    field, an incomplete presentation raises IncompletePresentationError,
    a ValueError."""
    return _c1_nilpotent(result.field, result.n, result.qh)


def _c1_nilpotent(field, n, qh, c1=None) -> bool:
    """Whether c1 = -n * omega is nilpotent in qh: zero in the field, or
    some power vanishes; c1 is built from qh when not given."""
    return _c1_vanishes(field, n) or is_nilpotent(qh, qh.gen() * -n if c1 is None else c1)


def rank_constraints(m: int, n: int, sh_rank: int) -> bool:
    """Structural bounds on a computed rank: strictly below m+1, and a
    multiple of |N| when N is nonzero."""
    _validate_mn(m, n)
    N = minimal_chern(m, n)
    if not 0 <= sh_rank <= m:
        return False
    return N == 0 or sh_rank % abs(N) == 0


# The localization cross-check sums modulo a prime from this twist on, and
# exactly below.  Residues break even near n = 14, but moving the rule would
# change the detail text of those runs to save under 1 ms: compute_sh(n, n),
# trials=2, took 1.74 ms exact against 1.75 mod p at n = 14, 3.36 against
# 2.73 at 18, 4.50 against 3.30 at 20 and 14.8 against 8.6 at 32 (Python
# 3.11.7, 2 vCPU Xeon, shared; median of 41, each with its prime drawn).
_RESIDUE_FROM_N = 20


# -- diagnostics ------------------------------------------------------------


def _check_cayley_hamilton(run):
    if run.cp is not None:
        if run.annihilates:
            return True, "characteristic polynomial annihilates the matrix"
        return False, "characteristic polynomial fails to annihilate the matrix"


def _lead_check(run, got: Novikov) -> tuple:
    """a_N as computed, got, against the closed form (-1)^N n^(1+m) t."""
    N, lead = run.N, _lead_coefficient(run.m, run.n, run.field)
    closed = f"(-1)^{N} * {run.n}^{1 + run.m} * t"
    if got != lead:
        return False, f"a_{N} = {got} does not match {closed} = {lead}"
    if run.cp is None:
        return True, f"a_{N} = {closed} = {lead} is nonzero, so the stable part survives"
    return True, f"a_{N} = {got} matches {closed}"


def _check_partial_lead(run):
    if run.cp is None:
        return _lead_check(run, _lead_from_r(run.r, run.m, run.n))


def _check_nilpotency_vanishing(run):
    if run.cp is None:
        lead_r = _lead_from_r(run.r, run.m, run.n)
        if run.sh.nonzero and lead_r:
            return True, "a_N is nonzero so the class is not nilpotent and SH is not zero"
        return False, f"a_{run.N} = {lead_r} read off r, so nothing shows SH is not zero"
    nil = _c1_nilpotent(run.field, run.n, run.qh, run.c1)
    vanished = isinstance(run.sh, ZeroRing)
    return nil == vanished, f"nilpotent = {nil}, SH zero = {vanished}; the two must agree"


def _check_rank_constraints(run):
    m, N = run.m, run.N
    if run.cp is None:
        ranks = run.sh.possible_ranks
        return (
            all(rank_constraints(m, run.n, k) for k in ranks),
            f"every candidate rank {list(ranks)} is a multiple of N = {N} below {m + 1}",
        )
    detail = f"rank {run.sh_rank} < {m + 1}"
    if N:
        detail += f" and divisible by |N| = {abs(N)}"
    return rank_constraints(m, run.n, run.sh_rank), detail


def _check_generalized_kernel(run):
    if run.cp is None:
        return None
    size = run.m + 1 - run.sh_rank
    if run.dims is None:
        return False, f"no Jordan chain of length {size} ends at the last basis vector"
    detail = f"generalized kernel has dimension {size} = {run.m + 1} - {run.sh_rank}"
    if not _c1_vanishes(run.field, run.n):
        detail += f"; single nilpotent block of size {size}"
    return True, detail


def _check_complete_lead(run):
    if run.cp is not None and run.regime.kind == "monotone":
        return _lead_check(run, run.cp.coefficient(run.N))


def _check_multiplication_matrix(run):
    if run.c1 is None:
        return None
    mm = multiplication_matrix(run.qh, run.c1)
    detail = "multiplication by -n*omega in QH realizes the same operator"
    if run.n == 1 or run.regime.kind != "monotone":
        # correction-free power basis: equal matrices, equal char polys
        return mm == run.r, detail + ", entrywise"
    # a failed Cayley-Hamilton check on mm fails the diagnostic
    mm_cp, annihilates, _ = spectrum(mm)
    return (
        annihilates and mm_cp == run.cp,
        detail + " (different bases for n >= 2: characteristic data match)",
    )


def _check_localization_match(run):
    m, n, seed, trials = run.m, run.n, run.seed, run.trials
    if n > m:
        return None
    expected = subdiagonal_entries(m, n)
    detail = f"fixed-point sums over {trials} weight samples reproduce every degree-one entry"
    if n < _RESIDUE_FROM_N:
        ok = all(
            localize_row(m, n, sample_weights(m, seed + k)) == expected
            for k in range(trials)
        )
    else:
        # every weight difference is at most 2 * max(360, m + 1) < 2^60 <= p,
        # so p divides no move product
        p = sample_prime(seed)
        residues = tuple(e % p for e in expected)
        ok = all(
            localize_row(m, n, sample_weights(m, seed + k), p) == residues
            for k in range(trials)
        )
        detail += f" modulo the prime {p}"
    rows, of = run.r.rows, run.field.of
    ok = ok and all(rows[run.N + a - 1].get(a, 0) == of(e) for a, e in enumerate(expected))
    return ok, detail


def _check_blowup_match(run):
    if (run.m, run.n) == (1, 1):
        deg = obstruction_bundle_degree()
        return (
            deg == 1 and run.r.rows[0].get(0, 0) == run.field.of(deg),
            "the universal-curve Euler characteristic gives the same degree-one count",
        )


def _check_kodaira_vanishing(run):
    if run.regime.kind == "large_min_chern":
        return run.sh_rank == 0, f"twist {run.n} exceeds 2m = {2 * run.m}, so SH must vanish"


def _check_calabi_yau_vanishing(run):
    if run.regime.kind == "calabi_yau":
        return run.sh_rank == 0, "zero first Chern class forces a nilpotent operator"


def _check_char2_even_twist(run):
    if _c1_vanishes(run.field, run.n):
        return (
            run.sh_rank == 0 and not any(run.r.rows),
            "even twist is zero mod 2: the whole matrix and SH vanish",
        )


# The diagnostics of a run, in output order.  Each check reads the values
# of one run (m, n, field, N, regime, r, cp, annihilates, dims, qh, c1, sh,
# sh_rank, seed, trials; cp is None in partial mode, and c1 = -n * omega
# in qh is None there and where -n vanishes in the field) and returns
# (passed, detail), or None where it does not apply.  What a check calls
# is looked up in this module at call time, so it can be replaced there.
_CHECKS = (
    ("cayley_hamilton", _check_cayley_hamilton),
    ("lead_coefficient", _check_partial_lead),
    ("nilpotency_vanishing", _check_nilpotency_vanishing),
    ("rank_constraints", _check_rank_constraints),
    ("generalized_kernel", _check_generalized_kernel),
    ("lead_coefficient", _check_complete_lead),
    ("multiplication_matrix", _check_multiplication_matrix),
    ("localization_match", _check_localization_match),
    ("blowup_match", _check_blowup_match),
    ("kodaira_vanishing", _check_kodaira_vanishing),
    ("calabi_yau_vanishing", _check_calabi_yau_vanishing),
    ("char2_even_twist", _check_char2_even_twist),
)


# -- rendering ------------------------------------------------------------


def _relation_pairs(pres: RingPresentation) -> list:
    return [
        [pres.coefficient_str(k), k]
        for k in range(pres.rank, -1, -1)
        if pres.values[k]
    ]


def _ring_dict(pres: RingPresentation) -> dict:
    return {
        "kind": "ring",
        "generator": pres.generator,
        "rank": pres.rank,
        "complete": pres.complete,
        "relation": _relation_pairs(pres),
        "unknown_terms": [
            {"gen_power": k, "t_power": d} for (k, d) in pres.unknown_terms
        ],
        "text": str(pres),
    }


def _sh_dict(sh, unknown: list) -> dict:
    """sh as a dict; unknown, the rendered unknown positions of r, are
    the undetermined entries of a partial result."""
    if isinstance(sh, RingPresentation):
        return _ring_dict(sh)
    if isinstance(sh, ZeroRing):
        return {"kind": "zero", "rank": 0, "reason": sh.reason}
    return {
        "kind": "partial",
        "nonzero": sh.nonzero,
        "rank_multiple_of": sh.rank_multiple_of,
        "possible_ranks": list(sh.possible_ranks),
        "lead": {"index": sh.lead_index, "coefficient": str(sh.lead_coefficient)},
        "undetermined_entries": unknown,
    }


def matrix_to_dict(r: LambdaMatrix) -> dict:
    """r as a dict, its unknown (row, col, t_power) positions sorted and
    1-indexed."""
    return {
        "size": r.size,
        "basis": "omega",
        "entries": r.to_strings(),
        "unknown": [
            {"row": i + 1, "col": j + 1, "t_power": d} for (i, j, d) in sorted(r.unknown)
        ],
    }


def _char_pairs(cp: CharPoly) -> list:
    """[coefficient, power of lambda] of each nonzero term, descending."""
    return [["1", cp.size]] + [
        [cp.coefficient_str(k), cp.size - k] for k, c in enumerate(cp.values, 1) if c
    ]


def result_to_dict(result: ShResult) -> dict:
    with unlimited_int_digits():
        r = matrix_to_dict(result.r_matrix)
        return {
            "m": result.m,
            "n": result.n,
            "field": result.field.kind,
            "N": result.N,
            "regime": {
                "kind": result.regime.kind,
                "exact_mode": result.regime.exact_mode,
                "description": result.regime.description,
            },
            "r_matrix": r,
            "char_poly": None if result.char is None else _char_pairs(result.char),
            "qh": _ring_dict(result.qh),
            "qh_c": None if result.qh_c is None else _ring_dict(result.qh_c),
            "sh": _sh_dict(result.sh, r["unknown"]),
            "sh_rank": result.sh_rank,
            "diagnostics": [
                {"name": d.name, "pass": d.passed, "detail": d.detail}
                for d in result.diagnostics
            ],
        }


def result_to_text(result: ShResult) -> str:
    with unlimited_int_digits():
        lines = [
            f"O(-{result.n}) -> P^{result.m} over {result.field.kind}   "
            f"(N = {result.N}, {result.regime.kind}, "
            f"{'exact' if result.regime.exact_mode else 'partial'})",
            f"QH* = {result.qh}",
        ]
        if not result.qh.complete:
            lines[-1] += "   [incomplete: ? marks undetermined corrections]"
        if isinstance(result.sh, ZeroRing):
            lines.append(f"SH* = 0   ({result.sh.reason})")
        elif isinstance(result.sh, PartialFacts):
            lines.append(
                f"SH* != 0, rank a positive multiple of {result.sh.rank_multiple_of} "
                f"(one of {list(result.sh.possible_ranks)}); leading relation "
                f"coefficient a_{result.sh.lead_index} = {result.sh.lead_coefficient}"
            )
        else:
            lines.append(f"SH* = {result.sh}   (rank {result.sh_rank})")
        lines.append("r = ")
        grid = result.r_matrix.to_strings()
        width = max(len(x) for row in grid for x in row)
        for row in grid:
            lines.append("  [ " + "  ".join(x.rjust(width) for x in row) + " ]")
        bad = [d for d in result.diagnostics if not d.passed]
        if bad:
            lines.append("diagnostics FAILED: " + ", ".join(d.name for d in bad))
        else:
            lines.append(f"diagnostics: {len(result.diagnostics)} checks passed")
        return "\n".join(lines)


def exact_rows(max_m: int, field: CoefficientField = QQ) -> tuple[list, list]:
    """One row per exact-mode pair with m <= max_m: the low-twist
    monotone window 2n <= m+1, the Calabi-Yau twist, and the smallest
    large-twist representative (all larger twists behave identically).
    Returns (rows, failed), failed the (m, n) of each pair with a failed
    diagnostic."""
    if isinstance(max_m, bool) or not isinstance(max_m, int) or max_m < 1:
        raise ValueError(f"need an integer max_m >= 1, got {max_m!r}")
    rows, failed = [], []
    for m in range(1, max_m + 1):
        ns = list(range(1, (m + 1) // 2 + 1)) + [m + 1, 2 * m + 1]
        for n in ns:
            res = compute_sh(m, n, field)
            if not all(d.passed for d in res.diagnostics):
                failed.append((m, n))
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "regime": res.regime.kind,
                    "qh": relation_str(res.qh),
                    "sh": "0"
                    if isinstance(res.sh, ZeroRing)
                    else relation_str(res.sh),
                    "sh_rank": res.sh_rank,
                }
            )
    return rows, failed
