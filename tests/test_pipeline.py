import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import shq.linalg
import shq.pipeline
from shq.localization import sample_prime
from shq.linalg import char_poly, spectrum
from shq.novikov import F2, QQ, Novikov
from shq.pipeline import (
    PartialFacts,
    Regime,
    _lead_from_r,
    _zero_reason,
    UnsupportedRegimeError,
    ZeroRing,
    build_r_matrix,
    classify_regime,
    compute_sh,
    exact_rows,
    minimal_chern,
    rank_constraints,
    result_to_dict,
    result_to_text,
    unlimited_int_digits,
    vanishing_nilpotency,
)
from shq.ring import multiplication_matrix

from conftest import budget
from oracles import closed_form, novikov_berkowitz
from test_graded import complete_pairs


def mono(field, c, e=0):
    return Novikov.monomial(field, c, e)


# -- regimes ---------------------------------------------------------------


@given(st.integers(1, 40), st.integers(1, 120))
def test_regime_partition(m, n):
    r = classify_regime(m, n)
    bands = [n <= m, n == 1 + m, 2 + m <= n <= 2 * m, n >= 1 + 2 * m]
    assert bands.count(True) == 1
    assert ["monotone", "calabi_yau", "unsupported", "large_min_chern"][
        bands.index(True)
    ] == r.kind
    if r.kind == "monotone":
        assert r.exact_mode == (2 * minimal_chern(m, n) > m)
    else:
        assert r.exact_mode == (r.kind != "unsupported")


def test_regime_examples():
    assert classify_regime(1, 1).kind == "monotone"
    assert classify_regime(1, 1).exact_mode
    assert classify_regime(2, 3).kind == "calabi_yau"
    assert classify_regime(3, 5).kind == "unsupported"
    assert classify_regime(3, 3).kind == "monotone"
    assert not classify_regime(3, 3).exact_mode
    # no refused band over the line
    assert all(classify_regime(1, n).kind != "unsupported" for n in range(1, 30))


def test_regime_rejects_bad_input():
    for m, n in [(0, 1), (1, 0), (-2, 3), (True, 1), (2, True), (False, 1)]:
        with pytest.raises(ValueError):
            classify_regime(m, n)
    with pytest.raises(ValueError):
        compute_sh(True, 1)


# -- the matrix ------------------------------------------------------------


def test_matrix_over_the_line():
    r = build_r_matrix(1, 1)
    assert r.to_strings() == [["t", "-1"], ["0", "0"]]
    assert r.is_complete


def test_matrix_twist_one_general():
    for m in range(1, 8):
        r = build_r_matrix(m, 1)
        assert r.entries[m - 1][0] == mono(QQ, 1, 1)
        assert all(r.entries[i][i + 1] == mono(QQ, -1) for i in range(m))
        assert all(not x for x in r.entries[m])
        assert r.is_complete


def test_matrix_calabi_yau_has_constants_only():
    r = build_r_matrix(1, 2)
    assert r.to_strings() == [["0", "-2"], ["0", "0"]]
    for m in range(1, 6):
        n = m + 1
        r = build_r_matrix(m, n)
        for i, row in enumerate(r.entries):
            for j, x in enumerate(row):
                assert x == (mono(QQ, -n) if j == i + 1 else Novikov.zero(QQ))
        assert r.is_complete


def test_matrix_degree_one_entries():
    r = build_r_matrix(5, 2)
    assert r.entries[3][0] == mono(QQ, 4, 1)
    assert r.entries[4][1] == mono(QQ, 4, 1)
    assert r.unknown == frozenset()
    r = build_r_matrix(3, 3)
    assert [str(r.entries[a][a]) for a in range(3)] == ["18*t", "45*t", "18*t"]


def test_matrix_unknown_positions():
    r = build_r_matrix(3, 3)
    assert r.unknown == {(1, 0, 2), (2, 0, 3), (2, 1, 2)}
    assert not r.is_complete
    assert build_r_matrix(2, 2).unknown == {(1, 0, 2)}
    # exact mode: no room for higher corrections
    assert build_r_matrix(5, 2).unknown == frozenset()
    assert build_r_matrix(8, 5).unknown == {(7, 0, 2)}


def test_matrix_even_twist_dies_mod_two():
    for m, n in [(5, 2), (5, 4), (3, 2), (1, 2), (2, 6)]:
        r = build_r_matrix(m, n, F2)
        assert r.is_complete
        assert all(not x for row in r.entries for x in row)
    # odd twist keeps the superdiagonal and its unknowns
    r = build_r_matrix(3, 3, F2)
    assert r.entries[0][1] == mono(F2, 1)
    assert r.unknown == {(1, 0, 2), (2, 0, 3), (2, 1, 2)}


def test_matrix_refuses_unsupported():
    with pytest.raises(UnsupportedRegimeError):
        build_r_matrix(3, 5)


# -- the pipeline ----------------------------------------------------------


def test_compute_over_the_line():
    res = compute_sh(1, 1)
    assert str(res.qh) == "Lambda[w]/(w^2 + t*w)"
    assert str(res.sh) == "Lambda[w]/(w + t)"
    assert res.sh_rank == 1
    # omega is sent to -t in the quotient
    reduced = res.sh.reduce((Novikov.zero(QQ), Novikov.one(QQ)))
    assert reduced.coeffs == (mono(QQ, -1, 1),)


def test_cayley_hamilton_diagnostic_reports_the_check(corrupt_char_poly):
    res = compute_sh(1, 1)
    (ch,) = [d for d in res.diagnostics if d.name == "cayley_hamilton"]
    assert not ch.passed
    assert ch.detail == "characteristic polynomial fails to annihilate the matrix"
    assert res.char.a == (mono(QQ, -2, 1), mono(QQ, 0))


def test_compute_twist_one_family():
    res = compute_sh(4, 1)
    assert str(res.qh) == "Lambda[w]/(w^5 + t*w)"
    assert str(res.sh) == "Lambda[w]/(w^4 + t)"
    assert res.sh_rank == 4


def test_compute_exact_closed_form():
    res = compute_sh(5, 2)
    assert str(res.qh) == "Lambda[w]/(w^6 + 4*t*w^2)"
    assert str(res.qh_c) == "Lambda[c]/(c^6 + 64*t*c^2)"
    assert str(res.sh) == "Lambda[w]/(w^4 + 4*t)"
    assert res.sh_rank == 4


def test_compute_calabi_yau():
    for m in (1, 2, 5):
        res = compute_sh(m, m + 1)
        assert isinstance(res.sh, ZeroRing)
        assert "c1(TM) = 0" in res.sh.reason
        assert res.sh_rank == 0
        assert str(res.qh) == f"Lambda[w]/(w^{m + 1})"


def test_compute_large_twist():
    for m, n in [(1, 3), (2, 5), (3, 7), (3, 100)]:
        res = compute_sh(m, n)
        assert isinstance(res.sh, ZeroRing)
        assert res.sh_rank == 0
        assert str(res.qh) == f"Lambda[w]/(w^{m + 1})"


def test_compute_even_twist_mod_two():
    for m, n in [(5, 2), (5, 4), (1, 2), (2, 6)]:
        res = compute_sh(m, n, F2)
        assert isinstance(res.sh, ZeroRing)
        assert "GF(2)" in res.sh.reason
        assert res.sh_rank == 0
    # exact even twist: the quantum ring itself is classical mod 2
    assert str(compute_sh(5, 2, F2).qh) == "Lambda[w]/(w^6)"
    # partial even twist: SH vanishes but QH keeps undetermined slots
    res = compute_sh(5, 4, F2)
    assert not res.qh.complete
    assert res.qh.unknown_terms == ((2, 2),)


def test_monotone_zero_reason_comes_only_with_a_failed_check(corrupt_char_poly, monkeypatch):
    # a_N = (-1)^N n^(1+m) t is nonzero for a monotone twist with c1
    # nonzero, so SH is zero there only when the solve is wrong: doubled
    # over GF(2), cp becomes lambda^s, and the diagnostics report it
    res = compute_sh(2, 1, F2, trials=1)
    assert res.sh.reason == _zero_reason(Regime("monotone", True, ""), F2, 1)
    assert not _diagnostic(res, "cayley_hamilton").passed
    assert compute_sh(2, 1, F2, trials=1).sh_rank == 2
    # over Q a solve of zeros gives lambda^4 at (3, 1), where a_3 = -t
    monkeypatch.setattr(shq.linalg, "_solve", lambda op: [0] * len(op[0]))
    res = compute_sh(3, 1, QQ, trials=1)
    assert res.sh.reason == (
        "the characteristic polynomial was computed as lambda^s although a_N != 0"
    )
    failed = {d.name for d in res.diagnostics if not d.passed}
    assert {"cayley_hamilton", "lead_coefficient"} <= failed


def test_compute_odd_twist_mod_two():
    res = compute_sh(5, 3, F2)
    assert res.sh_rank == 3
    assert str(res.sh) == "Lambda[w]/(w^3 + t)"


def test_compute_refuses_unsupported_band():
    for m, n in [(3, 5), (3, 6), (4, 6), (10, 12)]:
        with pytest.raises(UnsupportedRegimeError) as e:
            compute_sh(m, n)
        assert "weak positivity" in str(e.value)


def test_partial_facts():
    res = compute_sh(3, 3)
    sh = res.sh
    assert isinstance(sh, PartialFacts)
    assert sh.nonzero
    assert sh.rank_multiple_of == 1
    assert sh.possible_ranks == (1, 2, 3)
    assert sh.lead_index == 1
    assert sh.lead_coefficient == mono(QQ, -81, 1)
    assert sh.undetermined == ((1, 0, 2), (2, 0, 3), (2, 1, 2))
    assert res.sh_rank == "positive multiple of 1 (at most 3)"
    assert res.char is None


def test_partial_presentations_carry_unknowns():
    res = compute_sh(3, 3)
    assert not res.qh.complete
    assert str(res.qh) == "Lambda[w]/(w^4 + 27*t*w^3 + ?*t^2*w^2 + ?*t^3*w)"
    assert res.qh_c.relation[3] == mono(QQ, -81, 1)
    assert set(res.qh.unknown_terms) == {(1, 3), (2, 2)}
    with pytest.raises(ValueError):
        res.qh.reduce((Novikov.one(QQ),) * 5)


def test_partial_two_two():
    res = compute_sh(2, 2)
    assert res.sh.possible_ranks == (1, 2)
    assert res.sh.lead_coefficient == mono(QQ, -8, 1)
    assert str(res.qh) == "Lambda[w]/(w^3 + 4*t*w^2 + ?*t^2*w)"


def test_lead_coefficient_closed_form_matches_char_poly():
    # a_N = (-1)^N n^(1+m) t whenever the polynomial is computable
    for m, n in [(1, 1), (3, 1), (5, 2), (4, 2), (6, 3), (5, 3)]:
        res = compute_sh(m, n)
        N = res.N
        assert res.char.a[N - 1] == mono(QQ, (-1) ** N * n ** (1 + m), 1)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_lead_read_off_r_matches_char_poly(field):
    # the O(n) formula the partial-mode diagnostic uses, on every complete
    # monotone pair with m <= 8
    for m in range(1, 9):
        for n in range(1, m + 1):
            if not classify_regime(m, n).exact_mode:
                continue
            res = compute_sh(m, n, field, trials=1)
            assert _lead_from_r(res.r_matrix, m, n) == res.char.a[res.N - 1], (m, n)


def test_partial_lead_diagnostic_reads_r(monkeypatch):
    # a wrong degree-one entry must fail the partial-mode a_N check
    real = shq.pipeline.subdiagonal_entries
    monkeypatch.setattr(
        shq.pipeline, "subdiagonal_entries", lambda m, n: tuple(e + 1 for e in real(m, n))
    )
    res = compute_sh(3, 3, trials=1)
    assert isinstance(res.sh, PartialFacts)
    (lead,) = [d for d in res.diagnostics if d.name == "lead_coefficient"]
    assert not lead.passed
    assert "surviv" not in lead.detail and "does not match" in lead.detail


def _diagnostic(res, name):
    (d,) = [d for d in res.diagnostics if d.name == name]
    return d


def test_lead_diagnostic_details():
    # the passing detail of each mode, pinned
    partial = _diagnostic(compute_sh(3, 3, trials=1), "lead_coefficient")
    assert partial.detail == (
        "a_1 = (-1)^1 * 3^4 * t = -81*t is nonzero, so the stable part survives"
    )
    exact = _diagnostic(compute_sh(5, 2, trials=1), "lead_coefficient")
    assert exact.detail == "a_4 = 64*t matches (-1)^4 * 2^6 * t"


def test_spectrum_diagnostics_fail_on_a_doubled_solve(corrupt_char_poly):
    # neither check passes by construction: Horner on e_0 and the Jordan
    # chain of q(r) e_last both see the doubled coefficients
    res = compute_sh(5, 2, trials=1)
    failed = {d.name: d.detail for d in res.diagnostics if not d.passed}
    assert failed["cayley_hamilton"] == (
        "characteristic polynomial fails to annihilate the matrix"
    )
    assert failed["generalized_kernel"] == (
        "no Jordan chain of length 2 ends at the last basis vector"
    )


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_cayley_hamilton_fails_on_every_doubled_solve_up_to_12(field, corrupt_char_poly):
    # the check runs on the row e_0^T, which is cyclic, so it fails
    # wherever doubling changes cp; over GF(2) doubling gives lambda^s,
    # which still kills e_0 where e_0 lies in the generalized kernel
    changed = 0
    for m, n in complete_pairs(12):
        cp = novikov_berkowitz(build_r_matrix(m, n, field).entries)
        doubled = tuple(x + x for x in cp)
        corrupt_char_poly.clear()
        res = compute_sh(m, n, field, trials=1)
        assert res.char.a == doubled
        assert _diagnostic(res, "cayley_hamilton").passed == (doubled == cp)
        changed += doubled != cp
    assert changed == (42 if field is QQ else 24)


def test_complete_lead_diagnostic_fails_honestly(corrupt_char_poly):
    # a doubled characteristic polynomial gives a doubled a_N
    lead = _diagnostic(compute_sh(5, 2, trials=1), "lead_coefficient")
    assert not lead.passed
    assert lead.detail == "a_4 = 128*t does not match (-1)^4 * 2^6 * t = 64*t"


def test_partial_nilpotency_diagnostic_reads_r(monkeypatch):
    # with every degree-one entry zeroed, a_N read off r is zero and
    # nothing shows that SH survives
    passing = _diagnostic(compute_sh(4, 3, trials=1), "nilpotency_vanishing")
    assert passing.passed
    assert passing.detail == "a_N is nonzero so the class is not nilpotent and SH is not zero"
    monkeypatch.setattr(shq.pipeline, "subdiagonal_entries", lambda m, n: (0,) * n)
    res = compute_sh(4, 3, trials=1)
    assert isinstance(res.sh, PartialFacts)
    nil = _diagnostic(res, "nilpotency_vanishing")
    assert not nil.passed
    assert nil.detail == "a_2 = 0 read off r, so nothing shows SH is not zero"


def test_refusals_keep_their_order():
    # trials first, then the arguments, then the refused band
    with pytest.raises(ValueError, match="trials >= 1"):
        compute_sh(3, 5, trials=0)
    with pytest.raises(ValueError, match="need an integer m >= 1"):
        compute_sh(0, 5)
    with pytest.raises(UnsupportedRegimeError) as e:
        compute_sh(3, 5)
    assert str(e.value) == str(UnsupportedRegimeError(3, 5))


@pytest.mark.parametrize("m, n", [(3, 3), (3, 4)])
@pytest.mark.parametrize(
    "name, value", [("trials", True), ("trials", 1.5), ("trials", "2"),
                    ("seed", False), ("seed", 1.5), ("seed", "x")],
)
def test_trials_and_seed_must_be_integers(m, n, name, value):
    # refused before any work, whether or not the run would sample weights
    with pytest.raises(ValueError, match=f"need an integer {name}") as e:
        compute_sh(m, n, **{name: value})
    assert str(e.value).endswith(f"got {name}={value!r}")


def test_type_refusals_come_first():
    # trials, then seed, then field, then the arguments and the refused band
    with pytest.raises(ValueError, match="trials"):
        compute_sh(0, 5, trials=True, seed="x")
    with pytest.raises(ValueError, match="seed"):
        compute_sh(0, 5, seed="x")
    with pytest.raises(ValueError, match="seed"):
        compute_sh(3, 5, seed=None)
    # then the field, before m and n
    for field in ("Q", None, 2):
        with pytest.raises(ValueError, match="need a CoefficientField field"):
            compute_sh(0, 5, field)
        with pytest.raises(ValueError, match="need a CoefficientField field"):
            build_r_matrix(0, 5, field)
    with pytest.raises(ValueError, match="seed"):
        compute_sh(3, 1, "Q", seed="x")


def test_localization_diagnostic_can_fail(corrupt_localize_row):
    res = compute_sh(5, 3, trials=2)
    assert not _diagnostic(res, "localization_match").passed
    assert all(d.passed for d in res.diagnostics if d.name != "localization_match")


def test_localization_residues_from_n_20(monkeypatch):
    # below the size rule the sums are exact, from it on residues mod a
    # prime drawn from the seed
    calls = []
    real = shq.pipeline.localize_row

    def recorded(m, n, weights, p=0):
        calls.append((n, p))
        return real(m, n, weights, p)

    monkeypatch.setattr(shq.pipeline, "localize_row", recorded)
    for n in (19, 20):
        res = compute_sh(n, n, seed=4)
        assert all(d.passed for d in res.diagnostics)
    p = sample_prime(4)
    assert calls == [(19, 0), (19, 0), (20, p), (20, p)]
    assert _diagnostic(res, "localization_match").detail == (
        "fixed-point sums over 2 weight samples reproduce every degree-one entry "
        f"modulo the prime {p}"
    )


def test_residue_localization_diagnostic_can_fail(corrupt_localize_row):
    res = compute_sh(24, 24, trials=1)
    assert "modulo the prime" in _diagnostic(res, "localization_match").detail
    assert [d.name for d in res.diagnostics if not d.passed] == ["localization_match"]


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_rejected(trials):
    with pytest.raises(ValueError, match="trials >= 1"):
        compute_sh(4, 2, trials=trials)
    assert "over 1 weight samples" in _diagnostic(
        compute_sh(4, 2, trials=1), "localization_match"
    ).detail


def test_diagnostics_all_pass_everywhere():
    for m in range(1, 7):
        supported = [n for n in range(1, 2 * m + 2)
                     if classify_regime(m, n).kind != "unsupported"]
        for n in supported:
            for field in (QQ, F2):
                res = compute_sh(m, n, field, trials=1)
                failed = [d.name for d in res.diagnostics if not d.passed]
                assert not failed, (m, n, field.kind, failed)


CHECK_ORDER = [
    "cayley_hamilton", "lead_coefficient", "nilpotency_vanishing", "rank_constraints",
    "generalized_kernel", "lead_coefficient", "multiplication_matrix",
    "localization_match", "blowup_match", "kodaira_vanishing", "calabi_yau_vanishing",
    "char2_even_twist",
]


def _table_rows(names) -> list:
    """The index in CHECK_ORDER of each diagnostic name, matched in order;
    AssertionError when the names do not follow the table."""
    rows, i = [], 0
    for name in names:
        while i < len(CHECK_ORDER) and CHECK_ORDER[i] != name:
            i += 1
        assert i < len(CHECK_ORDER), f"{name} out of table order in {names}"
        rows.append(i)
        i += 1
    return rows


def test_every_check_row_fires_in_table_order():
    # the table holds the output order; each result follows it, names no
    # check twice, and every row applies to some pair with m <= 8; the
    # vanishing rows fire in their regimes only, Kodaira's exactly past
    # twice the dimension and Calabi-Yau's exactly at n = m + 1
    assert [name for name, _ in shq.pipeline._CHECKS] == CHECK_ORDER
    fired = set()
    for m in range(1, 9):
        for n in range(1, 2 * m + 3):
            if classify_regime(m, n).kind == "unsupported":
                continue
            for field in (QQ, F2):
                names = [d.name for d in compute_sh(m, n, field, trials=1).diagnostics]
                assert len(set(names)) == len(names), (m, n, field.kind, names)
                assert ("kodaira_vanishing" in names) == (n >= 2 * m + 1), (m, n, names)
                assert ("calabi_yau_vanishing" in names) == (n == m + 1), (m, n, names)
                fired.update(_table_rows(names))
    assert fired == set(range(len(CHECK_ORDER)))


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
def test_closed_form_past_m_8(field):
    # every exact_rows pair with 9 <= m <= 16
    for m in range(9, 17):
        for n in list(range(1, (m + 1) // 2 + 1)) + [m + 1, 2 * m + 1]:
            res = compute_sh(m, n, field, trials=1)
            failed = [d.name for d in res.diagnostics if not d.passed]
            assert not failed, (m, n, failed)
            qh, sh = closed_form(m, n, field)
            assert res.qh.relation == qh, (m, n)
            if sh is None:
                assert isinstance(res.sh, ZeroRing) and res.sh_rank == 0, (m, n)
            else:
                assert res.sh.relation == sh, (m, n)
                assert res.sh_rank == len(sh) - 1, (m, n)


@st.composite
def complete_pairs_to_100(draw):
    """(m, n, field) with m <= 100 and every correction determined:
    monotone 2n <= m + 1, Calabi-Yau n = m + 1 or a large twist."""
    m = draw(st.integers(1, 100))
    n = draw(st.one_of(
        st.integers(1, (m + 1) // 2),
        st.just(m + 1),
        st.integers(2 * m + 1, 4 * m + 2),
    ))
    return m, n, draw(st.sampled_from([QQ, F2]))


@settings(max_examples=40, deadline=None)
@given(complete_pairs_to_100())
def test_closed_form_to_m_100(pair):
    m, n, field = pair
    res = compute_sh(m, n, field, trials=1)
    assert [d.name for d in res.diagnostics if not d.passed] == []
    qh, sh = closed_form(m, n, field)
    assert res.qh.relation == qh
    if sh is None:
        assert isinstance(res.sh, ZeroRing) and res.sh_rank == 0
    else:
        assert res.sh.relation == sh
        assert res.sh_rank == len(sh) - 1


@st.composite
def calabi_yau_and_large_twists_to_200(draw):
    """(m, n, field) with 100 < m <= 200: the Calabi-Yau twist n = m + 1
    or a large twist 2m + 1 <= n <= 4m + 2."""
    m = draw(st.integers(101, 200))
    n = draw(st.one_of(st.just(m + 1), st.integers(2 * m + 1, 4 * m + 2)))
    return m, n, draw(st.sampled_from([QQ, F2]))


@settings(max_examples=10, deadline=None)
@given(calabi_yau_and_large_twists_to_200())
def test_closed_form_past_m_100_within_three_seconds(pair):
    # each such pair takes well under a second
    m, n, field = pair
    with budget(3, f"compute_sh({m}, {n}) did not return in 3 s"):
        res = compute_sh(m, n, field, trials=1)
    assert [d.name for d in res.diagnostics if not d.passed] == []
    qh, sh = closed_form(m, n, field)
    assert sh is None and res.qh.relation == qh
    assert isinstance(res.sh, ZeroRing) and res.sh_rank == 0


@pytest.mark.parametrize(
    "m, n, field",
    [(2000, 10, QQ), (2000, 2001, QQ), (2000, 2001, F2), (2000, 11, F2)],
    ids=["Q", "Q-calabi-yau", "GF2", "GF2-monotone"],
)
def test_closed_form_at_s_2001_within_one_second(m, n, field):
    # each field in both regimes; sparse Krylov and ring vectors take
    # under 0.1 s here on a 2 vCPU Xeon; a walk over every column of the
    # operator took 1.8 s at (2000, 10), and the dense vectors before it
    # 1.2-1.6 s
    with budget(1, f"compute_sh({m}, {n}) did not return in 1 s"):
        res = compute_sh(m, n, field, trials=1)
    assert [d.name for d in res.diagnostics if not d.passed] == []
    assert res.qh.relation == closed_form(m, n, field)[0]


def test_m_96_within_six_seconds():
    # (96, 48) took 9.5-11 s on the Novikov-matrix path; the graded core
    # takes well under a second
    with budget(6, "compute_sh(96, 48) did not return in 6 s"):
        res = compute_sh(96, 48, trials=1)
    assert [d.name for d in res.diagnostics if not d.passed] == []
    assert res.sh_rank == 49


def test_partial_200_within_three_seconds():
    # the exact fixed-point sums took about 9 s here; residues mod a prime
    # under one second on a 2 vCPU Xeon
    with budget(3, "compute_sh(200, 200) did not return in 3 s"):
        res = compute_sh(200, 200, trials=1)
    assert [d.name for d in res.diagnostics if not d.passed] == []


def compute_400_200():
    """compute_sh(400, 200) over Q at the default trials, within 8 s: the
    residue rows at n >= 200 (about 1.1 s on a 2 vCPU Xeon)."""
    with budget(8, "compute_sh(400, 200) did not return in 8 s"):
        return compute_sh(400, 200)


def test_residue_rows_at_n_200():
    res = compute_400_200()
    assert "modulo the prime" in _diagnostic(res, "localization_match").detail
    assert [d.name for d in res.diagnostics if not d.passed] == []
    assert res.qh.relation == closed_form(400, 200, QQ)[0]


def test_residue_rows_at_n_200_catch_a_wrong_row(corrupt_localize_row):
    res = compute_400_200()
    assert [d.name for d in res.diagnostics if not d.passed] == ["localization_match"]


def test_library_writes_ints_past_4300_digits():
    # a_N = 100^2151 has 4303 digits; the limit is lifted only during the call
    limit = sys.get_int_max_str_digits()
    res = compute_sh(2150, 100, trials=1)
    assert sys.get_int_max_str_digits() == limit
    assert [d.name for d in res.diagnostics if not d.passed] == []
    text = json.dumps(result_to_dict(res))
    assert sys.get_int_max_str_digits() == limit
    with unlimited_int_digits():
        assert str(100**2151) in text


def test_int_digit_limit_is_restored_after_an_exception():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ZeroDivisionError):
        with unlimited_int_digits():
            assert sys.get_int_max_str_digits() == 0
            1 / 0
    assert sys.get_int_max_str_digits() == limit


def test_spectrum_at_m_400_within_one_second():
    # the Berkowitz recurrence and a walk over 401 powers took about 3 s
    # on a 2 vCPU Xeon; the Krylov solve and its two checks about 0.04 s
    with budget(1, "spectrum(build_r_matrix(400, 200)) did not return in 1 s"):
        cp, annihilates, dims = spectrum(build_r_matrix(400, 200))
    assert annihilates and dims == list(range(201))
    assert cp.a[200] and sum(1 for a in cp.a if a) == 1


@pytest.mark.parametrize("m, n, field", [(5, 2, QQ), (6, 7, QQ), (8, 3, F2)])
def test_one_c1_serves_both_ring_checks(monkeypatch, m, n, field):
    # c1 = -n*w is built once per run and handed to the nilpotency and
    # the multiplication-matrix checks
    seen = []

    def recorded(real):
        def call(pres, x):
            seen.append((pres, x))
            return real(pres, x)
        return call

    for name in ("is_nilpotent", "multiplication_matrix"):
        monkeypatch.setattr(shq.pipeline, name, recorded(getattr(shq.pipeline, name)))
    res = compute_sh(m, n, field, trials=1)
    assert len(seen) == 2 and seen[0][1] is seen[1][1]
    assert all(pres is res.qh for pres, _ in seen)
    assert seen[0][1] == res.qh.gen() * -n


def test_multiplication_matrix_bases_agree_only_without_corrections():
    # twist one: classical classes are the quantum generator powers
    res = compute_sh(4, 1)
    mm = multiplication_matrix(res.qh, res.qh.gen() * mono(QQ, -1))
    assert mm == res.r_matrix
    # twist two: the operator is the same, the bases are not
    res = compute_sh(5, 2)
    mm = multiplication_matrix(res.qh, res.qh.gen() * mono(QQ, -2))
    assert char_poly(mm) == res.char
    assert mm != res.r_matrix
    assert mm.entries[3][0] == mono(QQ, 8, 1)  # vs 4*t on classical classes
    assert res.r_matrix.entries[3][0] == mono(QQ, 4, 1)


# -- vanishing predicates --------------------------------------------------


def test_vanishing_nilpotency_matches_rank():
    assert vanishing_nilpotency(compute_sh(1, 1)) is False
    assert vanishing_nilpotency(compute_sh(5, 2)) is False
    assert vanishing_nilpotency(compute_sh(2, 3)) is True
    assert vanishing_nilpotency(compute_sh(2, 5)) is True
    assert vanishing_nilpotency(compute_sh(5, 4, F2)) is True
    with pytest.raises(ValueError):
        vanishing_nilpotency(compute_sh(3, 3))


def test_rank_constraints():
    assert rank_constraints(4, 1, 4)
    assert rank_constraints(5, 2, 4)
    assert not rank_constraints(5, 2, 3)
    assert not rank_constraints(5, 2, 6)
    assert rank_constraints(1, 2, 0)
    assert not rank_constraints(1, 2, 2)


# -- rendering -------------------------------------------------------------


def test_result_dict_shape_and_serializability():
    for m, n, field in [(1, 1, QQ), (5, 2, QQ), (3, 3, QQ), (2, 3, QQ), (5, 4, F2)]:
        d = result_to_dict(compute_sh(m, n, field))
        json.dumps(d)
        for key in ("regime", "N", "qh", "sh", "sh_rank", "r_matrix", "diagnostics"):
            assert key in d
        assert all(
            set(x) == {"name", "pass", "detail"} for x in d["diagnostics"]
        )
        assert d["r_matrix"]["entries"][-1] == ["0"] * (m + 1)


def test_result_dict_relation_pairs():
    d = result_to_dict(compute_sh(5, 2))
    assert d["qh"]["relation"] == [["1", 6], ["4*t", 2]]
    assert d["sh"]["relation"] == [["1", 4], ["4*t", 0]]
    assert d["char_poly"] == [["1", 6], ["64*t", 2]]
    d = result_to_dict(compute_sh(3, 3))
    assert d["sh"]["kind"] == "partial"
    assert d["sh"]["possible_ranks"] == [1, 2, 3]
    assert d["sh"]["lead"] == {"index": 1, "coefficient": "-81*t"}


def test_determinism():
    a = result_to_dict(compute_sh(5, 2, seed=7))
    b = result_to_dict(compute_sh(5, 2, seed=7))
    assert a == b
    assert result_to_text(compute_sh(3, 3)) == result_to_text(compute_sh(3, 3))


def test_text_rendering_mentions_the_facts():
    text = result_to_text(compute_sh(3, 3))
    assert "positive multiple of 1" in text
    assert "-81*t" in text
    text = result_to_text(compute_sh(2, 3))
    assert "SH* = 0" in text


def test_exact_rows():
    rows, failed = exact_rows(2)
    assert failed == []
    assert [(r["m"], r["n"]) for r in rows] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (2, 5)
    ]
    assert rows[0]["sh"] == "w + t"
    assert rows[1]["sh"] == "0"
    assert all(r["regime"] != "unsupported" for r in rows)
    # max_m is refused as compute_sh refuses m: a bool, a float and a str too
    for max_m in (0, True, 2.5, "3"):
        with pytest.raises(ValueError, match="need an integer max_m >= 1"):
            exact_rows(max_m)
