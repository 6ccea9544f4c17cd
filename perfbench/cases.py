"""Workload case lists and the closed-form reference the benchmark checks
every answer against.

Nothing here imports ``shq``: the expected answers come from the closed
forms for O(-n) -> P^m, never from the code under test, and the parent
process can read the case lists without loading the program.
"""

from __future__ import annotations

import re
from fractions import Fraction

# compute_sh over Q, one complete case from each regime: monotone exact
# window with n = 1 and n >= 2, Calabi-Yau twist, large twist.  Few large
# matrices (s = 13..17); the nilpotent cases walk kernel powers the full
# length.
EXACT_Q = [(12, 1), (12, 6), (12, 13), (12, 25), (16, 8)]

# compute_sh over Q in partial mode (2N <= m): the characteristic
# polynomial, kernel and Jordan code never runs, localization dominates.
PARTIAL_Q = [(24, 24), (28, 22), (28, 28), (32, 32)]

# `shq table --max-m 8 --field F` in-process, F = q then gf2: 36 small
# exact pairs per field, the GF(2) scalar path and the CLI rendering.
TABLE_MAX_M = 8
TABLE_FIELDS = ["q", "gf2"]

WORKLOADS = {
    "exact_q": [("compute", m, n) for (m, n) in EXACT_Q],
    "partial_q": [("compute", m, n) for (m, n) in PARTIAL_Q],
    "table": [("table", TABLE_MAX_M, f) for f in TABLE_FIELDS],
}


class Mismatch(Exception):
    """An answer disagrees with the closed form."""


def _require(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


# -- parsing the rendered output ------------------------------------------

_CONSTANT = re.compile(r"-?\d+(?:/\d+)?")
_T_TERM = re.compile(r"(?:(-?\d+(?:/\d+)?)\*|(-))?t(?:\^(-?\d+))?")


def parse_monomial(text: str) -> tuple:
    """'4*t' -> (4, 1), 't' -> (1, 1), '-t^2' -> (-1, 2), '7' -> (7, 0)."""
    if _CONSTANT.fullmatch(text):
        return Fraction(text), 0
    match = _T_TERM.fullmatch(text)
    if not match:
        raise Mismatch(f"not a monomial: {text!r}")
    coeff = Fraction(match.group(1) or (-1 if match.group(2) else 1))
    return coeff, int(match.group(3) or 1)


def parse_relation(text: str) -> dict:
    """'w^6 + 4*t*w^2' -> {6: (1, 0), 2: (4, 1)}: generator power ->
    (coefficient, t power)."""
    out = {}
    for term in text.split(" + "):
        match = re.fullmatch(r"(?:(.+)\*)?w(?:\^(\d+))?", term)
        if match:
            coeff = parse_monomial(match.group(1)) if match.group(1) else (Fraction(1), 0)
            k = int(match.group(2)) if match.group(2) else 1
        else:
            coeff, k = parse_monomial(term), 0
        _require(k not in out, f"repeated power {k} in {text!r}")
        out[k] = coeff
    return out


def _pairs(relation: list) -> dict:
    """JSON relation [[coeff, power], ...] -> {power: (coeff, t power)}."""
    return {k: parse_monomial(c) for c, k in relation}


# -- closed forms ----------------------------------------------------------


def _reduce(rel: dict, field: str) -> dict:
    """Coefficients mod 2 over GF(2), zero terms dropped."""
    if field != "gf2":
        return rel
    out = {}
    for k, (c, d) in rel.items():
        _require(c.denominator % 2 == 1, f"coefficient {c} is not in GF(2)")
        if c.numerator % 2:
            out[k] = (Fraction(1), d)
    return out


def expected(m: int, n: int, field: str) -> dict:
    """Closed-form answer for O(-n) -> P^m over field ('q' or 'gf2').

    kind 'ring': QH = L[w]/(w^(m+1) + n^n t w^n), SH = L[w]/(w^N + n^n t),
    rank N (the exact monotone window 2N > m, n <= m).
    kind 'zero': SH = 0 and rank 0, with the classical QH = L[w]/(w^(m+1))
    (Calabi-Yau twist, large twist, even twist over GF(2)).
    kind 'partial': lead coefficient (-1)^N n^(1+m) t and possible ranks
    N, 2N, ... <= m (monotone with 2N <= m).
    """
    N = 1 + m - n
    if m + 2 <= n <= 2 * m:
        raise ValueError(f"({m}, {n}) is in the refused band")
    classical = {m + 1: (Fraction(1), 0)}
    if n == m + 1:
        return {"kind": "zero", "regime": "calabi_yau", "qh": classical}
    if n > 2 * m:
        return {"kind": "zero", "regime": "large_min_chern", "qh": classical}
    if field == "gf2" and n % 2 == 0 and 2 * N > m:
        return {"kind": "zero", "regime": "monotone", "qh": classical}
    if 2 * N <= m:
        return {
            "kind": "partial",
            "regime": "monotone",
            "N": N,
            "lead": _reduce({0: (Fraction((-1) ** N * n ** (1 + m)), 1)}, field),
            "possible_ranks": list(range(N, m + 1, N)),
        }
    lead = Fraction(n**n)
    return {
        "kind": "ring",
        "regime": "monotone",
        "rank": N,
        "qh": _reduce({m + 1: (Fraction(1), 0), n: (lead, 1)}, field),
        "sh": _reduce({N: (Fraction(1), 0), 0: (lead, 1)}, field),
    }


def check_result(m: int, n: int, field: str, d: dict):
    """Check one `result_to_dict` payload against the closed form; every
    diagnostic must pass as well.  Raises Mismatch."""
    failed = [x["name"] for x in d["diagnostics"] if not x["pass"]]
    _require(not failed, f"diagnostics failed: {failed}")
    exp = expected(m, n, field)
    _require(d["regime"]["kind"] == exp["regime"], f"regime {d['regime']['kind']}")
    sh = d["sh"]
    _require(sh["kind"] == exp["kind"], f"SH kind {sh['kind']} != {exp['kind']}")
    if exp["kind"] == "partial":
        _require(sh["lead"]["index"] == exp["N"], f"lead index {sh['lead']['index']}")
        got = _reduce({0: parse_monomial(sh["lead"]["coefficient"])}, field)
        _require(got == exp["lead"], f"lead coefficient {sh['lead']['coefficient']}")
        _require(
            sh["possible_ranks"] == exp["possible_ranks"],
            f"possible ranks {sh['possible_ranks']}",
        )
        return
    _require(d["qh"]["generator"] == "omega", f"QH generator {d['qh']['generator']}")
    _require(_pairs(d["qh"]["relation"]) == exp["qh"], f"QH relation {d['qh']['text']}")
    if exp["kind"] == "zero":
        _require(d["sh_rank"] == 0, f"rank {d['sh_rank']} != 0")
        return
    _require(d["sh_rank"] == exp["rank"], f"rank {d['sh_rank']} != {exp['rank']}")
    _require(sh["generator"] == "omega", f"SH generator {sh['generator']}")
    _require(_pairs(sh["relation"]) == exp["sh"], f"SH relation {sh['text']}")


def table_pairs(max_m: int) -> list:
    """The exact-mode pairs `shq table` lists, in order."""
    return [
        (m, n)
        for m in range(1, max_m + 1)
        for n in list(range(1, (m + 1) // 2 + 1)) + [m + 1, 2 * m + 1]
    ]


def check_table(max_m: int, field: str, rows: list):
    """Check the parsed output of `shq table` row by row.  Raises Mismatch."""
    pairs = [(row["m"], row["n"]) for row in rows]
    _require(pairs == table_pairs(max_m), "table rows are not the exact-mode pairs")
    for row in rows:
        m, n = row["m"], row["n"]
        exp = expected(m, n, field)
        where = f"row ({m}, {n})"
        _require(row["regime"] == exp["regime"], f"{where}: regime {row['regime']}")
        _require(parse_relation(row["qh"]) == exp["qh"], f"{where}: QH {row['qh']}")
        if exp["kind"] == "zero":
            _require(row["sh"] == "0" and row["sh_rank"] == 0, f"{where}: SH {row['sh']}")
        else:
            _require(row["sh_rank"] == exp["rank"], f"{where}: rank {row['sh_rank']}")
            _require(parse_relation(row["sh"]) == exp["sh"], f"{where}: SH {row['sh']}")
