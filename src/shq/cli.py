"""Command line entry points.

Exit codes: 0 on success, 2 when the requested (m, n) falls in the
refused band, 3 on invalid arguments, 4 when `compute` or `table` printed
a result but a diagnostic failed, or `localize` printed a sample that
differs from the closed form, 141 when the reader closes standard output
early (`shq ... | head`), 130 on Ctrl-C; the last two print no
traceback.  Exact integers print in full, past
Python's 4300-digit limit on int-to-text conversion.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .blowup import (
    obstruction_bundle_degree,
    pulled_back_constraint,
    universal_curve,
)
from .gw import subdiagonal_entry, tau_table
from .localization import localize_entry, sample_weights
from .novikov import FIELDS
from .pipeline import (
    UnsupportedRegimeError,
    build_r_matrix,
    compute_sh,
    exact_rows,
    matrix_to_dict,
    minimal_chern,
    result_to_dict,
    result_to_text,
    unlimited_int_digits,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; 2 is reserved for the refused band
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_field(p):
    p.add_argument("--field", choices=sorted(FIELDS), default="q",
                   help="coefficient field (default: q)")


def _add_mn(p):
    p.add_argument("--m", type=int, required=True, help="base dimension, P^m")
    p.add_argument("--n", type=int, required=True, help="twist, O(-n)")


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process."""
    parser = _Parser(
        prog="shq",
        description="Quantum and symplectic cohomology of O(-n) over P^m "
        "by exact linear algebra over Laurent polynomials in t.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compute", help="full pipeline for one (m, n)")
    _add_mn(p)
    _add_field(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled localization cross-checks")

    p = sub.add_parser("rmatrix", help="the multiplication matrix alone")
    _add_mn(p)
    _add_field(p)

    p = sub.add_parser("tau", help="degree-one section-count coefficients")
    p.add_argument("--n", type=int, required=True)
    _add_field(p)

    p = sub.add_parser("localize", help="one matrix entry by fixed points")
    _add_mn(p)
    p.add_argument("--a", type=int, required=True, help="column index, 0..n-1")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("grr", help="obstruction bundle degree over the line")

    p = sub.add_parser("table", help="closed forms for every exact-mode pair")
    p.add_argument("--max-m", type=int, required=True, dest="max_m")
    _add_field(p)
    return parser


def _emit(payload) -> int:
    # streamed: a large matrix is never held as one string
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_compute(args) -> int:
    res = compute_sh(args.m, args.n, FIELDS[args.field], seed=args.seed)
    if args.format == "text":
        print(result_to_text(res))
    else:
        _emit(result_to_dict(res))
    return 0 if all(d.passed for d in res.diagnostics) else 4


def _cmd_rmatrix(args) -> int:
    r = build_r_matrix(args.m, args.n, FIELDS[args.field])
    return _emit(
        {
            "m": args.m,
            "n": args.n,
            "field": FIELDS[args.field].kind,
            "N": minimal_chern(args.m, args.n),
            **matrix_to_dict(r),
        }
    )


def _cmd_tau(args) -> int:
    field = FIELDS[args.field]
    reduced = field.of_all(tau_table(args.n).coeffs)
    return _emit(
        {
            "n": args.n,
            "field": field.kind,
            "coefficients": reduced,
            "sum": sum(reduced),
        }
    )


def _cmd_localize(args) -> int:
    if args.trials < 1:
        raise ValueError("need --trials >= 1")
    expected = subdiagonal_entry(args.m, args.n, args.a)
    seeds = range(args.seed, args.seed + args.trials)
    values = [
        localize_entry(args.m, args.n, args.a, sample_weights(args.m, seed))
        for seed in seeds
    ]
    match = all(value == expected for value in values)
    _emit(
        {
            "m": args.m,
            "n": args.n,
            "a": args.a,
            "expected": expected,
            "samples": [
                {"seed": seed, "value": int(v) if v.denominator == 1 else str(v)}
                for seed, v in zip(seeds, values)
            ],
            "match": match,
        }
    )
    return 0 if match else 4


def _cmd_grr(args) -> int:
    s = universal_curve()
    z = pulled_back_constraint()
    c1 = tuple(-k for k in s.canonical)
    return _emit(
        {
            "surface": "two-point blow-up of a product of two lines",
            "euler": s.euler,
            "k_squared": s.k_squared(),
            "c1_dot_z": s.intersect(c1, z),
            "z_squared": s.intersect(z, z),
            "chi_structure_sheaf": int(s.chi_structure_sheaf()),
            "chi_z": int(s.chi_sheaf(z)),
            "obstruction_degree": obstruction_bundle_degree(),
        }
    )


def _cmd_table(args) -> int:
    rows, failed = exact_rows(args.max_m, FIELDS[args.field])
    _emit(rows)
    return 4 if failed else 0


_COMMANDS = {
    "compute": _cmd_compute,
    "rmatrix": _cmd_rmatrix,
    "tau": _cmd_tau,
    "localize": _cmd_localize,
    "grr": _cmd_grr,
    "table": _cmd_table,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # print exact integers in full; the arguments are parsed by now
    try:
        with unlimited_int_digits():
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader gone early raises here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull: the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        return 130
    except UnsupportedRegimeError as e:
        print(f"shq: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"shq: invalid arguments: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
