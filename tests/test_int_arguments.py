"""The integer arguments of the package's entry points follow one rule,
``novikov.need_int``: an int, not a bool, within its bounds, or
``ValueError`` naming the argument.

``ENTRIES`` lists every entry point with each of its integer arguments and
their bounds at the entry's good arguments.  Each argument must refuse a
bool, a float, a str, ``None`` and each bound broken by one, while the
good call returns.  A completeness check keeps the table whole: every
public function or method of ``src/shq`` with a parameter named m, n, a,
k, seed, trials, max_m or sh_rank is in it with each such parameter,
except ``minimal_chern`` (a formula on checked values) and
``UnsupportedRegimeError`` (built from checked values).
"""

import argparse
import ast

import pytest

from shq.blowup import blow_up, product_of_lines
from shq.cli import _cmd_localize
from shq.gw import subdiagonal_entries, subdiagonal_entry, tau, tau_table
from shq.linalg import CharPoly
from shq.localization import (
    fixed_point_integral,
    is_prime,
    localize_entry,
    localize_row,
    sample_prime,
    sample_weights,
)
from shq.novikov import QQ, GradingContext
from shq.pipeline import (
    build_r_matrix,
    classify_regime,
    compute_sh,
    exact_rows,
    rank_constraints,
)
from shq.ring import RingPresentation, change_generator

from test_surface import PACKAGE

NAMES = {"m", "n", "a", "k", "seed", "trials", "max_m", "sh_rank"}
EXEMPT = {"minimal_chern", "UnsupportedRegimeError"}

W = sample_weights(4, 0)
CP = CharPoly(QQ, GradingContext(1), (1, 2, 3))
OMEGA = RingPresentation("omega", QQ, GradingContext(1), (0, 0, 1))
C = RingPresentation("c", QQ, GradingContext(1), (1, 0, 1))


def _localize(m=2, n=2, a=0, trials=1, seed=0):
    return _cmd_localize(argparse.Namespace(m=m, n=n, a=a, trials=trials, seed=seed))


# "module.function" or "module.Class.method" -> (call by keyword, good
# arguments, {argument: (low, high)} with None for an open bound)
ENTRIES = {
    "pipeline.classify_regime": (classify_regime, dict(m=3, n=5), dict(m=(1, None), n=(1, None))),
    "pipeline.build_r_matrix": (build_r_matrix, dict(m=3, n=2), dict(m=(1, None), n=(1, None))),
    "pipeline.compute_sh": (
        compute_sh, dict(m=2, n=1, seed=0, trials=1),
        dict(m=(1, None), n=(1, None), seed=(None, None), trials=(1, None)),
    ),
    "pipeline.rank_constraints": (
        rank_constraints, dict(m=3, n=2, sh_rank=2),
        dict(m=(1, None), n=(1, None), sh_rank=(None, None)),
    ),
    "pipeline.exact_rows": (exact_rows, dict(max_m=1), dict(max_m=(1, None))),
    "gw.tau_table": (tau_table, dict(n=3), dict(n=(1, None))),
    "gw.tau": (tau, dict(a=1, n=3), dict(a=(0, 2), n=(1, None))),
    "gw.subdiagonal_entries": (subdiagonal_entries, dict(m=4, n=3), dict(m=(1, None), n=(1, 4))),
    "gw.subdiagonal_entry": (
        subdiagonal_entry, dict(m=4, n=3, a=1), dict(m=(1, None), n=(1, 4), a=(0, 2)),
    ),
    "localization.sample_weights": (
        sample_weights, dict(m=4, seed=0), dict(m=(1, None), seed=(None, None)),
    ),
    "localization.sample_prime": (sample_prime, dict(seed=0), dict(seed=(None, None))),
    "localization.is_prime": (is_prime, dict(k=7), dict(k=(None, None))),
    "localization.fixed_point_integral": (
        lambda **kw: fixed_point_integral(weights=W, **kw), dict(m=4, n=3, a=1),
        dict(m=(1, None), n=(1, 4), a=(0, 2)),
    ),
    # a bool n once read as 1 gave the entry of n = 1, a bool a the a = 1 entry
    "localization.localize_entry": (
        lambda **kw: localize_entry(weights=W, **kw), dict(m=4, n=3, a=0),
        dict(m=(1, None), n=(1, 4), a=(0, 2)),
    ),
    "localization.localize_row": (
        lambda **kw: localize_row(weights=W, **kw), dict(m=4, n=3), dict(m=(1, None), n=(1, 4)),
    ),
    "blowup.blow_up": (lambda k: blow_up(product_of_lines(), k), dict(k=1), dict(k=(0, None))),
    "novikov.GradingContext.t_power": (GradingContext(2).t_power, dict(k=4), dict(k=(None, None))),
    "linalg.CharPoly.coefficient": (CP.coefficient, dict(k=1), dict(k=(1, 3))),
    "linalg.CharPoly.coefficient_str": (CP.coefficient_str, dict(k=1), dict(k=(1, 3))),
    "ring.RingPresentation.coefficient": (OMEGA.coefficient, dict(k=1), dict(k=(0, 2))),
    "ring.RingPresentation.coefficient_str": (OMEGA.coefficient_str, dict(k=1), dict(k=(0, 2))),
    "ring.RingPresentation.gen_power": (OMEGA.gen_power, dict(k=1), dict(k=(0, None))),
    "ring.RingElement.coefficient": (OMEGA.gen().coefficient, dict(k=1), dict(k=(0, 1))),
    "ring.change_generator": (lambda n: change_generator(C, n), dict(n=3), dict(n=(1, None))),
    # the command's own check; argparse has made every value an int
    "cli._cmd_localize": (_localize, dict(trials=1), dict(trials=(1, None))),
}

CASES = [
    pytest.param(entry, arg, bad, id=f"{entry}-{arg}-{bad!r}")
    for entry, (_, _, bounds) in ENTRIES.items()
    for arg, (low, high) in bounds.items()
    for bad in [True, 1.0, "1", None]
    + ([low - 1] if low is not None else [])
    + ([high + 1] if high is not None else [])
]


def _rule(name, low, high):
    if low is None:
        return name if high is None else f"{name} <= {high}"
    return f"{name} >= {low}" if high is None else f"{low} <= {name} <= {high}"


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_the_good_call_returns(entry):
    call, good, _ = ENTRIES[entry]
    call(**good)


@pytest.mark.parametrize("entry, arg, bad", CASES)
def test_an_integer_argument_refuses_what_is_not_one(entry, arg, bad):
    call, good, bounds = ENTRIES[entry]
    with pytest.raises(ValueError) as e:
        call(**{**good, arg: bad})
    assert str(e.value) == f"need an integer {_rule(arg, *bounds[arg])}, got {arg}={bad!r}"


@pytest.mark.parametrize(
    "call, good", [(tau_table, dict(n=1)), (sample_weights, dict(m=1, seed=0)),
                   (sample_prime, dict(seed=0))],
)
def test_a_memoized_entry_refuses_what_equals_a_cached_int(call, good):
    # a bool or float hashes and compares as its int: a cache keyed by
    # value alone would hand it the result of the good call unchecked
    call(**good)
    for arg, value in good.items():
        for bad in (bool(value), float(value)):
            with pytest.raises(ValueError, match=f"got {arg}={bad!r}"):
                call(**{**good, arg: bad})


def _integer_parameters():
    """{"module.function" or "module.Class.method": the parameters named
    in NAMES} of every public function, class (by its __init__) and public
    method of src/shq."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                found[f"{path.stem}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        if item.name == "__init__":
                            found[f"{path.stem}.{node.name}"] = item
                        elif not item.name.startswith("_"):
                            found[f"{path.stem}.{node.name}.{item.name}"] = item
    return {
        name: {a.arg for a in node.args.args + node.args.kwonlyargs} & NAMES
        for name, node in found.items()
    }


def test_every_integer_argument_is_in_the_table():
    params = {
        name: args
        for name, args in _integer_parameters().items()
        if args and name.split(".")[1] not in EXEMPT
    }
    params["cli._cmd_localize"] = {"trials"}
    assert {name: set(ENTRIES[name][2]) for name in ENTRIES} == params
