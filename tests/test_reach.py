"""Guard against product code that no run of the product enters.

A fresh interpreter profiles every Python call from before ``import
shq.cli`` on, while ``shq.cli.main`` runs the product's flows: ``compute``
(JSON and text) and ``rmatrix`` over pairs from every regime on Q and
GF(2), ``table --max-m 8``, ``tau``, ``localize``, ``grr``, and one
refusal of each refusing exit code (2, and 3 from the parser and from a
value check).  Every function or method defined in ``src/shq`` must be
entered there, or be kept for a stated reason:

- its name is imported or read by the acceptance contract
  ``tests/test_acceptance.py`` (scanned as ``test_surface`` scans
  references);
- ``perfbench/tracing.py`` wraps it by name;
- it is part of the ``Record`` protocol, or a ``__hash__`` or ``__repr__``;
- a kept function names it, so it runs when that one does.

Functions are matched to the calls by source file and first line (the
first decorator's line for a decorated one).
"""

import ast
import json
import os
import subprocess
import sys

from test_surface import CONTRACT, PACKAGE, ROOT, _names_in, tracing_targets

# pairs from every regime: monotone exact with n = 1 and n >= 2, partial
# below and past the residue cross-check's n = 20, Calabi-Yau, large twist
PAIRS = [(1, 1), (2, 1), (4, 2), (5, 2), (6, 3), (3, 3), (8, 6), (20, 20), (3, 4), (2, 5)]

PROBE = """
import contextlib, io, json, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import shq.cli

runs = []
for field in ("q", "gf2"):
    for m, n in PAIRS:
        mn = ["--m", str(m), "--n", str(n), "--field", field]
        runs += [["compute", *mn], ["compute", *mn, "--format", "text"], ["rmatrix", *mn]]
    runs += [["table", "--max-m", "8", "--field", field], ["tau", "--n", "5", "--field", field]]
runs += [
    ["localize", "--m", "4", "--n", "3", "--a", "1"],
    ["grr"],
    ["compute", "--m", "3", "--n", "6"],  # the refused band: 2
    ["compute", "--m", "0", "--n", "1"],  # a value check: 3
    ["compute", "--m", "x", "--n", "1"],  # the parser: 3
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(shq.cli.main(argv))
        except SystemExit as exit:
            codes.append(exit.code)
sys.setprofile(None)
json.dump({"codes": codes, "entered": sorted(entered)}, sys.stdout)
"""

RECORD_PROTOCOL = {
    "novikov.Record.__setattr__": "immutability",
    "novikov.Record.__delattr__": "immutability",
    "novikov.Record.__reduce__": "copy and pickle",
}


def functions(sources: dict) -> dict:
    """{"module.qualname": (path, node)} of every function and method in
    sources, {module: (path, tree)}; a nested function is named as Python
    names it, outer.<locals>.inner."""
    found = {}

    def walk(module, path, body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[f"{module}.{prefix}{node.name}"] = (path, node)
                walk(module, path, node.body, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                walk(module, path, node.body, f"{prefix}{node.name}.")

    for module, (path, tree) in sources.items():
        walk(module, path, tree.body, "")
    return found


def first_line(node: ast.FunctionDef) -> int:
    """The co_firstlineno of a function: its first decorator's line, or
    its def line."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def keep_reasons(defined: dict, contract: ast.AST, tracing: set) -> dict:
    """{"module.qualname": reason} of each function of defined kept
    though no flow enters it."""
    names = set(_names_in(contract))
    keep = dict(RECORD_PROTOCOL)
    for qualname in defined:
        module, inner = qualname.split(".", 1)
        name = inner.rsplit(".", 1)[-1]
        if name in names:
            keep[qualname] = "read by the acceptance contract"
        elif (module, inner) in tracing:
            keep[qualname] = "wrapped by perfbench/tracing.py"
        elif name in ("__hash__", "__repr__"):
            keep[qualname] = "hash and repr of a value"
    # what a kept function names runs with it
    pending = [q for q in keep if q in defined]
    while pending:
        caller = pending.pop()
        called = set(_names_in(defined[caller][1])) - {caller.rsplit(".", 1)[-1]}
        for qualname in defined:
            if qualname not in keep and qualname.rsplit(".", 1)[-1] in called:
                keep[qualname] = f"named by kept {caller}"
                pending.append(qualname)
    return keep


def unreached(defined: dict, entered: set, keep: dict) -> list:
    """The qualnames of defined neither entered, as (path, first line),
    nor kept."""
    return sorted(
        q
        for q, (path, node) in defined.items()
        if (path, first_line(node)) not in entered and q not in keep
    )


def run_probe() -> dict:
    done = subprocess.run(
        [sys.executable, "-c", f"PAIRS = {PAIRS!r}\n{PROBE}"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _sources() -> dict:
    return {
        path.stem: (str(path), ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_every_function_is_entered_or_kept():
    probe = run_probe()
    assert {0, 2, 3} <= set(probe["codes"]) <= {0, 2, 3}, probe["codes"]
    defined = functions(_sources())
    assert "pipeline.compute_sh" in defined and "novikov.Record.__init__" in defined
    keep = keep_reasons(defined, ast.parse(CONTRACT.read_text()), tracing_targets())
    missing = sorted(set(RECORD_PROTOCOL) - set(defined))
    assert not missing, f"kept functions that src/shq no longer defines: {missing}"
    found = unreached(defined, {tuple(x) for x in probe["entered"]}, keep)
    assert not found, (
        "functions in src/shq that no product flow enters and no keep rule "
        f"covers: {found}"
    )


def test_the_reach_scan_sees_each_rule():
    source = (
        "class Value:\n"
        "    def __hash__(self): pass\n"
        "    def __add__(self, other): pass\n"
        "    @property\n"
        "    def view(self): return helper()\n"
        "    def dead(self): pass\n"
        "class Novikov:\n"
        "    def __add__(self, other): return self._coerce(other)\n"
        "    def __neg__(self): pass\n"
        "    def _coerce(self, other): pass\n"
        "def helper(): pass\n"
        "def traced(): pass\n"
        "def run():\n"
        "    def inner(): pass\n"
    )
    defined = functions({"m": ("m.py", ast.parse(source))})
    assert first_line(defined["m.Value.view"][1]) == 4
    assert "m.run.<locals>.inner" in defined
    keep = keep_reasons(defined, ast.parse("x.view"), {("m", "traced")})
    assert {q: r for q, r in keep.items() if q.startswith("m.")} == {
        "m.Value.__hash__": "hash and repr of a value",
        "m.Value.view": "read by the acceptance contract",
        "m.helper": "named by kept m.Value.view",
        "m.traced": "wrapped by perfbench/tracing.py",
    }
    # an operator no flow enters is reported, on a Novikov scalar too
    entered = {("m.py", 13)}
    assert unreached(defined, entered, keep) == [
        "m.Novikov.__add__", "m.Novikov.__neg__", "m.Novikov._coerce",
        "m.Value.__add__", "m.Value.dead", "m.run.<locals>.inner",
    ]
