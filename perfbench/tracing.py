"""Per-layer tracing installed from outside the program.

The program has no trace of its own yet, so this module wraps the public
functions of each layer (one layer per module of ``shq``) in timing or
counting wrappers.  ``pipeline`` and ``cli`` bind imported names at import
time (``from .linalg import char_poly``), so every module that holds the
original function object gets the wrapper, or those calls would go unseen.

Spans are kept in memory as [name, start, end, parent index] and turned
into per-layer metrics when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time

# Functions timed as spans, as "<module of shq>.<function>".  Their call
# counts are the number of spans.
TIMED = [
    "linalg.char_poly",
    "linalg.stabilized_kernel",
    "linalg.jordan_zero_block_sizes",
    "localization.localize_entry",
    "localization.sample_weights",
    "gw.subdiagonal_entry",
    "ring.change_generator",
    "ring.multiplication_matrix",
    "ring.is_nilpotent",
    "pipeline.compute_sh",
    "pipeline.build_r_matrix",
    "pipeline.result_to_dict",
    "pipeline.exact_rows",
    "cli.main",
    "blowup.obstruction_bundle_degree",
]
# exact_rows is timed only so that cli.self_s leaves it out
REPORTED_SECONDS = [name for name in TIMED if name != "pipeline.exact_rows"]
SPAN_CALLS = ["linalg.char_poly", "localization.localize_entry"]
# self time: the span minus its timed children
SELF_SECONDS = {"pipeline.self_s": "pipeline.compute_sh", "cli.self_s": "cli.main"}

# Calls only counted, too many or too small to time:
# (module.function or module.Class.method, metric).
COUNTED = [
    ("linalg.rank", "linalg.rank_calls"),
    ("linalg.LambdaMatrix.__mul__", "linalg.matmul_calls"),
    ("novikov.Novikov.__init__", "novikov.constructions"),
    ("gw.tau_table", "gw.tau_table_calls"),
]
# Exact counts; two traced passes of one workload must agree on each.
COUNT_METRICS = [metric for (_, metric) in COUNTED] + [
    name + "_calls" for name in SPAN_CALLS
]


class Tracer:
    """Holds the spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._counts = {metric: [0] for (_, metric) in COUNTED}

    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, metric, fn):
        cell = self._counts[metric]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target in place; call after ``shq.cli`` is imported."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "shq" or name.startswith("shq.")
        ]
        for name in TIMED:
            layer, func = name.split(".")
            orig = getattr(sys.modules["shq." + layer], func)
            _rebind(modules, orig, self._timed(name, orig))
        for target, metric in COUNTED:
            layer, *owner, func = target.split(".")
            if owner:
                cls = getattr(sys.modules["shq." + layer], owner[0])
                setattr(cls, func, self._counted(metric, getattr(cls, func)))
            else:
                orig = getattr(sys.modules["shq." + layer], func)
                _rebind(modules, orig, self._counted(metric, orig))

    def metrics(self) -> dict:
        """Per-layer seconds, self times and exact counts of the pass,
        derived from the spans and the counters."""
        inside = dict.fromkeys(TIMED, 0.0)
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inside[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        out = {name + "_s": inside[name] for name in REPORTED_SECONDS}
        for metric, name in SELF_SECONDS.items():
            out[metric] = sum(
                [end - start - children[k]
                 for k, (span_name, start, end, _) in enumerate(self.spans)
                 if span_name == name],
                0.0,
            )
        for name in SPAN_CALLS:
            out[name + "_calls"] = sum(1 for span in self.spans if span[0] == name)
        out.update({metric: cell[0] for metric, cell in self._counts.items()})
        return out


def _rebind(modules, orig, wrapper):
    """Replace every module-level binding of orig with wrapper."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
