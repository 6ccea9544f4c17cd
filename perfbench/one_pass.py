"""One pass over a workload's case list, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload exact_q --seed 0 --trace 0

Runs the cases in order, each after the previous one returns, times each
call into the program together with rendering its result to JSON, and
checks every answer against the closed forms in ``cases``.  The
reference kernel of ``calibration`` runs before and after each case.
Prints one JSON object: the pass time, each case's time and the mean
kernel time around it, the peak resident memory of this process, the
failed cases, and with ``--trace 1`` the per-layer metrics and spans.
``run.py`` starts this script; run it alone only to debug.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import time

import cases
from calibration import kernel_seconds
from tracing import Tracer

# A case that overruns this limit counts as failed; the slowest case of
# any workload takes about 5 s.
CASE_LIMIT_S = 30


class Overrun(Exception):
    pass


def _on_alarm(signum, frame):
    raise Overrun(f"over the {CASE_LIMIT_S} s case limit")


def _run_case(case, seed, pipeline, cli) -> tuple:
    """Call the program for one case; returns (seconds, checker)."""
    kind, a, b = case
    if kind == "compute":
        t0 = time.perf_counter()
        text = json.dumps(pipeline.result_to_dict(pipeline.compute_sh(a, b, seed=seed)))
        seconds = time.perf_counter() - t0
        return seconds, lambda: cases.check_result(a, b, "q", json.loads(text))
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table", "--max-m", str(a), "--field", b])
    seconds = time.perf_counter() - t0
    if code != 0:
        raise cases.Mismatch(f"shq table exited {code}")
    return seconds, lambda: cases.check_table(a, b, json.loads(out.getvalue()))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(cases.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    from shq import cli, pipeline

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    case_s, kernel_s = [], []
    failures = []
    workload = cases.WORKLOADS[args.workload]
    kernel_seconds()  # warm-up
    for case in workload:
        before = kernel_seconds()
        t0 = time.perf_counter()
        seconds = None
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
        try:
            seconds, check = _run_case(case, args.seed, pipeline, cli)
            signal.setitimer(signal.ITIMER_REAL, 0)
            check()
        except Exception as e:  # any error fails this case, not the pass
            failures.append({"case": list(case), "error": f"{type(e).__name__}: {e}"})
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        case_s.append(time.perf_counter() - t0 if seconds is None else seconds)
        kernel_s.append((before + kernel_seconds()) / 2)

    report = {
        "wall_s": sum(case_s),
        "case_s": case_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures,
    }
    if tracer:
        report["metrics"] = tracer.metrics()
        report["spans"] = tracer.spans
    print(json.dumps(report))


if __name__ == "__main__":
    main()
