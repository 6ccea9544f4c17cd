"""Benchmark of the shq calculator.

    python3 perfbench/run.py --workload exact_q --seed 0 --seconds 36 --trace 0

Run from any directory; the program is imported from the ``src`` directory
next to ``perfbench``.  A single closed loop: one caller runs the cases of
the workload in order, each after the previous one returns, with no
threads.  Each pass over the case list runs in a fresh interpreter
(``one_pass.py``) and every answer is checked against closed forms.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: seconds of one pass, rendering each result to JSON
  included: the sum over cases of each case's median over the passes;
* ``setup_s``: median seconds for a fresh interpreter to import
  ``shq.cli`` and run ``compute_sh(2, 1)``, probed before every pass;
* ``peak_rss_mb``: median over passes of the peak resident memory of the
  process that ran the pass.

Both times are scaled to reference speed by the kernel of
``calibration.py``, timed next to each call, so that other load on a
shared machine drops out.  ``failed_ratio`` (failed over attempted cases)
is printed in the summary and carried by the ``attempted`` and ``failed``
fields of the result.

With ``--trace 1`` the run makes one untraced and two traced passes and
reports the per-layer metrics of ``tracing.py`` (seconds as measured,
median of the two traced passes), the ratio of traced to untraced pass
time at reference speed, and fails if the two traced passes disagree on
any count.  Spans go to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# none of these imports shq, so they load before the source check
import cases
from calibration import at_reference_speed, kernel_seconds
from tracing import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_PER_PASS = 3
# Every run ends within this many seconds: a pass still running then is
# stopped and its cases count as failed.
RUN_LIMIT_S = 170

SETUP_SCRIPT = (
    "import shq.cli\n"
    "from shq.pipeline import compute_sh\n"
    "r = compute_sh(2, 1)\n"
    "raise SystemExit(0 if r.sh_rank == 2 and all(d.passed for d in r.diagnostics) else 1)\n"
)

class Run:
    """Cases attempted and failed over one run, with the reasons."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def fail(self, what: str, count: int = 1):
        self.failures.extend([what] * count)

    def left(self) -> float:
        return self.deadline - time.monotonic()


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(run: Run, times: list, count: int) -> bool:
    """Append the seconds from start to exit of `count` fresh interpreters
    running the trivial case, at reference speed; False if one failed."""
    for _ in range(count):
        before = kernel_seconds()
        t0 = time.perf_counter()
        run.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_SCRIPT],
                env=_env(),
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=max(1.0, run.left()),
            )
        except subprocess.TimeoutExpired:
            run.fail(f"setup probe stopped at the {RUN_LIMIT_S} s run limit")
            return False
        if proc.returncode != 0:
            run.fail(f"setup probe exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
            return False
        elapsed = time.perf_counter() - t0
        times.append(at_reference_speed(elapsed, (before + kernel_seconds()) / 2))
    return True


def run_pass(run: Run, workload: str, seed: int, trace: int):
    """One pass in a fresh interpreter; returns its report, or None if
    it crashed or was stopped (all its cases then count as failed)."""
    n_cases = len(cases.WORKLOADS[workload])
    cmd = [
        sys.executable,
        str(HERE / "one_pass.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]
    run.attempted += n_cases
    try:
        proc = subprocess.run(
            cmd, env=_env(), cwd=ROOT, capture_output=True, timeout=max(1.0, run.left())
        )
    except subprocess.TimeoutExpired:
        run.fail(f"pass stopped at the {RUN_LIMIT_S} s run limit", n_cases)
        return None
    if proc.returncode != 0:
        run.fail(f"pass exited {proc.returncode}: {proc.stderr.decode()[-300:]}", n_cases)
        return None
    report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    for f in report["failures"]:
        run.fail(f"case {f['case']}: {f['error']}")
    return report


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}"


def end_to_end(run: Run, args) -> dict:
    """Passes until --seconds is used up (at least MIN_PASSES), with
    SETUP_PER_PASS setup probes before each pass, so that both sample
    the whole run."""
    # the first start writes the bytecode cache and is not measured
    if not measure_setup(run, [], 1):
        return {}
    setups, passes, rss = [], [], []
    t0 = time.monotonic()
    while measure_setup(run, setups, SETUP_PER_PASS):
        p0 = time.monotonic()
        report = run_pass(run, args.workload, args.seed, 0)
        if report is None:
            break
        passes.append(report)
        rss.append(report["peak_rss_mb"])
        took = time.monotonic() - p0
        if len(passes) >= MIN_PASSES and time.monotonic() - t0 + took > args.seconds:
            break
        if run.left() < 2 * took:
            break
    if not passes:
        return {}
    pass_s = [p["wall_s"] for p in passes]
    print(f"  {'pass time':<12} {statistics.median(pass_s):.4f} s as measured  "
          f"(median; {_spread(pass_s)})")
    scaled = [
        [at_reference_speed(s, k) for s, k in zip(p["case_s"], p["kernel_s"])]
        for p in passes
    ]
    wall = sum(statistics.median(times) for times in zip(*scaled))
    print(f"  {'wall_s':<12} {wall:.4f} s  (sum of per-case medians at reference speed, "
          f"n={len(passes)})")
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    for name, values, unit in [("setup_s", setups, "s"), ("peak_rss_mb", rss, "MB")]:
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:<12} {statistics.median(values):.4f} {unit}  (median; {_spread(values)})")
    return metrics


def traced(run: Run, args) -> dict:
    """One untraced pass, then two traced ones whose counts must agree."""
    reports = []
    for trace in (0, 1, 1):
        report = run_pass(run, args.workload, args.seed, trace)
        if report is None:
            return {}
        reports.append(report)
    first, second = reports[1:]
    for name in COUNT_METRICS:
        if first["metrics"][name] != second["metrics"][name]:
            run.fail(
                f"count {name} differs between traced passes: "
                f"{first['metrics'][name]} != {second['metrics'][name]}"
            )
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent"],
                    "passes": [first["spans"], second["spans"]]})
    )

    metrics = {}
    for name in first["metrics"]:
        pair = [first["metrics"][name], second["metrics"][name]]
        unit = "count" if name in COUNT_METRICS else "s"
        value = pair[0] if unit == "count" else statistics.median(pair)
        metrics[name] = {"value": value, "unit": unit}
    scaled = [
        sum(at_reference_speed(s, k) for s, k in zip(r["case_s"], r["kernel_s"]))
        for r in reports
    ]
    ratio = statistics.median(scaled[1:]) / scaled[0]
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    for name, m in metrics.items():
        value = m["value"] if m["unit"] == "count" else f"{m['value']:.6g}"
        print(f"  {name:<38} {value} {m['unit']}")

    total = metrics["pipeline.compute_sh_s"]["value"]
    if total > 0:
        linalg = sum(metrics[f"linalg.{f}_s"]["value"] for f in
                     ("char_poly", "stabilized_kernel", "jordan_zero_block_sizes"))
        local = sum(metrics[f"localization.{f}_s"]["value"] for f in
                    ("localize_entry", "sample_weights"))
        print(f"  share of pipeline.compute_sh_s: linalg {linalg / total:.1%}, "
              f"localization {local / total:.1%}")
    print(f"  spans written to {spans_file.relative_to(ROOT)}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(cases.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "shq" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'shq'}", file=sys.stderr)
        return 2

    run = Run(time.monotonic() + RUN_LIMIT_S)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    metrics = traced(run, args) if args.trace else end_to_end(run, args)
    failed = len(run.failures)
    for what in run.failures:
        print(f"  FAILED {what}")
    print(f"  {'failed_ratio':<12} {failed / run.attempted:.4f} ratio  "
          f"({failed} of {run.attempted} cases)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
