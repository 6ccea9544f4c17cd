"""Golden output: the SHA-256 of every small result, frozen in a file.

golden_sha256.json holds one digest per result, keyed "field:m:n", of
json.dumps(result_to_dict(compute_sh(m, n, field, trials=1))) for every
pair with m <= 12 and n <= 2m + 3 outside the refused band, on Q and
GF(2) (252 results); one per result, keyed "text:field:m:n", of
result_to_text of the same results; one per field and seed 0 and 3,
keyed "text:field:m:n:seed", of result_to_text at (24, 24) and (32, 32);
one per field and seed 0 and 3, keyed "field:m:n:seed", of the JSON at
the four partial-mode benchmark pairs (24, 24), (28, 22), (28, 28) and
(32, 32), where the localization check runs modulo a prime; and one per
field, keyed "table:field", of the standard output of
`shq table --max-m 12`.  A change to any output names the keys it moved.

Regenerate the file only for a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import shq
from shq.cli import main
from shq.novikov import F2, QQ
from shq.pipeline import UnsupportedRegimeError, compute_sh, result_to_dict, result_to_text

MAX_M = 12
# partial-mode pairs past MAX_M whose text is pinned, at these seeds
LARGE_TEXT = ((24, 24), (32, 32))
LARGE_SEEDS = (0, 3)
# partial-mode pairs past MAX_M whose JSON is pinned, at LARGE_SEEDS
LARGE_JSON = ((24, 24), (28, 22), (28, 28), (32, 32))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sha256.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_hashes() -> dict:
    out = {}
    for field in (QQ, F2):
        for m in range(1, MAX_M + 1):
            for n in range(1, 2 * m + 4):
                try:
                    res = compute_sh(m, n, field, trials=1)
                except UnsupportedRegimeError:
                    continue
                out[f"{field.kind}:{m}:{n}"] = _digest(json.dumps(result_to_dict(res)))
                out[f"text:{field.kind}:{m}:{n}"] = _digest(result_to_text(res))
        for m, n in LARGE_TEXT:
            for seed in LARGE_SEEDS:
                res = compute_sh(m, n, field, seed=seed, trials=1)
                out[f"text:{field.kind}:{m}:{n}:{seed}"] = _digest(result_to_text(res))
        for m, n in LARGE_JSON:
            for seed in LARGE_SEEDS:
                res = compute_sh(m, n, field, seed=seed, trials=1)
                out[f"{field.kind}:{m}:{n}:{seed}"] = _digest(json.dumps(result_to_dict(res)))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["table", "--max-m", str(MAX_M), "--field", field.kind.lower()])
        if code:
            raise RuntimeError(f"shq table exited {code}")
        out[f"table:{field.kind}"] = _digest(buf.getvalue())
    return out


def _differences(got: dict) -> list:
    with open(GOLDEN) as fh:
        want = json.load(fh)
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def test_outputs_match_golden():
    assert _differences(golden_hashes()) == []


def test_outputs_match_golden_under_optimize():
    # python -O strips asserts; the output must not depend on them
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _differences(json.loads(proc.stdout)) == []


if __name__ == "__main__":
    json.dump(golden_hashes(), sys.stdout, indent=1, sort_keys=True)
    print()
