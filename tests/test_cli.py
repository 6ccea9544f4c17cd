import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import shq.cli
import shq.pipeline
from shq.cli import main

from conftest import budget


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_compute_json(capsys):
    d = run_json(capsys, "compute", "--m", "1", "--n", "1")
    assert d["sh_rank"] == 1
    assert d["sh"]["text"] == "Lambda[w]/(w + t)"
    assert d["r_matrix"]["entries"] == [["t", "-1"], ["0", "0"]]
    assert all(x["pass"] for x in d["diagnostics"])


def test_compute_text(capsys):
    code, out, err = run(capsys, "compute", "--m", "5", "--n", "2",
                         "--format", "text")
    assert code == 0
    assert "SH* = Lambda[w]/(w^4 + 4*t)" in out
    assert "checks passed" in out


def test_compute_gf2(capsys):
    d = run_json(capsys, "compute", "--m", "4", "--n", "2", "--field", "gf2")
    assert d["sh"] == {
        "kind": "zero",
        "rank": 0,
        "reason": "the first Chern class of the line bundle is zero over "
        "GF(2) for even twist, hence nilpotent",
    }


def test_compute_partial_mode(capsys):
    d = run_json(capsys, "compute", "--m", "3", "--n", "3")
    assert d["sh"]["kind"] == "partial"
    assert d["sh_rank"] == "positive multiple of 1 (at most 3)"
    assert d["qh"]["complete"] is False


def test_compute_refused_band(capsys):
    code, out, err = run(capsys, "compute", "--m", "3", "--n", "5")
    assert code == 2
    assert "refusing (m, n) = (3, 5)" in err
    assert out == ""


def test_compute_invalid_m(capsys):
    code, out, err = run(capsys, "compute", "--m", "0", "--n", "1")
    assert code == 3
    assert "invalid arguments" in err


def test_compute_non_integer_m_exits_3(capsys):
    with pytest.raises(SystemExit) as e:
        main(["compute", "--m", "True", "--n", "1"])
    assert e.value.code == 3


def test_compute_failed_diagnostic_exits_4(capsys, corrupt_char_poly):
    code, out, err = run(capsys, "compute", "--m", "1", "--n", "1")
    assert code == 4
    d = json.loads(out)
    assert not next(x for x in d["diagnostics"] if x["name"] == "cayley_hamilton")["pass"]


def test_compute_failed_diagnostic_exits_4_in_text(capsys, corrupt_char_poly):
    code, out, err = run(capsys, "compute", "--m", "1", "--n", "1", "--format", "text")
    assert code == 4
    assert "diagnostics FAILED: cayley_hamilton" in out


def test_compute_reports_a_failed_cross_check_solve(capsys, corrupt_every_char_poly):
    # the multiplication-matrix cross-check reads its own Cayley-Hamilton
    # check instead of raising on it
    code, out, err = run(capsys, "compute", "--m", "4", "--n", "2")
    assert code == 4, err
    d = json.loads(out)
    failed = {x["name"] for x in d["diagnostics"] if not x["pass"]}
    assert {"cayley_hamilton", "multiplication_matrix"} <= failed


def test_table_exits_4_when_a_diagnostic_fails(capsys, monkeypatch):
    code, good, _ = run(capsys, "table", "--max-m", "3")
    assert code == 0
    real = shq.pipeline.spectrum

    def failing(mat):
        cp, _, dims = real(mat)
        return cp, False, dims

    monkeypatch.setattr(shq.pipeline, "spectrum", failing)
    code, out, _ = run(capsys, "table", "--max-m", "3")
    assert code == 4
    assert out == good


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_tau_prints_integers_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "tau", "--n", "1400")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        d = json.loads(out)
        # the coefficients of prod (A*x + B) over A + B = n sum to n^(n-1)
        assert d["sum"] == 1400 ** 1399
        assert len(str(max(d["coefficients"]))) > 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_compute_failed_localization_exits_4(capsys, corrupt_localize_row):
    code, out, err = run(capsys, "compute", "--m", "5", "--n", "3")
    assert code == 4
    d = json.loads(out)
    failed = [x["name"] for x in d["diagnostics"] if not x["pass"]]
    assert failed == ["localization_match"]


def test_a_closed_pipe_exits_141_without_a_traceback():
    # about 136 kB of JSON, more than a pipe buffers, so the writer is
    # still writing when the reader goes
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shq.cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "shq.cli", "compute", "--m", "100", "--n", "101"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_ctrl_c_exits_130_without_a_traceback(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(shq.cli._COMMANDS, "compute", interrupted)
    try:
        result = run(capsys, "compute", "--m", "2", "--n", "1")
    except KeyboardInterrupt:
        pytest.fail("main let KeyboardInterrupt through")
    assert result == (130, "", "")


def test_missing_argument_exits_3(capsys):
    with pytest.raises(SystemExit) as e:
        main(["compute", "--m", "2"])
    assert e.value.code == 3


def test_unknown_command_exits_3(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 3


def test_the_parser_is_built_once():
    assert shq.cli.build_parser() is shq.cli.build_parser()


def test_repeated_commands_share_no_parser_state(capsys):
    # one process: the kept parser carries nothing from call to call
    first = run(capsys, "compute", "--m", "5", "--n", "2")
    assert first[0] == 0
    with pytest.raises(SystemExit) as e:
        main(["compute", "--m", "5", "--n", "2", "--format", "yaml"])
    assert e.value.code == 3
    capsys.readouterr()
    for field in ("q", "gf2"):
        assert run(capsys, "table", "--max-m", "3", "--field", field)[0] == 0
    code, out, _ = run(capsys, "compute", "--m", "5", "--n", "2", "--format", "text")
    assert code == 0 and "SH* = Lambda[w]/(w^4 + 4*t)" in out
    assert run(capsys, "compute", "--m", "5", "--n", "2") == first


def test_rmatrix(capsys):
    d = run_json(capsys, "rmatrix", "--m", "3", "--n", "3")
    assert d["N"] == 1
    assert d["entries"][0][0] == "18*t"
    assert d["unknown"] == [
        {"row": 2, "col": 1, "t_power": 2},
        {"row": 3, "col": 1, "t_power": 3},
        {"row": 3, "col": 2, "t_power": 2},
    ]
    code, out, err = run(capsys, "rmatrix", "--m", "4", "--n", "7")
    assert code == 2


def test_tau(capsys):
    d = run_json(capsys, "tau", "--n", "3")
    assert d["coefficients"] == [2, 5, 2]
    assert d["sum"] == 9
    d = run_json(capsys, "tau", "--n", "3", "--field", "gf2")
    assert d["coefficients"] == [0, 1, 0]
    # the refusal is tau_table's own, not a second check in the command
    for n in ("0", "-3"):
        code, out, err = run(capsys, "tau", "--n", n)
        assert code == 3 and out == ""
        assert err == f"shq: invalid arguments: need an integer n >= 1, got n={n}\n"


def test_localize(capsys):
    d = run_json(capsys, "localize", "--m", "2", "--n", "2", "--a", "0",
                 "--trials", "2")
    assert d["expected"] == 4
    assert d["match"] is True
    assert [s["value"] for s in d["samples"]] == [4, 4]
    code, out, err = run(capsys, "localize", "--m", "2", "--n", "2", "--a", "5")
    assert code == 3


@pytest.mark.parametrize(
    "m, n, code", [(3, 5, 2), (3, 6, 2), (4, 8, 2), (3, 4, 3), (3, 7, 3), (1, 3, 3)]
)
def test_localize_exits_2_in_the_refused_band(capsys, m, n, code):
    # as compute and rmatrix do; the Calabi-Yau and large twists outside
    # the band have no degree-one entries and stay invalid arguments
    got, out, err = run(capsys, "localize", "--m", str(m), "--n", str(n), "--a", "0")
    assert (got, out) == (code, "")
    if code == 2:
        assert err == f"shq: {shq.pipeline.UnsupportedRegimeError(m, n)}\n"
    else:
        assert err == f"shq: invalid arguments: need an integer 1 <= n <= {m}, got n={n}\n"


def test_localize_reports_a_wrong_value_as_a_mismatch(capsys, monkeypatch):
    real = shq.cli.localize_entry
    monkeypatch.setattr(
        shq.cli, "localize_entry", lambda *args: real(*args) + Fraction(1, 2)
    )
    code, out, err = run(capsys, "localize", "--m", "3", "--n", "2", "--a", "1")
    d = json.loads(out)
    assert code == 4
    assert d["match"] is False
    assert d["samples"][0]["value"] == f"{2 * d['expected'] + 1}/2"


def test_localize_rejects_fewer_than_one_trial(capsys):
    for trials in ("0", "-2"):
        code, out, err = run(capsys, "localize", "--m", "2", "--n", "2",
                             "--a", "0", "--trials", trials)
        assert code == 3
        assert out == ""


def test_localize_past_the_small_weight_pool(capsys):
    # 801 torus weights, more than the default range of 721 integers holds
    with budget(20, "localize --m 800 did not return"):
        d = run_json(capsys, "localize", "--m", "800", "--n", "1", "--a", "0")
    assert d["match"] is True


def test_grr(capsys):
    d = run_json(capsys, "grr")
    assert (d["euler"], d["k_squared"], d["c1_dot_z"], d["z_squared"]) == \
        (6, 6, -4, 2)
    assert d["chi_z"] == 0
    assert d["chi_structure_sheaf"] == 1
    assert d["obstruction_degree"] == 1


def test_table(capsys):
    rows = run_json(capsys, "table", "--max-m", "1")
    assert [(r["m"], r["n"]) for r in rows] == [(1, 1), (1, 2), (1, 3)]


@pytest.mark.parametrize(
    "argv",
    [
        ["rmatrix", "--m", "5", "--n", "2"],
        ["rmatrix", "--m", "4", "--n", "4", "--field", "gf2"],
        ["tau", "--n", "5"],
        ["grr"],
        ["localize", "--m", "5", "--n", "3", "--a", "1"],
        ["table", "--max-m", "4"],
    ],
)
def test_json_is_printed_indented_with_one_newline(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_goes_to_the_stdout_of_the_call(capsys):
    # the stream is looked up when printing, so a redirect captures it
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["grr"]) == 0
    assert json.loads(buf.getvalue())["obstruction_degree"] == 1
    assert capsys.readouterr().out == ""


def test_output_is_deterministic(capsys):
    first = run(capsys, "compute", "--m", "6", "--n", "3")
    second = run(capsys, "compute", "--m", "6", "--n", "3")
    assert first == second
    third = run(capsys, "compute", "--m", "6", "--n", "3", "--seed", "11")
    assert json.loads(third[1])["sh_rank"] == 4
