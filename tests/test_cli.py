"""Command-line interface and self-verification suite."""

import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import entspace.separability as sep
import entspace.verify as verify
from entspace import tolerances as tol
from entspace.cli import main
from entspace.montecarlo import ScanResult
from entspace.separability import (
    fit_c112_coeffs,
    p022,
    p111,
    p201,
    werner_state,
)
from entspace.serialize import state_to_dict, to_json
from entspace.verify import CHECKS, run_suite


def _write_state(tmp_path, rho, name="state.json"):
    path = tmp_path / name
    path.write_text(to_json(state_to_dict(rho)))
    return str(path)


BELL_FANO = {
    "fano": {
        "a": [0.0, 0.0, 0.0],
        "b": [0.0, 0.0, 0.0],
        "C": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
    }
}


# -- check ---------------------------------------------------------------------


def test_check_separable_state(tmp_path, capsys):
    path = _write_state(tmp_path, werner_state(0.2))
    assert main(["check", "--state", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "separable"
    assert out["lhs3"] > 0 and out["lhs4"] > 0


def test_check_entangled_state_from_fano_form(tmp_path, capsys):
    path = tmp_path / "bell.json"
    path.write_text(to_json(BELL_FANO))
    assert main(["check", "--state", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "entangled"
    assert out["det_c"] == pytest.approx(-1.0, abs=1e-12)
    assert out["lhs3"] == pytest.approx(-0.25, abs=1e-12)
    assert out["lhs4"] == pytest.approx(-1.0 / 16.0, abs=1e-12)


def test_check_csv_format(tmp_path, capsys):
    path = _write_state(tmp_path, werner_state(0.5))
    assert main(["check", "--state", path, "--format", "csv"]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "field,value"
    assert lines[1] == "verdict,entangled"


def test_check_rejects_missing_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main(["check", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read state file: [Errno 2] No such file or directory: {str(path)!r}\n"
    )


#: sha256 of ``check`` stdout for Werner p = 0.2 (a state_to_dict record)
#: and for BELL_FANO, in each format.
CHECK_DIGESTS = {
    ("werner", "json"): "47a9daf736f548eaf80206efd2d4dda84c8fc4db33da889e94d2b5e8400fd603",
    ("werner", "csv"): "c300603c06a9a5aa9c7985f840648850ccb3e9b5b0df84b8344c49963485e24e",
    ("bell", "csv"): "c1f2b632d0bddf4721f8eadc781a4608035e1c4038e54e58435b7a6ca319d131",
}


@pytest.mark.parametrize("state, fmt", sorted(CHECK_DIGESTS))
def test_check_stdout_matches_recorded_digest(state, fmt, tmp_path, capsys):
    if state == "werner":
        path, code = _write_state(tmp_path, werner_state(0.2)), 0
    else:
        path, code = tmp_path / "bell.json", 1
        path.write_text(to_json(BELL_FANO))
    assert main(["check", "--state", str(path), "--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[state, fmt]


def test_check_rejects_malformed_record(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rho_re": [[1.0, 0.0], [0.0, 0.0]]}')
    assert main(["check", "--state", path.as_posix()]) == 2
    assert "shape" in capsys.readouterr().err


def test_check_rejects_missing_fields_and_undecodable_files(tmp_path, capsys):
    # each of these raised a traceback and exited 1
    path = tmp_path / "bad.json"
    for text in (
        json.dumps({"rho_im": np.zeros((4, 4)).tolist()}).encode(),
        json.dumps({"fano": {"a": [0.0] * 3, "b": [0.0] * 3}}).encode(),
        b"\xff\xfe",
    ):
        path.write_bytes(text)
        assert main(["check", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_check_rejects_non_state(tmp_path, capsys):
    # valid record syntax, but trace 4 is not a density matrix
    path = tmp_path / "eye.json"
    path.write_text(json.dumps({"rho_re": np.eye(4).tolist()}))
    assert main(["check", "--state", str(path)]) == 2
    assert "trace" in capsys.readouterr().err


def test_check_tol_widens_boundary(tmp_path, capsys):
    # at p = 1/3 the state sits on the separable boundary; a huge band
    # swallows everything into the boundary verdict
    path = _write_state(tmp_path, werner_state(1.0 / 3.0))
    assert main(["check", "--state", path, "--tol", "0.5"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "boundary"


def test_check_rejects_non_finite_records(tmp_path, capsys):
    rho = werner_state(0.2)
    matrix = {"rho_re": np.where(np.eye(4) == 1, np.nan, rho.real).tolist()}
    fano = {"fano": {"a": [0.0, 0.0, 0.0], "b": [0.0, 0.0, 0.0],
                     "C": [[float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}}
    for record in (matrix, fano):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(record))
        assert main(["check", "--state", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("off", [1e160, 1e308])
def test_check_rejects_finite_records_whose_norm_overflows(off, tmp_path, capsys):
    # 1e160 passed the positivity gate (min eigenvalue about -1e160) and
    # 1e308 printed RuntimeWarnings from the Hermitian part
    rho = np.eye(4) / 4.0
    rho[0, 3] = rho[3, 0] = off
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"rho_re": rho.tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--state", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: matrix has a Frobenius norm that overflows\n"
    )


def test_check_error_messages_print_plain_numbers(tmp_path, capsys):
    # numpy 2 printed "trace np.float64(0.0) deviates ..."
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"rho_re": np.zeros((4, 4)).tolist()}))
    assert main(["check", "--state", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: trace 0.0 deviates from 1 by more than {tol.TRACE_TOL:.1e}\n"
    )


@pytest.mark.parametrize("fano, message", [
    # .6f printed 161 digits for 1e160, and |a| = 1.0000002 as 1.000000
    ({"a": [0.0] * 3, "b": [0.0] * 3, "C": [[1e160, 0.0, 0.0], [0.0] * 3, [0.0] * 3]},
     "correlation entry out of range: max |C_ij| = 1e+160"),
    ({"a": [1.0000002, 0.0, 0.0], "b": [0.0] * 3, "C": [[0.0] * 3] * 3},
     "Bloch vector norm out of range: |a| = 1.0000002, |b| = 0.0"),
])
def test_check_range_errors_print_the_offending_value(fano, message, tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"fano": fano}))
    assert main(["check", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_ZERO_FANO = {"a": [0, 0, 0], "b": [0, 0, 0], "C": [[0, 0, 0]] * 3}


@pytest.mark.parametrize("record, message", [
    # np.asarray(dtype=float) read "0.5" as 0.5 (a separable report, exit 0)
    ({"fano": {**_ZERO_FANO, "a": ["0.5", 0, 0]}},
     'field \'a\' is not a numeric array: entry [0] is "0.5", not a number'),
    # and true as 1.0 (a boundary report)
    ({"fano": {**_ZERO_FANO, "a": [True, 0, 0]}},
     "field 'a' is not a numeric array: entry [0] is true, not a number"),
    ({"fano": {**_ZERO_FANO, "C": [[0, 0, 0], [0, 0, False], [0, 0, 0]]}},
     "field 'C' is not a numeric array: entry [1][2] is false, not a number"),
    ({"rho_re": (np.eye(4) / 4).tolist(), "rho_im": [[0, 0, 0, "0"]] + [[0] * 4] * 3},
     'field \'rho_im\' is not a numeric array: entry [0][3] is "0", not a number'),
])
def test_check_rejects_record_entries_that_are_not_json_numbers(record, message, tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(record))
    assert main(["check", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_BIG_INT = "1" + "0" * 400  # beyond the float maximum, about 1.8e308


def _deep(depth, leaf):
    return "[" * depth + leaf + "]" * depth


@pytest.mark.parametrize("text, prefix", [
    # int too large to convert to float: an OverflowError traceback
    ('{"rho_re": [[%s, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}'
     % _BIG_INT, "error: field 'rho_re' is not a numeric array: "),
    ('{"fano": {"a": [%s, 0, 0], "b": [0, 0, 0], "C": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}'
     % _BIG_INT, "error: field 'a' is not a numeric array: "),
    # maximum recursion depth exceeded while decoding: a RecursionError traceback
    (_deep(5000, ""), "error: state file is nested too deeply: "),
    # an entry nested far below the field's rank is not a number
    ('{"rho_re": [[%s, 0, 0, 0]]}' % _deep(900, "0"),
     "error: field 'rho_re' is not a numeric array: entry [0][0] is [[["),
    # a ragged matrix passes the leaf check and fails np.asarray
    ('{"rho_re": [[0.25, 0, 0, 0], [0, 0.25, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}',
     "error: field 'rho_re' is not a numeric array: "),
], ids=["big-int-rho", "big-int-fano", "nested-5000", "deep-entry", "ragged"])
def test_check_rejects_malformed_records_with_one_error_line(text, prefix, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entspace.cli", "check", "--state", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert proc.stderr.startswith(prefix)


def test_check_names_a_deeply_nested_entry_in_one_short_line(tmp_path):
    # an entry nested 900 deep printed about 1870 characters on one line
    path = tmp_path / "deep_entry.json"
    path.write_text('{"rho_re": [[%s, 0, 0, 0]]}' % _deep(900, "0"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entspace.cli", "check", "--state", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: field 'rho_re' is not a numeric array: entry [0][0] is "
        + "[" * 40 + "..., not a number\n"
    )


def test_check_rejects_bad_tol(tmp_path, capsys):
    # an entangled state must not come out separable under a negative band
    path = _write_state(tmp_path, werner_state(0.5))
    assert main(["check", "--state", path, "--tol", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "band" in captured.err


# -- coeffs --------------------------------------------------------------------


def test_coeffs_json_matches_direct_evaluation(capsys):
    alpha = np.array([0.3, -0.7, 0.9])
    beta = np.array([0.4, 1.1, -0.6])
    assert main(["coeffs", "--alpha", "0.3,-0.7,0.9", "--beta", "0.4,1.1,-0.6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == alpha.tolist()
    assert out["closed_form"]["p201"] == p201(0.9, beta)
    assert out["closed_form"]["p111"] == p111(0.9, beta)
    assert out["closed_form"]["p022"] == p022(0.9, beta)
    assert "fitted" not in out


def test_coeffs_fit_json(capsys):
    beta = np.array([0.4, 1.1, -0.6])
    argv = ["coeffs", "--alpha", "0.3,-0.7,0.9", "--beta", "0.4,1.1,-0.6", "--fit"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    fitted = out["fitted"]
    assert fitted["provenance"] == "fitted"
    assert fitted["residual"] <= 1e-9
    assert len(fitted["coefficients"]) == 15
    assert fitted["coefficients"]["x^0 y^2 z^2"] == pytest.approx(
        p022(0.9, beta), abs=1e-9
    )


def test_coeffs_csv(capsys):
    argv = [
        "coeffs", "--alpha", "0,0,0.9", "--beta", "0.4,1.1,-0.6",
        "--fit", "--format", "csv",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "monomial,value"
    assert len(lines) == 1 + 3 + 15
    assert lines[1].startswith("p201,")
    assert lines[4].startswith("x^4 y^0 z^0,")
    beta = np.array([0.4, 1.1, -0.6])
    assert float(lines[1].split(",")[1]) == p201(0.9, beta)


def test_coeffs_rejects_bad_triple(capsys):
    for alpha, message in (("1,2", "expected three comma-separated numbers, got '1,2'"),
                           ("a,b,c", "could not convert string to float: 'a'")):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--alpha", alpha, "--beta", "0,0,0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --alpha: {message}" in captured.err


def test_a_numerical_failure_exits_1_with_its_message(monkeypatch, capsys):
    monkeypatch.setattr(tol, "FIT_COND_CAP", 1.0)
    assert main(["coeffs", "--alpha", "0,0,0", "--beta", "0,0,0", "--fit"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: fit grid is ill-conditioned")


@pytest.mark.parametrize("alpha, beta", [
    ("0,0,nan", "0.1,0.2,0.3"),
    ("0,0,0.9", "0.1,inf,0.3"),
    ("0,-inf,0", "0.1,0.2,0.3"),
])
def test_coeffs_rejects_non_finite_angles(alpha, beta, capsys):
    for extra in ([], ["--fit"], ["--format", "csv"]):
        assert main(["coeffs", "--alpha", alpha, "--beta", beta, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite angle" in captured.err


@pytest.mark.parametrize("alpha, beta, name", [
    ("0,0,1e308", "0.1,0.2,0.3", "alpha"),
    ("0,0,0.3", "1e308,1e308,0.2", "beta"),
])
def test_coeffs_rejects_angles_whose_closed_forms_overflow(alpha, beta, name, capsys):
    # both exited 0 printing "p201": null and "p022": null with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ([], ["--fit"], ["--format", "csv"]):
            assert main(["coeffs", "--alpha", alpha, "--beta", beta, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {name} has an angle beyond ")


# -- sample ---------------------------------------------------------------------


def test_sample_streams_csv(capsys):
    assert main(["sample", "--ensemble", "hs", "-n", "7", "--seed", "9"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "index,verdict,lhs3,lhs4,min_pt_eig,r1,r2,r3,r4"
    assert len(lines) == 8
    assert lines[1].split(",")[0] == "0"
    assert lines[7].split(",")[0] == "6"


def test_sample_out_file_matches_stdout(tmp_path, capsys):
    assert main(["sample", "-n", "5", "--seed", "11"]) == 0
    stdout_text = capsys.readouterr().out
    out = tmp_path / "records.csv"
    assert main(["sample", "-n", "5", "--seed", "11", "--out", str(out)]) == 0
    assert out.read_text() == stdout_text


def test_sample_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "records.csv"
    assert main(["sample", "-n", "5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


#: sha256 of ``sample --ensemble E -n 4104 --seed 1`` stdout.  4104 rows are
#: one full chunk (tol.CHUNK = 4096) and 8 rows of the next, so the digest
#: pins the stream across a chunk boundary.
SAMPLE_DIGESTS = {
    "hs": "5ee2a775aaad12057249c61eaee5bed1a8f22f485fba19f1c9c47db2b609aa2e",
    "product": "b06978494e5bc3a86b951baf32eb02e5025f74068f505596ed58192a1d86df79",
    "chart": "e994fe15a87ec02d87313289308825b05860153a25a98825ccbeccc28b91288e",
}


#: sha256 of ``coeffs --alpha A --beta 0.4,1.1,-0.6 --fit --format F`` stdout.
COEFFS_FIT_DIGESTS = {
    ("0.3,-0.7,0.9", "json"): "e1f3e83a02804e9ebe9eb96161a68f3b3f4726f1975afc5a5d28c6a9465215d6",
    ("0.3,-0.7,0.9", "csv"): "6290cf3c0d8ca7161ecb7d75817d1d8aae9af6ffc9b81d5c33e2d77dabd6793e",
    ("0,0,0.9", "json"): "07f4f99f208f51b1d0f500d9d38992685253f381431d853b4f43917da98bec43",
    ("0,0,0.9", "csv"): "4a6740461cf29042d482acda694067964ef3cb12e2091bee064c78d0b624a19a",
}


#: sha256 of ``coeffs --alpha 0.3,-0.7,0.9 --beta 0.4,1.1,-0.6 --format csv``
#: stdout: the three closed-form rows alone.
COEFFS_CSV_DIGEST = "d819b143eaa7ccdc668bd4248df1f47722bec671c2b7215662d3a7f1b3c314fd"


def test_coeffs_csv_without_fit_matches_recorded_digest(capsys):
    argv = ["coeffs", "--alpha", "0.3,-0.7,0.9", "--beta", "0.4,1.1,-0.6", "--format", "csv"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 4
    assert hashlib.sha256(out.encode()).hexdigest() == COEFFS_CSV_DIGEST


@pytest.mark.parametrize("alpha, fmt", sorted(COEFFS_FIT_DIGESTS))
def test_coeffs_fit_stdout_matches_recorded_digest(alpha, fmt, capsys):
    argv = ["coeffs", "--alpha", alpha, "--beta", "0.4,1.1,-0.6", "--fit", "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COEFFS_FIT_DIGESTS[alpha, fmt]


@pytest.mark.parametrize("ensemble", sorted(SAMPLE_DIGESTS))
def test_sample_stdout_matches_recorded_digest(ensemble, capsys):
    assert main(["sample", "--ensemble", ensemble, "-n", "4104", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 4105
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[ensemble]


def test_sample_into_a_closed_pipe_exits_1_quietly():
    # ``entspace sample ... | head -1``: the reader closes the pipe long
    # before 20000 rows are written
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "entspace.cli", "sample", "-n", "20000", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"index,verdict,lhs3,lhs4,min_pt_eig,r1,r2,r3,r4\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert err == b""


class _PipeClosedAtFlush(io.StringIO):
    """A stdout whose reader has gone: output fits the buffer, the flush
    fails.  fileno() is a real descriptor that main() may redirect."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_sample_whose_final_flush_breaks_exits_1_quietly(tmp_path, monkeypatch, capsys):
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _PipeClosedAtFlush(fd))
        assert main(["sample", "-n", "3", "--seed", "1"]) == 1
        os.write(fd, b"after")  # the descriptor now points at devnull
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert path.read_bytes() == b""


# -- scan -----------------------------------------------------------------------


def test_scan_reports_consistent_counts(capsys):
    assert main(["scan", "--ensemble", "hs", "-n", "2000", "--seed", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["samples"] == 2000
    assert out["separable"] + out["entangled"] + out["boundary"] == 2000
    assert out["fraction"] == out["separable"] / 2000
    assert out["mismatches"] == 0
    assert out["oracle_fraction"] == out["fraction"]
    assert set(out["bound_violations"]) == {
        "lhs3_below_0", "lhs3_above_1_16", "lhs4_below_0", "lhs4_above_1_256",
    }


def test_scan_prints_the_scan_result_fields_in_order(capsys):
    assert main(["scan", "--ensemble", "hs", "-n", "300", "--seed", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert tuple(out) == tuple(f.name for f in fields(ScanResult)) == (
        "ensemble", "samples", "seed", "band", "separable", "entangled", "boundary",
        "fraction", "wald_error", "oracle_separable", "oracle_entangled",
        "oracle_undecided", "oracle_fraction", "mismatches", "bound_violations",
    )


def test_scan_product_ensemble(capsys):
    assert main(["scan", "--ensemble", "product", "-n", "500", "--seed", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entangled"] == 0


# -- verify ---------------------------------------------------------------------


def test_verify_cli_passes(capsys):
    assert main(["verify", "--suite", "ppt", "-n", "300", "--seed", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert out["failed_count"] == 0
    assert len(out["checks"]) == 5
    for check in out["checks"]:
        assert check["group"] == "ppt"
        assert check["max_residual"] <= check["tolerance"]


@pytest.mark.parametrize("command", ["scan", "sample", "verify"])
def test_zero_sample_count_is_rejected_by_the_library_check(command, capsys):
    assert main([command, "-n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sample count must be a positive integer, got 0\n"


def test_verify_rejects_bad_seed_and_tol(capsys):
    for argv in (["--seed", "-5"], ["--tol", "-1"]):
        assert main(["verify", "--suite", "ppt", "-n", "10", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must" in captured.err


def test_run_suite_all_groups():
    report = run_suite("all", samples=80, seed=3)
    assert report["passed"] is True
    assert report["failed_count"] == 0
    assert len(report["checks"]) == len(CHECKS) == 19
    names = [c["name"] for c in report["checks"]]
    assert len(set(names)) == 19
    assert {c["group"] for c in report["checks"]} == {"identities", "coeffs", "ppt"}


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")


def test_run_suite_survives_a_crashing_check(monkeypatch):
    def boom(p):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(verify, "werner_state", boom)
    report = run_suite("ppt", samples=120, seed=5)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["werner_verdicts"]["passed"] is False
    assert "kaboom" in by_name["werner_verdicts"]["detail"]
    assert report["failed_count"] == 1
    assert by_name["dual_path_agreement"]["passed"] is True
    assert by_name["bounds_attained_at_i4"]["passed"] is True


def test_p111_sign_flip_fails_exactly_the_closed_form_check(monkeypatch):
    # Control: the untouched coeffs suite is green on this stream.
    clean = run_suite("coeffs", samples=200, seed=7)
    assert clean["failed_count"] == 0

    original = p111
    monkeypatch.setattr(sep, "p111", lambda alpha3, beta: -original(alpha3, beta))
    report = run_suite("coeffs", samples=200, seed=7)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["det_c_closed_form"]
    assert report["passed"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["det_c_closed_form"]["max_residual"] > 1e-4


def test_verify_report_with_a_crashing_check_is_valid_json(monkeypatch, capsys):
    def boom(p):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(verify, "werner_state", boom)
    assert main(["verify", "--suite", "ppt", "-n", "120", "--seed", "5"]) == 1
    out = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in out["checks"]}
    assert by_name["werner_verdicts"]["passed"] is False
    assert by_name["werner_verdicts"]["max_residual"] is None
    assert by_name["dual_path_agreement"]["max_residual"] is not None


#: sha256 of ``scan --ensemble chart -n 256 --seed S`` stdout, the
#: benchmark's chart digest command.  perfbench/digests.json still holds the
#: hashes of the chart draw before chunk streams.
CHART_SCAN_DIGESTS = {
    "1": "fc11f593970f2bf9326b22038e7b864c0c22950f93007e4e0670fe10986d782c",
    "2": "20a5c4ad95fc0eea51a01741bff2749c029ebaa439622a8e74f5103ebe5fa10c",
}


@pytest.mark.parametrize("seed", sorted(CHART_SCAN_DIGESTS))
def test_chart_scan_stdout_matches_recorded_digest(seed, capsys):
    # sample i of the chart ensemble is a fixed function of (seed, i)
    assert main(["scan", "--ensemble", "chart", "-n", "256", "--seed", seed]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHART_SCAN_DIGESTS[seed]


@pytest.mark.parametrize("seed", ["1", "2"])
def test_hs_scan_stdout_matches_recorded_digest(seed, capsys):
    # the benchmark's 16384-state HS scan: four full chunks through both routes
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    recorded = json.loads(digests.read_text())["scan-hs"][seed]
    assert main(["scan", "--ensemble", "hs", "-n", "16384", "--seed", seed]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == recorded


#: sha256 of ``scan --ensemble product -n 8200 --seed 1`` stdout: three
#: chunks (the last one of 8 states) with 77 ``boundary`` states, which
#: an HS scan never has, so this pins the boundary count and the
#: undecided side of the mismatch rule.
PRODUCT_SCAN_DIGEST = "335a2577b5be02e787d5db508e07be20187cf88432b2803f347752cc6c20365e"

#: sha256 of ``verify --suite ppt -n 10000 --seed 1`` stdout.  The oracle
#: check takes chunk 0 from the run's shared samples and draws chunks 1-2.
VERIFY_PPT_DIGEST = "e6396daeff081e42d51125816e274db83ef93613311811da5139992ade6e446d"


#: sha256 of ``verify --suite identities -n 10000 --seed 1`` stdout.  Its
#: expm_paths check runs the series exponential and the series A-factor.
VERIFY_IDENTITIES_DIGEST = "ac84eae83e8e4eccb3d8737958f1b0a677b6b9deff5b4ca56b536df25cc00c43"


def test_product_scan_stdout_matches_recorded_digest(capsys):
    assert main(["scan", "--ensemble", "product", "-n", "8200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["boundary"] == 77
    assert hashlib.sha256(out.encode()).hexdigest() == PRODUCT_SCAN_DIGEST


def test_verify_ppt_stdout_matches_recorded_digest(capsys):
    assert main(["verify", "--suite", "ppt", "-n", "10000", "--seed", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_PPT_DIGEST


def test_verify_identities_stdout_matches_recorded_digest(capsys):
    assert main(["verify", "--suite", "identities", "-n", "10000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_IDENTITIES_DIGEST


#: sha256 of ``verify --suite all -n N --seed S`` stdout.  These pin the
#: checks that read the Fano maps (fano_roundtrip, det_m_identity,
#: local_unitary_invariance, det_c_closed_form and the fit checks) along
#: with the rest; 4200 states also walk HS chunk 1 beyond the shared head.
VERIFY_ALL_DIGESTS = {
    (10000, 1): "6ad67ba1a8071fad20d652efc6013651064be74bf7c02b72142cfaf64eb8b88e",
    (4200, 2): "efe0e4014767ba677224dda6056a9ae51b10e793e7a0b5e93ca5e0e7a2151ea6",
}


@pytest.mark.parametrize("n, seed", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_stdout_matches_recorded_digest(n, seed, capsys):
    assert main(["verify", "--suite", "all", "-n", str(n), "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGESTS[n, seed]
