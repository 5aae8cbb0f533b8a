"""Deterministic serialization round trips."""

import json

import numpy as np
import pytest

from entspace.errors import DomainError
from entspace.montecarlo import RunConfig, SampleRecord, sample_records
from entspace.sampling import philox_stream, sample_chart_point, sample_hs_state
from entspace.separability import BELL_PHI_PLUS, MONOMIALS, analyze, fit_c112_coeffs
from entspace.serialize import (
    REPORT_FIELDS,
    coeff_rows_to_csv,
    coeff_table_to_dict,
    fmt_float,
    load_state,
    monomial_label,
    records_to_csv_lines,
    report_to_csv,
    report_to_dict,
    state_from_dict,
    state_to_dict,
    to_json,
)


def test_fmt_float_roundtrips_doubles():
    g = philox_stream(80, 16)
    values = list(g.standard_normal(200) * 10.0 ** g.integers(-12, 12, 200))
    values += [0.0, 1.0, -1.0, 1.0 / 3.0, 2.0 ** -52, np.pi, 8.0 / 17.0]
    for v in values:
        assert float(fmt_float(v)) == float(v)


def test_fmt_float_format():
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(1.0 / 3.0) == "0.33333333333333331"
    assert fmt_float(-2.0) == "-2"


def test_to_json_is_valid_and_deterministic():
    obj = {
        "name": "x",
        "flag": True,
        "none": None,
        "count": 3,
        "vec": [1.0, 0.5, -0.25],
        "nested": {"rows": [[1.0, 2.0], [3.0, 4.0]], "empty": []},
    }
    text = to_json(obj)
    assert text == to_json(obj)
    assert text.endswith("\n")
    assert json.loads(text) == obj
    # scalar lists are rendered inline, nested lists one element per line
    assert "[1, 0.5, -0.25]" in text
    assert "[\n" in text


def test_to_json_rejects_unknown_types():
    with pytest.raises(DomainError, match="serialize"):
        to_json({"bad": object()})


def test_state_record_roundtrip_both_forms():
    rho = sample_hs_state(81, 3)
    record = state_to_dict(rho)
    assert set(record) == {"rho_re", "rho_im", "fano"}
    # explicit matrix route
    assert np.max(np.abs(state_from_dict(record) - rho)) == 0.0
    # fano route alone reconstructs the same state
    fano_only = {"fano": record["fano"]}
    assert np.max(np.abs(state_from_dict(fano_only) - rho)) < 1e-14
    # matrix wins when both are present
    record["fano"]["a"] = [9.0, 9.0, 9.0]
    assert np.max(np.abs(state_from_dict(record) - rho)) == 0.0


def test_state_record_real_part_only():
    rho = np.real(BELL_PHI_PLUS)
    out = state_from_dict({"rho_re": rho.tolist()})
    assert np.max(np.abs(out - rho)) == 0.0


def test_state_record_rejects_malformed():
    with pytest.raises(DomainError, match="JSON object"):
        state_from_dict([1, 2, 3])
    with pytest.raises(DomainError, match="neither"):
        state_from_dict({"spam": 1})
    with pytest.raises(DomainError, match="shape"):
        state_from_dict({"rho_re": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(DomainError, match="numeric"):
        state_from_dict({"rho_re": [["a"] * 4] * 4})
    with pytest.raises(DomainError, match="fano"):
        state_from_dict({"fano": [1, 2]})
    with pytest.raises(DomainError, match="shape"):
        state_from_dict({"fano": {"a": [0.0], "b": [0.0] * 3, "C": [[0.0] * 3] * 3}})
    # a missing field raised KeyError
    with pytest.raises(DomainError, match="'rho_re' is missing"):
        state_from_dict({"rho_im": [[0.0] * 4] * 4})
    fano = {"a": [0.0] * 3, "b": [0.0] * 3, "C": [[0.0] * 3] * 3}
    for key in fano:
        partial = {k: v for k, v in fano.items() if k != key}
        with pytest.raises(DomainError, match=f"'{key}' is missing"):
            state_from_dict({"fano": partial})


def test_load_state(tmp_path):
    rho = sample_hs_state(81, 7)
    path = tmp_path / "state.json"
    path.write_text(to_json(state_to_dict(rho)))
    assert np.max(np.abs(load_state(str(path)) - rho)) == 0.0
    with pytest.raises(DomainError, match="read"):
        load_state(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError, match="valid JSON"):
        load_state(str(bad))
    # bytes that are not UTF-8 raised UnicodeDecodeError
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(DomainError, match="UTF-8"):
        load_state(str(bad))


def test_report_serialization():
    report = analyze(BELL_PHI_PLUS)
    record = report_to_dict(report)
    assert tuple(record) == REPORT_FIELDS
    assert record["verdict"] == "entangled"
    csv = report_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "field,value"
    assert len(lines) == 1 + len(REPORT_FIELDS)
    assert lines[1] == "verdict,entangled"
    by_name = dict(line.split(",") for line in lines[1:])
    assert float(by_name["det_c"]) == pytest.approx(-1.0, abs=1e-12)
    assert float(by_name["lhs3"]) == pytest.approx(-0.25, abs=1e-12)


def test_monomial_labels():
    assert monomial_label((4, 0, 0)) == "x^4 y^0 z^0"
    labels = [monomial_label(m) for m in MONOMIALS]
    assert len(set(labels)) == len(MONOMIALS)


def test_coeff_table_to_dict():
    point = sample_chart_point(82, 5)
    table = fit_c112_coeffs(point.alpha, point.beta)
    record = coeff_table_to_dict(table)
    assert record["provenance"] == "fitted"
    assert len(record["coefficients"]) == len(MONOMIALS)
    assert record["coefficients"]["x^4 y^0 z^0"] == table.entry((4, 0, 0))


def test_coeff_rows_to_csv():
    text = coeff_rows_to_csv([("p201", 0.5), ("x^4 y^0 z^0", -1.0)])
    assert text == "monomial,value\np201,0.5\nx^4 y^0 z^0,-1\n"


def test_records_to_csv_lines():
    config = RunConfig(ensemble="hs", samples=5, seed=83)
    lines = list(records_to_csv_lines(sample_records(config)))
    assert lines[0] == "index,verdict,lhs3,lhs4,min_pt_eig,r1,r2,r3,r4\n"
    assert len(lines) == 6
    first = lines[1].strip().split(",")
    assert first[0] == "0"
    assert first[1] in ("separable", "entangled", "boundary")
    assert len(first) == 9
    for cell in first[2:]:
        float(cell)
    # identical stream, identical bytes
    again = list(records_to_csv_lines(sample_records(config)))
    assert again == lines


def test_records_to_csv_lines_matches_per_field_formatting():
    # numpy and Python scalars, signed zeros and non-finite values give the
    # text that formatting each field on its own gives
    records = [
        SampleRecord(np.int64(7), np.str_("entangled"), np.float64(-0.0), 0.1,
                     float("nan"), (np.float64(1.0 / 3.0), 0.25, -0.0, np.float64(np.nan))),
        SampleRecord(0, "separable", 1e-300, np.float64(-2.5e17), np.inf,
                     (1.0, 2, np.float32(0.1), -np.inf)),
        SampleRecord(2**40, "boundary", np.float64(5e-324), -1e-9, 0.0,
                     tuple(np.array([0.7, 0.2, 0.1, 0.0]))),
    ]
    lines = list(records_to_csv_lines(records))
    assert lines[0] == "index,verdict,lhs3,lhs4,min_pt_eig,r1,r2,r3,r4\n"
    assert len(lines) == 1 + len(records)
    for r, line in zip(records, lines[1:]):
        fields = [str(r.index), str(r.verdict), fmt_float(r.lhs3), fmt_float(r.lhs4),
                  fmt_float(r.min_pt_eig)] + [fmt_float(v) for v in r.spectrum]
        assert line == ",".join(fields) + "\n"
    assert lines[1] == "7,entangled,-0,0.10000000000000001,nan,0.33333333333333331,0.25,-0,nan\n"


def test_to_json_renders_non_finite_floats_as_null():
    obj = {"inf": float("inf"), "nan": np.nan, "vec": [1.0, -np.inf, np.float64(0.5)]}
    text = to_json(obj)
    assert json.loads(text) == {"inf": None, "nan": None, "vec": [1.0, None, 0.5]}
    assert "[1, null, 0.5]" in text
