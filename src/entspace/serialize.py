"""Deterministic serialization of states, reports and tables.

All numeric output is decimal with 17 significant digits (%.17g), which
round-trips IEEE doubles exactly; given identical inputs every writer
produces byte-identical output.
"""

import json

import numpy as np

from .errors import DomainError
from .fano import FanoState, from_fano, to_fano
from .montecarlo import SampleRecord
from .separability import MONOMIALS


def fmt_float(x):
    """Decimal representation with 17 significant digits."""
    return "%.17g" % float(x)


def _render(obj, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [_render(v, indent + 1) for v in seq]
        if all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in seq):
            return "[" + ", ".join(rendered) + "]"
        items = [f"{pad}  {r}" for r in rendered]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj) if np.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise DomainError(f"cannot serialize object of type {type(obj).__name__}")


def to_json(obj):
    """Render a nested dict/list structure as deterministic JSON text;
    a non-finite float (a failed check's residual) becomes null."""
    return _render(obj, 0) + "\n"


# -- state records ---------------------------------------------------------------

def state_to_dict(rho):
    """JSON-ready record of a state, carrying both representations."""
    rho = np.asarray(rho, dtype=complex)
    f = to_fano(rho)
    return {
        "rho_re": rho.real.tolist(),
        "rho_im": rho.imag.tolist(),
        "fano": {"a": f.a.tolist(), "b": f.b.tolist(), "C": f.C.tolist()},
    }


def _matrix_from(record, key, shape):
    if key not in record:
        raise DomainError(f"field {key!r} is missing")
    try:
        m = np.asarray(record[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"field {key!r} is not a numeric array: {exc}") from exc
    if m.shape != shape:
        raise DomainError(f"field {key!r} must have shape {shape}, got {m.shape}")
    return m


def state_from_dict(record):
    """Parse a state record in either representation.

    Accepts {"rho_re": ..., "rho_im": ...} or {"fano": {"a", "b", "C"}};
    when both are present the explicit matrix wins.  Returns the raw 4x4
    complex matrix without any positivity gating.
    """
    if not isinstance(record, dict):
        raise DomainError("state record must be a JSON object")
    if "rho_re" in record or "rho_im" in record:
        re = _matrix_from(record, "rho_re", (4, 4))
        im = (
            _matrix_from(record, "rho_im", (4, 4))
            if "rho_im" in record
            else np.zeros((4, 4))
        )
        return re + 1j * im
    if "fano" in record:
        fano = record["fano"]
        if not isinstance(fano, dict):
            raise DomainError("field 'fano' must be a JSON object")
        f = FanoState(
            a=_matrix_from(fano, "a", (3,)),
            b=_matrix_from(fano, "b", (3,)),
            C=_matrix_from(fano, "C", (3, 3)),
        )
        return from_fano(f)
    raise DomainError("state record carries neither 'rho_re'/'rho_im' nor 'fano'")


def load_state(path):
    """Read a state record from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read state file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"state file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"state file is not valid JSON: {exc}") from exc
    return state_from_dict(record)


# -- reports and tables -------------------------------------------------------------

REPORT_FIELDS = (
    "verdict",
    "s2_pt",
    "s3_pt",
    "s4_pt",
    "det_c",
    "det_m",
    "c112",
    "lhs3",
    "lhs4",
)


def report_to_dict(report):
    return {name: getattr(report, name) for name in REPORT_FIELDS}


def report_to_csv(report):
    lines = ["field,value"]
    for name in REPORT_FIELDS:
        value = getattr(report, name)
        lines.append(
            f"{name},{value}" if isinstance(value, str) else f"{name},{fmt_float(value)}"
        )
    return "\n".join(lines) + "\n"


def monomial_label(m):
    return f"x^{m[0]} y^{m[1]} z^{m[2]}"


def coeff_table_to_dict(table):
    return {
        "provenance": table.provenance,
        "residual": table.residual,
        "condition": table.condition,
        "coefficients": {
            monomial_label(m): v for m, v in zip(MONOMIALS, table.values)
        },
    }


def coeff_rows_to_csv(rows):
    """CSV text from (label, value) pairs."""
    lines = ["monomial,value"]
    for label, value in rows:
        lines.append(f"{label},{fmt_float(value)}")
    return "\n".join(lines) + "\n"


#: One CSV row of a SampleRecord: index, verdict, then %.17g for each float.
_RECORD_ROW = "%d,%s," + ",".join(["%.17g"] * (len(SampleRecord.FIELDS) - 2)) + "\n"


def records_to_csv_lines(records):
    """Yield CSV lines (with trailing newlines) for a record stream; each
    row is one format of the record's fields, the same text as fmt_float
    on every number."""
    yield ",".join(SampleRecord.FIELDS) + "\n"
    for r in records:
        yield _RECORD_ROW % (r.index, r.verdict, r.lhs3, r.lhs4, r.min_pt_eig, *r.spectrum)
