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


def _non_number(value, rank):
    """(position, leaf) of the first leaf of ``value``, lists nested
    ``rank`` deep, that is not a JSON number (an int or a float; a bool is
    not one), or None.  A list below depth ``rank`` is such a leaf, so the
    recursion stops there however deep the record nests."""
    if isinstance(value, (list, tuple)) and rank:
        for i, item in enumerate(value):
            found = _non_number(item, rank - 1)
            if found:
                position, leaf = found
                return f"[{i}]{position}", leaf
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return None
    return "", value


#: Characters of a rejected leaf that an error message shows.
_LEAF_CHARS = 40


def _leaf_text(leaf):
    """The JSON text of a leaf that is not a number, cut after _LEAF_CHARS
    characters with "...".  Without _one_shot, iterencode runs the
    pure-Python encoder, which yields lists and objects one nesting level
    at a time, so only the first few levels are written: no nesting depth
    recurses and no record prints a long line.  A Python caller's list that
    holds itself, or dict key that is not a JSON key, raises nothing."""
    text = ""
    chunks = json.JSONEncoder(skipkeys=True, check_circular=False, default=repr).iterencode(leaf)
    for chunk in chunks:
        text += chunk
        if len(text) > _LEAF_CHARS:
            return text[:_LEAF_CHARS] + "..."
    return text


def _matrix_from(record, key, shape):
    if key not in record:
        raise DomainError(f"field {key!r} is missing")
    # np.asarray(dtype=float) reads "0.5" as 0.5 and true as 1.0
    found = _non_number(record[key], len(shape))
    if found:
        position, leaf = found
        where = f"entry {position} is" if position else "it is"
        raise DomainError(
            f"field {key!r} is not a numeric array: "
            f"{where} {_leaf_text(leaf)}, not a number"
        )
    try:
        m = np.asarray(record[key], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, or an int beyond 1.8e308
        raise DomainError(f"field {key!r} is not a numeric array: {exc}") from exc
    if m.shape != shape:
        raise DomainError(f"field {key!r} must have shape {shape}, got {m.shape}")
    return m


def state_from_dict(record):
    """Parse a state record in either representation.

    Accepts {"rho_re": ..., "rho_im": ...} or {"fano": {"a", "b", "C"}};
    when both are present the explicit matrix wins.  Each field is nested
    lists of JSON numbers: a string or a bool raises DomainError naming the
    field and the entry.  Returns the raw 4x4 complex matrix without any
    positivity gating.
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
    except RecursionError as exc:
        raise DomainError(f"state file is nested too deeply: {exc}") from exc
    return state_from_dict(record)


# -- reports and tables -------------------------------------------------------------

def rows_to_csv(key, rows):
    """CSV text with header ``key,value`` from (name, value) pairs; a string
    value is written as it is, a number with fmt_float."""
    lines = [f"{key},value"]
    for name, value in rows:
        lines.append(f"{name},{value if isinstance(value, str) else fmt_float(value)}")
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


#: One CSV row of a SampleRecord: index, verdict, then %.17g for each float.
_RECORD_ROW = "%d,%s," + ",".join(["%.17g"] * (len(SampleRecord.FIELDS) - 2)) + "\n"


def records_to_csv_lines(records):
    """Yield CSV lines (with trailing newlines) for a record stream; each
    row is one format of the record's fields, the same text as fmt_float
    on every number."""
    yield ",".join(SampleRecord.FIELDS) + "\n"
    for r in records:
        yield _RECORD_ROW % (r.index, r.verdict, r.lhs3, r.lhs4, r.min_pt_eig, *r.spectrum)
