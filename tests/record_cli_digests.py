#!/usr/bin/env python3
"""Re-record tests/cli_digests.json, the CLI's byte contract.

    PYTHONPATH=src python3 tests/record_cli_digests.py

The manifest maps each pinned command line to its exit code, the sha256
of its stdout and why it is pinned; ``blas_kernel`` marks the commands
whose bytes move with the OpenBLAS kernel.  This runs every command
through ``entspace.cli.main`` in a scratch directory that holds the
``check`` records, rewrites only the entries that moved and prints
``command: old → new`` for each.  A declared digest change quotes these
lines; a hash is never edited by hand.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

from entspace.cli import main
from entspace.separability import werner_state
from entspace.serialize import state_to_dict, to_json

MANIFEST = Path(__file__).resolve().with_name("cli_digests.json")

BELL_FANO = {
    "fano": {
        "a": [0.0, 0.0, 0.0],
        "b": [0.0, 0.0, 0.0],
        "C": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
    }
}


def write_records(directory):
    """Write the state records the ``check`` commands read into ``directory``."""
    records = {"werner.json": state_to_dict(werner_state(0.2)), "bell.json": BELL_FANO}
    for name, record in records.items():
        (Path(directory) / name).write_text(to_json(record))


def run(command):
    """(exit code, sha256 of stdout) of ``entspace command`` in the current
    directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def moves(command, entry, code, digest):
    """The ``command: old → new`` line of each pinned field that moved."""
    return [f"{command}: {old} → {new}"
            for old, new in ((f"exit {entry['exit']}", f"exit {code}"), (entry["sha256"], digest))
            if old != new]


def record(path=MANIFEST):
    """Re-run every command of the manifest at ``path`` and rewrite the
    entries that moved; the ``command: old → new`` lines."""
    manifest = json.loads(path.read_text())
    lines = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        write_records(scratch)
        os.chdir(scratch)
        try:
            for command, entry in manifest.items():
                code, digest = run(command)
                lines += moves(command, entry, code, digest)
                entry["exit"], entry["sha256"] = code, digest
        finally:
            os.chdir(home)
    path.write_text(json.dumps(manifest, indent=2, ensure_ascii=False) + "\n")
    return lines


if __name__ == "__main__":
    print("\n".join(record()) or "no digest moved")
