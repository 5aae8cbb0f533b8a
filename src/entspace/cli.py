"""Command-line interface.

Exit codes: 0 on success (for ``check``: a separable verdict), 1 on a
verification or verdict failure, 2 on malformed input.  A reader that
closes stdout early (``entspace sample ... | head``) ends the run with
exit code 1 and nothing on stderr.  All numeric output is decimal with 17
significant digits.
"""

import argparse
import contextlib
import os
import sys
from dataclasses import asdict

import numpy as np

from .chart import _angle_triple
from .errors import DomainError, NumericalError
from . import tolerances as tol
from .fano import density_matrix
from .montecarlo import RunConfig, sample_records, separable_fraction
from .sampling import ENSEMBLES
from .separability import (
    SEPARABLE,
    analyze,
    fit_c112_coeffs,
    p022,
    p111,
    p201,
)
from .serialize import (
    coeff_table_to_dict,
    load_state,
    records_to_csv_lines,
    rows_to_csv,
    to_json,
)
from .verify import SUITES, run_suite


def _triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}"
        )
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entspace",
        description="Two-qubit separability analysis in entanglement-space "
        "coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="analyze a single state from a JSON file")
    p_check.add_argument("--state", required=True, help="path to a state record")
    p_check.add_argument("--tol", type=float, default=tol.VERDICT_TOL)
    p_check.add_argument("--format", choices=("json", "csv"), default="json")

    p_coeffs = sub.add_parser(
        "coeffs", help="closed-form (and optionally fitted) chart coefficients"
    )
    p_coeffs.add_argument("--alpha", type=_triple, required=True, metavar="a1,a2,a3")
    p_coeffs.add_argument("--beta", type=_triple, required=True, metavar="b1,b2,b3")
    p_coeffs.add_argument("--fit", action="store_true", help="fit the full table")
    p_coeffs.add_argument("--format", choices=("json", "csv"), default="json")

    p_sample = sub.add_parser("sample", help="stream ensemble sample records as CSV")
    p_sample.add_argument("--ensemble", choices=ENSEMBLES, default="hs")
    p_sample.add_argument("-n", type=int, default=100)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--tol", type=float, default=tol.VERDICT_TOL)
    p_sample.add_argument("--out", help="output path (default: stdout)")

    p_scan = sub.add_parser(
        "scan", help="Monte-Carlo separable fraction with oracle cross-check"
    )
    p_scan.add_argument("--ensemble", choices=ENSEMBLES, default="hs")
    p_scan.add_argument("-n", type=int, default=10000)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--tol", type=float, default=tol.VERDICT_TOL)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("-n", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--tol", type=float, default=tol.VERDICT_TOL)

    return parser


def _cmd_check(args):
    rho = density_matrix(load_state(args.state))
    report = asdict(analyze(rho, args.tol))
    if args.format == "csv":
        sys.stdout.write(rows_to_csv("field", report.items()))
    else:
        sys.stdout.write(to_json(report))
    return 0 if report["verdict"] == SEPARABLE else 1


def _cmd_coeffs(args):
    alpha = _angle_triple(args.alpha, "alpha")
    beta = args.beta  # p201 checks it, as every chart kernel does
    alpha3 = float(alpha[2])
    closed = {
        "p201": p201(alpha3, beta),
        "p111": p111(alpha3, beta),
        "p022": p022(alpha3, beta),
    }
    fitted = coeff_table_to_dict(fit_c112_coeffs(alpha, beta)) if args.fit else None
    if args.format == "csv":
        rows = list(closed.items())
        if fitted is not None:
            rows += fitted["coefficients"].items()
        sys.stdout.write(rows_to_csv("monomial", rows))
    else:
        out = {
            "alpha": alpha.tolist(),
            "beta": beta.tolist(),
            "closed_form": closed,
        }
        if fitted is not None:
            out["fitted"] = fitted
        sys.stdout.write(to_json(out))
    return 0


def _run_config(args):
    return RunConfig(
        ensemble=args.ensemble, samples=args.n, seed=args.seed, band=args.tol
    )


def _cmd_sample(args):
    lines = records_to_csv_lines(sample_records(_run_config(args)))
    out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.writelines(lines)
    return 0


def _cmd_scan(args):
    result = separable_fraction(_run_config(args))
    sys.stdout.write(to_json(asdict(result)))
    return 0 if result.mismatches == 0 else 1


def _cmd_verify(args):
    report = run_suite(args.suite, args.n, args.seed, args.tol)
    sys.stdout.write(to_json(report))
    return 0 if report["passed"] else 1


_COMMANDS = {
    "check": _cmd_check,
    "coeffs": _cmd_coeffs,
    "sample": _cmd_sample,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit does not raise again (the recipe of the
        # Python ``signal`` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
