"""Monte-Carlo harness: scans and sample records over the batched kernels.

The scan pipeline keeps the criterion route (characteristic coefficients
of the partial transpose) and the oracle route (the sign of the smallest
PT eigenvalue against the exclusion band) strictly separate; both consume
the identical sample stream, the entry rows of rho^TB that _pt_chunks
yields to the scan and to verify's PPT check, and tally_routes alone
compares them sample by sample.  The oracle's decision is eigvalsh's,
certified by LDL^H inertia where it is decided by >= delta:
min_eig_certificates settles almost every state, and LAPACK's eigvalsh
runs only on the states its certificates leave silent.  Sample records
read the same entry rows: S2-S4 from rho^TB's rows, the spectrum from the
Jacobi on the state's rows, and the smallest PT eigenvalue they print
from eigvalsh.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import check_band, check_count, check_seed
from . import tolerances as tol
# char_poly_batch and ensemble_chunks are read by no code here: the benchmark's tracer hooks them
from .linalg4 import char_poly_coeffs as char_poly_batch, herm_eigenvalues, min_eig_certificates
from .linalg4 import partial_transpose as pt_batch
from .linalg4 import _hermitian, _pt_rows, _row_spectra, _s_coeffs
from . import sampling
from .sampling import check_ensemble, ensemble_chunks, ensemble_state
from .separability import (
    S3_BOUND,
    S4_BOUND,
    analyze,
    verdict_from_coeffs,
    verdict_masks,
)


def oracle_masks(min_eig):
    """Masks from the smallest PT eigenvalue, with an exclusion band.

    States with |min_eig| <= MINEIG_BAND land in the third (undecided) mask
    and are not counted against the criterion.
    """
    min_eig = np.asarray(min_eig)
    separable = min_eig > tol.MINEIG_BAND
    entangled = min_eig < -tol.MINEIG_BAND
    return separable, entangled, ~(separable | entangled)


def pt_oracle_masks(pts):
    """The oracle's masks of the (16, k) entry rows ``pts`` of partial
    transposes: ``oracle_masks`` of the smallest eigvalsh eigenvalue of
    each, decided without the eigensolver wherever min_eig_certificates
    settles its sign against +-MINEIG_BAND.  Only the matrices neither
    certificate claims are built from their rows and go to eigvalsh,
    their masks scattered back into place.
    """
    separable, entangled = min_eig_certificates(pts, tol.MINEIG_BAND)
    silent = ~(separable | entangled)
    if silent.any():
        min_eig = np.linalg.eigvalsh(_hermitian(pts[:, silent]))[:, 0]
        separable[silent], entangled[silent], _ = oracle_masks(min_eig)
    return separable, entangled, ~(separable | entangled)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of a harness run."""

    ensemble: str = "hs"
    samples: int = 1000
    seed: int = 0
    band: float = tol.VERDICT_TOL

    def __post_init__(self):
        check_ensemble(self.ensemble)
        check_count(self.samples)
        check_seed(self.seed)
        check_band(self.band)  # before a sample stream writes its CSV header


@dataclass(frozen=True)
class ScanResult:
    """Aggregated verdict counts of a Monte-Carlo scan, and the report
    ``scan`` prints: its fields, in declaration order.

    The run's parameters come first.  ``fraction`` is the separable
    fraction by the algebraic criterion, with its Wald standard error
    sqrt(f (1-f) / n); ``oracle_fraction`` is the same count from the
    eigenvalue oracle on the identical stream: eigvalsh's decision,
    certified by LDL^H inertia where it is decided by >= delta
    (pt_oracle_masks).  ``mismatches`` counts states (outside both
    boundary bands) where the two routes disagree.  ``bound_violations``
    records how often each one-sided inequality failed: lhs3 < 0,
    lhs3 > 1/16, lhs4 < 0, lhs4 > 1/256 (raw counts over all samples, no
    band).
    """

    ensemble: str
    samples: int
    seed: int
    band: float
    separable: int
    entangled: int
    boundary: int
    fraction: float
    wald_error: float
    oracle_separable: int
    oracle_entangled: int
    oracle_undecided: int
    oracle_fraction: float
    mismatches: int
    bound_violations: dict


#: The raw bound violations lhs3 < 0, lhs3 > 1/16, lhs4 < 0, lhs4 > 1/256.
_VIOLATIONS = ("lhs3_below_0", "lhs3_above_1_16", "lhs4_below_0", "lhs4_above_1_256")


def _pt_chunks(ensemble, seed, n, first=0):
    """Yield (the (16, m) entry rows of rho^TB, (S2, S3, S4)) per chunk of samples 0..n-1 of
    ``ensemble`` from chunk ``first`` on, each chunk drawn as rows by sampling._row_chunks."""
    for _, r in sampling._row_chunks(ensemble, seed, n, first):
        pts = _pt_rows(r)
        yield pts, _s_coeffs(pts)


def tally_routes(chunks, band):
    """Count the verdicts of both PPT routes over ``chunks``, which yields
    ``(pts, (S2, S3, S4))`` per chunk as _pt_chunks does: the (16, k) entry
    rows of the partial transposes, and their Newton coefficients.

    Returns a dict of counts summed over the chunks, named as ScanResult
    names them: the criterion's separable / entangled / boundary
    (``verdict_masks`` of S3, S4), the oracle's oracle_separable /
    oracle_entangled / oracle_undecided (``pt_oracle_masks`` of ``pts``:
    eigvalsh's decision, certified by LDL^H inertia where it is decided by
    >= delta, and eigvalsh's own elsewhere), ``mismatches`` (both routes
    decide, and they disagree), ``undecided`` (at least one route does not decide) and the
    _VIOLATIONS.
    """
    names = (
        "separable", "entangled", "boundary",
        "oracle_separable", "oracle_entangled", "oracle_undecided",
        "mismatches", "undecided",
    ) + _VIOLATIONS
    total = np.zeros(len(names), dtype=np.int64)
    for pts, (_, s3, s4) in chunks:
        sep, ent, bnd = verdict_masks(s3, s4, band)
        osep, oent, oundec = pt_oracle_masks(pts)
        undecided = bnd | oundec
        mismatched = ~undecided & (sep != osep)
        masks = (sep, ent, bnd, osep, oent, oundec, mismatched, undecided,
                 s3 < 0, s3 > S3_BOUND, s4 < 0, s4 > S4_BOUND)
        total += [np.count_nonzero(m) for m in masks]
    return dict(zip(names, total.tolist()))


def separable_fraction(config):
    """Scan an ensemble, counting verdicts along both routes.

    Returns a ScanResult whose criterion and oracle counts come from the
    same deterministic stream, both read off the entry rows of rho^TB.
    """
    n = config.samples
    counts = tally_routes(_pt_chunks(config.ensemble, config.seed, n), config.band)
    violations = {name: counts.pop(name) for name in _VIOLATIONS}
    del counts["undecided"]  # not a ScanResult field
    f = counts["separable"] / n
    return ScanResult(
        ensemble=config.ensemble, samples=n, seed=config.seed, band=config.band,
        fraction=f,
        wald_error=float(np.sqrt(f * (1.0 - f) / n)),
        oracle_fraction=counts["oracle_separable"] / n,
        bound_violations=violations,
        **counts,
    )


class SampleRecord(NamedTuple):
    """One scanned state: index, verdict and its certifying quantities."""

    index: int
    verdict: str
    lhs3: float
    lhs4: float
    min_pt_eig: float
    spectrum: tuple

    #: The CSV header: the fields, with the spectrum spread over r1..r4.
    FIELDS = ("index", "verdict", "lhs3", "lhs4", "min_pt_eig", "r1", "r2", "r3", "r4")


def sample_records(config):
    """Yield a SampleRecord per scanned state, in stream order.

    Each chunk is drawn as entry rows, as the scan draws it, and analysed by
    stacked calls on them: the verdict and left-hand sides come from the
    Newton coefficients of the partial transpose's rows (the values a fresh
    analyze() call on the replayed state gives), the minimal PT eigenvalue
    from eigvalsh, and the spectrum from the package eigensolver on the
    state's rows, equal to the one a replay of the single state gets.  The
    chunk is converted to Python floats and strings once (``tolist``), so
    a record holds plain Python values.
    """
    for start, rows in sampling._row_chunks(config.ensemble, config.seed, config.samples):
        spectra = _row_spectra(rows)  # first: it names a matrix with a non-finite entry
        pts = _pt_rows(rows)
        _, s3, s4 = _s_coeffs(pts)
        min_eig = np.linalg.eigvalsh(_hermitian(pts))[:, 0]
        verdicts = verdict_from_coeffs(s3, s4, config.band)
        fields = zip(
            verdicts.tolist(), s3.tolist(), s4.tolist(), min_eig.tolist(), spectra.tolist()
        )
        for index, (verdict, lhs3, lhs4, min_pt_eig, spectrum) in enumerate(fields, start):
            yield SampleRecord(index, verdict, lhs3, lhs4, min_pt_eig, tuple(spectrum))


def reanalyze_record(config, record):
    """Recompute a record from scratch; used for spot re-verification.

    The record holds the same Python types as one from sample_records."""
    rho = ensemble_state(config.ensemble, config.seed, record.index)
    report = analyze(rho, config.band)
    return SampleRecord(
        index=record.index,
        verdict=str(report.verdict),
        lhs3=float(report.s3_pt),
        lhs4=float(report.s4_pt),
        min_pt_eig=float(np.linalg.eigvalsh(pt_batch(rho))[0]),
        spectrum=tuple(herm_eigenvalues(rho).tolist()),
    )
