"""Monte-Carlo harness: scans and sample records over the batched kernels.

The scan pipeline keeps the criterion route (characteristic coefficients
of the partial transpose) and the oracle route (smallest PT eigenvalue
from a dense eigensolver) strictly separate; both consume the identical
sample stream, and tally_routes alone compares them sample by sample.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import check_band, check_count, check_seed
from . import tolerances as tol
from .linalg4 import char_poly_coeffs as char_poly_batch, herm_eigenvalues
from .linalg4 import partial_transpose as pt_batch
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
    """Aggregated verdict counts of a Monte-Carlo scan.

    ``fraction`` is the separable fraction by the algebraic criterion,
    ``oracle_fraction`` the same count from the eigenvalue oracle on the
    identical stream.  ``mismatches`` counts states (outside both boundary
    bands) where the two routes disagree.  ``bound_violations`` records how
    often each one-sided inequality failed: lhs3 < 0, lhs3 > 1/16,
    lhs4 < 0, lhs4 > 1/256 (raw counts over all samples, no band).
    """

    config: RunConfig
    separable: int
    entangled: int
    boundary: int
    oracle_separable: int
    oracle_entangled: int
    oracle_undecided: int
    mismatches: int
    bound_violations: dict = field(default_factory=dict)

    @property
    def samples(self):
        return self.config.samples

    @property
    def fraction(self):
        return self.separable / self.config.samples

    @property
    def oracle_fraction(self):
        return self.oracle_separable / self.config.samples

    @property
    def wald_error(self):
        """Wald standard error sqrt(f (1-f) / n) of the separable fraction."""
        f = self.fraction
        return float(np.sqrt(f * (1.0 - f) / self.config.samples))


#: The raw bound violations lhs3 < 0, lhs3 > 1/16, lhs4 < 0, lhs4 > 1/256.
_VIOLATIONS = ("lhs3_below_0", "lhs3_above_1_16", "lhs4_below_0", "lhs4_above_1_256")


def tally_routes(chunks, band):
    """Count the verdicts of both PPT routes over ``chunks``, which yields
    ``(pts, (S2, S3, S4))`` per chunk: the partial transposes and their
    Newton coefficients.

    Returns a dict of counts summed over the chunks, named as ScanResult
    names them: the criterion's separable / entangled / boundary
    (``verdict_masks`` of S3, S4), the oracle's oracle_separable /
    oracle_entangled / oracle_undecided (``oracle_masks`` of the smallest
    eigenvalue of ``pts``), ``mismatches`` (both routes decide, and they
    disagree), ``undecided`` (at least one route does not decide) and the
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
        osep, oent, oundec = oracle_masks(np.linalg.eigvalsh(pts)[:, 0])
        undecided = bnd | oundec
        mismatched = ~undecided & (sep != osep)
        masks = (sep, ent, bnd, osep, oent, oundec, mismatched, undecided,
                 s3 < 0, s3 > S3_BOUND, s4 < 0, s4 > S4_BOUND)
        total += [np.count_nonzero(m) for m in masks]
    return dict(zip(names, total.tolist()))


def separable_fraction(config):
    """Scan an ensemble, counting verdicts along both routes.

    Returns a ScanResult whose criterion and oracle counts come from the
    same deterministic stream.
    """
    chunks = ensemble_chunks(config.ensemble, config.seed, config.samples)
    pts_chunks = (pt_batch(states) for _, states in chunks)
    counts = tally_routes(((pts, char_poly_batch(pts)) for pts in pts_chunks), config.band)
    violations = {name: counts.pop(name) for name in _VIOLATIONS}
    del counts["undecided"]  # not a ScanResult field
    return ScanResult(config=config, bound_violations=violations, **counts)


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

    Each chunk is analysed by stacked calls: the verdict and left-hand
    sides come from the Newton coefficients of the partial transpose (the
    values a fresh analyze() call on the replayed state gives), the minimal
    PT eigenvalue from the oracle route, and the spectrum from the package
    eigensolver, equal to the one a replay of the single state gets.  The
    chunk is converted to Python floats and strings once (``tolist``), so
    a record holds plain Python values.
    """
    for start, states in ensemble_chunks(
        config.ensemble, config.seed, config.samples
    ):
        pts = pt_batch(states)
        _, s3, s4 = char_poly_batch(pts)
        min_eig = np.linalg.eigvalsh(pts)[:, 0]
        spectra = herm_eigenvalues(states)
        verdicts = verdict_from_coeffs(s3, s4, config.band)
        rows = zip(
            verdicts.tolist(), s3.tolist(), s4.tolist(), min_eig.tolist(), spectra.tolist()
        )
        for index, (verdict, lhs3, lhs4, min_pt_eig, spectrum) in enumerate(rows, start):
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
