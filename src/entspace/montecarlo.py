"""Monte-Carlo harness: scans and sample records over the batched kernels.

The scan pipeline keeps the criterion route (characteristic coefficients
of the partial transpose) and the oracle route (smallest PT eigenvalue
from a dense eigensolver) strictly separate; both consume the identical
sample stream, so their verdicts are comparable sample by sample.
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
    BOUNDARY,
    ENTANGLED,
    S3_BOUND,
    S4_BOUND,
    SEPARABLE,
    analyze,
    verdict_from_coeffs,
    verdict_masks,
)


def oracle_masks(min_eig):
    """Masks from the smallest PT eigenvalue, with an exclusion band.

    States with |min_eig| <= MINEIG_BAND land in the third (undecided) mask
    and are not counted against the criterion.
    """
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
        check_band(self.band)


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


def separable_fraction(config):
    """Scan an ensemble, counting verdicts along both routes.

    Returns a ScanResult whose criterion and oracle counts come from the
    same deterministic stream.
    """
    counts = {SEPARABLE: 0, ENTANGLED: 0, BOUNDARY: 0}
    oracle = [0, 0, 0]
    mismatches = 0
    violations = np.zeros(4, dtype=int)
    for _, states in ensemble_chunks(config.ensemble, config.seed, config.samples):
        pts = pt_batch(states)
        _, s3, s4 = char_poly_batch(pts)
        sep, ent, bnd = verdict_masks(s3, s4, config.band)
        counts[SEPARABLE] += int(sep.sum())
        counts[ENTANGLED] += int(ent.sum())
        counts[BOUNDARY] += int(bnd.sum())
        min_eig = np.linalg.eigvalsh(pts)[:, 0]
        osep, oent, oundec = oracle_masks(min_eig)
        oracle[0] += int(osep.sum())
        oracle[1] += int(oent.sum())
        oracle[2] += int(oundec.sum())
        decided = ~(bnd | oundec)
        mismatches += int(np.sum(decided & (sep != osep)))
        violations += np.array(
            [
                np.sum(s3 < 0),
                np.sum(s3 > S3_BOUND),
                np.sum(s4 < 0),
                np.sum(s4 > S4_BOUND),
            ]
        )
    return ScanResult(
        config=config,
        separable=counts[SEPARABLE],
        entangled=counts[ENTANGLED],
        boundary=counts[BOUNDARY],
        oracle_separable=oracle[0],
        oracle_entangled=oracle[1],
        oracle_undecided=oracle[2],
        mismatches=mismatches,
        bound_violations={
            "lhs3_below_0": int(violations[0]),
            "lhs3_above_1_16": int(violations[1]),
            "lhs4_below_0": int(violations[2]),
            "lhs4_above_1_256": int(violations[3]),
        },
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
