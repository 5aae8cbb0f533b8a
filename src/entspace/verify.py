"""Self-verification suite.

Every load-bearing identity of the package is re-checked here at runtime
against an independent route: closed forms against brute force, spectral
routes against invariant routes, the algebraic PPT criterion against a
dense eigensolver.  CHECKS lists the checks and groups them into suites
("identities", "coeffs", "ppt").

A check takes one argument, the run: the sample count, seed and verdict
band, and the samples the checks of one run share (see _Run), each drawn
or computed once, by the first check that needs it, and handed out as
read-only prefixes: the head (HS chunk 0 with its Fano coefficients and
partial-transpose coefficients, built together) and the chart prefix.  A
check returns only what it measured; run_suite builds one run per call
and names, groups and records each check, so a check that raises is
recorded as failed and never aborts the others.
Since every sample is a fixed function of (seed, index) and every kernel
repeats each single call bit for bit in a stack, a check reports the same
bytes in a suite as on a fresh run of its own.  Every other draw comes
from a stream of the check's own.
"""

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import DomainError, check_band, check_count, check_seed
from .chart import (
    _AB_TABLES,
    _AB_WORDS,
    ChartPoint,
    SimplexPoint,
    a_factor,
    eigenvalues_from_xyz,
    representative_state,
    xyz_from_eigenvalues,
)
from .fano import (
    FanoState,
    from_fano,
    local_unitary_action,
    density_matrix,
    schlienz_mahler,
    to_fano,
)
from .linalg4 import (
    I4,
    SIGMA,
    _entry_rows,
    char_poly_coeffs as char_poly_batch,
    dag,
    exp_antihermitian,
    exp_commuting_paulis,
    herm_eigensystem,
    herm_eigenvalues,
    partial_trace,
    partial_transpose as pt_batch,
    tensor_product,
    unitarity_defect,
)
from .montecarlo import (
    _pt_chunks,
    oracle_masks,  # not called here; the benchmark tracer wraps verify.oracle_masks
    tally_routes,
)
from .sampling import (
    ensemble_chunks,
    random_hermitian,
    sample_chart_point,
    sample_local_unitary,
    verify_stream,
)
from .separability import (
    BOUNDARY,
    C112_SUPPORT,
    ENTANGLED,
    S3_BOUND,
    S4_BOUND,
    SEPARABLE,
    _monomial_rows,
    analyze,
    det_c_closed_form,
    det_correlation,
    det_schlienz_mahler,
    fit_c112_coeffs,
    p022,
    quesne_c112,
    s_coeffs_pt,
    verdict_masks,
    werner_state,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    group: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    detail: str = ""

    def to_dict(self):
        return asdict(self)


class _Measured(NamedTuple):
    """What one check measured; the check passes when ``residual`` is at
    most ``tolerance`` (a NaN residual fails)."""

    samples: int
    residual: float
    tolerance: float
    detail: str = ""


def _worst(residuals):
    """The largest entry of ``residuals`` (scalars or arrays, an iterable
    of them), 0.0 for none; NaN as soon as any entry is NaN, so a NaN
    residual fails its check wherever it occurs."""
    worst = 0.0
    for r in residuals:
        worst = np.maximum(worst, np.max(r, initial=0.0))
    return worst


def _read_only(*arrays):
    """The ``arrays``, each made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _Run:
    """One run of the suite: the sample count ``n``, the ``seed`` and the
    verdict ``band`` every check reads, and the samples its checks share.

    The shared samples are the head, and the chart prefix.  The head is the
    first min(n, CHUNK) Hilbert-Schmidt states (chunk 0 of the ensemble),
    their Fano coefficients and the characteristic coefficients of their
    partial transposes, all three computed together by the first check that
    reads any of them (a suite that reads one reads all three).  The chart
    prefix is chart points 0..k-1 with their representative states; it
    starts empty and grows on demand, drawing only the new indices.  A
    check takes a prefix; every array handed out is read-only.
    """

    def __init__(self, n, seed, band):
        self.n, self.seed, self.band = n, seed, band
        self.size = min(n, tol.CHUNK)
        # x, y, z, alpha, beta, representative states of chart points 0..k-1
        self._chart = (*np.empty((3, 0)), *np.empty((2, 0, 3)), np.empty((0, 4, 4), complex))

    @cached_property
    def _head(self):
        """HS states 0..size-1, their FanoState and the (S2, S3, S4) of
        their partial transposes, read-only."""
        _, states = next(ensemble_chunks("hs", self.seed, self.size))
        f = to_fano(states)
        coeffs = char_poly_batch(pt_batch(states))
        _read_only(states, f.a, f.b, f.C, *coeffs)
        return states, f, coeffs

    def hs(self, m=None):
        """HS states 0..m-1 (all ``size`` of them by default)."""
        return self._head[0][:m]

    def fano(self, m=None):
        """Fano coefficients of hs(m)."""
        f = self._head[1]
        return f if m is None else FanoState(f.a[:m], f.b[:m], f.C[:m])

    def pt_coeffs(self, m=None):
        """(S2, S3, S4) of the partial transposes of hs(m)."""
        return tuple(s[:m] for s in self._head[2])

    def chart(self, m):
        """Chart points 0..m-1 as a stacked ChartPoint, and their
        representative states."""
        have = len(self._chart[0])
        if m > have:
            points = sample_chart_point(self.seed, np.arange(have, m))
            s = points.simplex
            new = (s.x, s.y, s.z, points.alpha, points.beta, representative_state(points))
            self._chart = _read_only(*map(np.concatenate, zip(self._chart, new)))
        x, y, z, alpha, beta, states = (a[:m] for a in self._chart)
        return ChartPoint(SimplexPoint(x, y, z), alpha, beta), states


# -- identities -----------------------------------------------------------------

def _check_kron_mixed_product(run):
    m = min(run.n, 2000)
    g = verify_stream(run.seed, 0)
    a, b, c, d = np.moveaxis(random_hermitian(g, dim=2, shape=(m, 4)), 1, 0)
    lhs = tensor_product(a, b) @ tensor_product(c, d)
    rhs = tensor_product(a @ c, b @ d)
    worst = np.max(np.abs(lhs - rhs))
    return _Measured(m, worst, 1e-13)


def _check_eigensolver_reconstruction(run):
    m = min(run.n, 1500)
    g = verify_stream(run.seed, 1)
    hs = random_hermitian(g, shape=(m,))
    ws, vs = herm_eigensystem(hs)
    if np.any(np.diff(ws, axis=1) > 0):
        return _Measured(
            m, np.inf, tol.EIG_RECONSTRUCT_TOL, "eigenvalues not sorted descending"
        )
    worst = _worst((
        np.abs((vs * ws[:, None, :]) @ dag(vs) - hs),
        np.abs(dag(vs) @ vs - I4),
    ))
    return _Measured(m, worst, tol.EIG_RECONSTRUCT_TOL)


def _check_charpoly_vs_spectrum(run):
    m = min(run.n, 1500)
    g = verify_stream(run.seed, 2)
    hs = random_hermitian(g, shape=(m,))
    w = herm_eigenvalues(hs).T
    s2, s3, s4 = char_poly_batch(hs)
    e2 = sum(w[i] * w[j] for i in range(4) for j in range(i + 1, 4))
    e3 = sum(
        w[i] * w[j] * w[k]
        for i in range(4)
        for j in range(i + 1, 4)
        for k in range(j + 1, 4)
    )
    e4 = np.prod(w, axis=0)
    gaps = (s2 - e2, s3 - e3, s4 - e4, s4 - np.linalg.det(hs).real)
    worst = _worst(np.abs(gap) for gap in gaps)
    return _Measured(m, worst, 1e-10)


def _check_expm_paths(run):
    m = min(run.n, 600)
    g = verify_stream(run.seed, 3)
    # Sample i draws 3 angles and its family, then Re A and Im A of its
    # Gaussian A, in that stream order.
    u = np.empty((m, 4))
    z = np.empty((m, 2, 4, 4))
    for i in range(m):
        g.random(out=u[i])
        g.standard_normal(out=z[i])
    lo, hi = -2 * np.pi, 2 * np.pi
    angles = lo + (hi - lo) * u[:, :3]  # uniform(lo, hi) = lo + (hi - lo) * random()
    family = (u[:, 3] >= 0.5).astype(int)  # 0: the alpha words, 1: the beta words
    words = _AB_WORDS[family]
    a = z[:, 0] + 1j * z[:, 1]
    x = a - np.conj(a.swapaxes(-1, -2))  # anti-Hermitian A - A^dag
    # each sample's own family of the chart's six words, the other three
    # angles zero, bit for bit its one-family call
    padded = np.zeros((m, 2, 3))
    padded[np.arange(m), family] = angles
    closed = exp_commuting_paulis(padded.reshape(m, 6), _AB_TABLES)
    gen = -0.5j * sum(angles[:, k, None, None] * words[:, k] for k in range(3))
    series, exp_x, exp_minus_x = exp_antihermitian(np.stack([gen, x, -x]))
    worst = _worst((
        np.abs(closed - series),
        *unitarity_defect(series),
        np.abs(exp_x @ exp_minus_x - I4),
    ))
    return _Measured(m, worst, tol.EXPM_PATH_TOL)


def _check_fano_roundtrip(run):
    worst = np.max(np.abs(from_fano(run.fano()) - run.hs()))
    return _Measured(run.size, worst, 1e-13)


def _check_partial_transpose_trace(run):
    m = min(run.n, 2000)
    states = run.hs(m)
    pts = pt_batch(states)
    trace_gap = np.einsum("nii->n", pts).real - np.einsum("nii->n", states).real
    reduced = partial_trace(states)
    bloch_a = np.einsum("nij,kji->nk", reduced, SIGMA).real
    worst = _worst((
        np.abs(pt_batch(pts) - states),
        np.abs(trace_gap),
        np.abs(run.fano(m).a - bloch_a),
    ))
    return _Measured(m, worst, 1e-12)


def _lu_invariant_values(pt_coeffs, f):
    return (*pt_coeffs, det_correlation(f), det_schlienz_mahler(f), quesne_c112(f))


def _check_local_unitary_invariance(run):
    m = min(run.n, 300)
    rotated = local_unitary_action(run.hs(m), sample_local_unitary(run.seed, np.arange(m)))
    worst = _worst(
        np.abs(q0 - q1) for q0, q1 in zip(
            _lu_invariant_values(run.pt_coeffs(m), run.fano(m)),
            _lu_invariant_values(s_coeffs_pt(rotated), to_fano(rotated)),
        )
    )
    return _Measured(m, worst, 1e-10)


def _check_chart_spectrum_roundtrip(run):
    m = min(run.n, 500)
    points, states = run.chart(m)
    spectra = herm_eigenvalues(states)
    r = eigenvalues_from_xyz(points.simplex)
    paths = a_factor(points.alpha, points.beta, "closed") - a_factor(
        points.alpha, points.beta, "series"
    )
    back = xyz_from_eigenvalues(r)
    worst = _worst((
        np.abs(spectra - r),
        np.abs(paths),
        np.abs(back.x - points.simplex.x),
        np.abs(back.y - points.simplex.y),
        np.abs(back.z - points.simplex.z),
    ))
    return _Measured(m, worst, 1e-12)


def _check_det_m_identity(run):
    later = (to_fano(states) for _, states in ensemble_chunks("hs", run.seed, run.n, first=1))
    worst = _worst(
        np.abs(det_schlienz_mahler(f) - (det_correlation(f) - 0.5 * quesne_c112(f)))
        for f in chain([run.fano()], later)
    )
    return _Measured(run.n, worst, tol.DET_IDENTITY_TOL)


# -- coefficient table ------------------------------------------------------------

def _check_det_c_closed_form(run):
    m = min(run.n, 2000)
    points, states = run.chart(m)
    brute = det_correlation(to_fano(states))
    closed = det_c_closed_form(points.simplex, points.alpha[..., 2], points.beta)
    worst = np.max(np.abs(brute - closed))
    return _Measured(m, worst, tol.CLOSED_FORM_TOL)


def _fit_points(seed, check_id, count):
    """``count`` rows of (alpha, beta); the draws stay inside the double
    octahedron (l1 <= 6 < 2*pi per triple)."""
    return verify_stream(seed, check_id).uniform(-2.0, 2.0, (count, 2, 3))


def _check_fit_support_frozen(run):
    fits = max(2, min(6, run.n // 1500))
    residuals = []
    detail = ""
    for alpha, beta in _fit_points(run.seed, 10, fits):
        table = fit_c112_coeffs(alpha, beta)
        residuals.append(table.residual)
        outside = [m for m in table.support() if m not in C112_SUPPORT]
        if outside:
            detail = f"support escaped the frozen set: {outside}"
    worst = np.inf if detail else _worst([residuals])
    return _Measured(fits, worst, tol.FIT_RESIDUAL_TOL, detail)


def _check_fit_alpha12_invariance(run):
    fits = max(2, min(5, run.n // 2000))
    gaps = []
    # per fit: alpha, beta, then new alpha_1 and alpha_2, in stream order
    for row in verify_stream(run.seed, 11).uniform(-2.0, 2.0, (fits, 8)):
        alpha, beta, other = row[:3], row[3:6], row[[6, 7, 2]]
        t0 = fit_c112_coeffs(alpha, beta)
        t1 = fit_c112_coeffs(other, beta)
        gaps.append(np.abs(t0.values - t1.values))
    return _Measured(fits, _worst(gaps), tol.FIT_RESIDUAL_TOL)


def _check_fit_closed_form_entry(run):
    fits = max(3, min(8, run.n // 1200))
    gaps = []
    for alpha, beta in _fit_points(run.seed, 12, fits):
        table = fit_c112_coeffs(alpha, beta)
        gaps.append(table.entry((0, 2, 2)) - p022(alpha[2], beta))
        mirrored = beta[::-1].copy()
        gaps.append(table.entry((2, 0, 2)) - p022(alpha[2], mirrored))
    return _Measured(fits, _worst([np.abs(gaps)]), tol.FIT_RESIDUAL_TOL)


def _check_c112_quartic_predicts(run):
    fits = max(2, min(4, run.n // 2500))
    g = verify_stream(run.seed, 13)
    gaps = []
    for alpha, beta in _fit_points(run.seed, 23, fits):
        table = fit_c112_coeffs(alpha, beta)
        s = xyz_from_eigenvalues(np.sort(g.dirichlet(np.ones(4), 40))[:, ::-1])
        predicted = _monomial_rows(s) @ table.values
        actual = quesne_c112(to_fano(representative_state(ChartPoint(s, alpha, beta))))
        gaps.append(np.abs(predicted - actual))
    return _Measured(fits * 40, _worst(gaps), 1e-9)


# -- PPT criterion ------------------------------------------------------------------

def _check_ppt_vs_eigenvalue_oracle(run):
    head = (_entry_rows(pt_batch(run.hs())), run.pt_coeffs())
    counts = tally_routes(chain([head], _pt_chunks("hs", run.seed, run.n, first=1)), run.band)
    detail = f"undecided(band)={counts['undecided']}"
    return _Measured(run.n, float(counts["mismatches"]), 0.0, detail)


def _check_dual_path_agreement(run):
    m = min(run.n, 2000)
    f = run.fano(m)
    _, s3_pt, s4_pt = run.pt_coeffs(m)
    _, s3, s4 = char_poly_batch(run.hs(m))
    worst = _worst((
        np.abs(s3 + det_correlation(f) / 4.0 - s3_pt),
        np.abs(s4 + det_schlienz_mahler(f) / 16.0 - s4_pt),
    ))
    return _Measured(m, worst, tol.DUAL_PATH_TOL)


def _check_werner_verdicts(run):
    expected = ((0.2, SEPARABLE), (1.0 / 3.0, BOUNDARY), (0.5, ENTANGLED))
    bad = []
    for p, want in expected:
        got = analyze(density_matrix(werner_state(p))).verdict
        if got != want:
            bad.append(f"p={p}: got {got}, want {want}")
    return _Measured(len(expected), float(len(bad)), 0.0, "; ".join(bad))


def _check_bounds_attained_at_i4(run):
    _, s3, s4 = s_coeffs_pt(I4 / 4.0)
    worst = _worst((abs(s3 - S3_BOUND), abs(s4 - S4_BOUND)))
    return _Measured(1, worst, 1e-12)


def _check_product_states_separable(run):
    m = min(run.n, 5000)
    entangled = 0
    gaps = []
    for _, states in ensemble_chunks("product", run.seed, m):
        pts = pt_batch(states)
        _, s3, s4 = char_poly_batch(pts)
        _, ent, _ = verdict_masks(s3, s4, run.band)
        entangled += int(ent.sum())
        f = to_fano(states[:: max(1, len(states) // 64)])
        gaps += [np.abs(schlienz_mahler(f)), np.abs(quesne_c112(f))]
    if entangled:
        return _Measured(m, np.inf, 1e-12, f"{entangled} product states judged entangled")
    return _Measured(m, _worst(gaps), 1e-12)


CHECKS = (
    ("identities", _check_kron_mixed_product),
    ("identities", _check_eigensolver_reconstruction),
    ("identities", _check_charpoly_vs_spectrum),
    ("identities", _check_expm_paths),
    ("identities", _check_fano_roundtrip),
    ("identities", _check_partial_transpose_trace),
    ("identities", _check_local_unitary_invariance),
    ("identities", _check_chart_spectrum_roundtrip),
    ("identities", _check_det_m_identity),
    ("coeffs", _check_det_c_closed_form),
    ("coeffs", _check_fit_support_frozen),
    ("coeffs", _check_fit_alpha12_invariance),
    ("coeffs", _check_fit_closed_form_entry),
    ("coeffs", _check_c112_quartic_predicts),
    ("ppt", _check_ppt_vs_eigenvalue_oracle),
    ("ppt", _check_dual_path_agreement),
    ("ppt", _check_werner_verdicts),
    ("ppt", _check_bounds_attained_at_i4),
    ("ppt", _check_product_states_separable),
)

SUITES = ("all", "identities", "coeffs", "ppt")


def _run_check(run, group, fn):
    """The CheckResult of check ``fn``, of ``group``, on ``run``, named
    after the function.  A check that raises is recorded as failed with
    the exception text, so the suite never aborts early."""
    try:
        samples, residual, tolerance, detail = fn(run)
    except Exception as exc:  # noqa: BLE001 - the suite must never abort early
        samples, residual, tolerance = 0, np.inf, 0.0
        detail = f"{type(exc).__name__}: {exc}"
    return CheckResult(
        name=fn.__name__.removeprefix("_check_"),
        group=group,
        samples=samples,
        max_residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        detail=detail,
    )


def run_suite(suite="all", samples=1000, seed=1, band=tol.VERDICT_TOL):
    """Run the selected verification suite.

    Returns a JSON-ready dict with one entry per check of the suite, in
    CHECKS order; a check that raises is recorded as failed with the
    exception text, and the remaining checks still run.  The checks share
    one run, built for this call only.  Raises DomainError on an unknown
    suite, a sample count that is not a positive integer, a seed that is
    not an integer in [0, 2^64) or a band outside (0, 1).
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    check_count(samples)
    check_seed(seed)
    check_band(band)  # here, since a check that raises is recorded as failed
    run = _Run(samples, seed, band)
    results = [_run_check(run, group, fn) for group, fn in CHECKS if suite in ("all", group)]
    return {
        "suite": suite,
        "samples": samples,
        "seed": seed,
        "band": band,
        "checks": [r.to_dict() for r in results],
        "passed_count": sum(r.passed for r in results),
        "failed_count": sum(not r.passed for r in results),
        "passed": all(r.passed for r in results),
    }
