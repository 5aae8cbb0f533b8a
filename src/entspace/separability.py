"""Algebraic separability criteria for two-qubit states.

For a two-qubit density matrix rho with partial transpose rho^TB, write
det(x I - rho^TB) = x^4 - x^3 + S2 x^2 - S3 x + S4.  Positivity of the
partial transpose -- and hence separability -- is equivalent to

    0 <= S3(rho^TB) <= 1/16,      0 <= S4(rho^TB) <= 1/256,

and both left-hand sides admit purely invariant-theoretic evaluations:

    S3(rho^TB) = S3(rho) + (1/4) det|C|,
    S4(rho^TB) = S4(rho) + (1/16) det|M|,

with the correlation determinant det|C|, the Schlienz-Mahler determinant
det|M| = det|C| - C112/2 and the degree-(1,1,2) invariant C112.  Both
determinants expand C (or M itself) by C112's cofactors in a fixed order,
with no LAPACK call, so they are exact on entries k/8.  On the chart of
representative states both collapse to short trigonometric polynomials in
the chart coordinates, which this module implements alongside brute-force
routes and a polynomial fitting harness for the quartic table of C112.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, check_band, check_broadcast, require
from . import tolerances as tol
from .chart import (
    _angle_triple,
    _check_angles,
    _checked_spectrum,
    _conjugate,
    a_factor,
    representative_state,  # not called here; the benchmark tracer wraps it
    xyz_from_eigenvalues,
)
from .fano import schlienz_mahler, to_fano
from .linalg4 import char_poly_coeffs, partial_transpose

SEPARABLE = "separable"
ENTANGLED = "entangled"
BOUNDARY = "boundary"

#: Upper bounds attained by the maximally mixed state.
S3_BOUND = 1.0 / 16.0
S4_BOUND = 1.0 / 256.0

#: The Bell state (|00> + |11>)/sqrt(2) as a density matrix.
BELL_PHI_PLUS = 0.5 * np.array(
    [
        [1, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 1],
    ],
    dtype=complex,
)


def werner_state(p):
    """Werner family p |phi+><phi+| + (1-p) I/4.

    PPT (hence separable) exactly for p <= 1/3; the minimal PT eigenvalue
    is (1 - 3p)/4.
    """
    p = float(p)
    if not -1.0 / 3.0 <= p <= 1.0:
        raise DomainError(f"Werner parameter must lie in [-1/3, 1], got {p}")
    return p * BELL_PHI_PLUS + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def s_coeffs_pt(rho):
    """Characteristic coefficients (S2, S3, S4) of the partial transpose."""
    return char_poly_coeffs(partial_transpose(rho))


def verdict_masks(s3, s4, band=tol.VERDICT_TOL):
    """Boolean (separable, entangled, boundary) masks from PT coefficients.

    Separable when both coefficients clear +band, entangled when either
    falls below -band, boundary otherwise.  DomainError unless ``band``
    lies in (0, 1), where the masks cannot overlap, and unless the shapes
    of S3 and S4 broadcast; it also names the first stack index with a
    non-finite coefficient, which no comparison would place under either
    test, so it would read as boundary.
    """
    s3, s4 = np.asarray(s3), np.asarray(s4)
    check_band(band)
    lead = check_broadcast(("S3", s3.shape, 0), ("S4", s4.shape, 0))
    require(np.isfinite(s3) & np.isfinite(s4), lead,
            lambda i, at: f"PT coefficients{at} are not finite")
    separable = (s3 >= band) & (s4 >= band)
    entangled = (s3 < -band) | (s4 < -band)
    boundary = ~(separable | entangled)
    return separable, entangled, boundary


#: Verdict labels indexed by separable + 2 * entangled.
_LABELS = np.array([BOUNDARY, SEPARABLE, ENTANGLED])


def verdict_from_coeffs(s3, s4, band=tol.VERDICT_TOL):
    """Verdict label of verdict_masks(): a string for scalar coefficients,
    a string array of the same shape for arrays."""
    separable, entangled, _ = verdict_masks(s3, s4, band)
    return _LABELS[separable + 2 * entangled]


def ppt_verdict(rho, band=tol.VERDICT_TOL):
    """Separability verdict of a two-qubit state by the PPT criterion.

    A non-finite entry makes S3 or S4 non-finite, so verdict_masks raises
    DomainError for it."""
    _, s3, s4 = s_coeffs_pt(rho)
    return verdict_from_coeffs(s3, s4, band)


#: Cyclic successors i+1 and i+2 (mod 3).
_NEXT1, _NEXT2 = np.array([1, 2, 0]), np.array([2, 0, 1])
#: Row and column indices that gather the four cofactor operands
#: m[i+1, j+1], m[i+2, j+2], m[i+1, j+2] and m[i+2, j+1], each (3, 3) over (i, j).
_COF_ROWS = np.array([_NEXT1, _NEXT2, _NEXT1, _NEXT2])[:, :, None]
_COF_COLS = np.array([_NEXT1, _NEXT2, _NEXT2, _NEXT1])[:, None, :]


def _cofactors(m, rows=_COF_ROWS):
    """Rows of cof(m) of a (..., 3, 3) stack: all three, or row 0 by _COF_ROWS[:, :1]."""
    g = m[..., rows, _COF_COLS]
    return g[..., 0, :, :] * g[..., 1, :, :] - g[..., 2, :, :] * g[..., 3, :, :]


def _det3(m):
    """det m = (m00 cof00 + m01 cof01) + m02 cof02 of a (..., 3, 3) stack."""
    t = m[..., 0, :] * _cofactors(m, _COF_ROWS[:, :1])[..., 0, :]
    return ((t[..., 0] + t[..., 1]) + t[..., 2])[()]


def det_correlation(f):
    """Determinant of C per stacked state: a fixed-order cofactor sum, no LAPACK call."""
    return _det3(f.C)


def det_schlienz_mahler(f):
    """Determinant of the Schlienz-Mahler matrix M = C - a b^T, expanded as C is."""
    return _det3(schlienz_mahler(f))


def quesne_c112(f):
    """The degree-(1,1,2) invariant eps_ijk eps_abc a_i b_a C_jb C_kc = 2 a^T cof(C) b."""
    return 2.0 * np.einsum("...i,...ij,...j->...", f.a, _cofactors(f.C), f.b)[()]


def _chart_angles(alpha3, beta):
    """alpha3 as a float array (...), then beta_1, beta_2, beta_3 of a
    triple or of a (..., 3) stack; DomainError for another beta shape, for
    stack shapes that do not broadcast or for an angle that _check_angles
    rejects."""
    alpha3 = np.asarray(alpha3, dtype=float)
    _check_angles(alpha3[..., None], "alpha3")
    beta = _angle_triple(beta, "beta")
    check_broadcast(("alpha3", alpha3.shape, 0), ("beta", beta.shape, 1))
    return (alpha3, *np.moveaxis(beta, -1, 0))


def p201(alpha3, beta):
    """Closed-form coefficient of z(x^2 + y^2) in det|C| on the chart.

    ``alpha3`` has shape (...) and ``beta`` shape (..., 3), as do the
    arguments of p111, p022 and det_c_closed_form; each value is computed
    elementwise, so a stacked call repeats each single call bit for bit:
    squares are np.square, as a numpy scalar's ``** 2`` calls libm's pow,
    which can round off the product an array's ``** 2`` takes.
    A beta of another shape, or a non-finite angle or one beyond
    chart.ANGLE_LIMIT in alpha3 or beta, raises DomainError, as in every
    chart kernel."""
    alpha3, b1, b2, b3 = _chart_angles(alpha3, beta)
    return 0.25 * np.sin(2 * alpha3) * np.sin(2 * b2) * np.cos(b1) * np.cos(b3)


def p111(alpha3, beta):
    """Closed-form coefficient of x*y*z in det|C| on the chart."""
    alpha3, b1, b2, b3 = _chart_angles(alpha3, beta)
    sa, ca, s1, c1, s2, c2, s3, c3 = (
        np.square(f(t)) for t in (alpha3, b1, b2, b3) for f in (np.sin, np.cos))
    return -(sa * c2 * (c1 + s1 * c3) + ca * s2 * c1 * c3 + s1 * s3 * c2)


def p022(alpha3, beta):
    """Closed-form coefficient of y^2 z^2 in the quartic expansion of C112."""
    alpha3, b1, b2, b3 = _chart_angles(alpha3, beta)
    sa2, ca2 = np.square(np.sin(alpha3)), np.square(np.cos(alpha3))
    bracket = (
        np.cos(2 * (alpha3 - b1))
        + np.cos(2 * (alpha3 + b1))
        + 4 * np.cos(2 * b3) * (np.cos(2 * b2) * (1 - ca2 * np.cos(2 * b1)) + sa2)
        - 4 * sa2 * np.cos(2 * b2)
        + 2 * np.cos(2 * b1)
        - 4
    )
    return 0.125 * ca2 * np.square(np.cos(b1)) * bracket


def det_c_closed_form(s, alpha3, beta):
    """det|C| of the representative state at a chart point, in closed form:
    z * (p201 * (x^2 + y^2) + p111 * x * y); one per point of a stacked
    SimplexPoint with ``alpha3`` (...) and ``beta`` (..., 3), whose stack
    shapes must broadcast (DomainError naming them otherwise)."""
    c201, c111 = p201(alpha3, beta), p111(alpha3, beta)
    check_broadcast(("simplex point", s.shape, 0), ("alpha3", np.shape(alpha3), 0),
                    ("beta", np.shape(beta), 1))
    return s.z * (c201 * (np.square(s.x) + np.square(s.y)) + c111 * s.x * s.y)


#: All degree-4 monomial exponents (i, j, k) in x, y, z, in descending
#: lexicographic order.
MONOMIALS = tuple(
    (i, j, 4 - i - j) for i in range(4, -1, -1) for j in range(4 - i, -1, -1)
)

#: Monomials observed to carry the quartic expansion of C112; the
#: coefficient table is even under z -> -z.
C112_SUPPORT = frozenset(m for m in MONOMIALS if m[2] % 2 == 0)


def _fit_spectra():
    """Deterministic rational interior spectra: strictly decreasing positive
    integer 4-tuples over 20, descending lexicographically."""
    out = []
    n = 20
    for a in range(n, 0, -1):
        for b in range(min(a - 1, n - a), 0, -1):
            for c in range(min(b - 1, n - a - b), 0, -1):
                d = n - a - b - c
                if 0 < d < c:
                    out.append((a / n, b / n, c / n, d / n))
    return tuple(out)


FIT_SPECTRA = _fit_spectra()


@dataclass(frozen=True)
class CoeffTable:
    """The 15 quartic coefficients of C112 on a fixed (alpha, beta) fibre.

    ``values`` follows MONOMIALS order.  ``provenance`` records how the
    table was obtained ("fitted" or "closed-form"); fitted tables must
    reproduce their sample values to FIT_RESIDUAL_TOL.
    """

    values: np.ndarray
    provenance: str
    residual: float = 0.0
    condition: float = float("nan")

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size != len(MONOMIALS):
            raise DomainError(
                f"a coefficient table takes {len(MONOMIALS)} values, got shape {v.shape}"
            )
        object.__setattr__(self, "values", v.reshape(len(MONOMIALS)))
        if self.provenance not in ("fitted", "closed-form"):
            raise DomainError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "fitted" and not self.residual <= tol.FIT_RESIDUAL_TOL:
            raise NumericalError(
                f"fit residual {self.residual:.3e} exceeds {tol.FIT_RESIDUAL_TOL:.1e}"
            )

    def entry(self, monomial):
        monomial = tuple(monomial)
        if monomial not in MONOMIALS:
            raise DomainError(
                f"unknown monomial {monomial}: a monomial is three non-negative "
                "integers summing to 4"
            )
        return float(self.values[MONOMIALS.index(monomial)])

    def support(self):
        """Monomials whose coefficient magnitude exceeds COEFF_EPS."""
        return tuple(m for m, v in zip(MONOMIALS, self.values) if abs(v) > tol.COEFF_EPS)


def _monomial_rows(s):
    """The MONOMIALS of each point of a stacked SimplexPoint of shape (m,),
    one row of scalar products x^i y^j z^k per point: (m, 15)."""
    return np.array(
        [
            [x ** i * y ** j * z ** k for i, j, k in MONOMIALS]
            for x, y, z in zip(s.x, s.y, s.z)
        ]
    )


def _fit_system(spectra):
    """The half of a fit that depends on the grid only: the Vandermonde
    matrix of the grid's simplex coordinates, its pseudo-inverse (numpy's
    default cutoff truncates no singular value below FIT_COND_CAP), its
    condition number and the validated spectra that the representative
    states are built from (read-only arrays)."""
    if len(spectra) < len(MONOMIALS):
        raise DomainError(
            f"need at least {len(MONOMIALS)} grid spectra, got {len(spectra)}"
        )
    s = xyz_from_eigenvalues(np.asarray(spectra, dtype=float))
    v = _monomial_rows(s)
    pinv = np.linalg.pinv(v)
    r = _checked_spectrum(s)
    for a in (v, pinv, r):
        a.setflags(write=False)
    return v, pinv, float(np.linalg.cond(v)), r


#: The system of FIT_SPECTRA, built once, at import.
_FIT_SYSTEM = _fit_system(FIT_SPECTRA)


def fit_c112_coeffs(alpha, beta):
    """Fit the 15 quartic coefficients of C112 at fixed (alpha, beta).

    C112 restricted to the fibre over (alpha, beta) is a homogeneous
    quartic in the simplex coordinates.  The table is the minimum-norm
    least-squares solution of the Vandermonde system over FIT_SPECTRA, a
    deterministic grid of 23 rational interior spectra: one product of the
    C112 targets with the grid matrix's pseudo-inverse, which is built once,
    at import, with the rest of the grid's system.  Per fibre, one A-factor
    conjugates the grid's spectra and the C112 targets follow from one
    stacked to_fano -> quesne_c112 chain.  Raises NumericalError when the
    system is ill-conditioned (condition number above FIT_COND_CAP) or the
    residual exceeds FIT_RESIDUAL_TOL; DomainError unless ``alpha`` and
    ``beta`` are single triples (one fibre per fit).
    """
    shapes = np.shape(alpha), np.shape(beta)
    if shapes != ((3,), (3,)):
        raise DomainError(
            f"a fit takes one alpha and one beta triple, got shapes {shapes[0]} and {shapes[1]}"
        )
    v, pinv, condition, r = _FIT_SYSTEM
    targets = quesne_c112(to_fano(_conjugate(a_factor(alpha, beta), r)))
    if condition > tol.FIT_COND_CAP:
        raise NumericalError(
            f"fit grid is ill-conditioned: cond = {condition:.3e} > "
            f"{tol.FIT_COND_CAP:.1e}"
        )
    coeffs = pinv @ targets
    residual = float(np.max(np.abs(v @ coeffs - targets)))
    return CoeffTable(
        values=coeffs, provenance="fitted", residual=residual, condition=condition
    )


@dataclass(frozen=True)
class SeparabilityReport:
    """Full invariant record of a separability analysis, and the report
    ``check`` prints: its fields, in declaration order.

    ``s*_pt`` are the spectral-route PT coefficients, ``lhs3``/``lhs4`` the
    invariant-route values of the same quantities.  Construction verifies
    the determinant identity det_m = det_c - c112/2 to DET_IDENTITY_TOL.
    """

    verdict: str
    s2_pt: float
    s3_pt: float
    s4_pt: float
    det_c: float
    det_m: float
    c112: float
    lhs3: float
    lhs4: float

    def __post_init__(self):
        gap = abs(self.det_m - (self.det_c - 0.5 * self.c112))
        if not gap <= tol.DET_IDENTITY_TOL:
            raise NumericalError(
                f"det|M| identity violated by {gap:.3e} "
                f"(det_c = {float(self.det_c)!r}, det_m = {float(self.det_m)!r}, "
                f"c112 = {float(self.c112)!r})"
            )


def analyze(rho, band=tol.VERDICT_TOL):
    """Analyze a (validated) two-qubit density matrix.

    Computes the PT characteristic coefficients, the three correlation
    invariants and the dual-route left-hand sides, each quantity once (two
    one-matrix calls give the coefficients of rho and rho^TB), checks the
    routes against each other to DUAL_PATH_TOL and returns a
    SeparabilityReport.  A Fano form ``f`` is analysed as
    ``analyze(from_fano(f))``.  Raises DomainError unless ``rho`` is one
    4x4 matrix and ``band`` lies in (0, 1).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DomainError(f"analyze takes one 4x4 matrix, got shape {rho.shape}")
    f = to_fano(rho)
    _, s3, s4 = char_poly_coeffs(rho)
    s2_pt, s3_pt, s4_pt = char_poly_coeffs(partial_transpose(rho))
    det_c = det_correlation(f)
    det_m = det_schlienz_mahler(f)
    lhs3 = s3 + 0.25 * det_c
    lhs4 = s4 + det_m / 16.0
    d3, d4 = abs(lhs3 - s3_pt), abs(lhs4 - s4_pt)
    if not (d3 <= tol.DUAL_PATH_TOL and d4 <= tol.DUAL_PATH_TOL):  # a NaN route fails
        raise NumericalError(f"inequality routes disagree: |d3| = {d3:.3e}, |d4| = {d4:.3e}")
    return SeparabilityReport(
        s2_pt=s2_pt,
        s3_pt=s3_pt,
        s4_pt=s4_pt,
        det_c=det_c,
        det_m=det_m,
        c112=quesne_c112(f),
        lhs3=lhs3,
        lhs4=lhs4,
        verdict=verdict_from_coeffs(s3_pt, s4_pt, band),
    )
