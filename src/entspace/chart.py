"""Coordinates on the space of two-qubit states.

The spectrum of a density matrix is parameterized by a point (x, y, z) of
a simplex via

    r1 = (1 + x + y + z)/4,   r2 = (1 + x - y - z)/4,
    r3 = (1 - x + y - z)/4,   r4 = (1 - x - y + z)/4,

with r1 >= r2 >= r3 >= r4 >= 0.  The eigenbasis is parameterized by two
triples of angles (alpha, beta), each ranging over the closed l1-ball of
radius 2*pi (a double octahedron), through the commuting-family factors

    A = exp((1/2i) sum_k alpha_k A_k) * exp((1/2i) sum_k beta_k B_k)

with A_k in {X(x)I, I(x)X, X(x)X} and B_k in {Z(x)X, Y(x)Y, X(x)Z}.  A
full SU(4) element additionally carries a local unitary pair and a maximal
torus factor.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_broadcast, first_failure, require, stack_position
from . import tolerances as tol
from .fano import LocalUnitary
from .linalg4 import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _exp_antihermitian,
    dag,
    exp_antihermitian,  # not called here; the benchmark tracer wraps it
    exp_commuting_paulis,
    pauli_tables,
    tensor_product,
)

TWO_PI = 2.0 * np.pi

#: Commuting Pauli words generating the alpha factor.
ALPHA_WORDS = (
    tensor_product(SIGMA_X, I2),
    tensor_product(I2, SIGMA_X),
    tensor_product(SIGMA_X, SIGMA_X),
)
#: Commuting Pauli words generating the beta factor.
BETA_WORDS = (
    tensor_product(SIGMA_Z, SIGMA_X),
    tensor_product(SIGMA_Y, SIGMA_Y),
    tensor_product(SIGMA_X, SIGMA_Z),
)
#: The alpha and beta families, (2, 3, 4, 4), for the series route.
_AB_WORDS = np.array([ALPHA_WORDS, BETA_WORDS])
#: The six words, alpha's then beta's: their rotation product is A.
_AB_TABLES = pauli_tables(ALPHA_WORDS + BETA_WORDS)
#: Diagonal words generating the maximal torus.
TORUS_WORDS = (
    tensor_product(SIGMA_Z, I2),
    tensor_product(I2, SIGMA_Z),
    tensor_product(SIGMA_Z, SIGMA_Z),
)
_TORUS_TABLES = pauli_tables(TORUS_WORDS)


class OctahedronWarning(UserWarning):
    """Angle triple lies outside the closed l1-ball of radius 2*pi."""


class DegenerateSpectrumWarning(UserWarning):
    """Chart point has a (nearly) degenerate spectrum; the chart is not
    one-to-one on this stratum."""


@dataclass(frozen=True)
class SimplexPoint:
    """Coordinates (x, y, z) of an ordered spectrum, or of a stack of
    spectra when x, y and z are arrays whose shapes broadcast to (...)."""

    x: float
    y: float
    z: float

    @property
    def shape(self):
        """The coordinates' stack shape; DomainError if they do not broadcast."""
        return check_broadcast(*((n, np.shape(getattr(self, n)), 0) for n in "xyz"))


@dataclass(frozen=True)
class ChartPoint:
    """A simplex point plus the two octahedron angle triples.

    A stack of points has simplex coordinates of shape (...) and alpha and
    beta of shape (..., 3); a single triple is shared by every point.
    """

    simplex: SimplexPoint
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _angle_triple(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _angle_triple(self.beta, "beta"))


#: Largest angle magnitude accepted: the closed forms add up to four times
#: an angle (2 * (alpha3 + beta1) in p022), which must not overflow.
ANGLE_LIMIT = float(np.finfo(float).max) / 4


def _angle_triple(v, name):
    """``v`` as a float triple or a (..., 3) stack of triples; DomainError
    for another shape (see _check_angles for the values)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise DomainError(f"{name} must be a triple of angles, got shape {v.shape}")
    _check_angles(v, name)
    return v


def _check_angles(v, name):
    """DomainError naming the first stack index of ``v`` (shape (..., k))
    with a non-finite angle or one beyond ANGLE_LIMIT."""
    if np.abs(v).max(initial=0.0) <= ANGLE_LIMIT:  # False for NaN as well
        return
    _check_finite(v, name, "angle")
    require(np.abs(v) <= ANGLE_LIMIT, v.shape[:-1], lambda i, at: (
        f"{name}{at} has an angle beyond {ANGLE_LIMIT!r}, where the closed forms "
        f"overflow: {_row(v, i)}"
    ))


def _check_finite(v, name, noun):
    """DomainError naming the first stack index of ``v`` (shape (..., k))
    whose entries are not all finite."""
    require(np.isfinite(v), v.shape[:-1],
            lambda i, at: f"{name}{at} has a non-finite {noun}: {_row(v, i)}")


def _row(v, i):
    """Entry i of the flattened stack ``v`` (shape (..., k))."""
    return v.reshape(-1, v.shape[-1])[i]


_INEQUALITY_NAMES = ("r1 >= r2", "r2 >= r3", "r3 >= r4", "r4 >= 0")


def _check_spectra(r, kind, where):
    """DomainError unless every spectrum of r, shape (..., 4), is finite,
    ordered and non-negative within SIMPLEX_TOL.  The message names the first
    offending stack index, the first violated inequality there (or that the
    spectrum overflows), and ends with ``where(flat index)``."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed gap is judged as any
        gaps = np.concatenate([r[..., :-1] - r[..., 1:], r[..., 3:]], axis=-1)

    def message(i, at):
        if not np.isfinite(_row(r, i)).all():
            return f"{kind}: the spectrum overflows{at}{where(i)}"
        k = np.argmax(_row(gaps, i) < -tol.SIMPLEX_TOL)
        return f"{kind}: {_INEQUALITY_NAMES[k]} fails by {-_row(gaps, i)[k]:.3e}{at}{where(i)}"

    require(gaps >= -tol.SIMPLEX_TOL, r.shape[:-1], message)


def eigenvalues_from_xyz(s):
    """Ordered spectrum (r1, r2, r3, r4) of a simplex point, shape (4,),
    or of each point of a stack, shape (..., 4).

    Raises DomainError for coordinates whose shapes do not broadcast, for
    a non-finite coordinate, and naming the violated inequality when the
    point lies outside the simplex (ordering or positivity fails by more
    than SIMPLEX_TOL); for a stack the message names the first offending
    index.
    """
    shape = s.shape
    coords = np.array([np.broadcast_to(c, shape) for c in (s.x, s.y, s.z)], dtype=float)
    _check_finite(np.moveaxis(coords, 0, -1), "simplex point", "coordinate")
    x, y, z = coords
    with np.errstate(over="ignore", invalid="ignore"):  # _check_spectra names an overflow
        r = np.array(
            [
                (1.0 + x + y + z) / 4.0,
                (1.0 + x - y - z) / 4.0,
                (1.0 - x + y - z) / 4.0,
                (1.0 - x - y + z) / 4.0,
            ],
            dtype=float,
        )
    r = np.moveaxis(r, 0, -1)
    _check_spectra(
        r, "simplex inequality violated",
        lambda i: " at (x, y, z) = ({}, {}, {})".format(*coords.reshape(3, -1)[:, i]),
    )
    return r


def xyz_from_eigenvalues(r):
    """Simplex coordinates of an ordered unit-sum spectrum, shape (4,), or
    of a (..., 4) stack of them (coordinates of shape (...)).

    The inverse of eigenvalues_from_xyz: x = r1+r2-r3-r4, y = r1-r2+r3-r4,
    z = r1-r2-r3+r4.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] != (4,):
        raise DomainError(f"spectrum must have 4 entries, got shape {r.shape}")
    _check_finite(r, "spectrum", "entry")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan sum fails the gate
        total = r.sum(axis=-1)
    require(np.abs(total - 1.0) <= tol.TRACE_TOL, total.shape, lambda i, at:
            f"spectrum must sum to 1, got {float(np.ravel(total)[i])!r}{at}")
    _check_spectra(r, "spectrum not ordered", lambda i: "")
    r1, r2, r3, r4 = np.moveaxis(r, -1, 0)
    return SimplexPoint(x=r1 + r2 - r3 - r4, y=r1 - r2 + r3 - r4, z=r1 - r2 - r3 + r4)


def in_octahedron(v):
    """Membership in the closed l1-ball of radius 2*pi; one boolean per
    triple of a (..., 3) stack."""
    v = np.abs(np.asarray(v, dtype=float))
    return v[..., 0] + v[..., 1] + v[..., 2] <= TWO_PI + tol.OCTAHEDRON_TOL


def _warn_outside(v, name):
    failure = first_failure(in_octahedron(v), v.shape[:-1])
    if failure:
        i, at = failure
        warnings.warn(
            f"{name}{at} lies outside the closed "
            f"octahedron (l1 norm {np.sum(np.abs(_row(v, i))):.6g} > 2*pi); "
            "the chart wraps around",
            OctahedronWarning,
            stacklevel=3,
        )


def a_factor(alpha, beta, method="closed"):
    """The eigenbasis factor A = exp-alpha-family * exp-beta-family.

    ``alpha`` and ``beta`` are triples or (..., 3) stacks (broadcast
    against each other; DomainError naming both shapes when they do not);
    the result is (4, 4) or (..., 4, 4), and a stacked call repeats each
    single call bit for bit.  ``method`` selects the evaluation route:
    "closed" is one exp_commuting_paulis call, the exact half-angle
    rotation product over alpha's words, then beta's; "series", the
    independent reference, is one exp_antihermitian over both families'
    generator sums, then their product.  The two routes agree to
    EXPM_PATH_TOL and exist for any angles; leaving the double octahedron
    only triggers OctahedronWarning (alpha first, each naming its first
    offending stack index).  The series route's errors (a generator norm
    that overflows, a result that is not finite or not unitary) name alpha
    or beta and the caller's stack index.
    """
    alpha = _angle_triple(alpha, "alpha")
    beta = _angle_triple(beta, "beta")
    lead = check_broadcast(("alpha", alpha.shape, 1), ("beta", beta.shape, 1))
    angles = np.empty(lead + (2, 3))
    angles[..., 0, :] = alpha
    angles[..., 1, :] = beta
    if not in_octahedron(angles).all():
        _warn_outside(alpha, "alpha")
        _warn_outside(beta, "beta")
    if method == "closed":
        return exp_commuting_paulis(angles.reshape(lead + (6,)), _AB_TABLES)
    if method != "series":
        raise DomainError(f"method must be 'closed' or 'series', got {method!r}")
    # -i/2 sum_k t_k P_k of each family, one stacked series exponential;
    # its errors name the family and the caller's stack index
    gen = -0.5j * sum(angles[..., k, None, None] * _AB_WORDS[:, k] for k in range(3))
    families = _exp_antihermitian(
        gen.reshape(-1, 4, 4),
        lambda i: f"the {('alpha', 'beta')[i % 2]} generator"
        f"{stack_position(lead, i // 2)}",
    ).reshape(gen.shape)
    return families[..., 0, :, :] @ families[..., 1, :, :]


def torus_factor(t):
    """Diagonal maximal-torus element with phase pattern
    (t1+t2+t3, t1-t2-t3, -t1+t2-t3, -t1-t2+t3) over the half angles;
    determinant is exactly 1."""
    t = _angle_triple(t, "t")
    return exp_commuting_paulis(t, _TORUS_TABLES)


def spectral_gap(r):
    """Smallest gap between consecutive entries of an ordered spectrum
    (one per spectrum of a (..., d) stack)."""
    r = np.asarray(r, dtype=float)
    gap = r[..., 0] - r[..., 1]
    for k in range(1, r.shape[-1] - 1):
        gap = np.minimum(gap, r[..., k] - r[..., k + 1])
    return gap[()]


def _checked_spectrum(simplex):
    """eigenvalues_from_xyz(simplex), with a DegenerateSpectrumWarning
    naming the first spectrum whose gap is below GENERIC_GAP, where the
    chart stops being one-to-one."""
    r = eigenvalues_from_xyz(simplex)
    failure = first_failure(~(spectral_gap(r) < tol.GENERIC_GAP), r.shape[:-1])
    if failure:
        i, at = failure
        warnings.warn(
            f"degenerate spectrum {tuple(_row(r, i).tolist())}{at}: chart point is non-generic",
            DegenerateSpectrumWarning,
            stacklevel=3,
        )
    return r


def _conjugate(a, r):
    """A diag(r) A^dag for factors ``a`` (..., 4, 4) and spectra ``r``
    (..., 4), broadcast against each other, returned as its Hermitian part
    (M + M^dag)/2, the mean that hermitize forms.  It needs none of
    hermitize's checks for user input: the factors are unitary to rounding
    and the spectra validated, so every entry is bounded by 1.  The mean
    is formed in place, with conj(M) written over A diag(r)."""
    scaled = a * r[..., None, :]
    m = scaled @ dag(a)
    np.conjugate(m, out=scaled)
    m += np.swapaxes(scaled, -1, -2)
    m *= 0.5
    return m


def representative_state(point):
    """Density matrix A diag(r) A^dag of a chart point, (4, 4), or of each
    point of a stacked ChartPoint, (..., 4, 4).

    A stacked call repeats each single call bit for bit.  The result has
    the spectrum prescribed by the simplex point exactly (unitary
    conjugation), so it is positive semidefinite with unit trace by
    construction.  A DegenerateSpectrumWarning, naming the first such
    stack index, is emitted when a spectrum has a gap below GENERIC_GAP,
    where the chart stops being one-to-one.  Stack shapes of the simplex
    point, alpha and beta that do not broadcast raise DomainError naming
    them.
    """
    check_broadcast(("simplex point", point.simplex.shape, 0), ("alpha", point.alpha.shape, 1),
                    ("beta", point.beta.shape, 1))
    r = _checked_spectrum(point.simplex)
    return _conjugate(a_factor(point.alpha, point.beta), r)


def assemble_su4(k, alpha, beta, t):
    """Full SU(4) element (u (x) v) * A(alpha, beta) * T(t).

    ``k`` is a LocalUnitary pair; the result is special unitary to
    UNITARITY_TOL.
    """
    if not isinstance(k, LocalUnitary):
        raise DomainError("k must be a LocalUnitary")
    return k.matrix() @ a_factor(alpha, beta) @ torus_factor(t)
