"""Fano (Bloch) parameterization of two-qubit states and local unitaries.

A two-qubit density matrix is written as

    rho = (1/4) [ I4 + sum_i a_i s_i(x)I + sum_j b_j I(x)s_j
                  + sum_ij C_ij s_i(x)s_j ]

with real local Bloch vectors a, b and real correlation matrix C.  Qubit A
is always the left (slow) tensor factor.

Both maps read complex matrices as their real and imaginary parts and are
fixed signed gathers, written as products with 0/+-1 selection tables built
once at import.  Every entry of a Pauli product is 0, +-1 or +-i, so every
product of an entry with a coefficient is exact: a sign flip or a zero.
Only the order of the sums decides the bits, and the code fixes it:

* ``to_fano``: coefficient k is the sum of its 4 nonzero terms
  +-Re or +-Im rho[j, i], one per column i of rho, added left to right in
  row-major (i, j) order: ((T0 + T1) + T2) + T3.  Each table product adds
  at most two nonzero terms, and two terms have one rounded sum whatever
  order a BLAS picks, so these are the bits of
  ``einsum("kij,...ji->...k", BASIS, rho).real`` for any complex input,
  Hermitian or not.  One product with all four terms matches only on
  Hermitian input.  An exactly zero sum is +0.0, as the einsum's sum from
  +0.0 gives.
* ``from_fano``: ((I4 + A) + B) + AB, where A, B and AB are the family sums
  sum_k f_k BASIS_F[k].  Each real or imaginary component of a family sum
  has at most 2 nonzero terms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import tolerances as tol
from .linalg4 import (
    I2,
    I4,
    SIGMA,
    dag,
    herm_eigenvalues,
    hermitize,
    tensor_product,
    unitarity_defect,
)
from .linalg4 import _stack_position, _two_qubit

# Precomputed operator stacks: BASIS_A[i] = sigma_i (x) I, BASIS_B[j] = I (x) sigma_j,
# BASIS_AB[i, j] = sigma_i (x) sigma_j.
BASIS_A = np.stack([tensor_product(s, I2) for s in SIGMA])
BASIS_B = np.stack([tensor_product(I2, s) for s in SIGMA])
BASIS_AB = np.stack(
    [[tensor_product(si, sj) for sj in SIGMA] for si in SIGMA]
)
#: All fifteen in one (15, 4, 4) stack: BASIS_A, BASIS_B, then BASIS_AB row by row.
BASIS = np.concatenate([BASIS_A, BASIS_B, BASIS_AB.reshape(9, 4, 4)])


#: rho as 32 reals x (Re, Im of each entry, row-major) gives coefficient k,
#: sum_ij Re(BASIS[k, i, j] rho[j, i]), as x @ _TO_REAL[:, k].
_TO_REAL = np.ascontiguousarray(BASIS.transpose(0, 2, 1).conj()).view(float).reshape(15, 32).T


def _columns(i):
    """The rows of _TO_REAL that read column ``i`` of rho, the others zero."""
    t = np.zeros((4, 4, 2, 15))  # rows of _TO_REAL as (row j, column i, Re/Im)
    t[:, i] = _TO_REAL.reshape(4, 4, 2, 15)[:, i]
    return t.reshape(32, 15)


#: _TO_REAL split by the column i of rho that each real of x lies in: the
#: terms T0 + T1 of columns 0 and 1, then T2 and T3.
_TO_TERMS = (_columns(slice(0, 2)), _columns(2), _columns(3))
#: Family sums as 32 reals: sum_k f_k BASIS_F[k] is f @ _FROM_F.
_FROM_A, _FROM_B, _FROM_AB = (
    family.view(float).reshape(len(family), 32)
    for family in (BASIS_A, BASIS_B, BASIS_AB.reshape(9, 4, 4))
)
_I4_REAL = I4.view(float).reshape(32)


def density_matrix(m):
    """Validate and normalize a candidate density matrix.

    The single positivity gate of the package: Hermiticity within
    HERMITICITY_TOL, unit trace within TRACE_TOL and minimal eigenvalue
    >= -POSITIVITY_TOL.  Returns the Hermitian part as a fresh array.

    Raises DomainError on any violation.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got shape {m.shape}")
    h = hermitize(m)
    tr = np.trace(h).real
    if abs(tr - 1.0) > tol.TRACE_TOL:
        raise DomainError(f"trace {float(tr)!r} deviates from 1 by more than {tol.TRACE_TOL:.1e}")
    w = herm_eigenvalues(m)
    if w[-1] < -tol.POSITIVITY_TOL:
        raise DomainError(
            f"matrix is not positive semidefinite: min eigenvalue {w[-1]:.3e}"
        )
    return h


@dataclass(frozen=True)
class FanoState:
    """Fano coefficients (a, b, C) of a unit-trace Hermitian operator, or of
    a stack of them: a and b of shape (..., 3), C of shape (..., 3, 3)."""

    a: np.ndarray
    b: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.C, dtype=float)
        if a.shape[-1:] != (3,) or b.shape != a.shape or c.shape != a.shape[:-1] + (3, 3):
            raise DomainError(
                "expected a and b of one shape (..., 3) and C of shape (..., 3, 3), "
                f"got {a.shape}, {b.shape} and {c.shape}"
            )
        # One test for the whole stack, which NaN fails: it propagates through
        # the maxima.  sqrt is monotone, so sqrt(max) is the largest norm.
        squares = np.maximum(
            np.einsum("...i,...i->...", a, a), np.einsum("...i,...i->...", b, b)
        )
        bound = 1.0 + tol.FANO_BOUND_TOL
        if not (np.sqrt(np.maximum.reduce(squares, axis=None, initial=0.0)) <= bound
                and np.maximum.reduce(np.abs(c), axis=None, initial=0.0) <= bound):
            _reject(a, b, c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "C", c)


def _reject(a, b, c):
    """Raise the DomainError for coefficients that failed FanoState's bound
    test, naming the first stack index with a non-finite entry, else the
    first out of range."""
    lead = a.shape[:-1]
    finite = np.isfinite(a).all(-1) & np.isfinite(b).all(-1) & np.isfinite(c).all((-2, -1))
    if not finite.all():
        raise DomainError(
            f"Fano coefficients{_stack_position(lead, np.argmin(finite))} "
            "have a non-finite entry"
        )
    bound = 1.0 + tol.FANO_BOUND_TOL
    norm_a = np.sqrt(np.einsum("...i,...i->...", a, a)).reshape(-1)
    norm_b = np.sqrt(np.einsum("...i,...i->...", b, b)).reshape(-1)
    over = (norm_a > bound) | (norm_b > bound)
    if over.any():
        i = np.argmax(over)
        raise DomainError(
            f"Bloch vector norm out of range{_stack_position(lead, i)}: "
            f"|a| = {float(norm_a[i])!r}, |b| = {float(norm_b[i])!r}"
        )
    entry = np.abs(c).reshape(-1, 9).max(axis=1)
    i = np.argmax(entry > bound)
    raise DomainError(
        f"correlation entry out of range{_stack_position(lead, i)}: "
        f"max |C_ij| = {float(entry[i])!r}"
    )


def to_fano(rho):
    """Extract Fano coefficients from a unit-trace Hermitian 4x4 matrix or
    a (..., 4, 4) stack of them.

    a_i = tr(rho s_i(x)I), b_j = tr(rho I(x)s_j), C_ij = tr(rho s_i(x)s_j);
    all are real for Hermitian input.  Raises DomainError naming the shape
    of any input that is not (..., 4, 4).  a, b and C are arrays that own
    their memory: a held FanoState keeps no intermediate alive.
    """
    rho = np.ascontiguousarray(_two_qubit(rho))
    lead = rho.shape[:-2]
    x = rho.reshape(-1, 16).view(float)
    first_two, third, fourth = _TO_TERMS
    # an infinite entry times a zero of the tables is NaN, and FanoState
    # rejects it; like the einsum, the products raise no warning
    with np.errstate(invalid="ignore", over="ignore"):
        v = x.dot(first_two)
        v += x.dot(third)
        v += x.dot(fourth)
    v = v.reshape(*lead, 15)
    # `+ 0.0` copies each part out and makes an exactly zero sum +0.0, as the
    # einsum's sum from +0.0 gives, should a BLAS return it as -0.0
    return FanoState(a=v[..., :3] + 0.0, b=v[..., 3:6] + 0.0,
                     C=(v[..., 6:] + 0.0).reshape(*lead, 3, 3))


def from_fano(f):
    """Reassemble the 4x4 matrix (or the (..., 4, 4) stack) from Fano
    coefficients.

    Positivity is not assumed: any (a, b, C) within the coefficient bounds
    yields a unit-trace Hermitian matrix, not necessarily a state.
    """
    lead = f.a.shape[:-1]
    m = _I4_REAL + f.a.dot(_FROM_A)
    m += f.b.dot(_FROM_B)
    m += f.C.reshape(*lead, 9).dot(_FROM_AB)
    m *= 0.25
    return m.view(complex).reshape(*lead, 4, 4)


def schlienz_mahler(f):
    """Covariance-style correlation matrix M = C - a b^T, shape (..., 3, 3)."""
    return f.C - f.a[..., :, None] * f.b[..., None, :]


@dataclass(frozen=True)
class LocalUnitary:
    """A pair (u, v) of SU(2) factors acting as u (x) v, or a stack of
    pairs: u and v of shape (..., 2, 2)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape[-2:] != (2, 2):
                raise DomainError(f"{name} must be 2x2, got shape {m.shape}")
            with np.errstate(invalid="ignore"):  # a NaN entry is rejected below
                gram, det = (np.reshape(d, -1) for d in unitarity_defect(m))
            bad = ~((gram <= tol.UNITARITY_TOL) & (det <= tol.UNITARITY_TOL))
            if bad.any():
                i = np.argmax(bad)
                raise DomainError(
                    f"{name}{_stack_position(m.shape[:-2], i)} is not special unitary: "
                    f"|u^dag u - I| = {gram[i]:.3e}, |det - 1| = {det[i]:.3e}"
                )
            object.__setattr__(self, name, m)

    def matrix(self):
        """The 4x4 product u (x) v, or the (..., 4, 4) stack of them."""
        return tensor_product(self.u, self.v)


def local_unitary_action(rho, g):
    """Conjugate rho by the local unitary g: (u(x)v) rho (u(x)v)^dag.

    ``rho`` and ``g`` may be stacks whose leading shapes broadcast; each
    conjugation is the same pair of matrix products as a single call."""
    k = g.matrix()
    return k @ np.asarray(rho, dtype=complex) @ dag(k)


def su2_to_so3(u):
    """Rotation matrix R_ij = (1/2) tr(s_i u s_j u^dag) of an SU(2) element,
    or the (..., 3, 3) stack of them for a (..., 2, 2) stack.

    Under conjugation by u the Bloch vector transforms as n -> R n.
    """
    u = np.asarray(u, dtype=complex)
    return 0.5 * np.einsum("iab,...bc,jcd,...ad->...ij", SIGMA, u, SIGMA, u.conj()).real
