"""Fano (Bloch) parameterization of two-qubit states and local unitaries.

A two-qubit density matrix is written as

    rho = (1/4) [ I4 + sum_i a_i s_i(x)I + sum_j b_j I(x)s_j
                  + sum_ij C_ij s_i(x)s_j ]

with real local Bloch vectors a, b and real correlation matrix C.  Qubit A
is always the left (slow) tensor factor.
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
from .linalg4 import _stack_position

# Precomputed operator stacks: BASIS_A[i] = sigma_i (x) I, BASIS_B[j] = I (x) sigma_j,
# BASIS_AB[i, j] = sigma_i (x) sigma_j.
BASIS_A = np.stack([tensor_product(s, I2) for s in SIGMA])
BASIS_B = np.stack([tensor_product(I2, s) for s in SIGMA])
BASIS_AB = np.stack(
    [[tensor_product(si, sj) for sj in SIGMA] for si in SIGMA]
)
#: All fifteen in one (15, 4, 4) stack: BASIS_A, BASIS_B, then BASIS_AB row by row.
BASIS = np.concatenate([BASIS_A, BASIS_B, BASIS_AB.reshape(9, 4, 4)])


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
        raise DomainError(f"trace {tr!r} deviates from 1 by more than {tol.TRACE_TOL:.1e}")
    w = herm_eigenvalues(h)
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
        lead = a.shape[:-1]
        a = a.reshape(*lead, 3)
        b = np.asarray(self.b, dtype=float).reshape(*lead, 3)
        c = np.asarray(self.C, dtype=float).reshape(*lead, 3, 3)
        bound = 1.0 + tol.FANO_BOUND_TOL
        norm_a = np.sqrt(np.einsum("...i,...i->...", a, a)).reshape(-1)
        norm_b = np.sqrt(np.einsum("...i,...i->...", b, b)).reshape(-1)
        entry = np.abs(c).reshape(-1, 9).max(axis=1)
        nan = np.isnan(norm_a + norm_b + entry)  # a NaN passes no `> bound` test
        if nan.any():
            raise DomainError(
                f"Fano coefficients{_stack_position(lead, np.argmax(nan))} "
                "have a non-finite entry"
            )
        over = (norm_a > bound) | (norm_b > bound)
        if over.any():
            i = np.argmax(over)
            raise DomainError(
                f"Bloch vector norm out of range{_stack_position(lead, i)}: "
                f"|a| = {norm_a[i]:.6f}, |b| = {norm_b[i]:.6f}"
            )
        over = entry > bound
        if over.any():
            i = np.argmax(over)
            raise DomainError(
                f"correlation entry out of range{_stack_position(lead, i)}: "
                f"max |C_ij| = {entry[i]:.6f}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "C", c)


def to_fano(rho):
    """Extract Fano coefficients from a unit-trace Hermitian 4x4 matrix or
    a (..., 4, 4) stack of them.

    a_i = tr(rho s_i(x)I), b_j = tr(rho I(x)s_j), C_ij = tr(rho s_i(x)s_j);
    all are real for Hermitian input.  a, b and C are copies that own their
    memory: a held FanoState keeps no complex intermediate alive.
    """
    rho = np.asarray(rho, dtype=complex)
    v = np.einsum("kij,...ji->...k", BASIS, rho).real
    return FanoState(a=v[..., :3].copy(), b=v[..., 3:6].copy(), C=v[..., 6:].copy())


def from_fano(f):
    """Reassemble the 4x4 matrix (or the (..., 4, 4) stack) from Fano
    coefficients.

    Positivity is not assumed: any (a, b, C) within the coefficient bounds
    yields a unit-trace Hermitian matrix, not necessarily a state.
    """
    m = I4 + np.einsum("...k,kij->...ij", f.a, BASIS_A)
    m = m + np.einsum("...k,kij->...ij", f.b, BASIS_B)
    m = m + np.einsum("...kl,klij->...ij", f.C, BASIS_AB)
    return 0.25 * m


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
