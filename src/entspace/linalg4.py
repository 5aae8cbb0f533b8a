"""Dense complex linear algebra kernels for 2x2 and 4x4 matrices.

Everything in here is a pure function on numpy arrays.  The eigensolver
and the matrix exponential are written out explicitly (cyclic complex
Jacobi, scaling-and-squaring Taylor) so that their numerical behaviour is
pinned down by this module alone; numpy supplies array arithmetic and
determinants.  The eigensolver takes one matrix or a whole stack, with
elementwise arithmetic only, so a stacked call repeats each single call
bit for bit.
"""

import math
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, check_broadcast, require, stack_position
from . import tolerances as tol

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: The traceless triple sigma_1..sigma_3 as a (3,2,2) stack.
SIGMA = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def dag(m):
    """Conjugate transpose."""
    return np.conj(np.swapaxes(m, -1, -2))


def tensor_product(a, b):
    """Kronecker product a (x) b of two matrices, or of two stacks of them
    (leading axes broadcast; DomainError naming both shapes when they do
    not).

    The first factor is the slow index: row index of the product is
    2*i_a + i_b for 2x2 factors.  Each entry is one complex product
    a[i, j] * b[k, l], the multiply np.kron makes, so a stacked call
    repeats each single call bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_broadcast(("a", a.shape, 2), ("b", b.shape, 2))
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    return product.reshape(*product.shape[:-4], m * p, n * q)


def _square_stack(x):
    """``x`` as a complex (k, n, n) stack with its leading shape; DomainError
    unless it is one square matrix of size n >= 1 or a stack of them with
    finite entries, naming the first stack index with a non-finite entry."""
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or x.shape[-1] == 0:
        raise DomainError(
            f"expected a square matrix of size >= 1 or a stack of them, got shape {x.shape}"
        )
    lead = x.shape[:-2]
    flat = x.reshape(-1, *x.shape[-2:])
    require(np.isfinite(flat), lead, lambda i, at: f"matrix{at} has a non-finite entry")
    return flat, lead


def hermitize(h):
    """Return the Hermitian part (H + H^dag)/2 of an almost-Hermitian H.

    ``h`` is one square matrix or a stack of them, shape (..., d, d).
    Raises DomainError if an entry is not finite or if the anti-Hermitian
    defect max|H - H^dag| exceeds HERMITICITY_TOL; for a stack the message
    names the first offending stack index.  Finite entries beyond half the
    float maximum emit no RuntimeWarning: a defect that overflows raises,
    and a mean that overflows is returned as it comes, not finite.
    """
    h = np.asarray(h, dtype=complex)
    flat, lead = _square_stack(h)
    h_dag = dag(h)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(flat - h_dag.reshape(flat.shape)).max(axis=(1, 2), initial=0.0)
        mean = 0.5 * (h + h_dag)
    require(~(defect > tol.HERMITICITY_TOL), lead, lambda i, at: (
        f"matrix{at} is not Hermitian: "
        f"max|H - H^dag| = {defect[i]:.3e} > {tol.HERMITICITY_TOL:.1e}"
    ))
    return mean


@cache
def _pair_tables(d):
    """The entries above the diagonal of a d x d matrix as one flat index
    p * d + q into its row-major entries, and as the pairs (p, q), both in
    cyclic pair order; built once per d."""
    p, q = np.triu_indices(d, 1)
    return p * d + q, tuple(zip(p.tolist(), q.tolist()))


def _lone_squared_sum(z):
    """sum(z.real ** 2 + z.imag ** 2) for the 1-D z of a lone matrix, on
    Python floats: every square and sum is the IEEE operation the arrays
    take, in the same order.  Not sum() itself, which from Python 3.12
    compensates the rounding of floats."""
    total = 0.0
    for x in z.tolist():
        total += x.real * x.real + x.imag * x.imag
    return total


class _Pivots(NamedTuple):
    """The scalar functions a sweep applies to each matrix: the modulus of
    A[p, q]; the real diagonal entry A[p, p] of a working set, sqrt,
    copysign and the real-to-complex cast of c in the rotation; the count
    of a test's true entries; and the sum of squared moduli over the first
    axis of a complex array, one term at a time."""

    modulus: Callable
    diagonal: Callable
    sqrt: Callable
    copysign: Callable
    cast: Callable
    count: Callable
    squared_sum: Callable


#: A lone matrix's pivots are numpy scalars, and its real pivots Python
#: floats.  Numpy's scalar complex abs is the C hypot that np.hypot calls,
#: math.sqrt is correctly rounded and math.copysign exact, as np.sqrt and
#: np.copysign are, and complex(c) is c + 0j, as np.complex128(c) is: the
#: same bits, each without a ufunc call, and real arithmetic on Python
#: floats is the IEEE arithmetic of numpy's.  A lone test is one bool.
_LONE_PIVOTS = _Pivots(
    lambda z: float(abs(z)),
    lambda work, p: work.item(p, p).real,
    math.sqrt,
    math.copysign,
    complex,
    bool,
    _lone_squared_sum,
)
#: A stack's pivots are arrays.  np.abs of a complex array is not np.hypot
#: bit for bit, so stacks take the modulus from np.hypot.
_STACK_PIVOTS = _Pivots(
    lambda z: np.hypot(z.real, z.imag),
    lambda work, p: work[p, p].real,
    np.sqrt,
    np.copysign,
    np.complex128,
    np.count_nonzero,
    lambda z: sum(z.real ** 2 + z.imag ** 2),
)


def _lone(x):
    """``x`` without its stack axis (the last) when that axis has length 1:
    a lone matrix's (d, d) or (2d, d) view, or its stop as a scalar."""
    return x[..., 0] if x.shape[-1] == 1 else x


def _sweep_view(work):
    """The working set as a sweep reads it, and its pivot functions.  A
    lone matrix is swept on its (d, d) or (2d, d) view with _LONE_PIVOTS,
    Python's scalar functions on numpy scalars: the same IEEE operations in
    the same order as on a length-1 stack, without the cost of length-1
    arrays or of a ufunc call per scalar.  A stack is swept as it is, with
    _STACK_PIVOTS."""
    return _lone(work), _LONE_PIVOTS if work.shape[-1] == 1 else _STACK_PIVOTS


def _entries(work):
    """The entries of each matrix of ``work`` (rows, d[, k]) in row-major
    order: shape (rows * d[, k]), a view."""
    return work.reshape(work.shape[0] * work.shape[1], *work.shape[2:])


def _off_norm(work, flat, pivots):
    """Off-diagonal Frobenius norm of the Hermitian blocks work[:d, :d], one
    per stack index (the last axis), or a scalar for a lone matrix's view.
    ``flat`` indexes the entries above the diagonal among the row-major
    entries of work, in cyclic pair order, in one gather; they are summed
    in that order, so each norm depends on its own matrix only."""
    return pivots.sqrt(2.0 * pivots.squared_sum(_entries(work)[flat]))


def _rotate(work, p, q, apq, mag, pivots):
    """Apply the Jacobi rotation zeroing A[p, q] to every matrix of ``work``.

    ``work`` holds A, or A over V, with the stack axis last: shape (d, d, k)
    or (2d, d, k), so work[:, p] is column p of every matrix and each entry
    is a contiguous run over the stack; a lone matrix's (d, d) or (2d, d)
    view takes the same steps on scalar pivots.  ``apq`` is A[p, q], ``mag``
    its modulus and ``pivots`` the scalar functions for the shape
    (_LONE_PIVOTS or _STACK_PIVOTS), which give the same bits.  The
    rotation J = D R D^dag (R real, D a phase on q) updates columns p and q
    of A (and V); rows p and q of the Hermitian A follow by conjugation,
    and the 2x2 pivot block is set to its diagonalized form.
    """
    d = work.shape[1]
    app = pivots.diagonal(work, p)
    aqq = pivots.diagonal(work, q)
    tau = (aqq - app) / (2.0 * mag)
    # t = sign(tau) / (|tau| + sqrt(1 + tau^2)), and t = 1 at tau = 0: adding
    # 0.0 turns tau = -0 (from aqq = -0, app = +0) into +0 for copysign
    t = pivots.copysign(1.0 / (abs(tau) + pivots.sqrt(1.0 + tau * tau)), tau + 0.0)
    tm = t * mag
    new_pp = app - tm
    new_qq = aqq + tm
    c = 1.0 / pivots.sqrt(1.0 + t * t)
    cs = t * c * (apq / mag)  # s e^{i phi} with s = t c
    c = pivots.cast(c)  # once: the cast each real-by-complex product would make
    col_p = work[:, p]
    col_q = work[:, q]
    new_p = c * col_p - np.conj(cs) * col_q
    new_q = cs * col_p + c * col_q
    work[:, p] = new_p
    work[:, q] = new_q
    np.conjugate(new_p[:d], out=work[p])
    np.conjugate(new_q[:d], out=work[q])
    work[p, p] = new_pp
    work[q, q] = new_qq
    work[p, q] = 0.0
    work[q, p] = 0.0


def _jacobi(h, vectors):
    """The cyclic Jacobi body of herm_eigensystem: (w, v) with v None unless
    ``vectors``.  Without vectors the working set holds A alone; A's
    rotations never read V, so w is the same to the bit either way."""
    a = hermitize(h)
    lead, d = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, d, d)
    k = a.shape[0]
    flat, pairs = _pair_tables(d)
    work = np.empty((2 * d if vectors else d, d, k), dtype=complex)
    work[:d] = a.transpose(1, 2, 0)
    if vectors:
        work[d:] = _real_eye(d)[:, :, None]
    sweep, pivots = _sweep_view(work)
    # entry by entry, row-major
    with np.errstate(over="ignore"):
        fro2 = pivots.squared_sum(_entries(sweep)[: d * d])
    stop = (tol.JACOBI_OFF_TOL * np.maximum(1.0, pivots.sqrt(fro2))).reshape(k)
    # an infinite stop would end the sweeps before any rotation
    require(np.isfinite(stop), lead,
            lambda i, at: f"matrix{at} has a Frobenius norm that overflows")
    active = np.arange(k)
    w = np.empty((k, d))
    v = np.empty((k, d, d), dtype=complex) if vectors else None
    diag = np.arange(d)
    limit = _lone(stop)
    for _ in range(tol.JACOBI_MAX_SWEEPS):
        done = _off_norm(sweep, flat, pivots) <= limit
        finished = pivots.count(done)
        if finished == active.size:
            w[active] = work[diag, diag].real.T
            if vectors:
                v[active] = work[d:].transpose(2, 0, 1)
            break
        if finished:
            retired = work[..., done]
            w[active[done]] = retired[diag, diag].real.T
            if vectors:
                v[active[done]] = retired[d:].transpose(2, 0, 1)
            keep = ~done
            work, active, stop = work[..., keep], active[keep], stop[keep]
            sweep, pivots = _sweep_view(work)
            limit = _lone(stop)
        left, skip = active.size, limit / (d * d)
        for p, q in pairs:
            apq = sweep[p, q]
            mag = pivots.modulus(apq)
            rotate = mag > skip
            rotated = pivots.count(rotate)
            if rotated == left:
                _rotate(sweep, p, q, apq, mag, pivots)
            elif rotated:
                sub = work[..., rotate]
                _rotate(sub, p, q, apq[rotate], mag[rotate], pivots)
                work[..., rotate] = sub
    else:
        raise NumericalError(
            f"Jacobi sweep cap ({tol.JACOBI_MAX_SWEEPS}) reached"
            f"{stack_position(lead, active[0])}, off-diagonal norm "
            f"{_off_norm(work[..., :1], flat, _STACK_PIVOTS)[0]:.3e} > {stop[0]:.3e}"
        )
    if vectors:
        order = np.argsort(-w, axis=1, kind="stable")
        # plain indexing: np.take_along_axis costs more per call
        rows = np.arange(k)[:, None, None]
        v = v[rows, diag[:, None], order[:, None, :]].reshape(*lead, d, d)
    # w in that order to the bit: both sorts are stable, so tied values stay
    # in place, and negation is exact
    w = -np.sort(-w, axis=1, kind="stable")
    return w.reshape(*lead, d), v


def herm_eigensystem(h):
    """Eigenvalues and eigenvectors of Hermitian matrices by cyclic Jacobi.

    One kernel for one matrix and for a stack: every value is computed by
    elementwise operations, so ``herm_eigensystem(hs)[k][i]`` is bit for
    bit ``herm_eigensystem(hs[i])[k]``.  Each matrix sweeps the pairs
    (p, q) in cyclic order until its off-diagonal norm is at most
    JACOBI_OFF_TOL * max(1, |H|_F); a rotation is skipped while |H[p, q]|
    is at most that stop over d^2, and a matrix drops out of the stack at
    the start of the first sweep it no longer needs.  A sweep that starts
    with one matrix left rotates that matrix's (d, d) view, (2d, d) with V,
    on numpy-scalar pivots with Python's scalar functions: numpy's scalar
    complex abs (the C hypot of np.hypot), math.sqrt and math.copysign
    (correctly rounded and exact, as np.sqrt and np.copysign are) and
    complex(c) (c + 0j, the cast of np.complex128), with its real pivots
    and sums of squares as Python floats.  They are the same steps on a
    different shape, without a ufunc call per scalar.  The pair tables are
    built once per d.

    Parameters
    ----------
    h : (..., d, d) array_like, Hermitian within HERMITICITY_TOL.

    Returns
    -------
    w : (..., d) float array, eigenvalues sorted in descending order.
    v : (..., d, d) complex array, unitary; column k is the eigenvector of w[k].

    Raises
    ------
    DomainError from hermitize() on non-finite or non-Hermitian input, and
    naming the first stack index whose Frobenius norm overflows.
    NumericalError naming the first stack index whose off-diagonal norm is
    still above its stop after JACOBI_MAX_SWEEPS sweeps.
    """
    return _jacobi(h, vectors=True)


def herm_eigenvalues(h):
    """Descending eigenvalues of one Hermitian matrix or a (..., d, d)
    stack (cyclic Jacobi; see herm_eigensystem)."""
    return _jacobi(h, vectors=False)[0]


def exp_antihermitian(x):
    """Matrix exponential of an anti-Hermitian X by scaling and squaring,
    for one (n, n) matrix or each matrix of a (..., n, n) stack.

    Each X is halved until |X|_F / 2^s <= EXPM_SCALE_THETA, with its own
    s; the exponential of the scaled matrix is taken as a truncated Taylor
    series of order EXPM_TAYLOR_ORDER (Horner form, in place) over the
    whole stack, and each result is squared its own s times.  Every matrix
    goes through the same matrix products as in a single call, so a
    stacked call repeats each single call bit for bit.  The exponential of
    an anti-Hermitian matrix is unitary.

    Raises DomainError for a non-square or non-finite input, if
    max|X + X^dag| exceeds ANTIHERM_TOL, or if the Frobenius norm of X
    overflows; NumericalError if the result is not finite (the squarings
    of a finite but huge X overflow) or if max|U^dag U - I| exceeds
    UNITARITY_TOL (each squaring about doubles the rounding error, so a
    large enough X loses unitarity long before anything overflows).  For a
    stack the message names the first offending stack index.  No case
    emits a RuntimeWarning.
    """
    flat, lead = _square_stack(x)
    u = _exp_antihermitian(flat, lambda i: f"matrix{stack_position(lead, i)}")
    return u.reshape(*lead, *u.shape[1:])


def _exp_antihermitian(flat, label):
    """The body of exp_antihermitian on a finite (k, n, n) stack; each
    error names the offending matrix by ``label(i)`` of its index i."""
    defect = np.abs(flat + dag(flat)).max(axis=(1, 2), initial=0.0)
    require(~(defect > tol.ANTIHERM_TOL), defect.shape, lambda i, _: (
        f"{label(i)} is not anti-Hermitian: max|X + X^dag| = {defect[i]:.3e}"
    ))
    n = flat.shape[-1]
    eye = np.eye(n, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.sqrt(
            (np.square(flat.real) + np.square(flat.imag)).reshape(len(flat), n * n).sum(axis=1)
        )
    require(np.isfinite(norm), norm.shape,
            lambda i, _: f"{label(i)} has a Frobenius norm that overflows")
    # s = ceil(log2(norm / theta)) exactly: frexp splits norm / theta = m 2^e, 1/2 <= m < 1
    m, e = np.frexp(norm / tol.EXPM_SCALE_THETA)
    s = np.where(norm > tol.EXPM_SCALE_THETA, e - (m == 0.5), 0)
    y = flat / np.ldexp(1.0, s)[:, None, None]
    # Horner evaluation of sum_{k<=order} Y^k / k!, r <- I + (Y r) / k in place
    r = np.empty_like(flat)
    r[:] = eye
    t = np.empty_like(flat)
    for k in range(tol.EXPM_TAYLOR_ORDER, 0, -1):
        np.matmul(y, r, out=t)
        t /= k
        np.add(eye, t, out=r)
    del y, t
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(int(s.max(initial=0))):
            squared = s > step
            q = r[squared]  # one copy, not one per operand
            r[squared] = q @ q
    require(np.isfinite(r), r.shape[:1], lambda i, _: (
        f"exponential of {label(i)} is not finite: its scaling and squaring overflowed"
    ), NumericalError)
    # A rounding error of order eps in the scaled exponential about doubles
    # with each squaring, so after s squarings max|U^dag U - I| is about
    # 2^s eps (2^s eps / 4 measured on 2x2 rotations).  Allowing 16 times
    # that, it can pass UNITARITY_TOL only when 2^s > UNITARITY_TOL / (16 eps),
    # that is s > 14 at UNITARITY_TOL = 1e-10: only those results are
    # measured.  Octahedron angles take s <= 5.
    squarings = np.log2(tol.UNITARITY_TOL / (16 * np.finfo(float).eps))
    (checked,) = np.nonzero(s > squarings)
    if checked.size:
        gram = np.abs(dag(r[checked]) @ r[checked] - eye).max(axis=(1, 2))
        require(~(gram > tol.UNITARITY_TOL), gram.shape, lambda i, _: (
            f"exponential of {label(checked[i])} is not unitary: "
            f"max|U^dag U - I| = {gram[i]:.3e} > {tol.UNITARITY_TOL:.1e} "
            f"after {s[checked[i]]} squarings"
        ), NumericalError)
    return r


class PauliTables(NamedTuple):
    """A family of k real Pauli words, shape (k, n, n), each as the signed
    permutation P[pi(j), j] = v_j.

    The kernel holds the matrices M as a real array with one row per entry
    part (row i, column j, part c), at index (i n + j) 2 + c, followed by
    the same rows of -M.  ``gather[k]`` picks for each row (i, j, c) the
    row (i, pi(j), 1 - c) of the k-th word, of M or of -M, so that it
    reads v_j Im M[i, pi(j)] for c = 0 and -v_j Re M[i, pi(j)] for c = 1.
    ``start`` holds the identity so gathered by the first word, then the
    identity, as (2, n n 2, 1).  ``shape`` is the shape of the words.
    """

    shape: tuple
    gather: np.ndarray
    start: np.ndarray


def pauli_tables(generators):
    """The PauliTables of a family of k words, shape (k, n, n).  DomainError
    for another shape, and naming the first word that is not a real signed
    permutation (one nonzero entry, +1 or -1, in each row and column), such
    as any Pauli word with an odd number of Y factors."""
    words = np.asarray(generators, dtype=complex)
    if words.ndim != 3:
        raise DomainError(f"generators must be one (k, n, n) family, got shape {words.shape}")
    k, n, _ = words.shape
    magnitude = np.abs(words.real)
    signed = (
        ~words.imag.any(axis=(-2, -1))
        & ((magnitude == 0) | (magnitude == 1)).all(axis=(-2, -1))
        & (magnitude.sum(axis=-2) == 1).all(axis=-1)
        & (magnitude.sum(axis=-1) == 1).all(axis=-1)
    )
    require(signed, (k,), lambda i, _: f"generators[{i}] is not a real signed permutation")
    # pi(j) and v_j of each word's column j, as (k, n)
    pi = magnitude.argmax(axis=-2)
    v = words.real.sum(axis=-2)
    # the source of row (i, j, c): row (i, pi(j), 1 - c) of M or of -M
    column = 2 * pi[:, :, None] + [1, 0]
    column += ((v[:, :, None] < 0) != [False, True]) * (2 * n * n)
    gather = (2 * n * np.arange(n)[:, None, None] + column[:, None]).reshape(k, -1)
    # the identity (ones at the real parts of (j, j)) and the identity so
    # gathered by the first word (-v_j at the imaginary parts of (pi(j), j))
    start = np.zeros((2, 2 * n * n, 1))
    start[1, 2 * (n + 1) * np.arange(n)] = 1.0
    start[0, 2 * (n * pi[0] + np.arange(n)) + 1, 0] = -v[0]
    for table in (gather, start):
        table.setflags(write=False)
    return PauliTables(words.shape, gather, start)


#: Matrices that exp_commuting_paulis takes in one pass: its working array,
#: 786 KB for 4 x 4 words, stays in a core's cache.
_EXP_CHUNK = 1024


@cache
def _real_eye(n):
    """The real n x n identity, read-only; built once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def exp_commuting_paulis(angles, tables):
    """The half-angle rotation product I F_1 ... F_k of k real Pauli words,
    F = cos(t/2) I - i sin(t/2) P for each word P and its angle t, taken
    left to right from the identity: exactly exp(sum_k (angles[k]/2i) *
    words[k]) when the words commute, with no series truncation, and the
    chart's A-factor, E_alpha E_beta, on its six words.

    ``tables`` are the PauliTables of the words, shape (k, n, n), built
    once, at import, by pauli_tables, which checks that every word is a
    real Pauli word, a signed permutation P[pi(j), j] = v_j = +-1 (an even
    number of Y factors).  ``angles`` of shape (..., k) give (..., n, n);
    angles that do not broadcast against (k,) raise DomainError.  The
    product with a factor is then, column by column,

        (M F)[:, j] = cos(t/2) M[:, j] - i sin(t/2) v_j M[:, pi(j)],

    one gather and one elementwise update per word over the whole stack
    (in chunks of _EXP_CHUNK), with no matrix product.

    Every nonzero component of the result is the value of these updates,
    and every zero component is +0, whatever the sign of a zero met on the
    way or of a term that underflows.  Every value is computed elementwise,
    so a stacked call repeats each single call bit for bit.
    """
    k, n = tables.shape[:2]
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1:] != (k,):
        try:
            angles = np.broadcast_to(angles, np.broadcast_shapes(angles.shape, (k,)))
        except ValueError:
            raise DomainError(f"angles of shape {angles.shape} do not broadcast "
                              f"against the tables' (k,) = {(k,)}") from None
    lead = angles.shape[:-1]
    size = math.prod(lead)
    half = angles.reshape(size, k) / 2.0
    trig = np.empty((2, size, k))  # sin, then cos
    np.sin(half, out=trig[0])
    np.cos(half, out=trig[1])
    u = np.empty((*lead, n, n), dtype=complex)
    parts = u.view(float).reshape(size, 2 * n * n)
    # rows of the gathered columns, of the product M and of -M, one per
    # entry part, each along the stack: every broadcast of the sines and
    # cosines runs along a row
    step = -(-size // -(-size // _EXP_CHUNK)) if size else 0  # even chunks
    work = np.empty((3, 2 * n * n, step))
    for lo in range(0, size, max(step, 1)):
        chunk = trig[:, lo:lo + step].transpose(2, 0, 1)[:, :, None]  # (k, 2, 1, width)
        width = chunk.shape[-1]
        rows = work if width == step else np.empty((3, 2 * n * n, width))
        gathered, product, negated = rows
        source = rows[1:].reshape(-1, width)  # M, then -M
        np.multiply(tables.start, chunk[0], out=rows[:2])
        np.add(product, gathered, out=product)
        for w in range(1, k):
            np.negative(product, out=negated)
            source.take(tables.gather[w], 0, gathered, "clip")
            rows[:2] *= chunk[w]  # sin v_j M[:, pi(j)] with parts swapped, cos M
            np.add(product, gathered, out=product)
        # every zero component is +0
        np.add(product.T, 0.0, out=parts[lo:lo + width])
    return u


def _two_qubit(x):
    """``x`` as a complex array; DomainError naming its shape unless that
    is (..., 4, 4).  The shape only: entries are not read."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (4, 4):
        raise DomainError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {x.shape}")
    return x


def partial_transpose(rho):
    """Partial transpose on qubit B of a two-qubit operator, or of each
    matrix of a (..., 4, 4) stack.

    B is the right (fast) tensor factor.  The operation is an involution and
    preserves trace and Hermiticity exactly.  The transpose on qubit A is
    the full transpose of this one, ``partial_transpose(rho).swapaxes(-1, -2)``,
    with the same spectrum.
    """
    rho = _two_qubit(rho)
    r = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
    return r.reshape(rho.shape)


def partial_trace(rho):
    """Trace out qubit B of a two-qubit operator or a (..., 4, 4) stack: the
    reduced operator of qubit A, shape (..., 2, 2)."""
    rho = _two_qubit(rho)
    return np.einsum("...ijkj->...ik", rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))


def char_poly_coeffs(h):
    """Elementary symmetric functions (S2, S3, S4) of a Hermitian 4x4 matrix
    or of each matrix of a (..., 4, 4) stack.

    With eigenvalues l_i, the characteristic polynomial is
    det(x I - H) = x^4 - S1 x^3 + S2 x^2 - S3 x + S4.  The coefficients are
    obtained from the power traces p_k = tr(H^k) through Newton's
    identities, so no eigendecomposition is performed.  Each coefficient
    has the leading shape of ``h`` (a scalar for one matrix), and a stacked
    call repeats each single call bit for bit.
    """
    h = _two_qubit(h)
    lead = h.shape[:-2]
    h = h.reshape(-1, 4, 4)
    h2 = h @ h
    p1 = np.einsum("nii->n", h).real
    p2 = np.einsum("nii->n", h2).real
    p3 = np.einsum("nij,nji->n", h2, h).real
    p4 = np.einsum("nij,nji->n", h2, h2).real
    # powers as products, not np.power, whose SIMD loops round differently
    # on different CPUs
    p1_sq = p1 * p1
    s2 = (p1_sq - p2) / 2.0
    s3 = (p1_sq * p1 - 3 * p1 * p2 + 2 * p3) / 6.0
    s4 = (p1_sq * p1_sq - 6 * p1_sq * p2 + 3 * (p2 * p2) + 8 * p1 * p3 - 6 * p4) / 24.0
    return tuple(s.reshape(lead)[()] for s in (s2, s3, s4))


#: Flat indices, into the row-major entries of a 4x4 matrix, of the
#: entries below the diagonal and of their mirror images above it.
_BELOW = np.array([4, 8, 9, 12, 13, 14])
_ABOVE = np.array([1, 2, 6, 3, 7, 11])


def min_eig_certificates(h, threshold):
    """Masks (above, below) that certify where the smallest eigenvalue of a
    Hermitian 4x4 matrix, or of each matrix of a (..., 4, 4) stack, lies
    against +-``threshold`` t >= 0; masks of the leading shape (one bool for
    one matrix).

    Like np.linalg.eigvalsh, the kernel reads the lower triangle and the
    real part of the diagonal only.  With delta = CERTIFICATE_MARGIN *
    max(1, |H|_F), it factors H - (t + delta) I as L D L^H without pivoting:

    - ``above``: every pivot of D is positive, so by Sylvester's law of
      inertia lambda_min > t + delta up to the factorisation's backward
      error, and eigvalsh's lambda_min is above t;
    - ``below``: at the first pivot k that is not positive, the witness
      w = L^-H e_k has fl(w^H H w) plus its rounding bound below
      -(t + delta) w^H w, so its Rayleigh quotient, and eigvalsh's
      lambda_min with it, is below -t.

    Each bound is 1e3 times below delta (see CERTIFICATE_MARGIN in
    tolerances), so a claimed matrix gets the decision of oracle_masks on
    eigvalsh's value; a matrix neither mask claims may lie either way.
    Zero, infinite or NaN pivots, overflow and non-finite entries claim
    nothing and emit no warning.
    """
    h = _two_qubit(h)
    flat = h.reshape(-1, 4, 4)
    above = np.empty(len(flat), dtype=bool)
    below = np.empty(len(flat), dtype=bool)
    for start in range(0, len(flat), _CERTIFICATE_BLOCK):
        block = slice(start, start + _CERTIFICATE_BLOCK)
        above[block], below[block] = _certificates(flat[block], threshold)
    return above.reshape(h.shape[:-2])[()], below.reshape(h.shape[:-2])[()]


#: Matrices per block of min_eig_certificates: its (4, 4, 1024) complex
#: working arrays take 256 kB each.  Whole 4096-matrix chunks took 4 MB
#: of temporaries beside eigvalsh's 0.15 MB, and ran about 20 % slower.
_CERTIFICATE_BLOCK = 1024


def _certificates(flat, threshold):
    """min_eig_certificates on a (k, 4, 4) stack: two (k,) masks."""
    # the Hermitian matrix eigvalsh reads, with the stack axis last
    hl = flat.transpose(1, 2, 0).copy()
    k = hl.shape[-1]
    entries = hl.reshape(16, k)
    with np.errstate(all="ignore"):
        lower = entries[_BELOW]
        entries[_ABOVE] = np.conj(lower)
        entries[::5].imag = 0.0
        re = entries[::5].real
        off2 = (lower.real ** 2 + lower.imag ** 2).sum(axis=0)
        fro = np.sqrt((re * re).sum(axis=0) + 2.0 * off2)
        shift = threshold + tol.CERTIFICATE_MARGIN * np.maximum(1.0, fro)
        # right-looking L D L^H of H - shift I; the updates of the trailing
        # block reach its upper triangle too, which is never read
        work = hl.copy()
        work.reshape(16, k)[::5] -= shift
        pivots = np.empty((4, k))
        columns = []
        for j in range(4):
            pivots[j] = work[j, j].real
            col = work[j + 1:, j]
            columns.append(col / pivots[j])
            work[j + 1:, j + 1:] -= col[:, None] * np.conj(columns[j])
        positive = pivots > 0.0
        above = positive.all(axis=0)
        # w solves L^H w = e_k by back substitution, on the columns of L
        # before pivot k (the later ones are zeroed): w_k = 1, w_i = 0 for i > k
        factored = np.logical_and.accumulate(positive, axis=0)
        w = np.zeros((4, k), dtype=complex)
        w[np.argmin(positive, axis=0), np.arange(k)] = 1.0
        for i in (2, 1, 0):
            l_col = np.where(factored[i], columns[i], 0.0)
            w[i] -= (np.conj(l_col) * w[i + 1:]).sum(axis=0)
        hw = hl[:, 0] * w[0] + hl[:, 1] * w[1] + hl[:, 2] * w[2] + hl[:, 3] * w[3]
        rayleigh = (np.conj(w) * hw).real.sum(axis=0)
        norm2 = (w.real ** 2 + w.imag ** 2).sum(axis=0)
        below = rayleigh < -(shift + tol.RAYLEIGH_ROUNDING * fro) * norm2
    return above, below


def unitarity_defect(u):
    """Return (max|U^dag U - I|, |det U - 1|) of one matrix, or the two
    per-matrix arrays, each of the leading shape, for a (..., n, n) stack.
    A matrix with a NaN entry has NaN defects, with no RuntimeWarning."""
    u = np.asarray(u, dtype=complex)
    with np.errstate(invalid="ignore"):
        gram = np.abs(dag(u) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))
        det = np.abs(np.linalg.det(u) - 1.0)
    return gram[()], det[()]
