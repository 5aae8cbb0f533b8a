"""Dense linear algebra kernels for 2x2 and 4x4 matrices.

Everything in here is a pure function on numpy arrays.  The eigensolver
and the matrix exponential are written out explicitly (cyclic Jacobi on
entry rows, scaling-and-squaring Taylor) so that their numerical behaviour
is pinned down by this module alone.  The eigensolver and the scan's
kernels work on a Hermitian matrix's entry rows (_entry_rows: its diagonal,
then the real and the imaginary parts of its lower triangle), one matrix as
Python floats or a whole stack as stack-last rows, with real elementwise
arithmetic only, so a stacked call repeats each single call bit for bit.
"""

import math
from functools import cache
from typing import NamedTuple

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
    """The entry rows of a d x d Hermitian matrix and its Jacobi pairs, built once per d.

    A matrix is n = d^2 real rows: its d diagonal entries, the real parts of its lower
    triangle row by row, then their imaginary parts.  Returns (real, imag, pairs): the
    row-major flat indices that the real and the imaginary rows read, and each pivot
    p < q in cyclic order as (p, q, the rows x and y of A[q, p] = x + iy, others): for
    each i other than p and q, the real and imaginary rows of A[i, p] and of A[i, q]
    and whether each lies above the diagonal, where its row holds the conjugate's.
    """
    lower = [(i, j) for i in range(d) for j in range(i)]
    row = {e: d + t for t, e in enumerate(lower)}

    def entry(i, j):
        r = row[max(i, j), min(i, j)]
        return r, r + len(lower), i < j

    pairs = tuple(
        (p, q, row[q, p], row[q, p] + len(lower),
         tuple(entry(i, p) + entry(i, q) for i in range(d) if i not in (p, q)))
        for p in range(d) for q in range(p + 1, d)
    )
    imag = [i * d + j for i, j in lower]
    return [i * (d + 1) for i in range(d)] + imag, imag, pairs


#: The modulus of x + iy, math.sqrt or np.sqrt, copysign and max(1, x) as one
#: matrix takes them on Python floats and a stack on its (k,) rows.  abs of a
#: complex is the C hypot that np.hypot calls, both square roots are correctly
#: rounded and copysign and the maximum are exact, so each pair gives one bit
#: pattern; a lone matrix so makes no ufunc call per scalar.
_FLOAT_OPS = (lambda x, y: abs(complex(x, y)), math.sqrt, math.copysign,
              lambda x: max(x, 1.0))  # x first: NaN stays NaN, as np.maximum keeps it
_ROW_OPS = (np.hypot, np.sqrt, np.copysign, lambda x: np.maximum(1.0, x))


def _off_squares(a, pairs):
    """The sum of x^2 + y^2 over the pairs' entries A[q, p] = x + iy of the
    rows ``a``, from +0.0 in cyclic pair order: floats or (k,) rows."""
    total = 0.0
    for _, _, x, y, _ in pairs:
        total = total + (a[x] * a[x] + a[y] * a[y])
    return total


def _turn(c, ur, ui, a, b, g, h):
    """The parts of c z - conj(u) z' and u z + c z', z = a + ib and z' = g + ih
    the entries of columns p and q in one row of A or V, u = ur + i ui: the
    columns of A J or V J for the rotation J[p, p] = J[q, q] = c, J[p, q] = u,
    J[q, p] = -conj(u).  Real + - * only, each in its written order."""
    return (c * a - (ur * g + ui * h), c * b - (ur * h - ui * g),
            (ur * a - ui * b) + c * g, (ur * b + ui * a) + c * h)


def _rotate(a, v, pair, mag, ops):
    """Apply the Jacobi rotation of ``pair`` that zeroes A[p, q] to the entry
    rows ``a`` and the eigenvector columns ``v`` (None without vectors) of one
    matrix or of a stack; ``mag`` is |A[p, q]| and ``ops`` its _FLOAT_OPS or
    _ROW_OPS.

    ``a`` is a list of one matrix's floats or of a stack's (k,) rows, and
    v[col] = [Re, Im] a list of the column's d floats or its (d, k) parts.
    The same IEEE operations run in the same order on either, and every
    entry that changes is replaced, never written into.  The pivots become
    their diagonalized pair, A[q, p] is zeroed, A[i, p] and A[i, q] turn for
    every other i (the rows above the diagonal, A[i, p] = conj(A[p, i]), by
    a sign), and V's columns p and q turn whole.
    """
    p, q, x, y, others = pair
    sqrt, copysign = ops[1:3]
    app, aqq = a[p], a[q]
    tau = (aqq - app) / (2.0 * mag)
    # t = sign(tau) / (|tau| + sqrt(1 + tau^2)), and t = 1 at tau = 0: adding
    # 0.0 turns tau = -0 (from aqq = -0, app = +0) into +0 for copysign
    t = copysign(1.0 / (abs(tau) + sqrt(1.0 + tau * tau)), tau + 0.0)
    tm = t * mag
    a[p], a[q] = app - tm, aqq + tm
    c = 1.0 / sqrt(1.0 + t * t)
    s = t * c
    # u = s A[p, q] / |A[p, q]|, with A[p, q] = x - iy
    ur, ui = s * (a[x] / mag), -(s * (a[y] / mag))
    a[x] = a[y] = 0.0 * mag  # +0.0, a row on a stack
    for rp, ip, above_p, rq, iq, above_q in others:
        zp, zq = a[ip], a[iq]
        re_p, im_p, re_q, im_q = _turn(c, ur, ui, a[rp], -zp if above_p else zp,
                                       a[rq], -zq if above_q else zq)
        a[rp], a[ip] = re_p, -im_p if above_p else im_p
        a[rq], a[iq] = re_q, -im_q if above_q else im_q
    if v is not None:
        vp, vq = v[p], v[q]
        if isinstance(c, float):
            for r in range(len(vp[0])):
                vp[0][r], vp[1][r], vq[0][r], vq[1][r] = _turn(
                    c, ur, ui, vp[0][r], vp[1][r], vq[0][r], vq[1][r])
        else:
            vp[0], vp[1], vq[0], vq[1] = _turn(c, ur, ui, *vp, *vq)


def _row_jacobi(rows, lead, vectors):
    """The cyclic Jacobi body of herm_eigensystem on entry rows, which it
    leaves as they are: one matrix's n floats, or the (n, k) rows of a stack
    of leading shape ``lead``.  Returns (w, v), v None unless ``vectors``;
    A's rotations never read V, so w is the same to the bit either way.  A
    stack is swept on its rows with _ROW_OPS while more than one matrix is
    left, and a lone matrix on Python floats with _FLOAT_OPS."""
    lone = isinstance(rows, list)
    n, k = (len(rows), 1) if lone else rows.shape
    d = math.isqrt(n)
    pairs = _pair_tables(d)[2]
    a, v, w, vs = list(rows), None, np.empty((k, d)), None
    if vectors:
        eye = np.zeros((d, 2, d, k))
        eye[range(d), 0, range(d)] = 1.0
        v = eye[..., 0].tolist() if lone else [list(col) for col in eye]
        vs = np.empty((k, d, d), dtype=complex)
    ops = _FLOAT_OPS if lone else _ROW_OPS
    with np.errstate(over="ignore"):
        fro2 = 0.0
        for j in range(d):
            fro2 = fro2 + a[j] * a[j]
        stop = tol.JACOBI_OFF_TOL * ops[3](ops[1](fro2 + 2.0 * _off_squares(a, pairs)))
    # an infinite stop would end the sweeps before any rotation
    require(np.isfinite(stop), lead,
            lambda i, at: f"matrix{at} has a Frobenius norm that overflows")
    active = np.arange(k)
    for _ in range(tol.JACOBI_MAX_SWEEPS):
        if not lone and active.size == 1:
            a, stop, lone, ops = np.array(a)[:, 0].tolist(), float(stop[0]), True, _FLOAT_OPS
            v = np.array(v)[..., 0].tolist() if vectors else None
        done = ops[1](2.0 * _off_squares(a, pairs)) <= stop
        finished = np.count_nonzero(done)
        if finished:  # the (d, j) diagonals and (d, 2, d, j) columns of the retired
            diagonal = np.array(a[:d]).reshape(d, -1)
            columns = np.array(v).reshape(d, 2, d, -1) if vectors else None
            retired = active if lone else active[done]
            if finished < active.size:
                diagonal, columns = diagonal[:, done], columns[..., done] if vectors else None
            w[retired] = diagonal.T
            if vectors:
                vs.real[retired], vs.imag[retired] = columns.transpose(1, 3, 2, 0)
        if finished == active.size:
            break
        if finished:
            keep = ~done
            a, active, stop = [r[keep] for r in a], active[keep], stop[keep]
            v = [[part[:, keep] for part in col] for col in v] if vectors else None
        skip = stop / (d * d)
        for pair in pairs:
            mag = ops[0](a[pair[2]], a[pair[3]])
            if lone:
                if mag > skip:
                    _rotate(a, v, pair, mag, ops)
                continue
            rotate = mag > skip
            rotated = np.count_nonzero(rotate)
            if rotated == active.size:
                _rotate(a, v, pair, mag, ops)
            elif rotated:
                # all turn, with |A[p, q]| floored at the skip so that none overflows,
                # and those that skip get back every entry it replaced
                saved = [(a, list(a))] + [(col, list(col)) for col in v or ()]
                _rotate(a, v, pair, np.maximum(mag, skip), ops)
                for new, old in saved:
                    for r, entry in enumerate(old):
                        if new[r] is not entry:
                            new[r] = np.where(rotate, new[r], entry)
    else:
        off = ops[1](2.0 * _off_squares(a, pairs))
        raise NumericalError(
            f"Jacobi sweep cap ({tol.JACOBI_MAX_SWEEPS}) reached"
            f"{stack_position(lead, active[0])}, off-diagonal norm "
            f"{off if lone else off[0]:.3e} > {stop if lone else stop[0]:.3e}"
        )
    if vectors:
        order = np.argsort(-w, axis=1, kind="stable")
        # plain indexing: np.take_along_axis costs more per call
        diag = np.arange(d)
        vs = vs[np.arange(k)[:, None, None], diag[:, None], order[:, None, :]].reshape(*lead, d, d)
    # w in that order to the bit: both sorts are stable, so tied values stay
    # in place, and negation is exact
    w = -np.sort(-w, axis=1, kind="stable")
    return w.reshape(*lead, d), vs


def _jacobi(h, vectors):
    """_row_jacobi of the entry rows of hermitize(h)."""
    a = hermitize(h)
    lead, d = a.shape[:-2], a.shape[-1]
    return _row_jacobi(_entry_rows(a.reshape(-1, d, d) if lead else a), lead, vectors)


def _row_spectra(rows):
    """herm_eigenvalues(_hermitian(rows)) to the bit, taken on the (16, k)
    entry rows ``rows`` themselves, which it leaves as they are: the rows of an
    exactly Hermitian matrix are those of its hermitize mean, and the same
    DomainError names the first matrix with a non-finite entry."""
    require(np.isfinite(rows).all(axis=0), rows.shape[1:],
            lambda i, at: f"matrix{at} has a non-finite entry")
    return _row_jacobi(rows, rows.shape[1:], False)[0]


def herm_eigensystem(h):
    """Eigenvalues and eigenvectors of Hermitian matrices by cyclic Jacobi.

    One kernel for one matrix and for a stack: every value is computed by
    elementwise operations, so ``herm_eigensystem(hs)[k][i]`` is bit for
    bit ``herm_eigensystem(hs[i])[k]``.  The matrices of hermitize(h) are
    taken as entry rows (_pair_tables: the diagonal, then the real and the
    imaginary parts of the lower triangle), and each rotation is written
    out in real + - * / with sqrt, hypot and copysign, in a fixed order,
    on those rows (_rotate): no complex arithmetic, whose multiply numpy
    may fuse on some CPUs.  Each matrix sweeps the pairs (p, q) in cyclic
    order until its off-diagonal norm is at most JACOBI_OFF_TOL *
    max(1, |H|_F); a rotation is skipped while |H[p, q]| is at most that
    stop over d^2, and a matrix drops out of the stack at the start of the
    first sweep it no longer needs.  A stack is swept on (k,) rows, one
    matrix (a lone call, or the last of a stack) on Python floats: the same
    steps on a different shape, without a ufunc call per scalar.  The
    eigenvectors' columns turn as their real and imaginary (d, k) parts.

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


#: Each squaring about doubles a rounding error of order eps, so after s
#: squarings max|U^dag U - I| is about 2^s eps (2^s eps / 4 on 2x2 rotations).
#: At 16 times that it can pass UNITARITY_TOL only if 2^s > UNITARITY_TOL /
#: (16 eps), s > 14 at 1e-10: only those results are measured.  Octahedron
#: angles take s <= 5.
_CHECKED_SQUARINGS = math.log2(tol.UNITARITY_TOL / (16 * np.finfo(float).eps))


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
    (checked,) = np.nonzero(s > _CHECKED_SQUARINGS)
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
    so a stacked call repeats each single call bit for bit.  The result is
    the complex transpose of _exp_parts, with its bytes.
    """
    parts = _exp_parts(angles, tables)
    n = tables.shape[1]
    flat = np.ascontiguousarray(parts.reshape(len(parts), -1).T)
    return flat.view(complex).reshape(*parts.shape[1:], n, n)


def _exp_parts(angles, tables):
    """The (2 n^2, ...) rows of exp_commuting_paulis(angles, tables), stack-last: row
    2 (n i + j) + c holds the real (c = 0) or imaginary (c = 1) part of entry (i, j)."""
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
    half = angles.reshape(size, k).T / 2.0
    trig = np.empty((2, k, size))  # sin, then cos, of each word's angles
    np.sin(half, out=trig[0])
    np.cos(half, out=trig[1])
    parts = np.empty((2 * n * n, size))
    # rows of the gathered columns, of the product M and of -M, one per
    # entry part, each along the stack: every broadcast of the sines and
    # cosines runs along a row, and reads them contiguously
    step = -(-size // -(-size // _EXP_CHUNK)) if size else 0  # even chunks
    work = np.empty((3, 2 * n * n, step))
    for lo in range(0, size, max(step, 1)):
        chunk = trig[:, :, None, lo:lo + step]  # (2, k, 1, width)
        width = chunk.shape[-1]
        rows = work if width == step else np.empty((3, 2 * n * n, width))
        gathered, product, negated = rows
        source = rows[1:].reshape(-1, width)  # M, then -M
        np.multiply(tables.start, chunk[:, 0], out=rows[:2])
        np.add(product, gathered, out=product)
        for w in range(1, k):
            np.negative(product, out=negated)
            source.take(tables.gather[w], 0, gathered, "clip")
            rows[:2] *= chunk[:, w]  # sin v_j M[:, pi(j)] with parts swapped, cos M
            np.add(product, gathered, out=product)
        # every zero component is +0
        np.add(product, 0.0, out=parts[:, lo:lo + width])
    return parts.reshape(2 * n * n, *lead)


def _two_qubit(x):
    """``x`` as a complex array; DomainError naming its shape unless that
    is (..., 4, 4).  The shape only: entries are not read."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (4, 4):
        raise DomainError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {x.shape}")
    return x


#: Flat indices, into the row-major entries of a 4x4 matrix, of the diagonal
#: and the entries below it (whose real parts entry rows 0..9 hold), and of
#: the entries below the diagonal and their mirror images above it.
_REAL_ROWS = _pair_tables(4)[0]  # [0, 5, 10, 15, 4, 8, 9, 12, 13, 14]
_BELOW, _ABOVE = np.array(_REAL_ROWS[4:]), np.array([1, 2, 6, 3, 7, 11])


def _entry_rows(h):
    """The real parts of the diagonal and the lower triangle, then the imaginary parts of the
    lower triangle (_pair_tables), of a d x d matrix as floats or of a stack as (d^2, k) rows."""
    d = h.shape[-1]
    real, imag, _ = _pair_tables(d)
    if h.ndim == 2:
        z = h.ravel().tolist()
        return [z[i].real for i in real] + [z[i].imag for i in imag]
    e = h.reshape(-1, d * d).T
    return np.concatenate((e.real[real], e.imag[imag]))


def _hermitian(rows):
    """The complex matrix of one matrix's 16 entry rows, (4, 4), or of each of a stack's
    (16, ...) rows, (..., 4, 4): one gather from 0.0, the rows and their six imaginary
    rows negated, as np.conj negates them."""
    if np.ndim(rows) == 1:
        v = np.array([0.0, *rows, *(-x for x in rows[10:])])
    else:
        v = np.empty((*rows.shape[1:], 23))
        v[..., 0] = 0.0
        v[..., 1:17] = np.moveaxis(rows, 0, -1)
        np.negative(np.moveaxis(rows[10:], 0, -1), out=v[..., 17:])
    return v.take(_GATHER, axis=-1).view(complex)[..., 0]


#: The (4, 4, 2) positions that _hermitian gathers each entry's real and imaginary part from.
_GATHER = np.zeros((16, 2), dtype=np.intp)
_GATHER[_REAL_ROWS, 0] = np.arange(1, 11)
_GATHER[_ABOVE, 0] = _GATHER[_BELOW, 0]
_GATHER[_BELOW, 1], _GATHER[_ABOVE, 1] = np.arange(11, 17), np.arange(17, 23)
_GATHER = _GATHER.reshape(4, 4, 2)


def partial_transpose(rho):
    """Partial transpose on qubit B of a two-qubit operator, or of each
    matrix of a (..., 4, 4) stack.

    B is the right (fast) tensor factor.  The operation is an involution and
    preserves trace and Hermiticity exactly.  The transpose on qubit A is
    the full transpose of this one, ``partial_transpose(rho).swapaxes(-1, -2)``,
    with the same spectrum; _PT_ROWS and _PT_FLIPS map entry rows alike.
    """
    rho = _two_qubit(rho)
    r = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
    return r.reshape(rho.shape)


#: partial_transpose on entry rows, read off rows 1..16: rows[_PT_ROWS], then _PT_FLIPS negated
_PT_ROWS = np.array(_entry_rows(partial_transpose(_hermitian(np.arange(1.0, 17.0)))))
_PT_ROWS, _PT_FLIPS = np.abs(_PT_ROWS).astype(int) - 1, np.flatnonzero(_PT_ROWS < 0)


def _pt_rows(rows):
    """The (16, k) entry rows of the partial transposes of the matrices of ``rows`` (or the
    (16,) rows of one), new: one gather and one negation, the bytes of
    _entry_rows(partial_transpose(_hermitian(rows)))."""
    pts = rows[_PT_ROWS]
    pts[_PT_FLIPS] *= -1.0
    return pts


def partial_trace(rho):
    """Trace out qubit B of a two-qubit operator or a (..., 4, 4) stack: the
    reduced operator of qubit A, shape (..., 2, 2)."""
    rho = _two_qubit(rho)
    return np.einsum("...ijkj->...ik", rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))


def _gram(g, h=None):
    """Yield the entry rows of G H^dag (H = G by default), G and H 4x4 tables of (Re, Im)
    pairs of (k,) rows or floats: each entry (q, p), q >= p, sums G[q, k] conj(H[p, k])
    from +0.0, k = 0..3.  Rows broadcast as numpy broadcasts them, and floats give the
    bits of their stacked rows, so one matrix and a stack share this body."""
    h = g if h is None else h
    for n, f in enumerate(_REAL_ROWS + _REAL_ROWS[4:]):
        s = 0.0
        for (w, x), (y, z) in zip(g[f // 4], h[f % 4]):
            s += w * y + x * z if n < 10 else x * y - w * z
        yield s


def _s_coeffs(r):
    """(S2, S3, S4) of the Hermitian H of the entry rows ``r``, (k,) rows or
    one matrix's floats, by the same IEEE + - * / in the same order: H^2 =
    H H^dag by _gram, then p1..p4 = tr H, tr H^2, tr H^2 H, tr H^2 H^2 from
    +0.0 in written order, and Newton's identities (no np.power, see below)."""
    h = [[(r[p], 0.0) if q == p else None for q in range(4)] for p in range(4)]
    for t, f in enumerate(_BELOW.tolist()):  # h[q][p] = (Re, Im) of H[q, p]
        h[f // 4][f % 4], h[f % 4][f // 4] = (r[4 + t], r[10 + t]), (r[4 + t], -r[10 + t])
    h2 = list(_gram(h))
    p1 = p2 = p3 = p4 = u = v = 0.0
    for p in range(4):
        p1, p2, p3, p4 = p1 + r[p], p2 + h2[p], p3 + h2[p] * r[p], p4 + h2[p] * h2[p]
    for a, b, c, e in zip(h2[4:10], h2[10:], r[4:10], r[10:]):  # (Re, Im) of H^2, H
        u, v = u + (a * c + b * e), v + (a * a + b * b)  # each counts twice
    p3, p4 = p3 + 2.0 * u, p4 + 2.0 * v
    p1_sq = p1 * p1  # powers as products: np.power's SIMD loops round by CPU
    s2 = (p1_sq - p2) / 2.0
    s3 = (p1_sq * p1 - 3 * p1 * p2 + 2 * p3) / 6.0
    s4 = (p1_sq * p1_sq - 6 * p1_sq * p2 + 3 * (p2 * p2) + 8 * p1 * p3 - 6 * p4) / 24.0
    return s2, s3, s4


def char_poly_coeffs(h):
    """Elementary symmetric functions (S2, S3, S4) of a Hermitian 4x4 matrix
    or of each matrix of a (..., 4, 4) stack.

    With eigenvalues l_i, the characteristic polynomial is
    det(x I - H) = x^4 - S1 x^3 + S2 x^2 - S3 x + S4.  The coefficients are
    obtained from the power traces p_k = tr(H^k) through Newton's
    identities by _s_coeffs, which reads the lower triangle and the real
    diagonal, with no eigendecomposition or BLAS call.  Each coefficient has
    the leading shape of ``h`` (a scalar for one matrix, its stack row's bits).
    """
    h = _two_qubit(h)
    if h.ndim == 2:  # floats, which overflow to inf or NaN with no warning
        return tuple(np.float64(s) for s in _s_coeffs(_entry_rows(h)))
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(s.reshape(h.shape[:-2]) for s in _s_coeffs(_entry_rows(h)))


def _pt_newton(t, s2, s3, s4):
    """(x, whether |lambda_min - x| is within PT_NEWTON_BOUND) after Newton's
    steps from -1/2 on p(x) = x^4 - t x^3 + S2 x^2 - S3 x + S4, on floats or
    (k,) rows by the same IEEE + - * / in the same order.  On floats a step
    that leaves x as it was ends the loop, since every later one would too;
    a zero p'(x) raises ZeroDivisionError there, and on rows leaves x
    infinite or NaN, whose bound fails."""
    x, last, t3, s2_2 = -0.5, None, 3.0 * t, 2.0 * s2
    for step in range(tol.PT_NEWTON_STEPS + 1):
        p = (((x - t) * x + s2) * x - s3) * x + s4
        dp = ((4.0 * x - t3) * x + s2_2) * x - s3
        if step == tol.PT_NEWTON_STEPS or isinstance(x, float) and x == last:
            break
        last, x = x, x - p / dp
    e = tol.PT_COEFF_ERROR
    return x, 4.0 * (abs(p) + e) <= tol.PT_NEWTON_BOUND * (abs(dp) - e)


def pt_min_eigenvalue(pts, s2, s3, s4):
    """The smallest eigenvalue of each partial transpose rho^TB of a two-qubit
    state, from its (16, k) entry rows ``pts`` and its (S2, S3, S4) by
    _s_coeffs, (k,) rows; or of one, its 16 rows as Python floats and its
    coefficients as floats, which gives the stacked row's bits.

    rho^TB has at most one negative eigenvalue, and all of them lie in
    [-1/2, 1] (Sanpera, Tarrach & Vidal 1998; Rana 2013), so Newton's method
    from -1/2 on p(x) = det(x I - rho^TB), with t = tr rho^TB summed from
    the diagonal rows, rises to lambda_min, in + - * / only.  After
    PT_NEWTON_STEPS steps some eigenvalue lies within 4 |p(x)| / |p'(x)| of x
    (p'/p = sum_i 1 / (x - l_i)), and it is lambda_min, which x approaches
    from below.  With PT_COEFF_ERROR bounding the rounding of p(x) and of
    p'(x) (tolerances), x is kept where 4 (|p(x)| + e) <= PT_NEWTON_BOUND
    (|p'(x)| - e).  The rest, near-double roots where Newton slows and p'
    vanishes, and a zero p'(x) met on the way, take the package Jacobi on
    their own rows (_row_jacobi).  No case emits a RuntimeWarning.
    """
    t = ((pts[0] + pts[1]) + pts[2]) + pts[3]
    if isinstance(pts, list):
        try:
            x, bounded = _pt_newton(t, float(s2), float(s3), float(s4))
        except ZeroDivisionError:
            bounded = False
        return x if bounded else float(_row_jacobi(pts, (), False)[0][-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, bounded = _pt_newton(t, s2, s3, s4)
    late = ~bounded
    if late.any():
        x[late] = _row_spectra(pts[:, late])[:, -1]
    return x


#: Matrices per block of min_eig_certificates: its (4, 4, 1024) complex
#: working arrays take 256 kB each.  Whole 4096-matrix chunks took 4 MB
#: of temporaries beside eigvalsh's 0.15 MB, and ran about 20 % slower.
_CERTIFICATE_BLOCK = 1024


def min_eig_certificates(rows, threshold):
    """Masks (above, below) that certify where the smallest eigenvalue of
    each Hermitian 4x4 matrix of the (16, k) entry rows ``rows`` lies
    against +-``threshold`` t >= 0; two (k,) masks, _CERTIFICATE_BLOCK
    matrices at a time.

    Like np.linalg.eigvalsh, the kernel reads the lower triangle and the
    real part of the diagonal only: the entry rows.  With delta = CERTIFICATE_MARGIN
    * max(1, |H|_F), it factors H - (t + delta) I as L D L^H without pivoting:

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
    if rows.shape[1] > _CERTIFICATE_BLOCK:
        cuts = range(_CERTIFICATE_BLOCK, rows.shape[1], _CERTIFICATE_BLOCK)
        masks = [min_eig_certificates(b, threshold) for b in np.split(rows, cuts, axis=1)]
        return tuple(np.concatenate(m) for m in zip(*masks))
    # the Hermitian matrix eigvalsh reads, with the stack axis last
    k = rows.shape[1]
    hl = np.zeros((16, k), dtype=complex)
    hl.real[_REAL_ROWS] = rows[:10]
    hl.imag[_BELOW] = rows[10:]
    hl[_ABOVE] = np.conj(hl[_BELOW])
    hl = hl.reshape(4, 4, k)
    with np.errstate(all="ignore"):
        off2 = (rows[4:10] ** 2 + rows[10:] ** 2).sum(axis=0)
        fro = np.sqrt((rows[:4] ** 2).sum(axis=0) + 2.0 * off2)
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
