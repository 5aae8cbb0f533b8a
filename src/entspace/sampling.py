"""Deterministic random ensembles over two-qubit states.

All randomness flows through counter-based Philox streams keyed by
(seed, tag, index), so any sample is addressable by its index alone:
reproducing sample i never requires drawing samples 0..i-1, and results
are independent of batching.  Every ensemble takes the sample indices
0 <= i < 2^56, drawn in chunks of CHUNK samples on one stream per chunk.

Product states, local unitaries and chart points are fixed-width rows of
unit draws: sample j of a chunk owns words width*j .. width*j + width - 1
of its chunk's stream (width 12, 8 and 12), so an index replays by
advancing the stream past the samples before it and draws its own row
alone, and a stacked call draws each chunk it touches in one call.  A
chart sample is its row, with nothing redrawn: a tie (about 2^-50 likely)
is a valid, non-generic point that representative_state warns about.

An HS chunk holds all CHUNK real parts before the imaginary parts, and the
normal sampler takes a variable number of words per draw, so a slice of a
chunk draws the stream only as far as its last sample needs.  A single HS
index builds only its own state and keeps its chunk's whole draw,
read-only, for the next single index of that chunk, so HS replays of one
chunk draw it once.

Every chunk is drawn as the (16, m) entry rows (linalg4) of its states,
with no complex stack: G G^dag (_hs_chunk) and the chart's A diag(r) A^dag
(chart._chart_rows) by _gram, with no BLAS call, and rho_A (x) rho_B as the
products of its factors' entries (_product_rows).  The scan and verify read
the rows (_row_chunks), ensemble_chunks their _hermitian matrices.
"""

import numpy as np

from .errors import DomainError, check_chunk, check_count, check_seed, require
from . import tolerances as tol
from .chart import ChartPoint, TWO_PI, _chart_rows, representative_state, xyz_from_eigenvalues
from .fano import LocalUnitary
from .linalg4 import _gram, _hermitian

# Stream tags; (tag << 56) | index forms the second Philox key word.
TAG_HS = 1
TAG_PRODUCT = 2
TAG_CHART = 3
TAG_LOCAL_UNITARY = 4
_TAG_VERIFY_BASE = 16  # tags >= 16 are reserved for verification checks

_INDEX_BITS = 56


def _check_indices(indices):
    """``indices`` as a flat array; DomainError unless every entry is an
    integer with 0 <= i < 2^56, naming the first offending index."""
    indices = np.asarray(indices).reshape(-1)
    # an object array holds Python ints beyond 64 bits; the range check names
    # them.  A bool is no index: a mask would alias samples 0 and 1.
    if indices.dtype.kind not in "iu" and not all(type(i) is int for i in indices.tolist()):
        raise DomainError(f"stream indices must be integers, got dtype {indices.dtype}")
    require((indices >= 0) & (indices < (1 << _INDEX_BITS)), indices.shape,
            lambda i, _: f"stream index out of range: {indices[i]}")
    return indices


def _check_index(index):
    """``index``; DomainError unless it is one integer, not an array of any
    shape, with 0 <= index < 2^56."""
    if np.ndim(index):
        raise DomainError(f"a stream index is one integer, got shape {np.shape(index)}")
    _check_indices(index)
    return index


def philox_stream(seed, tag, index=0):
    """A numpy Generator on the Philox stream keyed by (seed, tag << 56 |
    index), at counter 0; DomainError unless the seed is an integer
    0 <= seed < 2^64 and ``index`` one integer 0 <= index < 2^56."""
    check_seed(seed)
    key = (tag << _INDEX_BITS) | int(_check_index(index))
    return np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))


def verify_stream(seed, check_id):
    """Stream reserved for verification check ``check_id``."""
    return philox_stream(seed, _TAG_VERIFY_BASE + check_id)


# -- Hilbert-Schmidt ensemble --------------------------------------------------

def _hs_entries(x, y):
    """The entry rows (linalg4) of G G^dag / tr, G = x + i y, by _gram on the 16 row-major
    entries of x and y, (k,) rows or floats; the trace adds the diagonal to +0.0 in order."""
    e = list(_gram([[(x[4 * p + k], y[4 * p + k]) for k in range(4)] for p in range(4)]))
    trace = 0.0 + e[0] + e[1] + e[2] + e[3]
    return [v / trace for v in e]


def _hs_states(x, y):
    """_hs_entries of the Ginibre matrices x + i y, x and y (m, 4, 4): the (16, m) entry rows
    of exactly Hermitian states; overflow gives inf or NaN, no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(_hs_entries(*(np.ascontiguousarray(a.reshape(-1, 16).T) for a in (x, y))))


def _hs_chunk(seed, chunk, m):
    """_hs_states of the first m matrices of HS chunk ``chunk``: the real parts
    of all CHUNK Ginibre matrices come first on the stream, then the imaginary parts."""
    g = philox_stream(seed, TAG_HS, chunk)
    x = g.standard_normal((tol.CHUNK, 4, 4))[:m]
    y = g.standard_normal((m, 4, 4))
    return _hs_states(x, y)


#: The memo of sample_hs_state: ((seed, chunk), draws) of the chunk of the
#: last index replayed, or None.  ``draws`` is the chunk's whole stream as
#: one read-only (2, CHUNK, 4, 4) block, real parts first, then imaginary
#: parts.  An entry is never changed, only replaced as one tuple.
_hs_memo = None


def sample_hs_state(seed, index):
    """Sample ``index`` of the Hilbert-Schmidt (Ginibre) ensemble.

    rho = G G^dag / tr(G G^dag) with G a 4x4 standard complex Ginibre
    matrix; full rank with probability one.

    The normal sampler takes a variable number of words per draw, so where
    the imaginary parts begin is only known by drawing the real parts, and
    one chunk is memoised: the real and imaginary parts of the chunk of the last
    index asked for here, drawn at once as one read-only 1 MiB block.  A
    later index of the same (seed, chunk) draws nothing; any other index
    drops the memo, then draws and keeps its own chunk.  Only state
    ``index`` is built, by _hs_entries on its Python floats, bitwise the
    state ``ensemble_chunks`` builds, which never reads or fills the memo.
    The seed and index are checked before the lookup.
    """
    global _hs_memo
    chunk, i = divmod(_check_index(index), tol.CHUNK)
    check_seed(seed)
    entry = _hs_memo
    if entry is None or entry[0] != (seed, chunk):
        # the old chunk is freed before the new one is drawn
        entry = _hs_memo = None
        draws = philox_stream(seed, TAG_HS, chunk).standard_normal((2, tol.CHUNK, 4, 4))
        draws.flags.writeable = False
        entry = _hs_memo = (seed, chunk), draws
    x, y = entry[1]
    return _hermitian(_hs_entries(x[i].ravel().tolist(), y[i].ravel().tolist()))


# -- fixed-width unit rows ----------------------------------------------------

#: Unit draws per sample of each row ensemble.
_PRODUCT_WORDS = 12  # five per Bloch point and two of padding
_CHART_WORDS = 12  # three Philox4x64 blocks
_LOCAL_UNITARY_WORDS = 8  # three per SU(2) factor and two of padding


def _unit_rows(seed, tag, index, width):
    """The ``width`` unit draws of each sample of the integer array
    ``index``, one row per entry in flat order; DomainError unless the seed
    and every index are in range.

    Sample j of chunk c owns words width*j .. width*j + width - 1 of the
    stream (seed, tag, c), ``width`` a multiple of the four words of a
    Philox4x64 block.  Each chunk touched is drawn in one call, from its
    first requested sample to its last: the stream is advanced by
    width // 4 blocks per sample skipped, and a run of consecutive indices
    within one chunk is that one call's rows, with no reordering."""
    check_seed(seed)
    flat = _check_indices(index).astype(np.int64)
    if flat.size and flat[-1] - flat[0] == flat.size - 1 and (flat[1:] - flat[:-1] == 1).all():
        chunk, lo = divmod(int(flat[0]), tol.CHUNK)
        if lo + flat.size <= tol.CHUNK:
            g = philox_stream(seed, tag, chunk)
            g.bit_generator.advance(width // 4 * lo)
            return g.random((flat.size, width))
    units = np.empty((flat.size, width))
    order = np.argsort(flat)
    chunk, offset = np.divmod(flat[order], tol.CHUNK)
    starts = np.unique(chunk, return_index=True)[1].tolist()
    for a, b in zip(starts, [*starts[1:], flat.size]):
        lo, hi = int(offset[a]), int(offset[b - 1]) + 1
        g = philox_stream(seed, tag, int(chunk[a]))
        g.bit_generator.advance(width // 4 * lo)
        units[order[a:b]] = g.random((hi - lo, width))[offset[a:b] - lo]
    return units


# -- product-state ensemble ----------------------------------------------------

#: Entry (r, c) of rho_A (x) rho_B is A[r//2, c//2] B[r%2, c%2].  Of each factor's halves (p, q,
#: x, y, -y) of (I + xX + yY + zZ)/2, entry row k is A's _PRODUCT_A[k] times B's _PRODUCT_B[k];
#: the _PRODUCT_PAIRS rows, of two off-diagonal entries, add A's y times B's _PRODUCT_PAIR_B.
_PRODUCT_A = np.array([0, 0, 1, 1, 0, 2, 2, 2, 2, 1, 0, 3, 2, 2, 3, 1])
_PRODUCT_B = np.array([0, 1, 0, 1, 2, 0, 2, 2, 1, 2, 3, 0, 4, 3, 1, 3])
_PRODUCT_PAIRS, _PRODUCT_PAIR_B = np.array([6, 7, 12, 13]), np.array([3, 4, 2, 2])


def _product_rows(seed, index):
    """The (16, ...) entry rows (linalg4) of the product states of the integer array ``index``.

    Each is a row of 12 unit draws of its chunk's stream (seed, TAG_PRODUCT,
    chunk): u0..u4 give the Bloch point of rho_A and u5..u9 that of rho_B,
    with z = 2u - 1 and azimuth 2*pi*u' (an isotropic direction, by
    Archimedes' theorem) and radius the largest of the other three draws,
    whose law P(r <= t) = t^3 makes the point uniform over the solid ball;
    u10 and u11 pad the row.  The radius takes comparisons only, so its bits
    do not depend on which SIMD loops numpy picks."""
    u = _unit_rows(seed, TAG_PRODUCT, index, _PRODUCT_WORDS)[:, :10].reshape(-1, 5)
    z = 2.0 * u[:, 0] - 1.0
    phi = TWO_PI * u[:, 1]
    across = np.sqrt(1.0 - z * z)
    radius = np.maximum(np.maximum(u[:, 2], u[:, 3]), u[:, 4])
    x, y, z = radius * [across * np.cos(phi), across * np.sin(phi), z]
    halves = 0.5 * np.array([1.0 + z, 1.0 - z, x, y, -y])
    a, b = halves[:, 0::2], halves[:, 1::2]
    rows = a[_PRODUCT_A] * b[_PRODUCT_B]
    rows[_PRODUCT_PAIRS] += a[3] * b[_PRODUCT_PAIR_B]
    rows += 0.0  # every zero +0, as a complex product summed from +0 gives it
    return rows.reshape(16, *np.shape(index))


def sample_product_state(seed, index):
    """Sample ``index`` of the product ensemble rho_A (x) rho_B with both
    factors uniform over the solid Bloch ball.  Separable by construction.
    An index draws its own row of 12 unit draws and nothing else."""
    return _hermitian(_product_rows(seed, _check_index(index)))


# -- chart-point ensemble ------------------------------------------------------

def _sorted_network(*v):
    """The arrays ``v`` (three or four) sorted elementwise into increasing order by a
    network of np.minimum and np.maximum: the values np.sort gives, with its bits."""
    v = list(v)
    pairs = ((0, 1), (1, 2), (0, 1)) if len(v) == 3 else ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))
    for i, j in pairs:
        v[i], v[j] = np.minimum(v[i], v[j]), np.maximum(v[i], v[j])
    return v


def _chart_from_units(u):
    """(spectrum, alpha, beta) of the rows of 12 unit draws ``u``.

    The spectrum is the four spacings of (0, sorted u0..u2, 1) in
    decreasing order, a sorted flat-Dirichlet point.  The magnitudes of
    alpha are 2*pi times the three spacings of (0, sorted u3..u5), uniform
    on the corner simplex, and its component k is negative where bit k of
    int(8 * u6) is set: a uniform point of the l1-ball of radius 2*pi.
    beta comes from u7..u10 in the same way, and u11 pads the row.  The
    spacings are exact, so a triple's l1 norm is 2*pi times its largest
    draw, below 1, to rounding: it lies in the octahedron.  Each group is
    sorted by _sorted_network along the draws' columns.
    """
    u = np.ascontiguousarray(u.T)
    c0, c1, c2 = _sorted_network(*u[0:3])
    r = np.empty((len(u[0]), 4))
    r[:, ::-1] = np.transpose(_sorted_network(c0, c1 - c0, c2 - c1, 1.0 - c2))
    angles = []
    for first in (3, 7):
        c0, c1, c2 = _sorted_network(*u[first:first + 3])
        magnitude = TWO_PI * np.array([c0, c1 - c0, c2 - c1])
        negative = ((8 * u[first + 3]).astype(np.int64) >> np.arange(3)[:, None]) & 1
        angles.append(np.where(negative == 1, -magnitude, magnitude).T)
    return r, *angles


def sample_chart_point(seed, index):
    """Sample ``index`` of the chart ensemble, or a stacked ChartPoint of
    the samples of an integer array ``index``.

    The spectrum is a flat-Dirichlet simplex point sorted in decreasing
    order; alpha and beta are independent uniform points of the double
    octahedron.  The spacings of sorted uniforms are uniform on the
    simplex, so each sample is a fixed 12 unit draws (``_chart_from_units``)
    with no rejection.

    Samples are drawn in chunks of CHUNK on one stream per chunk, (seed,
    TAG_CHART, chunk): sample j of a chunk owns words 12j..12j+11, so an
    index replays after advancing its chunk's stream by 3j Philox blocks,
    and a stacked call draws each chunk it touches in one call.  A sample
    is exactly its row: a spectrum that ties or has a zero entry (about
    2^-50 likely) is a valid, non-generic point that representative_state
    warns about with DegenerateSpectrumWarning.
    """
    index = np.asarray(index)
    r, alpha, beta = _chart_from_units(_unit_rows(seed, TAG_CHART, index, _CHART_WORDS))
    shape = index.shape
    return ChartPoint(
        simplex=xyz_from_eigenvalues(r.reshape(*shape, 4)),
        alpha=alpha.reshape(*shape, 3),
        beta=beta.reshape(*shape, 3),
    )


# -- auxiliary ensembles -------------------------------------------------------

def _su2(u):
    """Haar-random SU(2) elements of the unit draws u, shape (..., 3): the
    unit quaternion p = (sqrt(1 - u0) sin 2 pi u1, sqrt(1 - u0) cos 2 pi u1,
    sqrt(u0) sin 2 pi u2, sqrt(u0) cos 2 pi u2), uniform on the 3-sphere
    (Shoemake, Graphics Gems III, 1992), laid out as it is, |p|^2 being 1
    to rounding: [[p0 + i p3, p2 + i p1], [-p2 + i p1, p0 - i p3]]."""
    near, far = np.sqrt(1.0 - u[..., 0]), np.sqrt(u[..., 0])
    t1, t2 = TWO_PI * u[..., 1], TWO_PI * u[..., 2]
    p0, p1, p2, p3 = near * np.sin(t1), near * np.cos(t1), far * np.sin(t2), far * np.cos(t2)
    rows = (np.stack([p0 + 1j * p3, p2 + 1j * p1], axis=-1),
            np.stack([-p2 + 1j * p1, p0 - 1j * p3], axis=-1))
    return np.stack(rows, axis=-2)


def sample_local_unitary(seed, index):
    """Haar-random local unitary pair (u, v) of sample ``index``, or the
    stacked pairs of an integer array ``index``.

    Each pair is a row of 8 unit draws of its chunk's stream (seed,
    TAG_LOCAL_UNITARY, chunk), laid out as the product rows are: u0..u2
    give u and u3..u5 give v (``_su2``); u6 and u7 pad the row."""
    index = np.asarray(index)
    units = _unit_rows(seed, TAG_LOCAL_UNITARY, index, _LOCAL_UNITARY_WORDS)
    uv = _su2(units[:, :6].reshape(*index.shape, 2, 3))
    return LocalUnitary(u=uv[..., 0, :, :], v=uv[..., 1, :, :])


def random_hermitian(g, dim=4, shape=()):
    """Gaussian Hermitian matrix (A + A^dag)/2, for exercising kernels; a
    ``shape`` stack of them repeats that many single calls bit for bit
    (each draws the real, then the imaginary part of its A)."""
    x = g.standard_normal((*shape, 2, dim, dim))
    a = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


# -- chunked iteration ---------------------------------------------------------

def _chunk_from_indices(rows):
    """The entry rows of the first m states of chunk c of a row ensemble, whose ``rows``
    builds the entry rows of an index array."""
    return lambda seed, c, m: rows(seed, np.arange(c * tol.CHUNK, c * tol.CHUNK + m))


#: Ensemble name -> (the (16, m) entry rows of the first m states of chunk c, the state of
#: one index).  Names are looked up at each call, where the benchmark tracer wraps them.
_ENSEMBLE_TABLE = {
    "hs": (lambda seed, c, m: _hs_chunk(seed, c, m), sample_hs_state),
    "product": (_chunk_from_indices(_product_rows), sample_product_state),
    "chart": (_chunk_from_indices(lambda seed, i: _chart_rows(sample_chart_point(seed, i))),
              lambda seed, i: representative_state(sample_chart_point(seed, _check_index(i)))),
}

ENSEMBLES = tuple(_ENSEMBLE_TABLE)


def check_ensemble(ensemble):
    """The table entry of ``ensemble``; DomainError for an unknown name."""
    try:
        return _ENSEMBLE_TABLE[ensemble]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}"
        ) from None


def _row_chunks(ensemble, seed, n, first=0):
    """Yield (start_index, (16, m) entry rows) covering samples 0..n-1 in order, from chunk
    ``first`` on, as ensemble_chunks yields their states."""
    chunk_rows, _ = check_ensemble(ensemble)
    check_count(n)
    check_chunk(first)
    for chunk in range(first, (n + tol.CHUNK - 1) // tol.CHUNK):
        start = chunk * tol.CHUNK
        yield start, chunk_rows(seed, chunk, min(tol.CHUNK, n - start))


def ensemble_chunks(ensemble, seed, n, first=0):
    """Yield (start_index, states) arrays covering samples 0..n-1 in order,
    from chunk ``first`` on: the chunks before it are not drawn.

    Each chunk is drawn as entry rows (_row_chunks), and its states are
    their _hermitian matrices.  The last chunk is truncated to the
    requested count without moving any sample: a chunk's stream is laid
    out for the full chunk and a truncated chunk only stops drawing it
    earlier.  DomainError unless ``first`` is a non-negative integer.
    """
    for start, rows in _row_chunks(ensemble, seed, n, first):
        yield start, _hermitian(rows)


def ensemble_state(ensemble, seed, index):
    """Reconstruct a single ensemble member by its index.

    Every ensemble takes the same indices, the integers 0 <= index < 2^56;
    DomainError names any other ``index`` as given.
    """
    return check_ensemble(ensemble)[1](seed, index)
