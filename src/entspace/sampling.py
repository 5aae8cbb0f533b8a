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
alone, and a stacked call draws each chunk it touches in one call.  The
rare chart row that is not generic is redrawn on a stream of its own.

An HS chunk holds all CHUNK real parts before the imaginary parts, and the
normal sampler takes a variable number of words per draw, so a slice of a
chunk draws the stream only as far as its last sample needs.  A single HS
index builds only its own state and keeps its chunk's whole draw,
read-only, for the next single index of that chunk, so HS replays of one
chunk draw it once.
"""

import numpy as np

from .errors import DomainError, check_chunk, check_count, check_seed, require
from . import tolerances as tol
from .chart import ChartPoint, TWO_PI, in_octahedron, representative_state, xyz_from_eigenvalues
from .fano import LocalUnitary

# Stream tags; (tag << 56) | index forms the second Philox key word.
TAG_HS = 1
TAG_PRODUCT = 2
TAG_CHART = 3
TAG_LOCAL_UNITARY = 4
TAG_CHART_REDRAW = 5
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

def _hs_states(x, y):
    """rho = G G^dag / tr(G G^dag) of the Ginibre matrices G = x + i y,
    x and y of shape (m, 4, 4)."""
    ginibre = x + 1j * y
    rho = ginibre @ np.conj(np.swapaxes(ginibre, 1, 2))
    traces = np.einsum("nii->n", rho).real
    return rho / traces[:, None, None]


def _hs_chunk(seed, chunk, m):
    """The first m states of HS chunk ``chunk``: the real parts of all CHUNK
    Ginibre matrices come first on the stream, then the imaginary parts."""
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
    ``index`` is built.  It is bitwise the one ``ensemble_chunks`` builds,
    which never reads or fills the memo.  The seed and index are checked
    before the lookup.
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
    return _hs_states(x[i:i + 1], y[i:i + 1])[0]


# -- fixed-width unit rows ----------------------------------------------------

def _unit_rows(seed, tag, index, width):
    """The ``width`` unit draws of each sample of the integer array
    ``index``, one row per entry in flat order; DomainError unless the seed
    and every index are in range.

    Sample j of chunk c owns words width*j .. width*j + width - 1 of the
    stream (seed, tag, c), ``width`` a multiple of the four words of a
    Philox4x64 block.  Each chunk touched is drawn in one call, from its
    first requested sample to its last: the stream is advanced by
    width // 4 blocks per sample skipped."""
    check_seed(seed)
    flat = _check_indices(index).astype(np.int64)
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

#: Unit draws per product sample: five per Bloch point and two of padding.
_PRODUCT_WORDS = 12


def _product_states(seed, index):
    """The product states of the integer array ``index``, (..., 4, 4).

    Each is a row of 12 unit draws of its chunk's stream (seed, TAG_PRODUCT,
    chunk): u0..u4 give the Bloch point of rho_A and u5..u9 that of rho_B,
    with z = 2u - 1 and azimuth 2*pi*u' (an isotropic direction, by
    Archimedes' theorem) and radius the largest of the other three draws,
    whose law P(r <= t) = t^3 makes the point uniform over the solid ball;
    u10 and u11 pad the row.  The radius takes comparisons only, so its bits
    do not depend on which SIMD loops numpy picks."""
    index = np.asarray(index)
    u = _unit_rows(seed, TAG_PRODUCT, index, _PRODUCT_WORDS)[:, :10].reshape(-1, 5)
    z = 2.0 * u[:, 0] - 1.0
    phi = TWO_PI * u[:, 1]
    across = np.sqrt(1.0 - z * z)
    radius = np.maximum(np.maximum(u[:, 2], u[:, 3]), u[:, 4])
    x, y, z = radius * [across * np.cos(phi), across * np.sin(phi), z]
    # (I + x X + y Y + z Z) / 2 of each Bloch point
    rho = np.zeros((len(u), 2, 2), dtype=complex)
    rho.real[:, 0, 0], rho.real[:, 1, 1] = 1.0 + z, 1.0 - z
    rho.real[:, 0, 1] = rho.real[:, 1, 0] = x
    rho.imag[:, 0, 1], rho.imag[:, 1, 0] = -y, y
    rho *= 0.5
    rho = rho.reshape(-1, 2, 2, 2)
    product = np.einsum("nab,ncd->nacbd", rho[:, 0], rho[:, 1])
    return product.reshape(*index.shape, 4, 4)


def sample_product_state(seed, index):
    """Sample ``index`` of the product ensemble rho_A (x) rho_B with both
    factors uniform over the solid Bloch ball.  Separable by construction.
    An index draws its own row of 12 unit draws and nothing else."""
    return _product_states(seed, _check_index(index))


# -- chart-point ensemble ------------------------------------------------------

#: Unit draws per chart sample: three Philox4x64 blocks.
_CHART_WORDS = 12


def _chart_from_units(u):
    """(spectrum, alpha, beta, generic) of the rows of 12 unit draws ``u``.

    The spectrum is the four spacings of (0, sorted u0..u2, 1) in
    decreasing order, a sorted flat-Dirichlet point.  The magnitudes of
    alpha are 2*pi times the three spacings of (0, sorted u3..u5), uniform
    on the corner simplex, and its component k is negative where bit k of
    int(8 * u6) is set: a uniform point of the l1-ball of radius 2*pi.
    beta comes from u7..u10 in the same way, and u11 pads the row.
    ``generic`` is False where the spectrum is not strictly decreasing and
    positive or an angle triple fails ``in_octahedron``.
    """
    s = np.sort(u[:, [[0, 1, 2], [3, 4, 5], [7, 8, 9]]], axis=2)
    spacings = s.copy()
    spacings[..., 1:] -= s[..., :-1]
    r = np.empty((len(u), 4))
    r[:, :3] = spacings[:, 0]
    r[:, 3] = 1.0 - s[:, 0, 2]
    r = np.sort(r, axis=1)[:, ::-1]
    negative = ((8 * u[:, [6, 10]]).astype(np.int64)[..., None] >> np.arange(3)) & 1
    magnitude = TWO_PI * spacings[:, 1:]
    angles = np.where(negative == 1, -magnitude, magnitude)
    generic = (r[:, 0] > r[:, 1]) & (r[:, 1] > r[:, 2]) & (r[:, 2] > r[:, 3]) & (r[:, 3] > 0)
    return r, angles[:, 0], angles[:, 1], generic & in_octahedron(angles).all(axis=1)


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
    and a stacked call draws each chunk it touches in one call.  A draw
    whose spectrum ties or is not positive (about 2^-50 likely), or whose
    angles fail ``in_octahedron``, is redrawn 12 unit draws at a time from
    the stream (seed, TAG_CHART_REDRAW, index) until it is generic, so the
    point is always generic and any index replays alone.
    """
    index = np.asarray(index)
    r, alpha, beta, generic = _chart_from_units(_unit_rows(seed, TAG_CHART, index, _CHART_WORDS))
    for k in np.flatnonzero(~generic).tolist():
        g = philox_stream(seed, TAG_CHART_REDRAW, int(index.flat[k]))
        while not generic[k]:
            redrawn = _chart_from_units(g.random((1, _CHART_WORDS)))
            r[k], alpha[k], beta[k], generic[k] = (a[0] for a in redrawn)
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
    uv = _su2(_unit_rows(seed, TAG_LOCAL_UNITARY, index, 8)[:, :6].reshape(*index.shape, 2, 3))
    return LocalUnitary(u=uv[..., 0, :, :], v=uv[..., 1, :, :])


def random_hermitian(g, dim=4, shape=()):
    """Gaussian Hermitian matrix (A + A^dag)/2, for exercising kernels; a
    ``shape`` stack of them repeats that many single calls bit for bit
    (each draws the real, then the imaginary part of its A)."""
    x = g.standard_normal((*shape, 2, dim, dim))
    a = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


# -- chunked iteration ---------------------------------------------------------

def _chart_states(seed, index):
    return representative_state(sample_chart_point(seed, index))


def _row_chunk(states):
    """The first m states of chunk c of a row ensemble, whose ``states``
    builds the states of an index array."""
    return lambda seed, c, m: states(seed, np.arange(c * tol.CHUNK, c * tol.CHUNK + m))


#: Ensemble name -> (the first m states of chunk c, the state of one index).
_ENSEMBLE_TABLE = {
    "hs": (lambda seed, c, m: _hs_chunk(seed, c, m), sample_hs_state),
    "product": (_row_chunk(_product_states), sample_product_state),
    "chart": (_row_chunk(_chart_states), lambda seed, i: _chart_states(seed, _check_index(i))),
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


def ensemble_chunks(ensemble, seed, n, first=0):
    """Yield (start_index, states) arrays covering samples 0..n-1 in order,
    from chunk ``first`` on: the chunks before it are not drawn.

    The last chunk is truncated to the requested count without moving
    any sample: a chunk's stream is laid out for the full chunk and a
    truncated chunk only stops drawing it earlier.  DomainError unless
    ``first`` is a non-negative integer.
    """
    chunk_states, _ = check_ensemble(ensemble)
    check_count(n)
    check_chunk(first)
    for chunk in range(first, (n + tol.CHUNK - 1) // tol.CHUNK):
        start = chunk * tol.CHUNK
        yield start, chunk_states(seed, chunk, min(tol.CHUNK, n - start))


def ensemble_state(ensemble, seed, index):
    """Reconstruct a single ensemble member by its index.

    Every ensemble takes the same indices, the integers 0 <= index < 2^56;
    DomainError names any other ``index`` as given.
    """
    return check_ensemble(ensemble)[1](seed, index)
