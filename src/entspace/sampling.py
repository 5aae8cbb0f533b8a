"""Deterministic random ensembles over two-qubit states.

All randomness flows through counter-based Philox streams keyed by
(seed, tag, index), so any sample is addressable by its index alone:
reproducing sample i never requires drawing samples 0..i-1, and results
are independent of batching.  Every ensemble takes the sample indices
0 <= i < 2^56.  The HS, product and chart ensembles are drawn in chunks
of CHUNK samples on one stream per chunk, laid out for the full chunk
whatever is requested: a slice of a chunk draws the stream only as far as
its last sample needs and builds only its own states.  A single HS index
builds only its own state and keeps its chunk's whole draw, read-only,
for the next single index of that chunk, so HS replays of one chunk draw
it once.  A chart sample is a fixed 12 unit draws of its chunk's stream,
so an index replays by advancing the stream past the samples before it;
the rare draw that is not generic is redrawn on a stream of its own.
"""

import numpy as np

from .errors import DomainError, check_count, check_seed
from . import tolerances as tol
from .chart import ChartPoint, TWO_PI, in_octahedron, representative_state, xyz_from_eigenvalues
from .fano import LocalUnitary
from .linalg4 import SIGMA, I2

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
    bad = np.flatnonzero((indices < 0) | (indices >= (1 << _INDEX_BITS)))
    if bad.size:
        raise DomainError(f"stream index out of range: {indices[bad[0]]}")
    return indices


def _check_index(index):
    """``index``; DomainError unless it is one integer, not an array of any
    shape, with 0 <= index < 2^56."""
    if np.ndim(index):
        raise DomainError(f"a stream index is one integer, got shape {np.shape(index)}")
    _check_indices(index)
    return index


def _chunk_position(index):
    """(chunk, offset in the chunk) of sample ``index`` of a chunked
    ensemble; DomainError naming ``index`` unless 0 <= index < 2^56."""
    return divmod(_check_index(index), tol.CHUNK)


def philox_streams(seed, tag, indices):
    """Yield a numpy Generator on the Philox stream keyed by (seed, tag, i)
    for each i of the integer array ``indices``, in flat order.

    One Philox bit generator serves all of them: before each yield it is
    re-keyed in place to counter 0 and key (seed, tag << 56 | i), so a
    yielded generator is valid only until the next one is yielded.
    DomainError unless the seed is an integer 0 <= seed < 2^64 and every
    0 <= i < 2^56, naming the first offending index.
    """
    check_seed(seed)
    words = np.uint64(tag << _INDEX_BITS) | _check_indices(indices).astype(np.uint64)
    if not words.size:
        return
    bit_generator = np.random.Philox(key=np.array([seed, words[0]], dtype=np.uint64))
    generator = np.random.Generator(bit_generator)
    if words.size > 1:
        # counter 0 and an empty buffer, held as Python ints: the state
        # setter reads them in half the time it takes for uint64 arrays
        state = bit_generator.state
        fresh = {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
                 "buffer": state["buffer"].tolist()}
    yield generator
    for word in words[1:].tolist():
        fresh["state"]["key"][1] = word
        bit_generator.state = fresh
        yield generator


def philox_stream(seed, tag, index=0):
    """A numpy Generator on the Philox stream keyed by (seed, tag, index);
    DomainError unless the seed is an integer 0 <= seed < 2^64 and
    0 <= index < 2^56."""
    return next(philox_streams(seed, tag, [index]))


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
    chunk, i = _chunk_position(index)
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


# -- product-state ensemble ----------------------------------------------------

def _bloch_ball_points(g, lo, hi):
    """Points lo..hi-1 of CHUNK uniform points of the solid Bloch ball:
    isotropic direction times radius u^(1/3); all CHUNK directions come
    first on the stream, then the radii."""
    direction = g.standard_normal((tol.CHUNK, 3))[lo:hi]
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = g.random(tol.CHUNK)[lo:hi] ** (1.0 / 3.0)
    return direction * radius[:, None]


def _qubit_states(bloch):
    return 0.5 * (I2 + np.einsum("ni,ijk->njk", bloch, SIGMA))


def _product_chunk(seed, chunk, lo, hi):
    """States lo..hi-1 of product chunk ``chunk``; the A factors of all
    CHUNK states come first on the stream, then the B factors."""
    g = philox_stream(seed, TAG_PRODUCT, chunk)
    rho_a = _qubit_states(_bloch_ball_points(g, lo, hi))
    rho_b = _qubit_states(_bloch_ball_points(g, lo, hi))
    return np.einsum("nab,ncd->nacbd", rho_a, rho_b).reshape(hi - lo, 4, 4)


def sample_product_state(seed, index):
    """Sample ``index`` of the product ensemble rho_A (x) rho_B with both
    factors uniform over the solid Bloch ball.  Separable by construction.

    The radii follow all CHUNK directions on the stream, and the normal
    sampler takes a variable number of words per draw, so each index draws
    its whole chunk again; nothing is memoised.
    """
    chunk, i = _chunk_position(index)
    return _product_chunk(seed, chunk, i, i + 1)[0]


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


def _chart_units(seed, flat):
    """The 12 unit draws of each sample of the int64 index array ``flat``.

    Sample j of chunk c owns words 12j..12j+11 of the stream (seed,
    TAG_CHART, c).  Each chunk touched is drawn in one call, from its
    first requested sample to its last: the stream is advanced by three
    Philox4x64 blocks per sample skipped."""
    units = np.empty((flat.size, _CHART_WORDS))
    order = np.argsort(flat)
    chunk, offset = np.divmod(flat[order], tol.CHUNK)
    starts = np.unique(chunk, return_index=True)[1].tolist()
    for a, b in zip(starts, [*starts[1:], flat.size]):
        lo, hi = int(offset[a]), int(offset[b - 1]) + 1
        g = philox_stream(seed, TAG_CHART, int(chunk[a]))
        g.bit_generator.advance(3 * lo)
        units[order[a:b]] = g.random((hi - lo, _CHART_WORDS))[offset[a:b] - lo]
    return units


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
    check_seed(seed)
    index = np.asarray(index)
    flat = _check_indices(index).astype(np.int64)
    r, alpha, beta, generic = _chart_from_units(_chart_units(seed, flat))
    for k in np.flatnonzero(~generic).tolist():
        g = philox_stream(seed, TAG_CHART_REDRAW, int(flat[k]))
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

def _su2(q):
    """SU(2) elements of the quaternions q, shape (..., 4): with p = q/|q|,
    [[p0 + i p3, p2 + i p1], [-p2 + i p1, p0 - i p3]].  |q|^2 is a dot
    product per quaternion, so each element is the same in any stack."""
    norm = np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    p0, p1, p2, p3 = np.moveaxis(q / norm, -1, 0)
    rows = (np.stack([p0 + 1j * p3, p2 + 1j * p1], axis=-1),
            np.stack([-p2 + 1j * p1, p0 - 1j * p3], axis=-1))
    return np.stack(rows, axis=-2)


def sample_local_unitary(seed, index):
    """Haar-random local unitary pair (u, v) of sample ``index``, or the
    stacked pairs of an integer array ``index``.

    Sample i is drawn from its own Philox stream (seed, TAG_LOCAL_UNITARY,
    i): the Gaussian quaternion of u, then that of v."""
    index = np.asarray(index)
    q = np.empty((index.size, 2, 4))
    for k, g in enumerate(philox_streams(seed, TAG_LOCAL_UNITARY, index)):
        g.standard_normal(out=q[k])
    uv = _su2(q).reshape(*index.shape, 2, 2, 2)
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


#: Ensemble name -> (the first m states of chunk c, the state of one index).
_ENSEMBLE_TABLE = {
    "hs": (lambda seed, c, m: _hs_chunk(seed, c, m), sample_hs_state),
    "product": (lambda seed, c, m: _product_chunk(seed, c, 0, m), sample_product_state),
    "chart": (
        lambda seed, c, m: _chart_states(seed, np.arange(c * tol.CHUNK, c * tol.CHUNK + m)),
        lambda seed, i: _chart_states(seed, _check_index(i)),
    ),
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
    any sample: a chunk-level stream is laid out for the full chunk and a
    truncated chunk only stops drawing it earlier, and per-index streams
    do not interact.
    """
    chunk_states, _ = check_ensemble(ensemble)
    check_count(n)
    for chunk in range(first, (n + tol.CHUNK - 1) // tol.CHUNK):
        start = chunk * tol.CHUNK
        yield start, chunk_states(seed, chunk, min(tol.CHUNK, n - start))


def ensemble_state(ensemble, seed, index):
    """Reconstruct a single ensemble member by its index.

    Every ensemble takes the same indices, the integers 0 <= index < 2^56;
    DomainError names any other ``index`` as given.
    """
    return check_ensemble(ensemble)[1](seed, index)
