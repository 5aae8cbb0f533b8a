"""Deterministic random ensembles over two-qubit states.

All randomness flows through counter-based Philox streams keyed by
(seed, tag, index), so any sample is addressable by its index alone:
reproducing sample i never requires drawing samples 0..i-1, and results
are independent of batching.  Every ensemble takes the sample indices
0 <= i < 2^56.  Matrix-valued ensembles are drawn in chunks of CHUNK
samples on one stream per chunk, laid out for the full chunk whatever is
requested: a slice of a chunk draws the stream only as far as its last
sample needs and builds only its own states.  A single HS index builds
only its own state and keeps its chunk's whole draw, read-only, for the
next single index of that chunk, so HS replays of one chunk draw it once.
Chart samples have a stream each: a spectrum, then uniform cube triples
-2*pi + 4*pi * (u1, u2, u3) of unit draws until two lie in the
octahedron; the block of triples drawn at a time sets the cost only.
"""

import numpy as np

from .errors import DomainError, check_count, check_seed
from . import tolerances as tol
from .chart import ChartPoint, TWO_PI, representative_state, xyz_from_eigenvalues
from .fano import LocalUnitary
from .linalg4 import SIGMA, I2

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

#: Cube triples drawn at a time by the octahedron rejection; two of them
#: are accepted with probability 1 - 6.1e-3.  The triples are the last
#: draws of a sample's stream, so the block size sets the cost only, never
#: the values.
_OCTAHEDRON_BLOCK = 40


def _cube_triples(unit):
    """Uniform cube triples in [-2*pi, 2*pi)^3 from the unit draws ``unit``
    (..., 3) of ``Generator.random``, mapped in place by numpy's
    ``uniform(-2*pi, 2*pi)`` formula -2*pi + 4*pi * u."""
    unit *= TWO_PI - -TWO_PI
    unit += -TWO_PI
    return unit


def _octahedron_accepts(v):
    """Which cube triples of ``v`` (..., 3) lie in the l1-ball of radius
    2*pi; the l1 norm is summed left to right."""
    a = np.abs(v)
    return (a[..., 0] + a[..., 1]) + a[..., 2] <= TWO_PI


def _chart_draws(g):
    """Spectrum, alpha and beta of one chart sample from its stream ``g``,
    drawn one after another.

    alpha and beta are the first two cube triples accepted by a rejection
    into the l1-ball of radius 2*pi (acceptance rate 1/6).  A cube triple
    is -2*pi + 4*pi * u of three unit draws u (``_cube_triples``).  The
    triples are the last draws of the stream, so drawing them
    _OCTAHEDRON_BLOCK at a time gives the same two as drawing them one by
    one: the block size changes the cost only.
    """
    while True:
        r = sorted(g.dirichlet(np.ones(4)).tolist(), reverse=True)
        if r[0] > r[1] > r[2] > r[3] > 0:
            break
    accepted = []
    while len(accepted) < 2:
        v = _cube_triples(g.random((_OCTAHEDRON_BLOCK, 3)))
        accepted.extend(v[_octahedron_accepts(v)])
    return r, accepted[0], accepted[1]


def sample_chart_point(seed, index):
    """Sample ``index`` of the chart ensemble, or a stacked ChartPoint of
    the samples of an integer array ``index``.

    The spectrum is a flat-Dirichlet simplex point sorted in decreasing
    order; alpha and beta are independent uniform points of the double
    octahedron.  Ties in the spectrum (probability zero) are redrawn so
    the point is always generic.

    Sample i is drawn from its own Philox stream (seed, TAG_CHART, i),
    whatever else is drawn in the same call: first the flat Dirichlet
    spectrum (four standard exponentials scaled by the inverse of their
    sum, numpy's ``dirichlet(ones(4))``), redrawn while it has a tie, then
    uniform cube triples -2*pi + 4*pi * (u1, u2, u3) of three unit draws
    (numpy's ``uniform(-2*pi, 2*pi)``) until two lie in the octahedron.
    Per index, Python only re-keys the stream and draws the first spectrum
    and a block of _OCTAHEDRON_BLOCK unit triples into preallocated rows;
    the mapping to the cube and the rejection run over the whole array.
    An index whose first spectrum ties or whose first block holds fewer
    than two accepted triples is drawn again one step at a time on a fresh
    stream.  The block size changes the cost only, never the values.
    """
    index = np.asarray(index)
    flat = index.reshape(-1)
    n = flat.size
    exponentials = np.empty((n, 4))
    unit = np.empty((n, _OCTAHEDRON_BLOCK, 3))
    for k, g in enumerate(philox_streams(seed, TAG_CHART, flat)):
        g.standard_exponential(out=exponentials[k])
        g.random(out=unit[k])
    triples = _cube_triples(unit)
    e0, e1, e2, e3 = exponentials.T
    r = np.sort(exponentials * (1.0 / (((e0 + e1) + e2) + e3))[:, None], axis=1)[:, ::-1]
    accepted = np.cumsum(_octahedron_accepts(triples), axis=1)
    first, second = np.argmax(accepted >= 1, axis=1), np.argmax(accepted >= 2, axis=1)
    rows = np.arange(n)
    alpha, beta = triples[rows, first], triples[rows, second]
    generic = (r[:, 0] > r[:, 1]) & (r[:, 1] > r[:, 2]) & (r[:, 2] > r[:, 3]) & (r[:, 3] > 0)
    for k in np.flatnonzero(~generic | (accepted[:, -1] < 2)):
        r[k], alpha[k], beta[k] = _chart_draws(philox_stream(seed, TAG_CHART, flat[k]))
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


def random_antihermitian(g, scale=1.0):
    """Gaussian anti-Hermitian 4x4 matrix scale * (A - A^dag)/2."""
    a = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    return scale * 0.5 * (a - np.conj(a.T))


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
