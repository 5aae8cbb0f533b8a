"""Deterministic random ensembles over two-qubit states.

All randomness flows through counter-based Philox streams keyed by
(seed, tag, index), so any sample is addressable by its index alone:
reproducing sample i never requires drawing samples 0..i-1, and results
are independent of batching.  Matrix-valued ensembles are drawn in chunks
of CHUNK samples on one stream per chunk, laid out for the full chunk
whatever is requested: a slice of a chunk draws the stream only as far as
its last sample needs and builds only its own states.
"""

import numpy as np

from .errors import DomainError, check_seed
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


def philox_stream(seed, tag, index=0):
    """A numpy Generator on the Philox stream keyed by (seed, tag, index);
    DomainError unless 0 <= seed < 2^64 and 0 <= index < 2^56."""
    check_seed(seed)
    if not 0 <= index < (1 << _INDEX_BITS):
        raise DomainError(f"stream index out of range: {index}")
    key = np.array(
        [np.uint64(seed), np.uint64((tag << _INDEX_BITS) | index)], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def verify_stream(seed, check_id, index=0):
    """Stream reserved for verification check ``check_id``."""
    return philox_stream(seed, _TAG_VERIFY_BASE + check_id, index)


# -- Hilbert-Schmidt ensemble --------------------------------------------------

def _hs_chunk(seed, chunk, lo, hi):
    """States lo..hi-1 of HS chunk ``chunk``: the real parts of all CHUNK
    Ginibre matrices come first on the stream, then the imaginary parts."""
    g = philox_stream(seed, TAG_HS, chunk)
    x = g.standard_normal((tol.CHUNK, 4, 4))[lo:hi]
    y = g.standard_normal((hi, 4, 4))[lo:]
    ginibre = x + 1j * y
    rho = ginibre @ np.conj(np.swapaxes(ginibre, 1, 2))
    traces = np.einsum("nii->n", rho).real
    return rho / traces[:, None, None]


def sample_hs_state(seed, index):
    """Sample ``index`` of the Hilbert-Schmidt (Ginibre) ensemble.

    rho = G G^dag / tr(G G^dag) with G a 4x4 standard complex Ginibre
    matrix; full rank with probability one.
    """
    chunk, i = divmod(index, tol.CHUNK)
    return _hs_chunk(seed, chunk, i, i + 1)[0]


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
    factors uniform over the solid Bloch ball.  Separable by construction."""
    chunk, i = divmod(index, tol.CHUNK)
    return _product_chunk(seed, chunk, i, i + 1)[0]


# -- chart-point ensemble ------------------------------------------------------

#: Cube triples drawn at a time by the octahedron rejection; two of them
#: are accepted with probability 1 - 1.2e-4.
_OCTAHEDRON_BLOCK = 64


def _chart_draws(seed, index):
    """Spectrum, alpha and beta of chart sample ``index``, in stream order.

    alpha and beta are the first two cube triples accepted by a rejection
    into the l1-ball of radius 2*pi (acceptance rate 1/6).  They are the
    last draws of the stream, so drawing the triples a block at a time
    gives the same two as drawing them one by one.
    """
    g = philox_stream(seed, TAG_CHART, index)
    while True:
        r = sorted(g.dirichlet(np.ones(4)).tolist(), reverse=True)
        if r[0] > r[1] > r[2] > r[3] > 0:
            break
    accepted = []
    while len(accepted) < 2:
        v = g.uniform(-TWO_PI, TWO_PI, (_OCTAHEDRON_BLOCK, 3))
        accepted.extend(v[np.sum(np.abs(v), axis=1) <= TWO_PI])
    return r, accepted[0], accepted[1]


def sample_chart_point(seed, index):
    """Sample ``index`` of the chart ensemble, or a stacked ChartPoint of
    the samples of an integer array ``index`` (each on its own stream).

    The spectrum is a flat-Dirichlet simplex point sorted in decreasing
    order; alpha and beta are independent uniform points of the double
    octahedron.  Ties in the spectrum (probability zero) are redrawn so
    the point is always generic.
    """
    check_seed(seed)
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise DomainError(f"chart sample indices must be integers, got dtype {index.dtype}")
    draws = [_chart_draws(seed, int(i)) for i in index.reshape(-1)]
    r, alpha, beta = (
        np.array([d[k] for d in draws], dtype=float).reshape(*index.shape, width)
        for k, width in enumerate((4, 3, 3))
    )
    return ChartPoint(simplex=xyz_from_eigenvalues(r), alpha=alpha, beta=beta)


# -- auxiliary ensembles -------------------------------------------------------

def random_su2(g):
    """Haar-random SU(2) element from a uniform unit quaternion."""
    q = g.standard_normal(4)
    q /= np.linalg.norm(q)
    return np.array(
        [
            [q[0] + 1j * q[3], q[2] + 1j * q[1]],
            [-q[2] + 1j * q[1], q[0] - 1j * q[3]],
        ]
    )


def sample_local_unitary(seed, index):
    """Haar-random local unitary pair (u, v)."""
    g = philox_stream(seed, TAG_LOCAL_UNITARY, index)
    return LocalUnitary(u=random_su2(g), v=random_su2(g))


def random_hermitian(g, dim=4, scale=1.0):
    """Gaussian Hermitian matrix (A + A^dag)/2, for exercising kernels."""
    a = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    return scale * 0.5 * (a + np.conj(a.T))


def random_antihermitian(g, dim=4, scale=1.0):
    """Gaussian anti-Hermitian matrix (A - A^dag)/2."""
    a = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    return scale * 0.5 * (a - np.conj(a.T))


# -- chunked iteration ---------------------------------------------------------

def _chart_states(seed, index):
    return representative_state(sample_chart_point(seed, index))


#: Ensemble name -> (the first m states of chunk c, the state of one index).
_ENSEMBLE_TABLE = {
    "hs": (lambda seed, c, m: _hs_chunk(seed, c, 0, m), sample_hs_state),
    "product": (lambda seed, c, m: _product_chunk(seed, c, 0, m), sample_product_state),
    "chart": (
        lambda seed, c, m: _chart_states(seed, np.arange(c * tol.CHUNK, c * tol.CHUNK + m)),
        _chart_states,
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


def ensemble_chunks(ensemble, seed, n):
    """Yield (start_index, states) arrays covering samples 0..n-1 in order.

    The last chunk is truncated to the requested count; the underlying
    streams are unaffected by the truncation (chunk-level streams are
    always drawn in full, per-index streams do not interact).
    """
    chunk_states, _ = check_ensemble(ensemble)
    if n < 1:
        raise DomainError(f"sample count must be positive, got {n}")
    for chunk in range((n + tol.CHUNK - 1) // tol.CHUNK):
        start = chunk * tol.CHUNK
        yield start, chunk_states(seed, chunk, min(tol.CHUNK, n - start))


def ensemble_state(ensemble, seed, index):
    """Reconstruct a single ensemble member by its index."""
    return check_ensemble(ensemble)[1](seed, index)
