"""Deterministic random ensembles over two-qubit states.

All randomness flows through counter-based Philox streams keyed by
(seed, tag, index), so any sample is addressable by its index alone:
reproducing sample i never requires drawing samples 0..i-1, and results
are independent of batching.  Matrix-valued ensembles are drawn in chunks
of CHUNK samples; a chunk is always generated in full, which keeps the
stream layout independent of the requested sample count.
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

def _hs_chunk(seed, chunk):
    g = philox_stream(seed, TAG_HS, chunk)
    x = g.standard_normal((tol.CHUNK, 4, 4))
    y = g.standard_normal((tol.CHUNK, 4, 4))
    ginibre = x + 1j * y
    rho = ginibre @ np.conj(np.swapaxes(ginibre, 1, 2))
    traces = np.einsum("nii->n", rho).real
    return rho / traces[:, None, None]


def sample_hs_state(seed, index):
    """Sample ``index`` of the Hilbert-Schmidt (Ginibre) ensemble.

    rho = G G^dag / tr(G G^dag) with G a 4x4 standard complex Ginibre
    matrix; full rank with probability one.
    """
    return _hs_chunk(seed, index // tol.CHUNK)[index % tol.CHUNK]


# -- product-state ensemble ----------------------------------------------------

def _bloch_ball_points(g, n):
    """Uniform points of the solid Bloch ball: isotropic direction times
    radius u^(1/3)."""
    direction = g.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = g.random(n) ** (1.0 / 3.0)
    return direction * radius[:, None]


def _qubit_states(bloch):
    return 0.5 * (I2 + np.einsum("ni,ijk->njk", bloch, SIGMA))


def _product_chunk(seed, chunk):
    g = philox_stream(seed, TAG_PRODUCT, chunk)
    rho_a = _qubit_states(_bloch_ball_points(g, tol.CHUNK))
    rho_b = _qubit_states(_bloch_ball_points(g, tol.CHUNK))
    return np.einsum("nab,ncd->nacbd", rho_a, rho_b).reshape(tol.CHUNK, 4, 4)


def sample_product_state(seed, index):
    """Sample ``index`` of the product ensemble rho_A (x) rho_B with both
    factors uniform over the solid Bloch ball.  Separable by construction."""
    return _product_chunk(seed, index // tol.CHUNK)[index % tol.CHUNK]


# -- chart-point ensemble ------------------------------------------------------

def _octahedron_point(g):
    """Uniform point of the closed l1-ball of radius 2*pi, by rejection
    from the enclosing cube (acceptance rate 1/6)."""
    while True:
        v = g.uniform(-TWO_PI, TWO_PI, 3)
        if np.sum(np.abs(v)) <= TWO_PI:
            return v


def sample_chart_point(seed, index):
    """Sample ``index`` of the chart ensemble.

    The spectrum is a flat-Dirichlet simplex point sorted in decreasing
    order; alpha and beta are independent uniform points of the double
    octahedron.  Ties in the spectrum (probability zero) are redrawn so
    the point is always generic.
    """
    g = philox_stream(seed, TAG_CHART, index)
    while True:
        r = np.sort(g.dirichlet(np.ones(4)))[::-1]
        if np.min(r[:-1] - r[1:]) > 0 and r[-1] > 0:
            break
    return ChartPoint(
        simplex=xyz_from_eigenvalues(r),
        alpha=_octahedron_point(g),
        beta=_octahedron_point(g),
    )


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

def _chart_state(seed, index):
    return representative_state(sample_chart_point(seed, index))


#: Ensemble name -> (the first m states of chunk c, the state of one index).
_ENSEMBLE_TABLE = {
    "hs": (lambda seed, c, m: _hs_chunk(seed, c)[:m], sample_hs_state),
    "product": (lambda seed, c, m: _product_chunk(seed, c)[:m], sample_product_state),
    "chart": (
        lambda seed, c, m: np.stack([_chart_state(seed, c * tol.CHUNK + i) for i in range(m)]),
        _chart_state,
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
