"""Fano parameterization: extraction, reconstruction, local actions."""

import re
import warnings

import numpy as np
import pytest

from entspace.errors import DomainError
from entspace.fano import (
    BASIS,
    FanoState,
    LocalUnitary,
    density_matrix,
    from_fano,
    local_unitary_action,
    schlienz_mahler,
    su2_to_so3,
    to_fano,
)
from entspace.linalg4 import SIGMA, dag, herm_eigenvalues
from entspace.sampling import (
    ensemble_chunks,
    sample_hs_state,
    sample_local_unitary,
    sample_product_state,
)


def test_maximally_mixed_has_zero_coefficients():
    f = to_fano(np.eye(4) / 4.0)
    assert np.max(np.abs(f.a)) == 0.0
    assert np.max(np.abs(f.b)) == 0.0
    assert np.max(np.abs(f.C)) == 0.0


def test_diagonal_state_coefficients():
    r = np.array([0.4, 0.3, 0.2, 0.1])
    f = to_fano(np.diag(r).astype(complex))
    # diag(s_z (x) I) = (1,1,-1,-1), diag(I (x) s_z) = (1,-1,1,-1)
    assert abs(f.a[2] - (r[0] + r[1] - r[2] - r[3])) < 1e-15
    assert abs(f.b[2] - (r[0] - r[1] + r[2] - r[3])) < 1e-15
    assert abs(f.C[2, 2] - (r[0] - r[1] - r[2] + r[3])) < 1e-15
    assert np.max(np.abs(f.a[:2])) == 0.0
    assert np.max(np.abs(f.C[:2, :2])) == 0.0


def test_bell_state_coefficients_and_reconstruction():
    bell = 0.5 * np.array(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
    )
    f = to_fano(bell)
    assert np.max(np.abs(f.a)) < 1e-15
    assert np.max(np.abs(f.b)) < 1e-15
    assert np.allclose(f.C, np.diag([1.0, -1.0, 1.0]), atol=1e-15)
    assert np.max(np.abs(from_fano(f) - bell)) < 1e-15


def test_from_fano_zero_is_maximally_mixed():
    f = FanoState(a=np.zeros(3), b=np.zeros(3), C=np.zeros((3, 3)))
    assert np.array_equal(from_fano(f), np.eye(4) / 4.0)


def test_roundtrip_on_random_states():
    for i in range(200):
        rho = sample_hs_state(101, i)
        f = to_fano(rho)
        assert np.max(np.abs(from_fano(f) - rho)) < 1e-13


def test_from_fano_accepts_nonpositive_coefficients():
    # within coefficient bounds but not a state: reconstruction must not reject
    f = FanoState(a=[0.9, 0, 0], b=[0.9, 0, 0], C=np.zeros((3, 3)))
    m = from_fano(f)
    assert abs(np.trace(m).real - 1.0) < 1e-15
    assert herm_eigenvalues(m)[-1] < -0.1


def test_fano_state_bounds_enforced():
    with pytest.raises(DomainError, match="Bloch vector"):
        FanoState(a=[1.2, 0.8, 0], b=np.zeros(3), C=np.zeros((3, 3)))
    with pytest.raises(DomainError, match="correlation"):
        FanoState(a=np.zeros(3), b=np.zeros(3), C=1.5 * np.eye(3))
    # a NaN fails no `> bound` comparison, so it has a check of its own
    zero = (np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    for k, bad in ((0, [np.nan, 0.0, 0.0]), (1, [0.0, np.nan, 0.0]),
                   (2, np.diag([0.5, np.nan, 0.5]))):
        with pytest.raises(DomainError, match="non-finite"):
            FanoState(*zero[:k], bad, *zero[k + 1:])
    with pytest.raises(DomainError, match="non-finite"):
        to_fano(np.full((4, 4), np.nan))
    # an infinite entry is non-finite too, not an out-of-range norm
    with pytest.raises(DomainError, match="non-finite"):
        FanoState(a=[np.inf, 0.0, 0.0], b=np.zeros(3), C=np.zeros((3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf times a zero warns no more than the einsum
        with pytest.raises(DomainError, match="non-finite"):
            to_fano(np.diag([np.inf, 0.0, 0.0, 0.0]))


def test_schlienz_mahler_vanishes_on_products():
    for i in range(100):
        rho = sample_product_state(55, i)
        f = to_fano(rho)
        m = schlienz_mahler(f)
        assert np.max(np.abs(m)) < 1e-13
        assert np.max(np.abs(f.C - np.outer(f.a, f.b))) < 1e-13


def test_schlienz_mahler_mixed_and_bell():
    f = to_fano(np.eye(4) / 4.0)
    assert np.max(np.abs(schlienz_mahler(f))) == 0.0
    bell = 0.5 * np.array(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(schlienz_mahler(to_fano(bell)), np.diag([1, -1, 1]), atol=1e-15)


def test_local_unitary_validation():
    with pytest.raises(DomainError, match="special unitary"):
        LocalUnitary(u=np.eye(2) * 1.1, v=np.eye(2))
    with pytest.raises(DomainError, match="2x2"):
        LocalUnitary(u=np.eye(4), v=np.eye(2))
    # phase matters: sigma_x has det = -1, unitary but not special
    with pytest.raises(DomainError, match="special unitary"):
        LocalUnitary(u=np.array([[0.0, 1.0], [1.0, 0.0]]), v=np.eye(2))


def test_local_unitary_stacks_that_do_not_broadcast_raise_domain_error():
    u, v = np.tile(np.eye(2), (2, 1, 1)), np.tile(np.eye(2), (3, 1, 1))
    with pytest.raises(DomainError) as e:
        LocalUnitary(u=u, v=v)
    assert str(e.value) == "u of shape (2, 2, 2) and v of shape (3, 2, 2) do not broadcast"
    with pytest.raises(DomainError) as e:
        local_unitary_action(np.tile(np.eye(4) / 4, (3, 1, 1)), LocalUnitary(u=u, v=np.eye(2)))
    assert str(e.value) == "rho of shape (3, 4, 4) and g of shape (2, 4, 4) do not broadcast"


def test_local_unitary_rejects_nan_factor_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as e:
            LocalUnitary(u=np.full((2, 2), np.nan), v=np.eye(2))
    assert str(e.value) == "u is not special unitary: |u^dag u - I| = nan, |det - 1| = nan"


def test_local_unitary_action_identity():
    g = LocalUnitary(u=np.eye(2), v=np.eye(2))
    rho = sample_hs_state(7, 0)
    assert np.array_equal(local_unitary_action(rho, g), rho)


def test_local_unitary_action_spectrum_and_rotation_law():
    for i in range(60):
        rho = sample_hs_state(8, i)
        g = sample_local_unitary(8, i)
        rotated = local_unitary_action(rho, g)
        w0 = herm_eigenvalues(rho)
        w1 = herm_eigenvalues(rotated)
        assert np.max(np.abs(w0 - w1)) < 1e-12
        f0 = to_fano(rho)
        f1 = to_fano(rotated)
        ra = su2_to_so3(g.u)
        rb = su2_to_so3(g.v)
        assert np.max(np.abs(f1.a - ra @ f0.a)) < 1e-12
        assert np.max(np.abs(f1.b - rb @ f0.b)) < 1e-12
        assert np.max(np.abs(f1.C - ra @ f0.C @ rb.T)) < 1e-12


def test_su2_to_so3_is_rotation():
    for u in sample_local_unitary(9, np.arange(50)).u:
        r = su2_to_so3(u)
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-13
        assert abs(np.linalg.det(r) - 1.0) < 1e-13


def test_su2_to_so3_stack_repeats_each_single_call():
    us = sample_local_unitary(10, np.arange(24)).u
    stacked = su2_to_so3(us.reshape(4, 6, 2, 2))
    assert stacked.shape == (4, 6, 3, 3)
    for u, r in zip(us, stacked.reshape(24, 3, 3)):
        assert np.array_equal(r, su2_to_so3(u))
        # against the definition R_ij = (1/2) tr(s_i u s_j u^dag), entry by entry
        for i, j in np.ndindex(3, 3):
            want = 0.5 * np.trace(SIGMA[i] @ u @ SIGMA[j] @ dag(u)).real
            assert abs(r[i, j] - want) < 1e-15


def test_density_matrix_gate_accepts_states():
    for i in range(20):
        rho = sample_hs_state(10, i)
        out = density_matrix(rho)
        assert np.max(np.abs(out - dag(out))) == 0.0


def test_density_matrix_gate_rejections():
    with pytest.raises(DomainError, match="4x4"):
        density_matrix(np.eye(2) / 2.0)
    with pytest.raises(DomainError, match="trace"):
        density_matrix(np.eye(4) / 2.0)
    with pytest.raises(DomainError, match="not Hermitian"):
        density_matrix(np.eye(4) / 4.0 + 1e-6 * 1j * np.diag([1, -1, 0, 0.0]))
    neg = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    with pytest.raises(DomainError, match="positive semidefinite"):
        density_matrix(neg)
    # a tiny negative eigenvalue within tolerance is accepted
    density_matrix(np.diag([0.6, 0.4, 1e-11 + 0j, -1e-11]))


def test_partial_trace_bloch_consistency():
    from entspace.linalg4 import SIGMA, partial_trace

    for i in range(30):
        rho = sample_hs_state(11, i)
        f = to_fano(rho)
        ra = partial_trace(rho)
        rb = np.einsum("jijk->ik", rho.reshape(2, 2, 2, 2))  # trace out qubit A
        bloch_a = [np.trace(ra @ s).real for s in SIGMA]
        bloch_b = [np.trace(rb @ s).real for s in SIGMA]
        assert np.max(np.abs(f.a - bloch_a)) < 1e-12
        assert np.max(np.abs(f.b - bloch_b)) < 1e-12


def test_stacked_fano_is_bitwise_per_index():
    from entspace.sampling import ensemble_chunks

    _, states = next(ensemble_chunks("hs", 12, 300))
    f = to_fano(states)
    assert f.a.shape == f.b.shape == (300, 3) and f.C.shape == (300, 3, 3)
    back = from_fano(f)
    m = schlienz_mahler(f)
    for i, rho in enumerate(states):
        fi = to_fano(rho)
        assert np.array_equal(fi.a, f.a[i])
        assert np.array_equal(fi.b, f.b[i])
        assert np.array_equal(fi.C, f.C[i])
        assert np.array_equal(from_fano(fi), back[i])
        assert np.array_equal(schlienz_mahler(fi), m[i])
    assert np.max(np.abs(back - states)) < 1e-13
    grid = to_fano(states.reshape(3, 100, 4, 4))
    assert np.array_equal(grid.C.reshape(300, 3, 3), f.C)


def _root(a):
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("shape", [(), (300,)])
def test_fano_coefficients_own_their_memory(shape):
    _, states = next(ensemble_chunks("hs", 13, 300))
    rho = states[0] if shape == () else states
    f = to_fano(rho)
    v = np.einsum("kij,...ji->...k", BASIS, rho).real
    for got, want in ((f.a, v[..., :3]), (f.b, v[..., 3:6]), (f.C, v[..., 6:])):
        # the held array is all its buffer holds: no complex (..., 15) behind it
        assert _root(got).nbytes == got.nbytes
        assert not np.shares_memory(got, v)
        assert got.reshape(want.shape).tobytes() == np.ascontiguousarray(want).tobytes()
    assert not np.shares_memory(f.a, f.b) and not np.shares_memory(f.b, f.C)


def test_stacked_fano_state_names_the_offending_index():
    a = np.zeros((4, 3))
    c = np.zeros((4, 3, 3))
    a[2] = [1.2, 0.8, 0.0]
    with pytest.raises(DomainError, match=r"Bloch vector norm out of range at stack index 2:"):
        FanoState(a=a, b=np.zeros((4, 3)), C=c)
    c[3, 1, 1] = -1.5
    with pytest.raises(DomainError, match=r"correlation entry out of range at stack index 3:"):
        FanoState(a=np.zeros((4, 3)), b=np.zeros((4, 3)), C=c)
    with pytest.raises(DomainError, match=r"at stack index \(1, 1\)"):
        FanoState(a=np.zeros((2, 2, 3)), b=np.zeros((2, 2, 3)), C=c.reshape(2, 2, 3, 3))


def test_stacked_local_unitary_names_the_first_offending_factor():
    k = sample_local_unitary(9, np.arange(6))
    v = k.v.copy()
    v[4] *= 1.1
    with pytest.raises(DomainError, match="v at stack index 4 is not special unitary"):
        LocalUnitary(u=k.u, v=v)
    v[4] = np.nan
    with pytest.raises(DomainError, match="v at stack index 4 is not special unitary"):
        LocalUnitary(u=k.u, v=v)
    with pytest.raises(DomainError, match="u must be 2x2"):
        LocalUnitary(u=k.matrix(), v=k.v)


def test_stacked_local_unitary_action_is_bitwise_per_index():
    _, states = next(ensemble_chunks("hs", 10, 12))
    k = sample_local_unitary(11, np.arange(12))
    rotated = local_unitary_action(states, k)
    for i, rho in enumerate(states):
        ki = sample_local_unitary(11, i)
        m = np.kron(ki.u, ki.v)
        assert rotated[i].tobytes() == (m @ rho @ np.conj(m.T)).tobytes()
    # one pair broadcast over a stack of states
    shared = local_unitary_action(states, sample_local_unitary(11, 3))
    assert shared[7].tobytes() == local_unitary_action(states[7], sample_local_unitary(11, 3)).tobytes()


def test_fano_state_shapes_are_checked():
    # a is (..., 3), b has a's shape and C is a.shape[:-1] + (3, 3); nothing
    # is reshaped into place
    for a, b, c in (
        ((2, 3), (6,), (18,)),
        ((4,), (4,), (3, 3)),
        ((), (), ()),
        ((3,), (3,), (9,)),
        ((2, 3), (3,), (2, 3, 3)),
        ((2, 3), (2, 3), (3, 3)),
        ((2, 3), (2, 3), (2, 9)),
    ):
        with pytest.raises(DomainError, match=re.escape(f"got {a}, {b} and {c}")):
            FanoState(np.zeros(a), np.zeros(b), np.zeros(c))
    f = FanoState(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3, 3)))
    assert from_fano(f).shape == (0, 4, 4)


def test_to_fano_rejects_shapes_other_than_4x4_stacks():
    for shape in ((3, 3), (4, 4, 1), (2, 8), (16,), (4,), ()):
        with pytest.raises(DomainError, match=re.escape(f"got shape {shape}")):
            to_fano(np.zeros(shape))
    f = to_fano(np.zeros((0, 4, 4)))
    assert f.a.shape == f.b.shape == (0, 3) and f.C.shape == (0, 3, 3)


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _einsum_to_fano(rho):
    """a, b, C by the einsum definition over the 15 Pauli products."""
    i2 = np.eye(2)
    basis = np.array(
        [np.kron(s, i2) for s in _PAULIS]
        + [np.kron(i2, s) for s in _PAULIS]
        + [np.kron(s, t) for s in _PAULIS for t in _PAULIS]
    )
    v = np.einsum("kij,...ji->...k", basis, rho).real
    return v[..., :3], v[..., 3:6], v[..., 6:].reshape(*v.shape[:-1], 3, 3)


def _einsum_from_fano(a, b, c):
    """(I4 + sum a_k s_k(x)I + sum b_k I(x)s_k + sum C_kl s_k(x)s_l) / 4 by
    the einsum definition, one family at a time."""
    i2 = np.eye(2)
    m = np.eye(4, dtype=complex)
    m = m + np.einsum("...k,kij->...ij", a, np.array([np.kron(s, i2) for s in _PAULIS]))
    m = m + np.einsum("...k,kij->...ij", b, np.array([np.kron(i2, s) for s in _PAULIS]))
    ab = np.array([[np.kron(s, t) for t in _PAULIS] for s in _PAULIS])
    m = m + np.einsum("...kl,klij->...ij", c, ab)
    return 0.25 * m


def _same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_fano_maps_match_einsum_contract():
    """to_fano and from_fano give the bytes of their einsum definitions.

    Every product is exact, so only the summation order decides the bits.
    Non-Hermitian input pins to_fano's order (a product that sums all four
    terms at once agrees only on Hermitian input), signed zeros pin its
    +0.0 for an exactly zero sum, and coefficients spread over many
    magnitudes exercise from_fano's rounding."""
    g = np.random.default_rng(2024)
    # parts within 0.1 keep every coefficient within 0.4, so FanoState
    # accepts them; magnitudes spread over 12 decades make the sums round
    parts = g.uniform(-0.1, 0.1, (2, 500, 4, 4)) * 10.0 ** g.integers(-11, 1, (2, 500, 4, 4))
    general = parts[0] + 1j * parts[1]
    zeros = np.zeros((2, 4, 4), dtype=complex)
    zeros[1] = -0.0 - 0.0j
    stacks = [states for _, states in (next(ensemble_chunks(e, 14, 300))
                                       for e in ("hs", "product", "chart"))]
    inputs = stacks + [
        stacks[0][0],                           # one matrix
        stacks[0].reshape(3, 100, 4, 4),        # a grid
        general,
        general[7],
        zeros,
    ]
    for rho in inputs:
        f = to_fano(rho)
        want = _einsum_to_fano(rho)
        for got, ref in zip((f.a, f.b, f.C), want):
            assert _same_bytes(got, ref)
        if np.array_equal(rho, np.conj(np.swapaxes(rho, -1, -2))):
            assert _same_bytes(from_fano(f), _einsum_from_fano(*want))
    # coefficients within the bounds, not states, over many magnitudes
    scale = 10.0 ** g.integers(-12, 1, (500, 15))
    v = g.uniform(-1, 1, (500, 15)) * scale / np.sqrt(3)
    coeffs = (v[:, :3], v[:, 3:6], v[:, 6:].reshape(500, 3, 3))
    assert _same_bytes(from_fano(FanoState(*coeffs)), _einsum_from_fano(*coeffs))
    one = tuple(c[11] for c in coeffs)
    assert _same_bytes(from_fano(FanoState(*one)), _einsum_from_fano(*one))
