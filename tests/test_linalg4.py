"""Kernel tests: every routine checked against an independent route."""

import hashlib
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entspace import tolerances as tol
from entspace.errors import DomainError, NumericalError
from entspace.linalg4 import (
    _FLOAT_OPS,
    _PT_FLIPS,
    _PT_ROWS,
    _ROW_OPS,
    _entry_rows,
    _exp_parts,
    _hermitian,
    _off_squares,
    _pair_tables,
    _pt_newton,
    _pt_rows,
    _s_coeffs,
    I2,
    I4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    char_poly_coeffs,
    dag,
    exp_antihermitian,
    exp_commuting_paulis,
    herm_eigensystem,
    herm_eigenvalues,
    hermitize,
    min_eig_certificates,
    partial_trace,
    partial_transpose,
    pauli_tables,
    pt_min_eigenvalue,
    tensor_product,
    unitarity_defect,
)
from entspace import sampling
from entspace.sampling import (
    ENSEMBLES,
    ensemble_chunks,
    philox_stream,
    random_hermitian,
)
from entspace.separability import werner_state

EPS = np.finfo(float).eps


def random_antihermitian(g):
    """Gaussian anti-Hermitian 4x4 matrix A - A^dag (Re A, then Im A)."""
    a = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    return a - np.conj(a.T)


def faddeev_leverrier(h):
    """Independent characteristic-coefficient oracle (no power traces)."""
    m = np.array(h, dtype=complex)
    a1 = -np.trace(m).real
    m2 = h @ (m + a1 * I4)
    a2 = -np.trace(m2).real / 2.0
    m3 = h @ (m2 + a2 * I4)
    a3 = -np.trace(m3).real / 3.0
    m4 = h @ (m3 + a3 * I4)
    a4 = -np.trace(m4).real / 4.0
    return a2, -a3, a4


def test_tensor_product_identities():
    assert np.array_equal(tensor_product(I2, I2), I4)
    xx = tensor_product(SIGMA_X, SIGMA_X)
    assert np.array_equal(xx, np.fliplr(np.eye(4)))
    # row index of the product is 2*i_a + i_b (left factor is slow)
    za = tensor_product(SIGMA_Z, I2)
    assert np.array_equal(np.diag(za).real, [1, 1, -1, -1])


def test_tensor_product_mixed_product():
    g = philox_stream(11, 60)
    for _ in range(200):
        a, b, c, d = (random_hermitian(g, dim=2) for _ in range(4))
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_hermitian_stack_repeats_sequential_draws():
    g, h = philox_stream(12, 60), philox_stream(12, 60)
    stack = 3.0 * random_hermitian(g, dim=2, shape=(30, 4))
    for pos in np.ndindex(30, 4):
        a = h.standard_normal((2, 2)) + 1j * h.standard_normal((2, 2))
        assert stack[pos].tobytes() == (3.0 * 0.5 * (a + np.conj(a.T))).tobytes()


def test_stacked_tensor_product_is_bitwise_np_kron():
    g = philox_stream(13, 60)
    a = random_hermitian(g, dim=2, shape=(50,))
    b = random_hermitian(g, dim=2, shape=(50,))
    stacked = tensor_product(a, b)
    assert stacked.shape == (50, 4, 4)
    for i in range(50):
        assert stacked[i].tobytes() == np.kron(a[i], b[i]).tobytes()
        assert stacked[i].tobytes() == tensor_product(a[i], b[i]).tobytes()
    left = tensor_product(SIGMA_Y, b.reshape(5, 10, 2, 2))
    assert left.shape == (5, 10, 4, 4)
    assert left.reshape(50, 4, 4)[17].tobytes() == np.kron(SIGMA_Y, b[17]).tobytes()
    wide = np.arange(6.0).reshape(2, 3)
    assert tensor_product(wide, a[0]).tobytes() == np.kron(wide.astype(complex), a[0]).tobytes()


def test_tensor_product_stacks_that_do_not_broadcast_raise_domain_error():
    with pytest.raises(DomainError) as e:
        tensor_product(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))
    assert str(e.value) == "a of shape (2, 2, 2) and b of shape (3, 2, 2) do not broadcast"


def test_hermitize_accepts_and_symmetrizes():
    g = philox_stream(12, 60)
    h = random_hermitian(g)
    bumped = h + 1e-14 * np.array([[0, 1j, 0, 0]] * 4)
    out = hermitize(bumped)
    assert np.max(np.abs(out - dag(out))) == 0.0


def test_hermitize_rejects():
    with pytest.raises(DomainError, match="not Hermitian"):
        hermitize(np.diag([1.0, 1.0, 1.0, 1.0]) + 1e-6 * 1j * np.eye(4))
    with pytest.raises(DomainError):
        hermitize([[0, 1], [0, 0]])


def test_eigenvalues_diagonal():
    w = herm_eigenvalues(np.diag([0.1, 0.7, 0.4, -0.2]))
    assert np.allclose(w, [0.7, 0.4, 0.1, -0.2], atol=1e-15)


def test_eigenvalues_pauli_word():
    w = herm_eigenvalues(tensor_product(SIGMA_X, I2))
    assert np.allclose(w, [1, 1, -1, -1], atol=1e-14)


def test_eigensystem_against_lapack():
    g = philox_stream(13, 60)
    for _ in range(300):
        h = random_hermitian(g)
        w, v = herm_eigensystem(h)
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs(v @ np.diag(w) @ dag(v) - h)) < tol.EIG_RECONSTRUCT_TOL
        assert np.max(np.abs(dag(v) @ v - I4)) < tol.EIG_RECONSTRUCT_TOL
        ref = np.linalg.eigvalsh(h)[::-1]
        assert np.max(np.abs(w - ref)) < 1e-12
        assert abs(w.sum() - np.trace(h).real) < 1e-12


def test_eigensystem_sweep_cap(monkeypatch):
    monkeypatch.setattr(tol, "JACOBI_MAX_SWEEPS", 0)
    g = philox_stream(14, 60)
    with pytest.raises(NumericalError, match="sweep cap"):
        herm_eigensystem(random_hermitian(g))


def reference_jacobi_eigenvalues(h):
    """Independent per-matrix cyclic Jacobi: each rotation is embedded in a
    full identity and applied by two 4x4 matrix products."""
    a = 0.5 * (h + dag(h))
    n = a.shape[0]
    stop = tol.JACOBI_OFF_TOL * max(1.0, np.linalg.norm(a))

    def off_norm(m):
        return np.sqrt(np.sum(np.abs(m - np.diag(np.diag(m))) ** 2))

    for _ in range(tol.JACOBI_MAX_SWEEPS):
        if off_norm(a) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= stop / (n * n):
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = 1.0 if tau == 0.0 else np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                j = np.eye(n, dtype=complex)
                j[p, p] = c
                j[q, q] = c
                j[p, q] = s * phase
                j[q, p] = -s * np.conj(phase)
                a = dag(j) @ a @ j
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise AssertionError("reference Jacobi did not converge")
    return np.sort(np.diag(a).real)[::-1]


def _hs_and_hermitian_stack(seed, count):
    _, hs = next(ensemble_chunks("hs", seed, count))
    g = philox_stream(seed, 61)
    return np.concatenate([hs, np.stack([random_hermitian(g) for _ in range(count)])])


def test_eigensystem_matches_reference_loop():
    hs = _hs_and_hermitian_stack(21, 150)
    ws, vs = herm_eigensystem(hs)
    for h, w, v in zip(hs, ws, vs):
        bound = 64 * EPS * max(1.0, np.linalg.norm(h))
        assert np.max(np.abs(w - reference_jacobi_eigenvalues(h))) <= bound
        assert np.max(np.abs(v @ np.diag(w) @ dag(v) - h)) < tol.EIG_RECONSTRUCT_TOL
        assert np.max(np.abs(dag(v) @ v - I4)) < tol.EIG_RECONSTRUCT_TOL


def test_stacked_call_is_bitwise_per_index_call():
    hs = _hs_and_hermitian_stack(22, 40)
    ws, vs = herm_eigensystem(hs)
    assert ws.shape == (80, 4) and vs.shape == (80, 4, 4)
    for h, w, v in zip(hs, ws, vs):
        w1, v1 = herm_eigensystem(h)
        assert np.array_equal(w, w1) and np.array_equal(v, v1)
    # extra leading axes are flattened and restored
    grid = herm_eigenvalues(hs.reshape(8, 10, 4, 4))
    assert np.array_equal(grid.reshape(80, 4), ws)
    assert herm_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 4)


def test_sweep_cap_names_the_failing_index(monkeypatch):
    g = philox_stream(23, 60)
    diag = np.diag([0.4, 0.3, 0.2, 0.1])
    stack = np.stack([diag, diag, random_hermitian(g), random_hermitian(g)])
    monkeypatch.setattr(tol, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericalError, match="sweep cap .* at stack index 2,"):
        herm_eigensystem(stack)
    # diagonal matrices stop before their first sweep
    assert np.array_equal(herm_eigenvalues(stack[:2]), [[0.4, 0.3, 0.2, 0.1]] * 2)


def _eigenvalue_only_cases():
    cases = {}
    for ensemble in ("hs", "product", "chart"):
        _, states = next(ensemble_chunks(ensemble, 24, 96))
        cases[ensemble] = states
    cases["pt_hs"] = partial_transpose(cases["hs"])
    g = philox_stream(24, 60)
    for dim in (2, 3):
        cases[f"hermitian_d{dim}"] = random_hermitian(g, dim=dim, shape=(40,))
    cases["single"] = cases["hs"][5]
    cases["leading_axes"] = cases["hs"].reshape(4, 3, 8, 4, 4)
    cases["empty"] = np.zeros((0, 4, 4))
    return cases


@pytest.mark.parametrize("name, stack", sorted(_eigenvalue_only_cases().items()))
def test_eigenvalue_only_call_is_bitwise_full_call(name, stack):
    w = herm_eigenvalues(stack)
    full = herm_eigensystem(stack)[0]
    assert w.shape == full.shape == stack.shape[:-1]
    assert w.tobytes() == full.tobytes()


def test_eigenvalue_only_sweep_cap_names_the_failing_index(monkeypatch):
    g = philox_stream(25, 60)
    diag = np.diag([0.4, 0.3, 0.2, 0.1])
    stack = np.stack([diag, random_hermitian(g), diag, random_hermitian(g)])
    monkeypatch.setattr(tol, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericalError, match="sweep cap .* at stack index 1,") as only:
        herm_eigenvalues(stack)
    with pytest.raises(NumericalError) as full:
        herm_eigensystem(stack)
    assert str(only.value) == str(full.value)
    # rows [diag, random], [diag, random]: the first unconverged is (0, 1)
    with pytest.raises(NumericalError, match=r"at stack index \(0, 1\),"):
        herm_eigenvalues(stack.reshape(2, 2, 4, 4)[::-1])


def test_negative_zero_pivot_rotates_like_tau_zero():
    # A[q, q] = -0 against A[p, p] = +0 gives tau = -0; the rotation takes
    # t = 1 as at tau = +0, so both matrices give the same eigensystem
    c = 1.0 / np.sqrt(2.0)
    for corner in (0.0, -0.0):
        w, v = herm_eigensystem(np.array([[0.0, 1.0], [1.0, corner]]))
        assert w.tolist() == [1.0, -1.0]
        assert np.array_equal(v, c * np.array([[1.0, 1.0], [1.0, -1.0]]))


#: Fixed edge values for the pivot functions: +-0, subnormals, the smallest
#: normal, and ten mantissas times 1e-300 to 1e300 (math.hypot, which is
#: not np.hypot, differs on 36 of their pairs).
_PIVOT_EDGES = np.array(
    [0.0, 5e-324, 3e-320, 1e-310, 2.2250738585072014e-308]
    + [
        m * 10.0 ** e
        for e in range(-300, 301, 30)
        for m in (1.0, 1.0 / 3.0, np.pi, 0.1, 0.7, np.sqrt(2.0), 1.7, 3.3, 5.9, 7.1)
    ]
)
_SIGNED_EDGES = np.concatenate([_PIVOT_EDGES, -_PIVOT_EDGES])


def _bits(x):
    return np.asarray(x).reshape(-1).view(np.uint64)


def test_lone_pivot_functions_give_the_stack_bits_contract():
    # A lone matrix's entry rows are Python floats and take Python's scalar
    # functions (_FLOAT_OPS); a stack's are arrays and take ufuncs (_ROW_OPS).
    # abs of a complex is the C hypot of np.hypot, math.sqrt and np.sqrt are
    # both correctly rounded, copysign and the maximum exact.  Stacks keep
    # np.hypot: with numpy 2.4 on x86-64, np.abs of a complex array differed
    # from np.hypot in about 35 % of 20000 draws at every scale from 1e-300
    # to 1e300, and math.hypot in about 0.6 %, where the scalar abs matched
    # every one.
    lone, stack = _FLOAT_OPS, _ROW_OPS
    re, im = (x.reshape(-1) for x in np.meshgrid(_SIGNED_EDGES, _SIGNED_EDGES))
    # every pair, equal real and imaginary parts among them
    scalar = [lone[0](x, y) for x, y in zip(re.tolist(), im.tolist())]
    assert scalar == [abs(complex(x, y)) for x, y in zip(re.tolist(), im.tolist())]
    assert np.array_equal(_bits(scalar), _bits(stack[0](re, im)))
    assert np.array_equal(_bits(scalar), _bits(np.hypot(re, im)))
    roots = np.concatenate([[-0.0, np.inf], _PIVOT_EDGES, 1.0 + _PIVOT_EDGES])
    assert np.array_equal(_bits([lone[1](x) for x in roots.tolist()]), _bits(np.sqrt(roots)))
    assert np.array_equal(_bits([lone[1](x) for x in roots.tolist()]), _bits(stack[1](roots)))
    signs = [lone[2](x, y) for x, y in zip(re.tolist(), im.tolist())]
    assert np.array_equal(_bits(signs), _bits(stack[2](re, im)))
    assert np.array_equal(_bits(signs), _bits(np.copysign(re, im)))
    floors = np.concatenate([[np.inf, np.nan, 1.0], _SIGNED_EDGES, 1.0 + _PIVOT_EDGES])
    assert np.array_equal(_bits([lone[3](x) for x in floors.tolist()]), _bits(stack[3](floors)))
    with np.errstate(over="ignore"):
        # sum(|A[q, p]|^2) over the pairs, one term at a time: floats against rows
        pairs = _pair_tables(4)[2]
        draws = philox_stream(26, 60).standard_normal((20, 16))
        for rows in (*draws, re[:16], im[-16:], re[5000:5016], np.full(16, 1e200)):
            assert np.array_equal(
                _bits(_off_squares(rows.tolist(), pairs)), _bits(_off_squares(rows[:, None], pairs))
            )


def _frozen_eigensolver_stacks():
    """The fixed stacks of the eigensolver digest, one stack per d and kind."""
    g = philox_stream(41, 61)
    diagonal = np.zeros((16, 4, 4), dtype=complex)
    diagonal[:, range(4), range(4)] = g.standard_normal((16, 4))
    diagonal[8:, 2, 2] = diagonal[8:, 1, 1]  # a repeated eigenvalue
    near_degenerate = np.eye(4) + 1e-9 * random_hermitian(g, shape=(16,))
    near_diagonal = diagonal + 1e-13 * random_hermitian(g, shape=(16,))
    pivots = np.array([[[0.0, 1.0], [1.0, corner]] for corner in (0.0, -0.0)], dtype=complex)
    _, straggler = next(ensemble_chunks("hs", 31, 6))  # indices 0-4 take 4 sweeps, 5 takes 5
    return [
        next(ensemble_chunks("hs", 41, 4096))[1],
        random_hermitian(g, shape=(1024,)),
        diagonal,
        np.zeros((4, 4, 4)),
        near_diagonal,
        near_degenerate,
        np.concatenate([random_hermitian(g, dim=2, shape=(62,)), pivots]),
        straggler,
    ]


#: sha256 of w.tobytes() + v.tobytes() of herm_eigensystem over each stack of
#: _frozen_eigensolver_stacks() in turn.  Every matrix is also one lone call,
#: so this pins the one-matrix path to the stacked one; a change of the
#: solver's bits has to change this value on purpose.
FROZEN_EIGENSOLVER_DIGEST = "c405d42a4d61f530231e24c96260c3760073d502fc3ec623e9a140f6a1d8a65b"


def test_eigensolver_digest_contract(monkeypatch):
    stacks = _frozen_eigensolver_stacks()
    per_index, stacked, values_only = (hashlib.sha256() for _ in range(3))
    for stack in stacks:
        singles = [herm_eigensystem(h) for h in stack]
        per_index.update(np.stack([w for w, _ in singles]).tobytes())
        per_index.update(np.stack([v for _, v in singles]).tobytes())
        ws, vs = herm_eigensystem(stack)
        stacked.update(ws.tobytes() + vs.tobytes())
        values_only.update(herm_eigenvalues(stack).tobytes() + vs.tobytes())
    # lone matrices rotate on Python floats with Python's scalar functions
    # (_FLOAT_OPS), stacks on (k,) rows with ufuncs (_ROW_OPS)
    assert per_index.hexdigest() == stacked.hexdigest() == values_only.hexdigest(), (
        "scalar and ufunc paths of the Jacobi body diverged"
    )
    assert stacked.hexdigest() == FROZEN_EIGENSOLVER_DIGEST
    # the straggler stack is one: all but its last matrix converge a sweep early
    monkeypatch.setattr(tol, "JACOBI_MAX_SWEEPS", 5)
    herm_eigenvalues(stacks[-1][:5])
    with pytest.raises(NumericalError, match="at stack index 5,"):
        herm_eigenvalues(stacks[-1])


def test_hermitize_rejects_non_finite_entries():
    h = np.eye(4, dtype=complex)
    h[1, 2] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        hermitize(h)
    stack = np.stack([np.eye(4)] * 5).astype(complex)
    stack[3, 0, 0] = np.inf
    with pytest.raises(DomainError, match="at stack index 3 has a non-finite"):
        herm_eigenvalues(stack)
    stack[3, 0, 0] = 1.0
    stack[4, 0, 1] = 1e-6j
    with pytest.raises(DomainError, match="at stack index 4 is not Hermitian"):
        hermitize(stack)


@pytest.mark.parametrize("kernel", [herm_eigenvalues, herm_eigensystem])
@pytest.mark.parametrize("off", [1e160, 1e200, 1e308])
def test_jacobi_rejects_a_norm_that_overflows_without_warnings(kernel, off):
    # the squared norm was inf, so the stop was inf and no rotation ran:
    # [[0.25, 1e200], [1e200, 0.25]] came out as [0.25, 0.25]
    h = np.array([[0.25, off], [off, 0.25]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^matrix has a Frobenius norm that overflows"):
            kernel(h)
        stack = np.stack([np.eye(2), 0.5 * np.eye(2), h]).reshape(1, 3, 2, 2)
        with pytest.raises(DomainError, match=r"^matrix at stack index \(0, 2\) has a Frobenius"):
            kernel(stack)
        # the mean (H + H^dag)/2 of finite entries can overflow, without a warning
        half = hermitize(h)
        assert half[0, 0] == 0.25
        assert np.isfinite(half[0, 1]) == (off < 1e308)


_entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    re=arrays(np.float64, st.tuples(st.integers(1, 9), st.just(4), st.just(4)), elements=_entries),
    im_scale=st.sampled_from([0.0, 1e-3, 1.0]),
)
def test_stacked_kernel_property(re, im_scale):
    raw = re + 1j * im_scale * re[:, ::-1, :]
    stack = 0.5 * (raw + dag(raw))
    ws = herm_eigenvalues(stack)
    for h, w in zip(stack, ws):
        assert np.array_equal(herm_eigenvalues(h), w)
        ref = np.linalg.eigvalsh(h)[::-1]
        assert np.max(np.abs(w - ref)) <= 1e-12 * max(1.0, np.linalg.norm(h))


def test_exp_antihermitian_basics():
    assert np.max(np.abs(exp_antihermitian(np.zeros((4, 4))) - I4)) == 0.0
    # exp((2*pi/2i) X(x)I) = cos(pi) I = -I
    x = (2 * np.pi) * tensor_product(SIGMA_X, I2) / 2j
    assert np.max(np.abs(exp_antihermitian(x) + I4)) < 1e-12


def test_exp_antihermitian_against_scipy():
    g = philox_stream(15, 60)
    for scale in (0.3, 1.0, 4.0, 20.0):
        for _ in range(40):
            x = scale * 0.5 * random_antihermitian(g)
            mine = exp_antihermitian(x)
            ref = scipy.linalg.expm(x)
            assert np.max(np.abs(mine - ref)) < 1e-11
            # exp of anti-Hermitian is unitary with det = exp(tr x), a unit
            # phase; only the traceless part lands in SU(4) proper
            gram, _ = unitarity_defect(mine)
            assert gram < tol.UNITARITY_TOL
            assert abs(abs(np.linalg.det(mine)) - 1.0) < tol.UNITARITY_TOL
            traceless = x - np.trace(x) / 4.0 * I4
            gram, det = unitarity_defect(exp_antihermitian(traceless))
            assert gram < tol.UNITARITY_TOL and det < tol.UNITARITY_TOL
            inv = exp_antihermitian(-x)
            assert np.max(np.abs(mine @ inv - I4)) < 1e-12


def test_exp_antihermitian_rejects():
    with pytest.raises(DomainError, match="anti-Hermitian"):
        exp_antihermitian(np.eye(4))


def test_exp_commuting_paulis_matches_series():
    g = philox_stream(16, 60)
    words = (
        tensor_product(SIGMA_X, I2),
        tensor_product(I2, SIGMA_X),
        tensor_product(SIGMA_X, SIGMA_X),
    )
    for _ in range(50):
        angles = g.uniform(-2 * np.pi, 2 * np.pi, 3)
        closed = exp_commuting_paulis(angles, pauli_tables(words))
        gen = -0.5j * sum(t * w for t, w in zip(angles, words))
        assert np.max(np.abs(closed - exp_antihermitian(gen))) < tol.EXPM_PATH_TOL


def _chain_product(a, b):
    """a @ b with no BLAS call: each entry's four real chains rr, ii, ir and
    ri, each summed over the inner index from +0 in order, give
    re = rr - ii and im = ir + ri, assigned as the real and imaginary parts
    (re + 1j * im could flip the sign of a zero)."""
    chains = []
    for x, y in ((a.real, b.real), (a.imag, b.imag), (a.imag, b.real), (a.real, b.imag)):
        total = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for i in range(x.shape[-1]):
            total = total + x[..., :, i, None] * y[..., None, i, :]
        chains.append(total)
    rr, ii, ir, ri = chains
    out = np.empty(rr.shape, dtype=complex)
    out.real = rr - ii
    out.imag = ir + ri
    return out


def _rotation_product(angles, words, matmul):
    """The half-angle rotation product started from the identity,
    I f1 f2 ..., with f_k = cos(t_k/2) I - i sin(t_k/2) P_k and each product
    taken by ``matmul``."""
    half = np.asarray(angles, dtype=float)[..., None, None] / 2.0
    u = np.eye(4, dtype=complex)
    for k, w in enumerate(words):
        re, im = np.cos(half[..., k, :, :]) * np.eye(4), -np.sin(half[..., k, :, :]) * w.real
        factor = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=complex)
        factor.real, factor.imag = re, im
        u = matmul(u, factor)
    return u


_SPECIAL_ANGLES = (0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e-300, -1e-300)


def _special_and_mixed_triples(g, count):
    """The 512-point grid of special angles, and ``count`` random triples
    with about 30 % of their angles special."""
    from itertools import product

    grid = np.array(list(product(_SPECIAL_ANGLES, repeat=3)))
    mixed = np.where(g.random((count, 3)) < 0.3, g.choice(_SPECIAL_ANGLES, (count, 3)),
                     g.uniform(-2 * np.pi, 2 * np.pi, (count, 3)))
    return grid, mixed


def test_exp_commuting_paulis_is_bitwise_the_product_from_the_identity():
    from entspace.chart import ALPHA_WORDS, BETA_WORDS, TORUS_WORDS

    g = philox_stream(18, 60)
    grid, mixed = _special_and_mixed_triples(g, 200)
    # 1025 matrices: kernel passes of 513 and 512 (_EXP_CHUNK = 1024)
    stack = g.uniform(-4 * np.pi, 4 * np.pi, (5, 205, 3))
    for words in (ALPHA_WORDS, BETA_WORDS, TORUS_WORDS):
        for angles in np.concatenate([grid, mixed]):
            assert (exp_commuting_paulis(angles, pauli_tables(words)).tobytes()
                    == _rotation_product(angles, words, _chain_product).tobytes())
        for angles in (grid, mixed, stack):
            closed = exp_commuting_paulis(angles, pauli_tables(words))
            assert closed.shape == (*angles.shape[:-1], 4, 4)
            assert closed.tobytes() == _rotation_product(angles, words, _chain_product).tobytes()


def test_exp_commuting_paulis_equals_the_matmul_product_in_value():
    # the same product on numpy's matmul: equal values, with -0 == +0, since
    # the sign of a zero that BLAS gives depends on its kernel
    from entspace.chart import ALPHA_WORDS, BETA_WORDS, TORUS_WORDS

    grid, mixed = _special_and_mixed_triples(philox_stream(18, 60), 200)
    for words in (ALPHA_WORDS, BETA_WORDS, TORUS_WORDS):
        for angles in (grid, mixed):
            assert np.array_equal(exp_commuting_paulis(angles, pauli_tables(words)),
                                  _rotation_product(angles, words, np.matmul))


def test_exp_commuting_paulis_zero_angles_leave_a_family_unchanged_contract():
    # the chart's six words with the other family's three angles zero give
    # a family's own product bit for bit, as verify's expm_paths reads it: a
    # rotation by +0 multiplies by cos 0 = 1 and adds +-0, and every zero
    # ends +0 (the +-1e-300 angles underflow)
    from entspace.chart import _AB_TABLES, ALPHA_WORDS, BETA_WORDS

    grid, mixed = _special_and_mixed_triples(philox_stream(19, 60), 300)
    for angles in (grid, mixed):
        zeros = np.zeros_like(angles)
        for padded, words in (([angles, zeros], ALPHA_WORDS), ([zeros, angles], BETA_WORDS)):
            closed = exp_commuting_paulis(np.concatenate(padded, axis=1), _AB_TABLES)
            assert closed.tobytes() == exp_commuting_paulis(angles, pauli_tables(words)).tobytes()


def test_exp_parts_are_the_exponentials_bytes_stack_last_contract():
    # row 2 (4 i + j) + c of _exp_parts is part c (real, imaginary) of entry
    # (i, j) of exp_commuting_paulis, along the stack; a lone triple gives
    # its stack column's bytes
    from entspace.chart import _AB_TABLES, _TORUS_TABLES

    grid, mixed = _special_and_mixed_triples(philox_stream(20, 60), 150)
    cases = [(_TORUS_TABLES, grid), (_TORUS_TABLES, mixed),
             (_AB_TABLES, np.concatenate([grid, grid[::-1]], axis=1)),
             (_AB_TABLES, np.concatenate([mixed, grid[:150]], axis=1))]
    for tables, angles in cases:
        u = exp_commuting_paulis(angles, tables)
        parts = _exp_parts(angles, tables)
        assert parts.shape == (32, len(angles))
        assert parts.T.tobytes() == u.tobytes()
        for i, triple in enumerate(angles):
            assert _exp_parts(triple, tables).tobytes() == u[i].tobytes()
        grid_shape = _exp_parts(angles.reshape(2, -1, angles.shape[1]), tables).shape
        assert grid_shape == (32, 2, len(angles) // 2)


@pytest.mark.parametrize("generators, message", [
    ((tensor_product(SIGMA_Y, I2),), r"generators\[0\] is not a real signed permutation"),
    ((tensor_product(SIGMA_X, I2), tensor_product(I2, SIGMA_Y)),
     r"generators\[1\] is not a real signed permutation"),
    ((I4, 2 * I4), r"generators\[1\] is not a real signed permutation"),
    (np.array([[I4, I4], [I4, I4]]),
     re.escape("generators must be one (k, n, n) family, got shape (2, 2, 4, 4)")),
], ids=["Y(x)I", "I(x)Y", "entry-2", "stack-of-families"])
def test_exp_commuting_paulis_names_a_word_that_is_not_a_real_signed_permutation(generators, message):
    # an odd number of Y factors puts +-1 in the imaginary part, and the
    # gather needs one real +-1 in each column; the tables hold one family
    with pytest.raises(DomainError, match=message):
        pauli_tables(generators)


@pytest.mark.parametrize("tables, shape, axes", [
    ("_AB_TABLES", (5, 3), r"\(k,\) = \(6,\)"),
    ("_TORUS_TABLES", (4,), r"\(k,\) = \(3,\)"),
], ids=["(5,3)-six-words", "(4,)-torus"])
def test_exp_commuting_paulis_names_angles_that_do_not_broadcast(tables, shape, axes):
    from entspace import chart

    with pytest.raises(DomainError, match=re.escape(f"angles of shape {shape}") + ".*" + axes):
        exp_commuting_paulis(np.zeros(shape), getattr(chart, tables))


def test_exp_commuting_paulis_keeps_nothing_between_calls():
    # pauli_tables and the kernel, one of each per call, keep nothing: 50
    # calls on fresh copies of a family's words leave tracemalloc's current
    # size where it was (a 16-entry cache keyed on the word bytes kept about
    # 14 MB)
    import tracemalloc

    from entspace.chart import _AB_WORDS

    g = philox_stream(20, 60)
    calls = [(g.uniform(-2 * np.pi, 2 * np.pi, (600, 3)), _AB_WORDS[g.integers(0, 2)])
             for _ in range(50)]
    exp_commuting_paulis(calls[0][0], pauli_tables(calls[0][1]))
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for angles, words in calls:
            exp_commuting_paulis(angles, pauli_tables(words.copy()))
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current - baseline < 64 * 2 ** 10, f"{(current - baseline) / 2 ** 10:.1f} KiB"


def test_partial_transpose_diagonal_fixed_point():
    d = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.array_equal(partial_transpose(d), d)


def test_partial_transpose_bell_spectrum():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    w = herm_eigenvalues(partial_transpose(bell))
    assert np.allclose(w, [0.5, 0.5, 0.5, -0.5], atol=1e-14)


def test_partial_transpose_involution_and_trace():
    g = philox_stream(17, 60)
    for _ in range(100):
        h = random_hermitian(g)
        pt = partial_transpose(h)
        assert np.array_equal(partial_transpose(pt), h)
        assert np.trace(pt) == np.trace(h)
        assert np.max(np.abs(pt - dag(pt))) == 0.0


def _transpose_on_a(rho):
    """Partial transpose on qubit A, written on the (..., 2, 2, 2, 2) view
    of rho[..., 2a + b, 2a' + b'] by exchanging a and a'."""
    r = np.asarray(rho).reshape(-1, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4)
    return r.reshape(np.shape(rho))


def test_transpose_on_a_is_the_full_transpose_of_transpose_on_b():
    # rho^{T_A} = (rho^{T_B})^T, so the B kernel alone serves both sides
    _, hs = next(ensemble_chunks("hs", 26, 200))
    g = philox_stream(26, 61)
    general = g.standard_normal((50, 4, 4)) + 1j * g.standard_normal((50, 4, 4))
    for stack in (hs, general):
        side_a = partial_transpose(stack).swapaxes(-1, -2)
        assert side_a.tobytes() == _transpose_on_a(stack).tobytes()
        one = partial_transpose(stack[7]).swapaxes(-1, -2)
        assert one.tobytes() == _transpose_on_a(stack[7]).tobytes()


def test_partial_trace():
    assert np.allclose(partial_trace(I4 / 4.0), I2 / 2.0, atol=1e-16)
    g = philox_stream(18, 60)
    for _ in range(50):
        a = random_hermitian(g, dim=2)
        a = a @ dag(a)
        a /= np.trace(a).real
        b = random_hermitian(g, dim=2)
        b = b @ dag(b)
        b /= np.trace(b).real
        prod = tensor_product(a, b)
        assert np.max(np.abs(partial_trace(prod) - a)) < 1e-15
        # qubit B's reduced operator, tracing out A on the 2x2x2x2 view
        rho_b = np.einsum("jijk->ik", prod.reshape(2, 2, 2, 2))
        assert np.max(np.abs(rho_b - b)) < 1e-15
        assert np.max(np.abs(tensor_product(partial_trace(prod), rho_b) - prod)) < 1e-15


@pytest.mark.parametrize("shape", [(2, 8), (3, 3), (16,), (5, 2, 8)])
@pytest.mark.parametrize("kernel", [partial_transpose, partial_trace, char_poly_coeffs])
def test_two_qubit_kernels_reject_a_shape_that_is_not_a_4x4_stack(kernel, shape):
    # 16 entries in the wrong shape would otherwise reshape into a 4x4
    # matrix silently; the message names the shape it was given
    with pytest.raises(DomainError, match=f"got shape {re.escape(str(shape))}"):
        kernel(np.ones(shape) / 8.0)


def test_char_poly_maximally_mixed_exact():
    s2, s3, s4 = char_poly_coeffs(I4 / 4.0)
    assert s2 == 3.0 / 8.0
    assert s3 == 1.0 / 16.0
    assert s4 == 1.0 / 256.0


def test_char_poly_pure_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    assert char_poly_coeffs(rho) == (0.0, 0.0, 0.0)


def test_char_poly_against_faddeev_leverrier():
    g = philox_stream(19, 60)
    for _ in range(300):
        h = random_hermitian(g)
        mine = char_poly_coeffs(h)
        ref = faddeev_leverrier(h)
        assert np.max(np.abs(np.array(mine) - np.array(ref))) < 1e-11
        assert abs(mine[2] - np.linalg.det(h).real) < 1e-12


def test_char_poly_s2_pt_invariant():
    g = philox_stream(20, 60)
    for _ in range(100):
        h = random_hermitian(g)
        s2 = char_poly_coeffs(h)[0]
        s2_pt = char_poly_coeffs(partial_transpose(h))[0]
        assert abs(s2 - s2_pt) < 1e-12


def test_stacked_pt_char_poly_and_trace_are_bitwise_per_index_calls():
    hs = _hs_and_hermitian_stack(24, 60)
    s2, s3, s4 = char_poly_coeffs(hs)
    assert s2.shape == s3.shape == s4.shape == (120,)
    pts = partial_transpose(hs)
    reduced = partial_trace(hs)
    for i, h in enumerate(hs):
        assert np.array_equal(pts[i], partial_transpose(h))
        assert np.array_equal(reduced[i], partial_trace(h))
    for i, h in enumerate(hs):
        assert char_poly_coeffs(h) == (s2[i], s3[i], s4[i])
    # extra leading axes are flattened and restored
    grid = char_poly_coeffs(hs.reshape(12, 10, 4, 4))
    assert all(np.array_equal(g.reshape(120), s) for g, s in zip(grid, (s2, s3, s4)))
    assert partial_transpose(hs.reshape(12, 10, 4, 4)).shape == (12, 10, 4, 4)


def test_stacked_char_poly_against_faddeev_leverrier():
    _, hs = next(ensemble_chunks("hs", 25, 400))
    coeffs = np.stack(char_poly_coeffs(partial_transpose(hs)), axis=1)
    for h, mine in zip(hs, coeffs):
        ref = faddeev_leverrier(partial_transpose(h))
        assert np.max(np.abs(mine - np.array(ref))) < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    re=arrays(np.float64, st.tuples(st.integers(1, 9), st.just(4), st.just(4)), elements=_entries),
    im_scale=st.sampled_from([0.0, 1e-3, 1.0]),
)
def test_stacked_pt_property(re, im_scale):
    raw = re + 1j * im_scale * re[:, ::-1, :]
    stack = 0.5 * (raw + dag(raw))
    pts = partial_transpose(stack)
    assert np.array_equal(partial_transpose(pts), stack)
    coeffs = char_poly_coeffs(pts)
    for h, pt, i in zip(stack, pts, range(len(stack))):
        assert np.array_equal(partial_transpose(h), pt)
        assert char_poly_coeffs(pt) == tuple(c[i] for c in coeffs)


def test_char_poly_reads_the_lower_triangle_and_real_diagonal_only():
    hs = _hs_and_hermitian_stack(27, 20)
    garbled = hs.copy()
    upper = np.triu_indices(4, 1)
    garbled[:, upper[0], upper[1]] = np.nan
    garbled.imag[:, np.arange(4), np.arange(4)] = np.inf
    for got, want in zip(char_poly_coeffs(garbled), char_poly_coeffs(hs)):
        assert got.tobytes() == want.tobytes()
    assert char_poly_coeffs(garbled[3]) == char_poly_coeffs(hs[3])


def test_char_poly_overflows_alike_on_one_matrix_and_on_a_stack():
    # p4 of entries near 1e80 overflows, and so does every product of 1e200:
    # a lone matrix (Python floats) and a stack (rows) give the same inf or
    # NaN coefficients, and neither raises nor warns
    stack = np.stack([np.full((4, 4), 1e80), np.full((4, 4), 1e200), 1e200 * I4,
                      np.diag([1e300, -1e300, 1.0, 0.0])]).astype(complex)
    stack[1, 2, 1] = 1e200 - 1e200j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = char_poly_coeffs(stack)
        for i, h in enumerate(stack):
            lone = char_poly_coeffs(h)
            assert np.array_equal(lone, [c[i] for c in coeffs], equal_nan=True)
            assert not np.isfinite(lone).all()


def test_pt_entry_rows_are_the_partial_transposes_rows():
    # the scan takes rho^TB of entry rows by a row gather and two sign flips
    # read off partial_transpose: the same entries, bit for bit
    assert _PT_FLIPS.tolist() == [10, 15]
    hs = _hs_and_hermitian_stack(28, 20)
    pt_rows = _entry_rows(hs)[_PT_ROWS]
    pt_rows[_PT_FLIPS] *= -1.0
    assert pt_rows.tobytes() == _entry_rows(partial_transpose(hs)).tobytes()
    assert _hermitian(_entry_rows(hs)).tobytes() == hs.tobytes()


# -- stacked series exponential ---------------------------------------------------

def _antihermitian_stack(seed, scales):
    """One random anti-Hermitian 4x4 per scale, drawn independently of the
    kernels under test."""
    g = np.random.default_rng(seed)
    a = g.standard_normal((len(scales), 4, 4)) + 1j * g.standard_normal((len(scales), 4, 4))
    return np.asarray(scales)[:, None, None] * 0.5 * (a - np.conj(np.swapaxes(a, 1, 2)))


def test_stacked_exp_antihermitian_is_bitwise_per_index_call():
    # |X|_F from ~0 to ~100: s = 0 and s from 1 to 8 interleaved, plus X = 0
    scales = [0.0, 0.01, 20.0, 0.1, 1.0, 0.05, 5.0, 40.0, 0.2, 3.0, 0.0, 0.3]
    xs = _antihermitian_stack(94, scales * 2)
    stacked = exp_antihermitian(xs)
    assert stacked.shape == xs.shape
    for x, e in zip(xs, stacked):
        assert exp_antihermitian(x).tobytes() == e.tobytes()
    grid = exp_antihermitian(xs.reshape(2, 3, 4, 4, 4))
    assert grid.shape == (2, 3, 4, 4, 4)
    assert grid.reshape(xs.shape).tobytes() == stacked.tobytes()
    # 2x2 generators take the same route
    small = xs[:, :2, :2]
    for x, e in zip(small, exp_antihermitian(small)):
        assert exp_antihermitian(x).tobytes() == e.tobytes()
    # an empty stack gives an empty result, as the other stacked kernels do
    for shape in ((0, 4, 4), (2, 0, 4, 4), (0, 2, 2)):
        assert exp_antihermitian(np.zeros(shape)).shape == shape


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    re=arrays(np.float64, st.tuples(st.integers(1, 9), st.just(4), st.just(4)),
              elements=st.floats(-30, 30, allow_nan=False, allow_infinity=False)),
    im_scale=st.sampled_from([0.0, 1e-3, 1.0]),
)
def test_stacked_exp_antihermitian_property(re, im_scale):
    raw = re + 1j * im_scale * re[:, ::-1, :]
    xs = 0.5 * (raw - dag(raw))
    stacked = exp_antihermitian(xs)
    for x, e in zip(xs, stacked):
        assert exp_antihermitian(x).tobytes() == e.tobytes()
        scale = max(1.0, np.linalg.norm(x))
        assert np.max(np.abs(e - scipy.linalg.expm(x))) <= 1e-13 * scale
        assert np.max(np.abs(dag(e) @ e - I4)) <= 1e-13 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_exp_antihermitian_rejects_non_finite_entries(bad):
    x = np.zeros((4, 4), dtype=complex)
    x[1, 2] = bad
    with pytest.raises(DomainError, match="^matrix has a non-finite entry"):
        exp_antihermitian(x)
    stack = _antihermitian_stack(95, [1.0] * 6)
    stack[4, 0, 3] = bad
    with pytest.raises(DomainError, match="at stack index 4 has a non-finite"):
        exp_antihermitian(stack)
    with pytest.raises(DomainError, match=r"at stack index \(1, 1\) has a non-finite"):
        exp_antihermitian(stack.reshape(2, 3, 4, 4))


@pytest.mark.parametrize("scale, error, message", [
    # the norm is finite, but hundreds of squarings overflow
    (1e100, NumericalError, "exponential of matrix{} is not finite"),
    # the squared norm overflows
    (1e160, DomainError, "matrix{} has a Frobenius norm that overflows"),
    (1e300, DomainError, "matrix{} has a Frobenius norm that overflows"),
])
def test_exp_antihermitian_rejects_a_huge_matrix_without_warnings(scale, error, message):
    # each case returned NaN with RuntimeWarnings
    x = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="^" + message.format("")):
            exp_antihermitian(scale * x)
        with pytest.raises(error, match="^" + message.format(" at stack index 2")):
            exp_antihermitian(np.stack([0.5 * x, x, scale * x, 2.0 * scale * x]))


def _out_of_place_expm(x):
    """The series exponential with its Horner steps out of place, r = I +
    (Y r) / k, each step a new array: the loop the in-place steps replace."""
    n = x.shape[-1]
    eye = np.eye(n, dtype=complex)
    norm = np.sqrt((x.real ** 2 + x.imag ** 2).reshape(len(x), n * n).sum(axis=1))
    m, e = np.frexp(norm / tol.EXPM_SCALE_THETA)
    s = np.where(norm > tol.EXPM_SCALE_THETA, e - (m == 0.5), 0)
    y = x / (2.0 ** s)[:, None, None]
    r = np.empty_like(x)
    r[:] = eye
    for k in range(tol.EXPM_TAYLOR_ORDER, 0, -1):
        r = eye + (y @ r) / k
    for step in range(int(s.max(initial=0))):
        squared = s > step
        r[squared] = r[squared] @ r[squared]
    return r


def test_in_place_horner_steps_keep_the_bits():
    # |X|_F from 0 to ~2e3: squaring counts 0 to 13 mixed in one stack, then
    # the 2x2 rotation at 1e5 (19 squarings), measured by the unitarity gate
    scales = [0.0, 1e-3, 0.3, 2.0, 0.05, 7.0, 60.0, 1.0, 500.0, 0.1, 20.0, 3e3] * 3
    xs = _antihermitian_stack(98, scales)
    assert exp_antihermitian(xs).tobytes() == _out_of_place_expm(xs).tobytes()
    rotations = np.array([[0.0, 1.0], [-1.0, 0.0]]) * np.array([1e5, 0.7, 9.0])[:, None, None]
    rotations = rotations.astype(complex)
    assert exp_antihermitian(rotations).tobytes() == _out_of_place_expm(rotations).tobytes()


@pytest.mark.parametrize("scale, squarings", [(1e10, 35), (1e15, 52), (1e20, 68), (1e50, 168)])
def test_exp_antihermitian_rejects_a_result_that_is_not_unitary(scale, squarings):
    # each returned a finite matrix with max|U^dag U - I| from 1.9e-6 to 1.0
    x = np.array([[0.0, 1.0], [-1.0, 0.0]])
    message = "exponential of matrix{} is not unitary: max|U^dag U - I| = "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^" + re.escape(message.format(""))) as err:
            exp_antihermitian(scale * x)
        assert str(err.value).endswith(f"> 1.0e-10 after {squarings} squarings")
        stack = np.stack([0.5 * x, 1e5 * x, scale * x, 2.0 * scale * x])
        with pytest.raises(NumericalError, match=re.escape(message.format(" at stack index 2"))):
            exp_antihermitian(stack)
        # 19 squarings at 1e5: measured, and unitary within UNITARITY_TOL
        gram, _ = unitarity_defect(exp_antihermitian(1e5 * x))
        assert 1e-12 < gram <= tol.UNITARITY_TOL


def test_exp_antihermitian_rejects_non_square_input():
    for shape in ((2, 3), (4,), (), (5, 4, 3)):
        with pytest.raises(DomainError, match="expected a square matrix"):
            exp_antihermitian(np.zeros(shape))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)], ids=["0x0", "3x0x0"])
@pytest.mark.parametrize("kernel", [
    hermitize, herm_eigensystem, herm_eigenvalues, exp_antihermitian,
], ids=lambda f: f.__name__)
def test_square_kernels_name_an_empty_matrix(kernel, shape):
    with pytest.raises(DomainError, match=re.escape(f"got shape {shape}")):
        kernel(np.zeros(shape))


def test_exp_antihermitian_names_the_first_non_antihermitian_matrix():
    stack = _antihermitian_stack(96, [1.0] * 5)
    stack[2] += 1e-6 * I4
    stack[3] += 1e-6 * I4
    with pytest.raises(DomainError, match="at stack index 2 is not anti-Hermitian"):
        exp_antihermitian(stack)
    with pytest.raises(DomainError, match="^matrix is not anti-Hermitian"):
        exp_antihermitian(stack[3])


def test_stacked_unitarity_defect_matches_per_matrix_values():
    us = np.stack([scipy.linalg.expm(x) for x in _antihermitian_stack(97, [0.5] * 12)])
    us[5] *= 1.5
    gram, det = unitarity_defect(us.reshape(3, 4, 4, 4))
    assert gram.shape == det.shape == (3, 4)
    for u, g_i, d_i in zip(us, gram.reshape(-1), det.reshape(-1)):
        single = unitarity_defect(u)
        assert np.ndim(single[0]) == np.ndim(single[1]) == 0
        assert (single[0], single[1]) == (g_i, d_i)
        # independent values: largest entry of U^dag U - I, and |det U - 1|
        ref = max(abs(v) for v in (np.conj(u.T) @ u - np.eye(4)).reshape(-1))
        assert g_i == ref
        assert abs(d_i - abs(np.linalg.det(u) - 1.0)) <= 4 * EPS * max(1.0, d_i)
    assert gram.reshape(-1)[5] > 1.0


def test_unitarity_defect_of_a_nan_matrix_is_nan_without_warning():
    u = np.eye(2, dtype=complex)
    u[0, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram, det = unitarity_defect(u)
    assert np.isnan(gram) and np.isnan(det)


def _hs_pt_stack(seed, n):
    (_, states), = ensemble_chunks("hs", seed, tol.CHUNK)
    return partial_transpose(states[:n])


def test_min_eig_certificates_read_the_lower_triangle_only():
    pts = _hs_pt_stack(72, 16)
    rows = _entry_rows(pts)
    before = rows.copy()
    masks = min_eig_certificates(rows, tol.MINEIG_BAND)
    assert rows.tobytes() == before.tobytes()
    # HS partial transposes are far from the band: every one is claimed
    assert (masks[0] ^ masks[1]).all()
    garbled = pts.copy()
    upper = np.triu_indices(4, 1)
    garbled[:, upper[0], upper[1]] = np.nan
    garbled.imag[:, np.arange(4), np.arange(4)] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.array_equal(m, g) for m, g in
                   zip(masks, min_eig_certificates(_entry_rows(garbled), tol.MINEIG_BAND)))


# 1e200 squared overflows the Frobenius norm that sets the margin
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_min_eig_certificates_claim_nothing_on_bad_entries_without_warnings(bad):
    pts = _hs_pt_stack(73, 4)
    pts[1, 2, 0] = bad
    pts[3, 3, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        above, below = min_eig_certificates(_entry_rows(pts), tol.MINEIG_BAND)
    assert not (above[[1, 3]] | below[[1, 3]]).any()
    assert (above[[0, 2]] | below[[0, 2]]).all()


# -- Newton's smallest eigenvalue of rho^TB ---------------------------------------

def _pt_rows_and_coeffs(states):
    """The (16, k) entry rows of the partial transposes of ``states`` and their S2-S4."""
    pts = _entry_rows(partial_transpose(states))
    return pts, _s_coeffs(pts)


def _late(pts, coeffs):
    """Indices of the matrices whose Newton bound fails, with t summed as the kernel sums it."""
    return np.flatnonzero(~_pt_newton(((pts[0] + pts[1]) + pts[2]) + pts[3], *coeffs)[1])


def _lone_pt_min_eigenvalue(pts, coeffs, i):
    """pt_min_eigenvalue of matrix i of a stack, as one matrix's Python floats."""
    return pt_min_eigenvalue(pts[:, i].tolist(), *(float(c[i]) for c in coeffs))


def test_pt_min_eigenvalue_on_the_werner_line():
    # lambda_min = (1 - 3p)/4 against three (1 + p)/4 for p >= 0, the triple
    # root (1 + p)/4 below it for p < 0; p = 0 (I/4) and the states near it,
    # with a near-quadruple root, take the Jacobi
    ps = np.linspace(-1.0 / 3.0, 1.0, 49)
    pts, coeffs = _pt_rows_and_coeffs(np.array([werner_state(p) for p in ps]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = pt_min_eigenvalue(pts, *coeffs)
        lone = [_lone_pt_min_eigenvalue(pts, coeffs, i) for i in range(len(ps))]
    assert np.abs(stacked - np.minimum(1.0 - 3.0 * ps, 1.0 + ps) / 4.0).max() < 1e-14
    assert lone == stacked.tolist()
    assert ps.tolist().index(0.0) in _late(pts, coeffs)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_pt_min_eigenvalue_against_eigvalsh_on_chunk_0(ensemble):
    # within 1e-12 of LAPACK wherever rho^TB is entangled by more than 1e-6,
    # and within the kernel's bound everywhere; a lone matrix, late or not,
    # gets its stacked row's bits
    (_, rows), = sampling._row_chunks(ensemble, 3, tol.CHUNK)
    pts = _pt_rows(rows)
    coeffs = _s_coeffs(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = pt_min_eigenvalue(pts, *coeffs)
    reference = np.linalg.eigvalsh(_hermitian(pts))[:, 0]
    gap = np.abs(stacked - reference)
    assert gap[reference < -1e-6].max(initial=0.0) <= 1e-12
    assert gap.max() <= tol.PT_NEWTON_BOUND
    late = _late(pts, coeffs)
    if ensemble != "hs":
        assert late.size  # near-double roots: product and chart states take the Jacobi
    for i in sorted({*late[:8].tolist(), *range(0, tol.CHUNK, 509)}):
        assert _lone_pt_min_eigenvalue(pts, coeffs, i) == stacked[i]


def _diagonal_state(*diagonal):
    return np.diag(np.array(diagonal, dtype=complex))


@pytest.mark.parametrize("rho, expected", [
    (I4 / 4.0, 0.25),                                             # quadruple root
    (_diagonal_state(0.375, 0.125, 0.375, 0.125), 0.125),         # diag(1/2, 1/2) (x) diag(3/4, 1/4)
    (_diagonal_state(1.0, 0.0, 0.0, 0.0), 0.0),                   # |00><00|: a triple root at 0
    # not a partial transpose (it has a double negative eigenvalue), so
    # that p'(-1/2) = 0 exactly at the first step
    (_diagonal_state(-0.5, -0.5, 1.0, 1.0), -0.5),
])
def test_pt_min_eigenvalue_at_a_vanishing_derivative_warns_nothing(rho, expected):
    pts, coeffs = _pt_rows_and_coeffs(np.array([rho, I4 / 4.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = pt_min_eigenvalue(pts, *coeffs)
        lone = _lone_pt_min_eigenvalue(pts, coeffs, 0)
    assert stacked[0] == lone == expected
