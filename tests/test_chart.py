"""Chart tests: simplex maps, octahedron membership, group factors."""

import re
import warnings

import numpy as np
import pytest

from entspace import tolerances as tol
from entspace.chart import (
    ANGLE_LIMIT,
    ChartPoint,
    DegenerateSpectrumWarning,
    OctahedronWarning,
    SimplexPoint,
    TWO_PI,
    a_factor,
    assemble_su4,
    eigenvalues_from_xyz,
    in_octahedron,
    representative_state,
    spectral_gap,
    torus_factor,
    xyz_from_eigenvalues,
)
from entspace.errors import DomainError, NumericalError
from entspace.fano import FanoState, LocalUnitary, from_fano, to_fano
from entspace.linalg4 import (
    I4,
    dag,
    herm_eigenvalues,
    unitarity_defect,
)
from entspace.sampling import (
    ensemble_chunks,
    philox_stream,
    sample_chart_point,
    sample_local_unitary,
)
from entspace.separability import analyze, det_c_closed_form, p022, p111, p201


def test_eigenvalues_from_xyz_examples():
    assert np.array_equal(
        eigenvalues_from_xyz(SimplexPoint(0, 0, 0)), [0.25, 0.25, 0.25, 0.25]
    )
    r = eigenvalues_from_xyz(SimplexPoint(0.4, 0.2, 0.1))
    assert np.max(np.abs(r - [0.425, 0.275, 0.175, 0.125])) < 1e-15
    assert np.array_equal(eigenvalues_from_xyz(SimplexPoint(1, 1, 1)), [1, 0, 0, 0])


def test_eigenvalues_from_xyz_rejects_with_named_inequality():
    with pytest.raises(DomainError, match="r2 >= r3"):
        eigenvalues_from_xyz(SimplexPoint(0.0, 0.5, 0.0))
    with pytest.raises(DomainError, match="r1 >= r2"):
        eigenvalues_from_xyz(SimplexPoint(0.0, -0.2, 0.1))
    with pytest.raises(DomainError, match="r4 >= 0"):
        eigenvalues_from_xyz(SimplexPoint(0.9, 0.5, 0.2))


@pytest.mark.parametrize("call, message", [
    (lambda: eigenvalues_from_xyz(SimplexPoint(1.7e308, 1e308, -1.5e308)),
     "simplex inequality violated: the spectrum overflows "
     "at (x, y, z) = (1.7e+308, 1e+308, -1.5e+308)"),
    (lambda: eigenvalues_from_xyz(SimplexPoint(1.7e308, 1.7e308, 1.7e308)),
     "simplex inequality violated: the spectrum overflows "
     "at (x, y, z) = (1.7e+308, 1.7e+308, 1.7e+308)"),
    (lambda: xyz_from_eigenvalues([1e308, -1e308, 1.0, 0.0]),
     "spectrum not ordered: r2 >= r3 fails by 1.000e+308"),
    (lambda: xyz_from_eigenvalues([1e308, 1e308, 1e308, -1e308]),
     "spectrum must sum to 1, got inf"),
], ids=["sum overflows", "every entry overflows", "gap overflows", "unit sum overflows"])
def test_a_spectrum_whose_arithmetic_overflows_raises_one_domain_error(call, message):
    # finite input whose spectrum, gaps or unit sum overflow emitted
    # "overflow encountered in scalar add" (or "in subtract", or "in
    # reduce") before the DomainError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as e:
            call()
    assert str(e.value) == message


def test_xyz_from_eigenvalues_examples_and_validation():
    s = xyz_from_eigenvalues([0.25, 0.25, 0.25, 0.25])
    assert (s.x, s.y, s.z) == (0.0, 0.0, 0.0)
    s = xyz_from_eigenvalues([1.0, 0.0, 0.0, 0.0])
    assert (s.x, s.y, s.z) == (1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="sum to 1"):
        xyz_from_eigenvalues([0.5, 0.4, 0.3, 0.2])
    with pytest.raises(DomainError, match="not ordered"):
        xyz_from_eigenvalues([0.2, 0.4, 0.3, 0.1])
    with pytest.raises(DomainError, match="r4 >= 0"):
        xyz_from_eigenvalues([0.7, 0.4, 0.0, -0.1])


def test_simplex_roundtrip():
    g = philox_stream(21, 62)
    for _ in range(300):
        r = np.sort(g.dirichlet(np.ones(4)))[::-1]
        s = xyz_from_eigenvalues(r)
        back = eigenvalues_from_xyz(s)
        assert np.max(np.abs(back - r)) < 1e-14


def test_in_octahedron():
    assert in_octahedron([0, 0, 0])
    assert in_octahedron([TWO_PI, 0, 0])  # boundary is included
    assert in_octahedron([2, 2, 2])
    assert not in_octahedron([TWO_PI, 1e-3, 0])
    assert not in_octahedron([5, 5, 0])


def test_a_factor_identity_and_half_turn():
    assert np.array_equal(a_factor([0, 0, 0], [0, 0, 0]), I4)
    u = a_factor([TWO_PI, 0, 0], [0, 0, 0])
    assert np.max(np.abs(u + I4)) < 1e-12


def test_a_factor_unitary_and_paths_agree():
    g = philox_stream(22, 62)
    for _ in range(100):
        alpha = g.uniform(-1.8, 1.8, 3)
        beta = g.uniform(-1.8, 1.8, 3)
        closed = a_factor(alpha, beta, "closed")
        series = a_factor(alpha, beta, "series")
        assert np.max(np.abs(closed - series)) < tol.EXPM_PATH_TOL
        gram, det = unitarity_defect(closed)
        assert gram < tol.UNITARITY_TOL and det < tol.UNITARITY_TOL
    with pytest.raises(DomainError, match="method"):
        a_factor([0, 0, 0], [0, 0, 0], "pade")


def test_a_factor_warns_outside_octahedron():
    with pytest.warns(OctahedronWarning):
        a_factor([TWO_PI, 0.5, 0], [0, 0, 0])
    with pytest.warns(OctahedronWarning):
        a_factor([0, 0, 0], [3, 3, 3])


def test_torus_factor_structure():
    g = philox_stream(23, 62)
    t = g.uniform(-np.pi, np.pi, 3)
    u = torus_factor(t)
    assert np.max(np.abs(u - np.diag(np.diag(u)))) == 0.0
    assert np.max(np.abs(np.abs(np.diag(u)) - 1.0)) < 1e-15
    assert abs(np.linalg.det(u) - 1.0) < 1e-14
    phases = np.angle(np.diag(u))
    expected = -0.5 * np.array(
        [
            t[0] + t[1] + t[2],
            t[0] - t[1] - t[2],
            -t[0] + t[1] - t[2],
            -t[0] - t[1] + t[2],
        ]
    )
    delta = (phases - expected + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(delta)) < 1e-14
    # diagonal, so it commutes with any diagonal spectrum
    d = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.max(np.abs(u @ d - d @ u)) == 0.0


def test_representative_state_trivial_angles():
    point = ChartPoint(SimplexPoint(0.4, 0.2, 0.1), np.zeros(3), np.zeros(3))
    rho = representative_state(point)
    assert np.allclose(rho, np.diag([0.425, 0.275, 0.175, 0.125]), atol=1e-15)


def test_representative_state_spectrum_preserved():
    for i in range(200):
        point = sample_chart_point(77, i)
        r = eigenvalues_from_xyz(point.simplex)
        rho = representative_state(point)
        assert abs(np.trace(rho).real - 1.0) < 1e-14
        w = herm_eigenvalues(rho)
        assert np.max(np.abs(w - r)) < 1e-12
        assert w[-1] > -1e-14


def test_representative_state_degenerate_warning():
    point = ChartPoint(SimplexPoint(0, 0, 0), np.array([0.3, 0.1, 0.2]), np.zeros(3))
    with pytest.warns(DegenerateSpectrumWarning):
        rho = representative_state(point)
    assert np.allclose(rho, I4 / 4.0, atol=1e-15)
    assert spectral_gap(eigenvalues_from_xyz(point.simplex)) == 0.0


def test_assemble_su4():
    k = LocalUnitary(u=np.eye(2), v=np.eye(2))
    assert np.array_equal(assemble_su4(k, np.zeros(3), np.zeros(3), np.zeros(3)), I4)
    with pytest.raises(DomainError, match="LocalUnitary"):
        assemble_su4(np.eye(4), np.zeros(3), np.zeros(3), np.zeros(3))
    g = philox_stream(24, 62)
    for i in range(40):
        k = sample_local_unitary(24, i)
        alpha = g.uniform(-1.5, 1.5, 3)
        beta = g.uniform(-1.5, 1.5, 3)
        t = g.uniform(-np.pi, np.pi, 3)
        u = assemble_su4(k, alpha, beta, t)
        gram, det = unitarity_defect(u)
        assert gram < tol.UNITARITY_TOL and det < tol.UNITARITY_TOL


def test_full_orbit_spectrum_and_local_invariance():
    g = philox_stream(25, 62)
    for i in range(25):
        point = sample_chart_point(25, i)
        r = eigenvalues_from_xyz(point.simplex)
        rho = representative_state(point)
        k = sample_local_unitary(26, i)
        t = g.uniform(-np.pi, np.pi, 3)
        u = assemble_su4(k, point.alpha, point.beta, t)
        sigma = u @ np.diag(r).astype(complex) @ dag(u)
        # any state assembled over the same simplex point has spectrum r
        assert np.max(np.abs(herm_eigenvalues(sigma) - r)) < 1e-12
        # the local factor alone leaves every report invariant unchanged
        r0 = analyze(rho)
        r2 = analyze(k.matrix() @ rho @ dag(k.matrix()))
        for name in ("s2_pt", "s3_pt", "s4_pt", "det_c", "det_m", "c112"):
            assert abs(getattr(r0, name) - getattr(r2, name)) < 1e-10


# -- reach of the chart ----------------------------------------------------------


def _lu_invariants(a, b, c):
    """16 polynomial local-unitary invariants of Fano coefficients, stacked
    along the last axis: tr rho^k (k = 2..4), |a|^2, |b|^2, tr K^k (k = 1..3)
    with K = C^T C, det C and seven contractions of a and b through C."""
    rho = from_fano(FanoState(a, b, c))
    ct = np.swapaxes(c, -1, -2)
    k, cct = ct @ c, c @ ct

    def form(u, m, v):
        return np.einsum("...i,...ij,...j->...", u, m, v)

    def trace(m):
        return np.trace(m, axis1=-2, axis2=-1).real

    return np.stack([
        trace(rho @ rho), trace(rho @ rho @ rho), trace(rho @ rho @ rho @ rho),
        form(a, np.eye(3), a), form(b, np.eye(3), b),
        trace(k), trace(k @ k), trace(k @ k @ k), np.linalg.det(c),
        form(a, c, b), form(a, cct, a), form(b, k, b), form(a, cct @ cct, a),
        form(b, k @ k, b), form(a, cct @ c, b), form(a, c @ k @ k, b),
    ], axis=-1)


def _jacobian_ranks(fano_of, x0, h=1e-6):
    """Rank of the central-difference Jacobian of the LU invariants of
    ``fano_of(x)`` at each row of ``x0``: the singular values above
    1e-7 times the largest."""
    steps = h * np.eye(x0.shape[-1])
    plus = _lu_invariants(*fano_of(x0[:, None, :] + steps))
    minus = _lu_invariants(*fano_of(x0[:, None, :] - steps))
    sigma = np.linalg.svd((plus - minus) / (2 * h), compute_uv=False)
    return [int(np.sum(s > 1e-7 * s[0])) for s in sigma]


def test_chart_reaches_7_of_the_9_local_unitary_dimensions():
    # a generic state has 15 - 6 = 9 parameters up to local unitaries; the
    # invariants see all 9 over the 15 Fano directions at HS states
    _, states = next(ensemble_chunks("hs", 27, 5))
    f = to_fano(states)
    fano = np.concatenate([f.a, f.b, f.C.reshape(-1, 9)], axis=-1)

    def split(v):
        return v[..., :3], v[..., 3:6], v[..., 6:].reshape(*v.shape[:-1], 3, 3)

    assert _jacobian_ranks(split, fano) == [9] * 5

    # the chart's 9 coordinates (x, y, z, alpha, beta) reach only 7: the
    # alpha family's X(x)I and I(x)X are local, so a generic state is not a
    # chart state up to local unitaries.  At some points the seventh
    # singular value is small but real (the same for h = 1e-4 .. 1e-6) and
    # falls below the cut; over 30 seeds of 20 points, 18 to 20 points
    # reached 7 and none more.
    points = sample_chart_point(27, np.arange(20))
    s = points.simplex
    coords = np.concatenate(
        [np.stack([s.x, s.y, s.z], axis=-1), points.alpha, points.beta], axis=-1
    )

    def chart(v):
        point = ChartPoint(SimplexPoint(v[..., 0], v[..., 1], v[..., 2]), v[..., 3:6], v[..., 6:])
        f = to_fano(representative_state(point))
        return f.a, f.b, f.C

    ranks = _jacobian_ranks(chart, coords)
    assert max(ranks) == 7
    assert ranks.count(7) >= 18, ranks


# -- stacked chart kernels ------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stacked_chart_kernels_are_bitwise_per_index_calls():
    n = 40
    points = sample_chart_point(91, np.arange(n))
    r = eigenvalues_from_xyz(points.simplex)
    back = xyz_from_eigenvalues(r)
    closed = a_factor(points.alpha, points.beta)
    rho = representative_state(points)
    assert r.shape == (n, 4) and closed.shape == rho.shape == (n, 4, 4)
    for i in range(n):
        point = sample_chart_point(91, i)
        s = point.simplex
        assert _same_bits([s.x, s.y, s.z], [points.simplex.x[i], points.simplex.y[i],
                                            points.simplex.z[i]])
        assert _same_bits(point.alpha, points.alpha[i])
        assert _same_bits(point.beta, points.beta[i])
        ri = eigenvalues_from_xyz(s)
        assert _same_bits(ri, r[i])
        bi = xyz_from_eigenvalues(ri)
        assert _same_bits([bi.x, bi.y, bi.z], [back.x[i], back.y[i], back.z[i]])
        assert _same_bits(a_factor(point.alpha, point.beta), closed[i])
        assert _same_bits(representative_state(point), rho[i])
    # extra leading axes, and one angle pair shared by a stack of spectra
    grid = sample_chart_point(91, np.arange(n).reshape(5, 8))
    assert _same_bits(representative_state(grid).reshape(n, 4, 4), rho)
    shared = representative_state(ChartPoint(points.simplex, points.alpha[3], points.beta[3]))
    for i in range(n):
        single = ChartPoint(sample_chart_point(91, i).simplex, points.alpha[3], points.beta[3])
        assert _same_bits(representative_state(single), shared[i])


def test_stacked_exp_commuting_paulis_is_bitwise_per_index_call():
    from entspace.chart import ALPHA_WORDS, BETA_WORDS, TORUS_WORDS
    from entspace.linalg4 import exp_commuting_paulis, pauli_tables

    g = philox_stream(92, 62)
    angles = g.uniform(-2 * TWO_PI, 2 * TWO_PI, (3, 7, 3))
    for words in (ALPHA_WORDS, BETA_WORDS, TORUS_WORDS):
        stacked = exp_commuting_paulis(angles, pauli_tables(words))
        assert stacked.shape == (3, 7, 4, 4)
        for i in range(3):
            for j in range(7):
                assert _same_bits(exp_commuting_paulis(angles[i, j], pauli_tables(words)), stacked[i, j])


def test_stacked_closed_form_matches_series_exponential():
    from entspace.chart import ALPHA_WORDS, BETA_WORDS
    from entspace.linalg4 import exp_antihermitian

    g = philox_stream(93, 62)
    alpha = g.uniform(-2.0, 2.0, (60, 3))
    beta = g.uniform(-2.0, 2.0, (60, 3))
    closed = a_factor(alpha, beta, "closed")
    for a, b, c in zip(alpha, beta, closed):
        ea = exp_antihermitian(-0.5j * sum(t * w for t, w in zip(a, ALPHA_WORDS)))
        eb = exp_antihermitian(-0.5j * sum(t * w for t, w in zip(b, BETA_WORDS)))
        assert np.max(np.abs(c - ea @ eb)) < tol.EXPM_PATH_TOL
    series = a_factor(alpha, beta, "series")
    assert series.shape == (60, 4, 4)
    assert np.max(np.abs(closed - series)) < tol.EXPM_PATH_TOL


def test_stacked_series_a_factor_is_bitwise_per_index_call():
    g = philox_stream(98, 62)
    alpha = g.uniform(-2.0, 2.0, (4, 6, 3))
    beta = g.uniform(-2.0, 2.0, (4, 6, 3))
    series = a_factor(alpha, beta, "series")
    assert series.shape == (4, 6, 4, 4)
    for pos in np.ndindex(4, 6):
        assert _same_bits(a_factor(alpha[pos], beta[pos], "series"), series[pos])
    # one alpha triple shared by a stack of beta triples
    shared = a_factor(alpha[0, 0], beta, "series")
    assert _same_bits(a_factor(alpha[0, 0], beta[2, 5], "series"), shared[2, 5])
    # an empty stack gives an empty result on either route
    for method in ("closed", "series"):
        assert a_factor(np.zeros((0, 3)), np.zeros(3), method).shape == (0, 4, 4)


def test_stacked_checks_name_the_first_offending_index():
    x = np.array([0.1, 0.2, 0.0, 0.0])
    y = np.array([0.1, 0.1, 0.5, -0.2])
    z = np.zeros(4)
    with pytest.raises(DomainError, match=r"r2 >= r3 fails by .* at stack index 2"):
        eigenvalues_from_xyz(SimplexPoint(x, y, z))
    good = [0.4, 0.3, 0.2, 0.1]
    with pytest.raises(DomainError, match="sum to 1.* at stack index 1"):
        xyz_from_eigenvalues([good, [0.5, 0.4, 0.3, 0.2]])
    with pytest.raises(DomainError, match="r4 >= 0 fails by .* at stack index 2"):
        xyz_from_eigenvalues([good, good, [0.7, 0.4, 0.0, -0.1]])
    angles = np.zeros((4, 3))
    angles[2] = [TWO_PI, 0.5, 0.0]
    with pytest.warns(OctahedronWarning, match="beta at stack index 2 lies outside"):
        a_factor(np.zeros(3), angles)
    assert list(in_octahedron(angles)) == [True, True, False, True]
    flat = SimplexPoint(np.array([0.4, 0.0]), np.array([0.2, 0.0]), np.array([0.1, 0.0]))
    with pytest.warns(DegenerateSpectrumWarning, match="at stack index 1"):
        representative_state(ChartPoint(flat, np.zeros(3), np.zeros(3)))
    assert list(spectral_gap(eigenvalues_from_xyz(flat))) == [
        spectral_gap(eigenvalues_from_xyz(SimplexPoint(0.4, 0.2, 0.1))), 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_chart_input_is_rejected(bad):
    with pytest.raises(DomainError, match="alpha has a non-finite angle"):
        ChartPoint(SimplexPoint(0.4, 0.2, 0.1), [0.0, 0.0, bad], np.zeros(3))
    stack = np.zeros((3, 3))
    stack[1, 1] = bad
    with pytest.raises(DomainError, match="beta at stack index 1 has a non-finite"):
        a_factor(np.zeros(3), stack)
    with pytest.raises(DomainError, match="simplex point has a non-finite coordinate"):
        eigenvalues_from_xyz(SimplexPoint(bad, 0.0, 0.0))
    with pytest.raises(DomainError, match="non-finite"):
        representative_state(ChartPoint(SimplexPoint(0.0, bad, 0.0), np.zeros(3), np.zeros(3)))
    with pytest.raises(DomainError):
        xyz_from_eigenvalues([0.5, bad, 0.25, 0.25])
    with pytest.raises(DomainError, match="spectrum at stack index 1 has a non-finite entry"):
        xyz_from_eigenvalues([[0.4, 0.3, 0.2, 0.1], [0.5, 0.5, np.nan, 0.0]])
    for kernel in (p201, p111, p022):
        with pytest.raises(DomainError, match="beta has a non-finite angle"):
            kernel(0.1, [bad, 0.0, 0.0])
    with pytest.raises(DomainError, match="beta at stack index 1 has a non-finite"):
        det_c_closed_form(SimplexPoint(0.4, 0.2, 0.1), 0.1, stack)


def test_angles_whose_closed_form_sums_overflow_are_rejected():
    # 2 * alpha3 overflowed to inf: p201 and p022 were NaN for finite angles,
    # and a NaN alpha3 went through
    assert 4 * ANGLE_LIMIT == np.finfo(float).max
    above = np.nextafter(ANGLE_LIMIT, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (p201, p111, p022):
            with pytest.raises(DomainError, match="^alpha3 has an angle beyond"):
                kernel(above, np.zeros(3))
            with pytest.raises(DomainError, match="^alpha3 has a non-finite angle"):
                kernel(np.nan, [0.1, 0.2, 0.3])
            with pytest.raises(DomainError, match="^beta at stack index 1 has an angle beyond"):
                kernel(np.zeros(2), [[0.1, 0.2, 0.3], [1e308, 1e308, 0.2]])
            # at the limit every sum of the closed forms stays finite
            assert np.isfinite(kernel(ANGLE_LIMIT, [-ANGLE_LIMIT, ANGLE_LIMIT, -ANGLE_LIMIT]))
        with pytest.raises(DomainError, match="^alpha3 at stack index 2 has a non-finite"):
            det_c_closed_form(SimplexPoint(0.4, 0.2, 0.1), [0.1, 0.2, np.nan], np.zeros(3))
        with pytest.raises(DomainError, match="^alpha has an angle beyond"):
            ChartPoint(SimplexPoint(0.4, 0.2, 0.1), [0.0, 0.0, -1e308], np.zeros(3))


def test_series_a_factor_of_a_huge_angle_raises_where_the_closed_route_is_finite():
    # the series route returned NaN with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", OctahedronWarning)
        assert np.isfinite(a_factor((1e200, 0.0, 0.0), np.zeros(3), "closed")).all()
        with pytest.raises(DomainError, match="Frobenius norm that overflows"):
            a_factor((1e200, 0.0, 0.0), np.zeros(3), "series")


@pytest.mark.parametrize("angle, error, message", [
    (1e200, DomainError, "the {} generator{} has a Frobenius norm that overflows"),
    (1e10, NumericalError, "exponential of the {} generator{} is not unitary"),
])
def test_series_a_factor_errors_name_the_family_and_the_callers_index(angle, error, message):
    # they named an index into the internal (..., 2) stack of families
    zero, bad = np.zeros(3), np.array([0.0, angle, 0.0])
    stack = np.zeros((2, 3, 3))
    stack[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", OctahedronWarning)
        for name, alpha, beta in (("alpha", bad, zero), ("beta", zero, bad)):
            with pytest.raises(error, match="^" + re.escape(message.format(name, ""))):
                a_factor(alpha, beta, "series")
        # the caller's index in a stack broadcast against a single triple
        for name, alpha, beta in (("alpha", stack, zero), ("beta", zero, stack)):
            where = message.format(name, " at stack index (1, 2)")
            with pytest.raises(error, match="^" + re.escape(where)):
                a_factor(alpha, beta, "series")


def test_chart_input_of_the_wrong_shape_is_rejected():
    not_a_triple = re.escape("must be a triple of angles, got shape (2,)")
    with pytest.raises(DomainError, match="alpha " + not_a_triple):
        a_factor([0.1, 0.2], np.zeros(3))
    for kernel in (p201, p111, p022):
        with pytest.raises(DomainError, match="beta " + not_a_triple):
            kernel(0.1, [0.1, 0.2])
    with pytest.raises(DomainError, match=re.escape("must have 4 entries, got shape (2, 3)")):
        xyz_from_eigenvalues(np.full((2, 3), 1.0 / 3.0))


@pytest.mark.parametrize("kernel", [
    p201, p111, p022,
    lambda alpha3, beta: det_c_closed_form(SimplexPoint(0.4, 0.2, 0.1), alpha3, beta),
], ids=["p201", "p111", "p022", "det_c_closed_form"])
def test_closed_forms_name_stack_shapes_that_do_not_broadcast(kernel):
    # numpy's "operands could not be broadcast" ValueError came through
    shapes = re.escape("alpha3 of shape (2,) and beta of shape (3, 3) do not broadcast")
    with pytest.raises(DomainError, match=shapes):
        kernel(np.zeros(2), np.zeros((3, 3)))


_TWO_POINTS = SimplexPoint(np.array([0.4, 0.3]), np.array([0.2, 0.1]), np.array([0.1, 0.05]))


@pytest.mark.parametrize("call, shapes", [
    (lambda: a_factor(np.zeros((2, 3)), np.zeros((3, 3))),
     "alpha of shape (2, 3) and beta of shape (3, 3)"),
    (lambda: a_factor(np.zeros((2, 3)), np.zeros((3, 3)), "series"),
     "alpha of shape (2, 3) and beta of shape (3, 3)"),
    (lambda: eigenvalues_from_xyz(SimplexPoint(np.zeros(2), np.zeros(3), 0.0)),
     "x of shape (2,), y of shape (3,) and z of shape ()"),
    (lambda: representative_state(ChartPoint(_TWO_POINTS, np.zeros((3, 3)), np.zeros(3))),
     "simplex point of shape (2,), alpha of shape (3, 3) and beta of shape (3,)"),
    (lambda: det_c_closed_form(_TWO_POINTS, np.zeros(3), np.zeros(3)),
     "simplex point of shape (2,), alpha3 of shape (3,) and beta of shape (3,)"),
], ids=["a_factor", "a_factor-series", "eigenvalues_from_xyz", "representative_state",
        "det_c_closed_form"])
def test_chart_stacks_that_do_not_broadcast_are_named(call, shapes):
    # numpy's "could not be broadcast" ValueError came through
    with pytest.raises(DomainError, match=re.escape(shapes + " do not broadcast")):
        call()


def test_simplex_coordinates_that_broadcast_are_one_stack():
    shared_z = SimplexPoint(_TWO_POINTS.x, _TWO_POINTS.y, 0.1)
    full = SimplexPoint(_TWO_POINTS.x, _TWO_POINTS.y, np.full(2, 0.1))
    assert shared_z.shape == (2,)
    assert _same_bits(eigenvalues_from_xyz(shared_z), eigenvalues_from_xyz(full))


def test_chart_point_indices_must_be_integers():
    with pytest.raises(DomainError, match="integer"):
        sample_chart_point(1, np.array([0.5, 1.0]))
    empty = sample_chart_point(1, np.arange(0))
    assert representative_state(empty).shape == (0, 4, 4)


# -- the A-factor over both angle families ---------------------------------------


def _chain_matmul(a, b):
    """a @ b of 4x4 matrices with no BLAS call: each entry's real chains
    rr, ii, ir and ri, each summed over the inner index from +0 in order,
    give re = rr - ii and im = ir + ri, assigned as the real and imaginary
    parts (re + 1j * im could flip the sign of a zero)."""
    rr, ii, ir, ri = (
        sum((x[:, i, None] * y[None, i, :] for i in range(4)), np.zeros((4, 4)))
        for x, y in ((a.real, b.real), (a.imag, b.imag), (a.imag, b.real), (a.real, b.imag))
    )
    out = np.empty((4, 4), dtype=complex)
    out.real, out.imag = rr - ii, ir + ri
    return out


def _reference_a_factor(alpha, beta, method):
    """One point's A-factor: the closed route multiplies the six rotations
    cos(t/2) I - i sin(t/2) P, alpha's words then beta's, left to right
    from the identity in real chains; the series route exponentiates each
    family's generator sum on its own and multiplies the two."""
    from entspace.chart import ALPHA_WORDS, BETA_WORDS
    from entspace.linalg4 import exp_antihermitian

    if method == "closed":
        half = np.concatenate([alpha, beta]) / 2.0
        u = np.eye(4, dtype=complex)
        for t, w in zip(half, ALPHA_WORDS + BETA_WORDS):
            factor = np.empty((4, 4), dtype=complex)
            factor.real, factor.imag = np.cos(t) * np.eye(4), -np.sin(t) * w.real
            u = _chain_matmul(u, factor)
        return u
    families = []
    for angles, words in ((alpha, ALPHA_WORDS), (beta, BETA_WORDS)):
        gen = sum(angles[k, None, None] * w for k, w in enumerate(words))
        families.append(exp_antihermitian(-0.5j * gen))
    return families[0] @ families[1]


def test_a_factor_factor_stack_contract():
    from entspace.linalg4 import hermitize
    from entspace.separability import (
        _FIT_SYSTEM,
        _NEXT1,
        _NEXT2,
        fit_c112_coeffs,
    )
    from entspace.fano import to_fano

    points = sample_chart_point(94, np.arange(256))
    zero = np.zeros(3)
    vertices = [s * TWO_PI * e for e in np.eye(3) for s in (1.0, -1.0)]
    alpha = [*points.alpha, zero, -zero] + [v for v in vertices for _ in vertices]
    beta = [*points.beta, zero, -zero] + [w for _ in vertices for w in vertices]
    alpha, beta = np.array(alpha), np.array(beta)
    assert in_octahedron(alpha).all() and in_octahedron(beta).all()
    assert np.signbit(alpha[257]).all() and not np.signbit(alpha[256]).any()
    for method in ("closed", "series"):
        stacked = a_factor(alpha, beta, method)
        for i, (a, b) in enumerate(zip(alpha, beta)):
            reference = _reference_a_factor(a, b, method)
            assert _same_bits(a_factor(a, b, method), reference), (method, i)
            assert _same_bits(stacked[i], reference), (method, i)
    # the fit's targets from the reference factor, its own conjugation and
    # the cofactor entries gathered one by one
    a, b = np.array([0.0, 0.0, 0.9]), np.array([0.4, 1.1, -0.6])
    v, _, _, r = _FIT_SYSTEM
    u = _reference_a_factor(a, b, "closed")
    rho = (u * r[:, None, :]) @ dag(u)
    assert _same_bits(hermitize(rho), 0.5 * (rho + dag(rho)))
    c = to_fano(0.5 * (rho + dag(rho)))
    r1, r2 = _NEXT1[:, None], _NEXT2[:, None]
    cof = c.C[..., r1, _NEXT1] * c.C[..., r2, _NEXT2] - c.C[..., r1, _NEXT2] * c.C[..., r2, _NEXT1]
    targets = 2.0 * np.einsum("...i,...ij,...j->...", c.a, cof, c.b)
    # the grid matrix's pseudo-inverse rebuilt here, not the one built at import
    coeffs = np.linalg.pinv(v) @ targets
    assert _same_bits(fit_c112_coeffs(a, b).values, coeffs)


def test_a_factor_warns_once_per_family_alpha_first():
    import warnings

    alpha, beta = np.zeros((4, 3)), np.zeros((4, 3))
    alpha[1] = [TWO_PI, 0.5, 0.0]
    beta[2] = [3.0, 3.0, 3.0]
    for method in ("closed", "series"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            a_factor(alpha, beta, method)
        assert [w.category for w in caught] == [OctahedronWarning] * 2
        assert "alpha at stack index 1 lies outside" in str(caught[0].message)
        assert "beta at stack index 2 lies outside" in str(caught[1].message)
        assert all(w.filename == __file__ for w in caught)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            a_factor(alpha[[0, 2, 3]], beta[[0, 1, 3]], method)
            a_factor(alpha[0], beta[3], method)
        assert caught == []


def test_a_factor_stack_peak_memory():
    import tracemalloc

    # tracemalloc peak of one closed call over 4096 points when each of the
    # six factors was built on its own (numpy 2.4): 6.28 MiB
    bound = 1.15 * 6.28 * 2 ** 20
    g = philox_stream(95, 62)
    alpha, beta = g.uniform(-1.5, 1.5, (2, 4096, 3))
    a_factor(alpha, beta)
    tracemalloc.start()
    try:
        a_factor(alpha, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"{peak / 2 ** 20:.2f} MiB"
