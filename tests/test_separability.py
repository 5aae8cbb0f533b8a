"""Separability criteria: verdicts, invariants and closed forms."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from entspace import tolerances as tol
from entspace.chart import ChartPoint, SimplexPoint, representative_state
from entspace.errors import DomainError, NumericalError
from entspace.fano import FanoState, from_fano, to_fano
from entspace.linalg4 import herm_eigenvalues, partial_transpose
from entspace.montecarlo import char_poly_batch, pt_batch
from entspace.sampling import (
    ensemble_chunks,
    philox_stream,
    sample_chart_point,
    sample_hs_state,
    sample_product_state,
)
from entspace.separability import (
    BELL_PHI_PLUS,
    BOUNDARY,
    ENTANGLED,
    S3_BOUND,
    S4_BOUND,
    SEPARABLE,
    SeparabilityReport,
    analyze,
    det_c_closed_form,
    det_correlation,
    det_schlienz_mahler,
    p022,
    p111,
    p201,
    ppt_verdict,
    quesne_c112,
    s_coeffs_pt,
    verdict_from_coeffs,
    verdict_masks,
    werner_state,
)


def c112_epsilon_oracle(f):
    """Brute-force contraction over explicit permutations."""
    total = 0.0
    perms = list(itertools.permutations(range(3)))

    def sign(p):
        s = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    s = -s
        return s

    for p in perms:
        for q in perms:
            i, j, k = p
            a, b, c = q
            total += sign(p) * sign(q) * f.a[i] * f.b[a] * f.C[j, b] * f.C[k, c]
    return total


def adjugate3(m):
    adj = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def test_s_coeffs_pt_maximally_mixed():
    s2, s3, s4 = s_coeffs_pt(np.eye(4) / 4.0)
    assert (s2, s3, s4) == (3.0 / 8.0, S3_BOUND, S4_BOUND)


def test_werner_family_verdicts():
    assert ppt_verdict(werner_state(0.2)) == SEPARABLE
    assert ppt_verdict(werner_state(1.0 / 3.0)) == BOUNDARY
    assert ppt_verdict(werner_state(0.5)) == ENTANGLED
    # minimal PT eigenvalue of the Werner family is (1 - 3p)/4
    for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 1.0):
        w = herm_eigenvalues(partial_transpose(werner_state(p)))
        assert abs(w[-1] - (1.0 - 3.0 * p) / 4.0) < 1e-14
    with pytest.raises(DomainError):
        werner_state(1.2)


def test_bell_state_values():
    f = to_fano(BELL_PHI_PLUS)
    assert abs(det_correlation(f) + 1.0) < 1e-14
    report = analyze(from_fano(f))
    assert abs(report.lhs3 + 0.25) < 1e-14
    assert abs(report.lhs4 + 1.0 / 16.0) < 1e-14
    assert report.verdict == ENTANGLED
    assert ppt_verdict(BELL_PHI_PLUS) == ENTANGLED
    # werner(p=1) is the Bell state itself
    assert np.max(np.abs(werner_state(1.0) - BELL_PHI_PLUS)) == 0.0


def test_verdict_band():
    assert verdict_from_coeffs(1e-6, 1e-6) == SEPARABLE
    assert verdict_from_coeffs(1e-6, -1e-6) == ENTANGLED
    assert verdict_from_coeffs(1e-6, 1e-12) == BOUNDARY
    assert verdict_from_coeffs(1e-12, -1e-12) == BOUNDARY
    assert verdict_from_coeffs(1e-12, -1e-6, band=1e-3) == BOUNDARY


def test_non_finite_input_is_no_verdict():
    with pytest.raises(DomainError, match="not finite"):
        ppt_verdict(np.full((4, 4), np.nan))
    with pytest.raises(DomainError, match="not finite"):
        verdict_from_coeffs(np.nan, 0.1)
    s3, s4 = np.full(6, 0.01), np.full(6, 0.001)
    s4[3] = np.nan
    with pytest.raises(DomainError, match="at stack index 3 are not finite"):
        verdict_from_coeffs(s3, s4)
    with pytest.raises(DomainError, match="at stack index 3 are not finite"):
        verdict_masks(s4, s3)


def test_quesne_c112_against_epsilon_and_adjugate():
    for i in range(80):
        f = to_fano(sample_hs_state(300, i))
        v = quesne_c112(f)
        assert abs(v - c112_epsilon_oracle(f)) < 1e-13
        assert abs(v - 2.0 * f.b @ adjugate3(f.C) @ f.a) < 1e-12


def test_quesne_c112_vanishes_on_products_and_mixed():
    assert quesne_c112(to_fano(np.eye(4) / 4.0)) == 0.0
    for i in range(40):
        f = to_fano(sample_product_state(301, i))
        assert abs(quesne_c112(f)) < 1e-13


def test_det_m_identity_on_random_states():
    for i in range(300):
        f = to_fano(sample_hs_state(302, i))
        lhs = det_schlienz_mahler(f)
        rhs = det_correlation(f) - 0.5 * quesne_c112(f)
        assert abs(lhs - rhs) < tol.DET_IDENTITY_TOL


def test_det_c_closed_form_structure():
    beta = np.array([0.3, -0.7, 1.1])
    # z = 0 kills the determinant
    assert det_c_closed_form(SimplexPoint(0.3, 0.2, 0.0), 0.9, beta) == 0.0
    # alpha3 = 0 and beta = 0 give a diagonal-ish chart with det C = 0
    assert det_c_closed_form(SimplexPoint(0.4, 0.2, 0.1), 0.0, np.zeros(3)) == 0.0


def test_det_c_closed_form_against_brute_force():
    for i in range(400):
        point = sample_chart_point(303, i)
        brute = det_correlation(to_fano(representative_state(point)))
        closed = det_c_closed_form(point.simplex, point.alpha[2], point.beta)
        assert abs(brute - closed) < tol.CLOSED_FORM_TOL


def test_p_coefficients_pointwise():
    g = philox_stream(304, 63)
    assert p201(0.0, np.zeros(3)) == 0.0
    assert p111(0.0, np.zeros(3)) == 0.0
    assert p022(0.0, np.zeros(3)) == 0.0  # bracket is 2 + 0 + 0 + 2 - 4
    for _ in range(100):
        alpha3 = g.uniform(-np.pi, np.pi)
        beta = g.uniform(-np.pi, np.pi, 3)
        assert p111(alpha3, beta) <= 1e-15  # a negated sum of squares
        # p201 and p111 are symmetric under swapping beta1 and beta3
        swapped = beta[[2, 1, 0]]
        assert abs(p201(alpha3, beta) - p201(alpha3, swapped)) < 1e-15
        assert abs(p111(alpha3, beta) - p111(alpha3, swapped)) < 1e-15
        # p022 carries an overall cos^2(beta1) factor
        pinned = beta.copy()
        pinned[0] = np.pi / 2.0
        assert abs(p022(alpha3, pinned)) < 1e-15


def test_fano_form_attains_both_bounds():
    # I/4 attains S3 = 1/16 and S4 = 1/256
    report = analyze(from_fano(to_fano(np.eye(4) / 4.0)))
    assert abs(report.lhs3 - S3_BOUND) < 1e-12
    assert abs(report.lhs4 - S4_BOUND) < 1e-12
    assert report.verdict == SEPARABLE


def test_fano_form_dual_route():
    # a Fano form is analysed as analyze(from_fano(f)); its left-hand sides
    # lie in the box [0, 1/16] x [0, 1/256] (band-relaxed) exactly when the
    # state is not entangled
    band = tol.VERDICT_TOL
    for i in range(300):
        rho = sample_hs_state(305, i)
        report = analyze(from_fano(to_fano(rho)))
        _, s3_pt, s4_pt = s_coeffs_pt(rho)
        assert abs(report.lhs3 - s3_pt) < tol.DUAL_PATH_TOL
        assert abs(report.lhs4 - s4_pt) < tol.DUAL_PATH_TOL
        within = (-band <= report.lhs3 <= S3_BOUND + band
                  and -band <= report.lhs4 <= S4_BOUND + band)
        assert within == (report.verdict != ENTANGLED) == (ppt_verdict(rho) != ENTANGLED)


def test_within_bounds_equivalent_to_ppt_vectorized():
    # batched version over a bigger sample: membership in the box
    # [0, 1/16] x [0, 1/256] is exactly PPT-ness (band-relaxed)
    n = 40000
    for _, states in ensemble_chunks("hs", 306, n):
        _, s3, s4 = char_poly_batch(pt_batch(states))
        within = (
            (s3 >= -tol.VERDICT_TOL)
            & (s3 <= S3_BOUND + tol.VERDICT_TOL)
            & (s4 >= -tol.VERDICT_TOL)
            & (s4 <= S4_BOUND + tol.VERDICT_TOL)
        )
        not_entangled = ~((s3 < -tol.VERDICT_TOL) | (s4 < -tol.VERDICT_TOL))
        assert np.array_equal(within, not_entangled)


def test_analyze_reports():
    rep = analyze(np.eye(4) / 4.0)
    assert rep.verdict == SEPARABLE
    assert rep.det_c == 0.0 and rep.det_m == 0.0 and rep.c112 == 0.0
    assert abs(rep.lhs3 - S3_BOUND) < 1e-15
    assert abs(rep.lhs4 - S4_BOUND) < 1e-15
    rep = analyze(BELL_PHI_PLUS)
    assert rep.verdict == ENTANGLED
    assert abs(rep.det_c + 1.0) < 1e-14
    assert abs(rep.lhs4 + 1.0 / 16.0) < 1e-14
    for i in range(50):
        rho = sample_product_state(307, i)
        rep = analyze(rho)
        assert rep.verdict in (SEPARABLE, BOUNDARY)
        assert abs(rep.c112) < 1e-12


@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 4, 4), (2, 8), (3, 3)])
def test_analyze_takes_exactly_one_4x4_matrix(shape):
    rho = np.broadcast_to(np.eye(4) / 4.0, shape) if shape[-2:] == (4, 4) else np.ones(shape)
    with pytest.raises(DomainError, match=re.escape(f"got shape {shape}")):
        analyze(rho)


@pytest.mark.parametrize("band", [-1.0, 0.0, 1.0, float("nan")])
def test_analyze_rejects_a_band_outside_the_unit_interval(band):
    # a band of -1 would call an entangled state separable
    for rho in (np.eye(4) / 4.0, BELL_PHI_PLUS):
        with pytest.raises(DomainError, match="band"):
            analyze(rho, band)


def test_ppt_verdict_rejects_sixteen_entries_in_the_wrong_shape():
    with pytest.raises(DomainError, match=re.escape("got shape (2, 8)")):
        ppt_verdict(np.ones((2, 8)) / 8.0)


def test_report_checks_det_identity_at_construction():
    for det_m in (0.2, np.nan):
        with pytest.raises(NumericalError, match="identity"):
            SeparabilityReport(
                s2_pt=0.3,
                s3_pt=0.01,
                s4_pt=0.001,
                det_c=0.5,
                det_m=det_m,
                c112=0.0,
                lhs3=0.01,
                lhs4=0.001,
                verdict=SEPARABLE,
            )


def test_ppt_verdict_matches_eigenvalue_oracle():
    for i in range(500):
        rho = sample_hs_state(308, i)
        min_eig = np.linalg.eigvalsh(partial_transpose(rho))[0]
        if abs(min_eig) <= tol.MINEIG_BAND:
            continue
        want = SEPARABLE if min_eig > 0 else ENTANGLED
        assert ppt_verdict(rho) == want


def test_dual_route_guard_fires(monkeypatch):
    # sabotage one route and confirm the cross-check notices
    import entspace.separability as sep

    rho = sample_hs_state(309, 0)
    for sabotaged in (123.0, np.nan):
        monkeypatch.setattr(sep, "det_correlation", lambda _: sabotaged)
        with pytest.raises(NumericalError, match="routes disagree"):
            sep.analyze(rho)


def test_stacked_invariants_are_bitwise_per_index():
    _, states = next(ensemble_chunks("hs", 310, 300))
    f = to_fano(states)
    det_c, det_m, c112 = det_correlation(f), det_schlienz_mahler(f), quesne_c112(f)
    assert det_c.shape == det_m.shape == c112.shape == (300,)
    for i, rho in enumerate(states):
        fi = to_fano(rho)
        assert det_correlation(fi) == det_c[i]
        assert det_schlienz_mahler(fi) == det_m[i]
        assert quesne_c112(fi) == c112[i]
    assert np.max(np.abs(det_m - (det_c - 0.5 * c112))) < tol.DET_IDENTITY_TOL


def _exact_det3(m):
    """det m of a 3x3 matrix of Fractions, by the rule of Sarrus."""
    return (m[0][0] * m[1][1] * m[2][2] + m[0][1] * m[1][2] * m[2][0]
            + m[0][2] * m[1][0] * m[2][1] - m[0][2] * m[1][1] * m[2][0]
            - m[0][0] * m[1][2] * m[2][1] - m[0][1] * m[1][0] * m[2][2])


def test_cofactor_invariants_are_exact_on_dyadic_entries():
    # Entries k/8 keep every cofactor product and sum exact in binary64, so
    # a fixed-order expansion gives the rational values themselves (LAPACK's
    # LU divides by pivots, and about half of its values were inexact) and
    # the matrix determinant lemma holds with no gap at all.
    g = philox_stream(314, 63)
    c = g.integers(-8, 9, (300, 3, 3)) / 8.0
    a, b = g.integers(-4, 5, (2, 300, 3)) / 8.0  # |a|, |b| <= sqrt(3)/2
    f = FanoState(a, b, c)
    det_c, det_m, c112 = det_correlation(f), det_schlienz_mahler(f), quesne_c112(f)
    for i in range(300):
        ci = [[Fraction(x) for x in row] for row in c[i]]
        ai, bi = [Fraction(x) for x in a[i]], [Fraction(x) for x in b[i]]
        mi = [[ci[r][s] - ai[r] * bi[s] for s in range(3)] for r in range(3)]
        cof = [[ci[(r + 1) % 3][(s + 1) % 3] * ci[(r + 2) % 3][(s + 2) % 3]
                - ci[(r + 1) % 3][(s + 2) % 3] * ci[(r + 2) % 3][(s + 1) % 3]
                for s in range(3)] for r in range(3)]
        exact_c112 = 2 * sum(ai[r] * cof[r][s] * bi[s] for r in range(3) for s in range(3))
        assert Fraction(det_c[i]) == _exact_det3(ci), i
        assert Fraction(det_m[i]) == _exact_det3(mi), i
        assert Fraction(c112[i]) == exact_c112, i
    assert np.array_equal(det_m - (det_c - 0.5 * c112), np.zeros(300))


def test_cofactor_invariants_are_their_fixed_order_sums():
    # on unrounded entries every product rounds: det C and det M expand
    # along row 0 with row 0's cofactors, (m00 cof00 + m01 cof01) + m02 cof02,
    # and C112 = 2 sum_rs (a_r cof_rs) b_s adds from +0.0 in (r, s) order,
    # each cofactor m[r+1, s+1] m[r+2, s+2] - m[r+1, s+2] m[r+2, s+1]; a
    # stacked call and a lone one give these bits
    g = philox_stream(315, 63)
    c = g.uniform(-1.0, 1.0, (300, 3, 3))
    a, b = g.uniform(-0.5, 0.5, (2, 300, 3))
    f = FanoState(a, b, c)
    stacked = det_correlation(f), det_schlienz_mahler(f), quesne_c112(f)

    def cofactor(m, r, s):
        return (m[(r + 1) % 3][(s + 1) % 3] * m[(r + 2) % 3][(s + 2) % 3]
                - m[(r + 1) % 3][(s + 2) % 3] * m[(r + 2) % 3][(s + 1) % 3])

    def det(m):
        return (m[0][0] * cofactor(m, 0, 0) + m[0][1] * cofactor(m, 0, 1)) \
            + m[0][2] * cofactor(m, 0, 2)

    for i in range(300):
        ci, ai, bi = c[i].tolist(), a[i].tolist(), b[i].tolist()
        mi = [[ci[r][s] - ai[r] * bi[s] for s in range(3)] for r in range(3)]
        total = 0.0
        for r in range(3):
            for s in range(3):
                total += ai[r] * cofactor(ci, r, s) * bi[s]
        want = det(ci), det(mi), 2.0 * total
        lone = FanoState(a[i], b[i], c[i])
        got = det_correlation(lone), det_schlienz_mahler(lone), quesne_c112(lone)
        assert [float(v[i]) for v in stacked] == list(want) == [float(v) for v in got], i


def test_stacked_c112_against_epsilon_and_adjugate():
    _, states = next(ensemble_chunks("hs", 311, 200))
    f = to_fano(states)
    c112 = quesne_c112(f)
    for i, rho in enumerate(states):
        fi = to_fano(rho)
        assert abs(c112[i] - c112_epsilon_oracle(fi)) < 1e-13
        assert abs(c112[i] - 2.0 * fi.b @ adjugate3(fi.C) @ fi.a) < 1e-12


def test_verdict_labels_of_arrays_match_scalar_labels():
    g = philox_stream(312, 63)
    s3 = np.concatenate([g.normal(0, 1e-3, 200), [1e-12, -1e-12, 1e-9, -1e-9]])
    s4 = np.concatenate([g.normal(0, 1e-3, 200), [1e-6, 1e-6, 1e-9, 1e-6]])
    labels = verdict_from_coeffs(s3, s4)
    assert labels.shape == s3.shape
    assert set(labels) == {SEPARABLE, ENTANGLED, BOUNDARY}
    for i in range(len(s3)):
        assert labels[i] == verdict_from_coeffs(s3[i], s4[i])
        assert labels[i] == verdict_from_coeffs(float(s3[i]), float(s4[i]))
    grid = verdict_from_coeffs(s3.reshape(4, 51), s4.reshape(4, 51), band=1e-4)
    assert np.array_equal(grid.reshape(-1), verdict_from_coeffs(s3, s4, band=1e-4))


def test_analyze_computes_each_invariant_once(monkeypatch):
    import entspace.separability as sep

    calls = {}
    for name in ("to_fano", "det_correlation", "det_schlienz_mahler", "quesne_c112",
                 "char_poly_coeffs"):
        original = getattr(sep, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sep, name, counted)
    rho = sample_hs_state(313, 0)
    report = sep.analyze(rho)
    assert calls == {"to_fano": 1, "det_correlation": 1, "det_schlienz_mahler": 1,
                     "quesne_c112": 1, "char_poly_coeffs": 2}
    monkeypatch.undo()
    _, s3_pt, s4_pt = s_coeffs_pt(rho)
    assert (report.s3_pt, report.s4_pt) == (s3_pt, s4_pt)


def test_closed_forms_of_one_point_repeat_their_stacked_call():
    # on glibc, pow(sin(alpha3), 2) of a numpy scalar's ``** 2`` rounds one
    # ulp off sin(alpha3) * sin(alpha3) here, which an array's ``** 2`` takes
    alpha3 = 1.8406434406204824
    beta = [-3.423747832096943, 1.8621518441309048, -0.44426436484624027]
    s = SimplexPoint(0.6060541201993115, 0.5417382691765535, 0.3778164703579525)
    stack = SimplexPoint(*(np.full(3, v) for v in (s.x, s.y, s.z)))
    for single, stacked in (
        (p111(alpha3, beta), p111(np.full(3, alpha3), np.tile(beta, (3, 1)))),
        (p022(alpha3, beta), p022(np.full(3, alpha3), np.tile(beta, (3, 1)))),
        (det_c_closed_form(s, alpha3, beta),
         det_c_closed_form(stack, np.full(3, alpha3), np.tile(beta, (3, 1)))),
    ):
        assert np.float64(single).tobytes() == stacked[1].tobytes()


def test_stacked_closed_forms_are_bitwise_per_point():
    points = sample_chart_point(305, np.arange(60).reshape(6, 10))
    s, alpha3, beta = points.simplex, points.alpha[..., 2], points.beta
    stacked = [p(alpha3, beta) for p in (p201, p111, p022)]
    stacked.append(det_c_closed_form(s, alpha3, beta))
    assert all(v.shape == (6, 10) for v in stacked)
    for pos in np.ndindex(6, 10):
        a3, b = float(alpha3[pos]), [float(v) for v in beta[pos]]
        single = SimplexPoint(float(s.x[pos]), float(s.y[pos]), float(s.z[pos]))
        per_point = (p201(a3, b), p111(a3, b), p022(a3, b), det_c_closed_form(single, a3, b))
        for value, stack in zip(per_point, stacked):
            assert np.float64(value).tobytes() == stack[pos].tobytes()
    # one angle pair shared by a stack of simplex points
    shared = det_c_closed_form(s, alpha3[0, 0], beta[0, 0])
    assert shared.shape == (6, 10)
    single = SimplexPoint(float(s.x[2, 3]), float(s.y[2, 3]), float(s.z[2, 3]))
    assert shared[2, 3] == det_c_closed_form(single, alpha3[0, 0], beta[0, 0])
