"""Stacked verification checks against per-point reference loops.

Each reference below repeats a check the way it reads for one sample at a
time: same stream, same draws in the same order, one kernel call per
sample.  The stacked checks must agree with them to the last bits.
"""

import re

import numpy as np
import pytest

from entspace import sampling, separability, verify
from entspace import tolerances as tol
from entspace.chart import ALPHA_WORDS, BETA_WORDS, representative_state
from entspace.errors import NumericalError
from entspace.fano import local_unitary_action, to_fano
from entspace.linalg4 import (
    I4,
    _hermitian,
    char_poly_coeffs,
    dag,
    exp_antihermitian,
    exp_commuting_paulis,
    herm_eigensystem,
    partial_transpose,
    pauli_tables,
)
from entspace.montecarlo import _pt_chunks, tally_routes
from entspace.sampling import (
    _hs_chunk,
    ensemble_chunks,
    sample_chart_point,
    sample_local_unitary,
    verify_stream,
)
from entspace.separability import analyze
from entspace.serialize import to_json

EPS = np.finfo(float).eps


def random_antihermitian(g):
    """Gaussian anti-Hermitian 4x4 matrix A - A^dag (Re A, then Im A)."""
    a = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    return a - np.conj(a.T)


def _reference_expm_paths(n, seed):
    g = verify_stream(seed, 3)
    worst = 0.0
    for _ in range(min(n, 600)):
        angles = g.uniform(-2 * np.pi, 2 * np.pi, 3)
        words = ALPHA_WORDS if g.random() < 0.5 else BETA_WORDS
        closed = exp_commuting_paulis(angles, pauli_tables(words))
        series = exp_antihermitian(-0.5j * sum(t * w for t, w in zip(angles, words)))
        worst = max(worst, np.max(np.abs(closed - series)))
        gram = np.max(np.abs(dag(series) @ series - I4))
        worst = max(worst, gram, abs(np.linalg.det(series) - 1.0))
        x = random_antihermitian(g)
        worst = max(worst, np.max(np.abs(exp_antihermitian(x) @ exp_antihermitian(-x) - I4)))
    return worst


def _reference_local_unitary_invariance(n, seed):
    worst = 0.0
    for start, states in ensemble_chunks("hs", seed, min(n, 300)):
        for i, rho in enumerate(states):
            rotated = local_unitary_action(rho, sample_local_unitary(seed, start + i))
            r0, r1 = analyze(rho), analyze(rotated)
            for name in ("s2_pt", "s3_pt", "s4_pt", "det_c", "det_m", "c112"):
                worst = max(worst, abs(getattr(r0, name) - getattr(r1, name)))
    return worst


def _alone(fn, n, seed):
    """The CheckResult of check ``fn`` on a fresh run of its own."""
    group = {f: g for g, f in verify.CHECKS}[fn]
    return verify._run_check(verify._Run(n, seed, tol.VERDICT_TOL), group, fn)


def test_expm_paths_matches_the_per_point_loop():
    for n, seed in ((10000, 1), (37, 5)):
        result = _alone(verify._check_expm_paths, n, seed)
        assert result.samples == min(n, 600) and result.passed
        ref = _reference_expm_paths(n, seed)
        assert abs(result.max_residual - ref) <= 4 * EPS * ref


def test_local_unitary_invariance_matches_the_per_point_loop():
    for n, seed in ((10000, 1), (23, 5)):
        result = _alone(verify._check_local_unitary_invariance, n, seed)
        assert result.samples == min(n, 300) and result.passed
        ref = _reference_local_unitary_invariance(n, seed)
        assert abs(result.max_residual - ref) <= 4 * EPS * ref


# -- the suite's shared samples ------------------------------------------------------

def _standalone_bytes(n, seed):
    return {
        fn.__name__.removeprefix("_check_"): to_json(_alone(fn, n, seed).to_dict())
        for _, fn in verify.CHECKS
    }


def test_suite_results_equal_standalone_checks_byte_for_byte():
    seed = 29
    for n in (100, tol.CHUNK + 7):
        alone = _standalone_bytes(n, seed)
        for suite in verify.SUITES:
            checks = verify.run_suite(suite, n, seed)["checks"]
            assert checks and all(to_json(c) == alone[c["name"]] for c in checks), (suite, n)


def test_each_suite_is_exactly_its_checks_group_and_together_they_are_all():
    # n >= 2000: a coeffs run on its own draws the 2000-point chart prefix
    # without the 500-point one that the identities checks draw first in "all"
    n, seed = tol.CHUNK + 7, 11
    groups = list(dict.fromkeys(g for g, _ in verify.CHECKS))
    assert groups == [s for s in verify.SUITES if s != "all"]
    parts = []
    for group in groups:
        checks = verify.run_suite(group, n, seed)["checks"]
        want = [fn.__name__.removeprefix("_check_") for g, fn in verify.CHECKS if g == group]
        assert [c["name"] for c in checks] == want
        assert all(c["group"] == group for c in checks)
        parts += checks
    assert to_json(parts) == to_json(verify.run_suite("all", n, seed)["checks"])


def test_shared_prefixes_are_bitwise_fresh_draws():
    seed = 31
    store = verify._Run(tol.CHUNK + 7, seed, tol.VERDICT_TOL)
    assert store.hs().shape == (tol.CHUNK, 4, 4)
    for m in (1, 300, 2000, tol.CHUNK):
        fresh = _hermitian(_hs_chunk(seed, 0, m))
        assert store.hs(m).tobytes() == fresh.tobytes()
        f = store.fano(m)
        ref = to_fano(fresh)
        assert all(getattr(f, k).tobytes() == getattr(ref, k).tobytes() for k in "abC")
        for got, want in zip(store.pt_coeffs(m), char_poly_coeffs(partial_transpose(fresh))):
            assert got.tobytes() == want.tobytes()
    for m in (500, 2000):
        points, states = store.chart(m)
        fresh = sample_chart_point(seed, np.arange(m))
        assert states.tobytes() == representative_state(fresh).tobytes()
        for k in ("x", "y", "z"):
            assert getattr(points.simplex, k).tobytes() == getattr(fresh.simplex, k).tobytes()
        assert points.alpha.tobytes() == fresh.alpha.tobytes()
        assert points.beta.tobytes() == fresh.beta.tobytes()


@pytest.mark.parametrize("n, seed", [(4200, 2), (tol.CHUNK + 7, 5)])
def test_ppt_check_is_the_scan_tally(monkeypatch, n, seed):
    # chunk 0 comes from the shared head and the later chunks from the
    # scan's generator: the check tallies the generator's chunks from chunk
    # 0, bit for bit, so the head's pair is a fresh row draw
    tallied = []

    def recorded(chunks, band):
        tallied.extend(chunks)
        return tally_routes(tallied, band)

    monkeypatch.setattr(verify, "tally_routes", recorded)
    measured = verify._check_ppt_vs_eigenvalue_oracle(verify._Run(n, seed, tol.VERDICT_TOL))
    fresh = list(_pt_chunks("hs", seed, n))
    assert len(tallied) == len(fresh) == 2
    for (pts, coeffs), (want_pts, want_coeffs) in zip(tallied, fresh):
        assert pts.tobytes() == want_pts.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(coeffs, want_coeffs))
    counts = tally_routes(fresh, tol.VERDICT_TOL)
    assert measured.samples == n
    assert measured.residual == counts["mismatches"]
    assert measured.detail == f"undecided(band)={counts['undecided']}"


def test_shared_samples_are_drawn_once_lazily_and_bounded(monkeypatch):
    hs_draws, chart_indices, stores = [], [], []

    def counted_hs_chunk(seed, chunk, m):
        hs_draws.append((chunk, m))
        return _hs_chunk(seed, chunk, m)

    def counted_chart_point(seed, index):
        chart_indices.extend(np.asarray(index).reshape(-1).tolist())
        return sample_chart_point(seed, index)

    class Recorded(verify._Run):
        def __init__(self, n, seed, band):
            super().__init__(n, seed, band)
            stores.append(self)

    monkeypatch.setattr(sampling, "_hs_chunk", counted_hs_chunk)
    monkeypatch.setattr(verify, "sample_chart_point", counted_chart_point)
    monkeypatch.setattr(verify, "_Run", Recorded)

    assert verify.run_suite("coeffs", 3 * tol.CHUNK, 5)["passed"]
    assert hs_draws == []
    assert chart_indices == list(range(2000))

    chart_indices.clear()
    assert verify.run_suite("all", tol.CHUNK + 7, 5)["passed"]
    assert [d for d in hs_draws if d[0] == 0] == [(0, tol.CHUNK)]
    # chunk 1 is drawn by each of the two full-count checks, outside the store
    assert [d for d in hs_draws if d[0] != 0] == [(1, 7), (1, 7)]
    assert chart_indices == list(range(2000))

    assert verify.run_suite("all", 3 * tol.CHUNK, 5)["passed"]
    assert len(stores) == 3
    for store in stores[1:]:
        assert len(store.hs()) == tol.CHUNK and len(store._chart[-1]) == 2000


def test_checks_build_no_word_tables(monkeypatch):
    # expm_paths reads the chart's tables, built at import: a suite run with
    # pauli_tables unusable still passes every check
    from entspace import linalg4

    def no_tables(generators):
        raise AssertionError("pauli_tables called")

    monkeypatch.setattr(linalg4, "pauli_tables", no_tables)
    result = verify.run_suite("identities", 600, 1)
    assert result["passed"], [c["name"] for c in result["checks"] if not c["passed"]]


def test_served_arrays_are_read_only():
    store = verify._Run(600, 3, tol.VERDICT_TOL)
    points, states = store.chart(20)
    f, f_prefix = store.fano(), store.fano(10)
    served = (
        store.hs(), store.hs(10), f.a, f.b, f.C, f_prefix.a, f_prefix.C,
        *store.pt_coeffs(), *store.pt_coeffs(10),
        points.simplex.x, points.alpha, points.beta, states,
    )
    for a in served:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def _nan_per_state(f):
    return np.full(np.shape(f.a)[:-1], np.nan)


_FOLDED_CHECKS = (
    ("det_m_identity", 2 * tol.CHUNK),
    ("product_states_separable", 5000),
    ("fit_support_frozen", 10000),
    ("fit_alpha12_invariance", 10000),
    ("fit_closed_form_entry", 10000),
    ("c112_quartic_predicts", 10000),
)


#: The folded checks that fit C112 tables before they fold anything.
_FITTING_CHECKS = (
    "fit_support_frozen", "fit_alpha12_invariance", "fit_closed_form_entry",
    "c112_quartic_predicts",
)


@pytest.mark.parametrize("name, n", _FOLDED_CHECKS)
def test_a_nan_c112_kernel_fails_every_folded_check(name, n, monkeypatch):
    # the checks fold residuals over several chunks or fits; a NaN in any
    # of them must reach the reported residual, not be dropped by max().
    # A NaN fit target gives the fit a NaN residual, which CoeffTable
    # rejects: a fitting check raises, and run_suite records it as failed.
    for module in (verify, separability):  # the checks and the fit's targets
        monkeypatch.setattr(module, "quesne_c112", _nan_per_state)
    check = getattr(verify, f"_check_{name}")
    if name in _FITTING_CHECKS:
        with pytest.raises(NumericalError, match="fit residual nan exceeds"):
            check(verify._Run(n, 1, tol.VERDICT_TOL))
        return
    result = _alone(check, n, 1)
    assert np.isnan(result.max_residual) and not result.passed, result


def test_a_nan_in_the_second_chunk_fails_det_m_identity(monkeypatch):
    chunks = []

    def nan_after_the_first_chunk(f):
        chunks.append(len(f.a))
        det = separability.det_correlation(f)
        return det if len(chunks) == 1 else np.full_like(det, np.nan)

    monkeypatch.setattr(verify, "det_correlation", nan_after_the_first_chunk)
    result = _alone(verify._check_det_m_identity, 5000, 1)
    assert chunks == [tol.CHUNK, 5000 - tol.CHUNK]
    assert np.isnan(result.max_residual) and not result.passed


def _ascending_eigensystem(h):
    w, v = herm_eigensystem(h)
    return w[:, ::-1], v[:, :, ::-1]


#: (check, the name in verify it reads, a broken stand-in, the detail it must report)
_BROKEN_INPUTS = (
    ("eigensolver_reconstruction", "herm_eigensystem", _ascending_eigensystem,
     r"^eigenvalues not sorted descending$"),
    ("fit_support_frozen", "C112_SUPPORT", frozenset(),
     r"^support escaped the frozen set: \[\(\d, \d, \d\)"),
    ("werner_verdicts", "werner_state", lambda p: separability.werner_state(0.2),
     r"^p=0\.3333333333333333: got separable, want boundary; "
     r"p=0\.5: got separable, want entangled$"),
    ("product_states_separable", "_row_chunks",
     lambda _, seed, m, **kw: sampling._row_chunks("hs", seed, m, **kw),
     r"^\d+ product states judged entangled$"),
)


@pytest.mark.parametrize("name, target, stand_in, detail", _BROKEN_INPUTS)
def test_a_broken_input_fails_its_check_with_a_detail(name, target, stand_in, detail, monkeypatch):
    monkeypatch.setattr(verify, target, stand_in)
    result = _alone(getattr(verify, f"_check_{name}"), 2000, 1)
    assert not result.passed and re.search(detail, result.detail), result
