"""Quartic coefficient table of C112: fitting machinery and frozen facts."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entspace import tolerances as tol
from entspace.chart import (
    ChartPoint,
    DegenerateSpectrumWarning,
    OctahedronWarning,
    SimplexPoint,
    TWO_PI,
    _conjugate,
    a_factor,
    eigenvalues_from_xyz,
    xyz_from_eigenvalues,
)
from entspace.errors import DomainError, NumericalError
from entspace.fano import to_fano
from entspace.chart import representative_state
from entspace.sampling import philox_stream, sample_chart_point
from entspace.separability import (
    C112_SUPPORT,
    FIT_SPECTRA,
    MONOMIALS,
    CoeffTable,
    _fit_system,
    fit_c112_coeffs,
    p022,
    quesne_c112,
)


def c112_of_chart_point(point):
    """C112 of the representative state at a chart point, or at each point
    of a stacked ChartPoint (brute force)."""
    return quesne_c112(to_fano(representative_state(point)))


def test_monomials_order_and_count():
    assert len(MONOMIALS) == 15
    assert MONOMIALS[0] == (4, 0, 0)
    assert MONOMIALS[-1] == (0, 0, 4)
    assert all(sum(m) == 4 for m in MONOMIALS)
    # strictly descending lexicographic order
    assert sorted(MONOMIALS, reverse=True) == list(MONOMIALS)


def test_frozen_support_is_even_in_z():
    assert len(C112_SUPPORT) == 9
    assert C112_SUPPORT == {
        (4, 0, 0),
        (3, 1, 0),
        (2, 2, 0),
        (2, 0, 2),
        (1, 3, 0),
        (1, 1, 2),
        (0, 4, 0),
        (0, 2, 2),
        (0, 0, 4),
    }


def test_fit_grid_is_deterministic_and_interior():
    assert len(FIT_SPECTRA) == 23
    assert len(FIT_SPECTRA) >= 20
    for r in FIT_SPECTRA:
        arr = np.array(r)
        assert abs(arr.sum() - 1.0) < 1e-15
        assert np.all(np.diff(arr) < 0)  # strictly decreasing: generic points
        assert arr[-1] > 0
    assert FIT_SPECTRA == tuple(sorted(FIT_SPECTRA, reverse=True))


def test_fit_at_trivial_angles_is_zero_table():
    table = fit_c112_coeffs(np.zeros(3), np.zeros(3))
    assert np.max(np.abs(table.values)) < 1e-12
    assert table.support() == ()
    assert table.provenance == "fitted"


def test_fit_support_and_residual_on_random_fibres():
    g = philox_stream(400, 64)
    for _ in range(12):
        alpha = g.uniform(-2.0, 2.0, 3)
        beta = g.uniform(-2.0, 2.0, 3)
        table = fit_c112_coeffs(alpha, beta)
        assert table.residual <= tol.FIT_RESIDUAL_TOL
        assert table.condition <= tol.FIT_COND_CAP
        support = table.support()
        assert len(support) <= 9
        assert set(support) <= C112_SUPPORT
        # generic fibres populate the full support
        if np.min(np.abs([*alpha, *beta])) > 0.1:
            assert len(support) == 9


def test_fit_alpha12_invariance():
    g = philox_stream(401, 64)
    for _ in range(6):
        alpha = g.uniform(-2.0, 2.0, 3)
        beta = g.uniform(-2.0, 2.0, 3)
        other = np.array([g.uniform(-2.0, 2.0), g.uniform(-2.0, 2.0), alpha[2]])
        t0 = fit_c112_coeffs(alpha, beta)
        t1 = fit_c112_coeffs(other, beta)
        assert np.max(np.abs(t0.values - t1.values)) < tol.FIT_RESIDUAL_TOL


def test_fitted_022_entry_matches_closed_form():
    g = philox_stream(402, 64)
    for _ in range(10):
        alpha = g.uniform(-2.0, 2.0, 3)
        beta = g.uniform(-2.0, 2.0, 3)
        table = fit_c112_coeffs(alpha, beta)
        assert abs(table.entry((0, 2, 2)) - p022(alpha[2], beta)) < 1e-9
        # mirror of the same formula sits in the transposed slot
        assert abs(table.entry((2, 0, 2)) - p022(alpha[2], beta[::-1])) < 1e-9


def test_fitted_table_predicts_out_of_grid_points():
    g = philox_stream(403, 64)
    alpha = g.uniform(-2.0, 2.0, 3)
    beta = g.uniform(-2.0, 2.0, 3)
    table = fit_c112_coeffs(alpha, beta)
    for _ in range(60):
        r = np.sort(g.dirichlet(np.ones(4)))[::-1]
        s = xyz_from_eigenvalues(r)
        predicted = sum(
            c * s.x ** i * s.y ** j * s.z ** k
            for c, (i, j, k) in zip(table.values, MONOMIALS)
        )
        actual = c112_of_chart_point(ChartPoint(s, alpha, beta))
        assert abs(predicted - actual) < 1e-9


def test_c112_is_even_in_z():
    # all odd-z monomials vanish, so the fibre polynomial must be even in z
    g = philox_stream(404, 64)
    for _ in range(40):
        alpha = g.uniform(-2.0, 2.0, 3)
        beta = g.uniform(-2.0, 2.0, 3)
        x, y = 0.52, 0.35
        for z in (0.11, 0.047):
            up = c112_of_chart_point(ChartPoint(SimplexPoint(x, y, z), alpha, beta))
            dn = c112_of_chart_point(ChartPoint(SimplexPoint(x, y, -z), alpha, beta))
            assert abs(up - dn) < 1e-13


def test_fit_rejects_small_grids_and_bad_conditioning(monkeypatch):
    # the grid checks run once, when the default grid's system is built
    with pytest.raises(DomainError, match="grid"):
        _fit_system(FIT_SPECTRA[:10])
    # one fibre per fit: a stack of triples is named, not broadcast
    for alpha, beta in ((np.zeros((2, 3)), np.zeros(3)), (np.zeros(3), np.zeros(4))):
        shapes = f"got shapes {np.shape(alpha)} and {np.shape(beta)}"
        with pytest.raises(DomainError, match=re.escape(shapes)):
            fit_c112_coeffs(alpha, beta)
    monkeypatch.setattr(tol, "FIT_COND_CAP", 1.0)
    with pytest.raises(NumericalError, match="ill-conditioned"):
        fit_c112_coeffs(np.zeros(3), np.zeros(3))


def _reference_system(alpha, beta):
    # rebuilt on every call: grid coordinates, scalar Vandermonde rows and
    # brute-force C112 targets of the fit's own conjugation, A diag(r) A^dag
    # by _conjugate, which the chart's states, built as entry rows, match
    # to rounding
    s = xyz_from_eigenvalues(np.asarray(FIT_SPECTRA, dtype=float))
    v = np.array(
        [
            [x ** i * y ** j * z ** k for i, j, k in MONOMIALS]
            for x, y, z in zip(s.x, s.y, s.z)
        ]
    )
    targets = quesne_c112(to_fano(_conjugate(a_factor(alpha, beta), eigenvalues_from_xyz(s))))
    assert np.abs(targets - c112_of_chart_point(ChartPoint(s, alpha, beta))).max() < 1e-15
    return v, targets


def _reference_fit(alpha, beta):
    # the whole fit rebuilt on every call: the system, its condition number and
    # the minimum-norm least-squares solution as a product with the pseudo-inverse
    v, targets = _reference_system(alpha, beta)
    coeffs = np.linalg.pinv(v) @ targets
    return coeffs, float(np.max(np.abs(v @ coeffs - targets))), float(np.linalg.cond(v))


def test_fit_equals_a_per_call_reference_bit_for_bit():
    g = philox_stream(405, 64)
    fibres = [(np.zeros(3), np.zeros(3)), (np.array([0.0, 0.0, 0.9]), np.zeros(3))]
    fibres += [(np.array([0.0, 0.0, g.uniform(-2.0, 2.0)]), g.uniform(-2.0, 2.0, 3))
               for _ in range(8)]
    fibres += [(g.uniform(-2.0, 2.0, 3), g.uniform(-2.0, 2.0, 3)) for _ in range(44)]
    for alpha, beta in fibres:
        table = fit_c112_coeffs(alpha, beta)
        values, residual, condition = _reference_fit(alpha, beta)
        assert table.values.tobytes() == values.tobytes()
        assert table.residual == residual
        assert table.condition == condition


def test_fit_agrees_with_per_fibre_least_squares():
    # numpy's SVD solver on each fibre's system, on octahedron-uniform fibres
    points = sample_chart_point(406, np.arange(200))
    for alpha, beta in zip(points.alpha, points.beta):
        table = fit_c112_coeffs(alpha, beta)
        v, targets = _reference_system(alpha, beta)
        coeffs, *_ = np.linalg.lstsq(v, targets, rcond=None)
        assert np.max(np.abs(table.values - coeffs)) <= 1e-12
        assert table.residual <= tol.FIT_RESIDUAL_TOL
        assert set(table.support()) <= C112_SUPPORT


def test_fit_warnings_are_per_call():
    outside = np.array([TWO_PI, 0.5, 0.0])
    for _ in range(2):
        with pytest.warns(OctahedronWarning, match="alpha lies outside"):
            fit_c112_coeffs(outside, np.zeros(3))
    tied = FIT_SPECTRA + ((0.4, 0.3, 0.15, 0.15),)
    with pytest.warns(DegenerateSpectrumWarning, match="at stack index 23"):
        _fit_system(tied)


def test_import_emits_no_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import entspace"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_coeff_table_validation():
    with pytest.raises(DomainError, match="provenance"):
        CoeffTable(values=np.zeros(15), provenance="guessed")
    for shape in ((14,), (4, 4)):
        with pytest.raises(DomainError, match=re.escape(f"takes 15 values, got shape {shape}")):
            CoeffTable(np.zeros(shape), "fitted")
    with pytest.raises(NumericalError, match="residual"):
        CoeffTable(values=np.zeros(15), provenance="fitted", residual=1e-3)
    with pytest.raises(NumericalError, match="fit residual nan exceeds"):
        CoeffTable(values=np.zeros(15), provenance="fitted", residual=np.nan)
    table = CoeffTable(values=np.arange(15.0), provenance="closed-form")
    assert table.entry((4, 0, 0)) == 0.0
    assert table.entry((0, 0, 4)) == 14.0
    # tuple.index's "x not in tuple" ValueError escaped here
    message = "unknown monomial (5, 0, 0): a monomial is three non-negative integers summing to 4"
    with pytest.raises(DomainError, match=re.escape(message)):
        CoeffTable(np.zeros(15), "fitted").entry((5, 0, 0))
