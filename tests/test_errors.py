"""The stack-index naming rule of errors.require, on every gate whose
entries have trailing axes, over a stack with two leading axes."""

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
    a_factor,
    eigenvalues_from_xyz,
    representative_state,
    xyz_from_eigenvalues,
)
from entspace.errors import DomainError, first_failure, require
from entspace.fano import FanoState, LocalUnitary
from entspace.linalg4 import exp_antihermitian, hermitize
from entspace.separability import verdict_masks


def _planted(fill, entry):
    """A (2, 3) stack of ``fill`` entries whose only offender, ``entry``,
    sits at (1, 2)."""
    stack = np.tile(fill, (2, 3) + (1,) * np.ndim(fill))
    stack[1, 2] = entry
    return stack


_SPECTRUM = [0.4, 0.3, 0.2, 0.1]
_ZEROS3 = np.zeros((2, 3, 3))

_GATES = {
    "square stack": (
        lambda: hermitize(_planted(np.zeros((2, 2)), [[0, np.nan], [0, 0]])),
        "matrix at stack index (1, 2) has a non-finite entry",
    ),
    "hermitize": (
        lambda: hermitize(_planted(np.zeros((2, 2)), [[0, 1], [0, 0]])),
        "matrix at stack index (1, 2) is not Hermitian: "
        f"max|H - H^dag| = 1.000e+00 > {tol.HERMITICITY_TOL:.1e}",
    ),
    "exp_antihermitian": (
        lambda: exp_antihermitian(_planted(np.zeros((2, 2)), [[0, 1], [0, 0]])),
        "matrix at stack index (1, 2) is not anti-Hermitian: max|X + X^dag| = 1.000e+00",
    ),
    "angle not finite": (
        lambda: a_factor(_planted(np.zeros(3), [0, np.nan, 0]), np.zeros(3)),
        f"alpha at stack index (1, 2) has a non-finite angle: {np.array([0, np.nan, 0])}",
    ),
    "angle beyond the limit": (
        lambda: a_factor(np.zeros(3), _planted(np.zeros(3), [1e308, 0, 0])),
        f"beta at stack index (1, 2) has an angle beyond {ANGLE_LIMIT!r}, where the "
        f"closed forms overflow: {np.array([1e308, 0, 0])}",
    ),
    "coordinate not finite": (
        lambda: eigenvalues_from_xyz(SimplexPoint(0.0, _planted(0.0, np.nan), 0.0)),
        f"simplex point at stack index (1, 2) has a non-finite coordinate: "
        f"{np.array([0, np.nan, 0])}",
    ),
    "outside the simplex": (
        lambda: eigenvalues_from_xyz(SimplexPoint(_planted(0.0, 2.0), 0.0, 0.0)),
        "simplex inequality violated: r4 >= 0 fails by 2.500e-01 at stack index (1, 2) "
        "at (x, y, z) = (2.0, 0.0, 0.0)",
    ),
    "spectrum overflows": (
        lambda: eigenvalues_from_xyz(SimplexPoint(
            _planted(0.0, 1.7e308), _planted(0.0, 1e308), _planted(0.0, -1.5e308))),
        "simplex inequality violated: the spectrum overflows at stack index (1, 2) "
        "at (x, y, z) = (1.7e+308, 1e+308, -1.5e+308)",
    ),
    "spectrum not unit-sum": (
        lambda: xyz_from_eigenvalues(_planted(_SPECTRUM, [0.5, 0.3, 0.2, 0.1])),
        "spectrum must sum to 1, got 1.1 at stack index (1, 2)",
    ),
    "spectrum not ordered": (
        lambda: xyz_from_eigenvalues(_planted(_SPECTRUM, [0.3, 0.4, 0.2, 0.1])),
        "spectrum not ordered: r1 >= r2 fails by 1.000e-01 at stack index (1, 2)",
    ),
    "Fano entry not finite": (
        lambda: FanoState(_ZEROS3, _ZEROS3, _planted(np.zeros((3, 3)), np.nan)),
        "Fano coefficients at stack index (1, 2) have a non-finite entry",
    ),
    "Bloch vector out of range": (
        lambda: FanoState(_ZEROS3, _planted(np.zeros(3), [0, 2, 0]), np.zeros((2, 3, 3, 3))),
        "Bloch vector norm out of range at stack index (1, 2): |a| = 0.0, |b| = 2.0",
    ),
    "correlation out of range": (
        lambda: FanoState(_ZEROS3, _ZEROS3, _planted(np.zeros((3, 3)), np.diag([0, 0, -2]))),
        "correlation entry out of range at stack index (1, 2): max |C_ij| = 2.0",
    ),
    "verdict": (
        lambda: verdict_masks(np.ones((2, 3)), _planted(1.0, np.inf)),
        "PT coefficients at stack index (1, 2) are not finite",
    ),
    "local unitary": (
        lambda: LocalUnitary(np.eye(2), _planted(np.eye(2, dtype=complex), 1j * np.eye(2))),
        "v at stack index (1, 2) is not special unitary: "
        "|u^dag u - I| = 0.000e+00, |det - 1| = 2.000e+00",
    ),
}


@pytest.mark.parametrize("gate", list(_GATES))
def test_gate_names_the_offender_of_a_two_axis_stack(gate):
    call, message = _GATES[gate]
    with pytest.raises(DomainError) as e:
        call()
    assert str(e.value) == message


def test_warnings_name_the_offender_of_a_two_axis_stack():
    with pytest.warns(OctahedronWarning) as caught:
        a_factor(_planted(np.zeros(3), [7, 0, 0]), np.zeros(3))
    assert str(caught[0].message) == (
        "alpha at stack index (1, 2) lies outside the closed octahedron "
        "(l1 norm 7 > 2*pi); the chart wraps around"
    )
    point = ChartPoint(SimplexPoint(_planted(0.3, 0.0), _planted(0.2, 0.0), _planted(0.1, 0.0)),
                       np.zeros(3), np.zeros(3))
    with pytest.warns(DegenerateSpectrumWarning) as caught:
        representative_state(point)
    assert len(caught) == 1
    # numpy 2 printed each entry as np.float64(0.25)
    assert str(caught[0].message) == (
        "degenerate spectrum (0.25, 0.25, 0.25, 0.25) at stack index (1, 2): "
        "chart point is non-generic"
    )


def test_first_failure_and_require():
    assert first_failure(np.ones((2, 3, 4), dtype=bool), (2, 3)) is None
    ok = np.ones((2, 3, 4), dtype=bool)
    ok[1, 0, 3] = ok[1, 2, 0] = False
    assert first_failure(ok, (2, 3)) == (3, " at stack index (1, 0)")
    assert first_failure(np.bool_(False), ()) == (0, "")
    assert first_failure(np.array([True, False]), (2,)) == (1, " at stack index 1")

    def never(i, at):
        raise AssertionError("a passing gate builds no message")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        require(np.ones((0, 3), dtype=bool), (0,), never)
        require(np.ones(5, dtype=bool), (5,), never)
    with pytest.raises(ArithmeticError, match="^entry 3 at stack index 3$"):
        require(np.arange(5) != 3, (5,), lambda i, at: f"entry {i}{at}", ArithmeticError)
