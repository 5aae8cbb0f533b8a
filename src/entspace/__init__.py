"""Two-qubit entanglement-space coordinates and separability criteria.

The package provides:

- exact 4x4 kernels (eigensolver, exponential, partial transpose/trace),
- the Fano parameterization of two-qubit states,
- the spectral-simplex x double-octahedron coordinate chart,
- algebraic separability criteria with dual-route evaluation,
- deterministic Monte-Carlo ensembles and a self-verification suite.
"""

from .errors import DomainError, NumericalError
from .fano import (
    FanoState,
    LocalUnitary,
    density_matrix,
    from_fano,
    local_unitary_action,
    schlienz_mahler,
    su2_to_so3,
    to_fano,
)
from .chart import (
    ChartPoint,
    SimplexPoint,
    a_factor,
    assemble_su4,
    eigenvalues_from_xyz,
    in_octahedron,
    representative_state,
    torus_factor,
    xyz_from_eigenvalues,
)
from .linalg4 import (
    char_poly_coeffs,
    exp_antihermitian,
    herm_eigensystem,
    herm_eigenvalues,
    partial_trace,
    partial_transpose,
    tensor_product,
)
from .montecarlo import RunConfig, SampleRecord, ScanResult, separable_fraction
from .separability import (
    BOUNDARY,
    ENTANGLED,
    SEPARABLE,
    CoeffTable,
    SeparabilityReport,
    analyze,
    det_c_closed_form,
    fit_c112_coeffs,
    ppt_verdict,
    quesne_c112,
    werner_state,
)
from .serialize import state_to_dict
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY",
    "ChartPoint",
    "CoeffTable",
    "DomainError",
    "ENTANGLED",
    "FanoState",
    "LocalUnitary",
    "NumericalError",
    "RunConfig",
    "SEPARABLE",
    "SampleRecord",
    "ScanResult",
    "SeparabilityReport",
    "SimplexPoint",
    "a_factor",
    "analyze",
    "assemble_su4",
    "char_poly_coeffs",
    "density_matrix",
    "det_c_closed_form",
    "eigenvalues_from_xyz",
    "exp_antihermitian",
    "fit_c112_coeffs",
    "from_fano",
    "herm_eigensystem",
    "herm_eigenvalues",
    "in_octahedron",
    "local_unitary_action",
    "partial_trace",
    "partial_transpose",
    "ppt_verdict",
    "quesne_c112",
    "representative_state",
    "run_suite",
    "schlienz_mahler",
    "separable_fraction",
    "state_to_dict",
    "su2_to_so3",
    "tensor_product",
    "to_fano",
    "torus_factor",
    "werner_state",
    "xyz_from_eigenvalues",
]
