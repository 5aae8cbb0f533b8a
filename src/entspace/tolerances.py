"""Central numeric tolerances and algorithm knobs.

The shared gates live here: every threshold the library's kernels apply,
and every bound that the runtime checks, the verification suite and the
test-suite must agree on.  Values are absolute unless noted otherwise.
Functions read a threshold from this module when they are called, and no
function takes a per-call override; the verdict band, which the CLI's
``--tol`` sets, is the one threshold passed as an argument.  A verification
check whose residual bound is its own (nine checks, at 1e-13, 1e-12, 1e-10
or 1e-9) states that bound in the check itself.
"""

# -- hermiticity / unitarity gates -------------------------------------------
HERMITICITY_TOL = 1e-12     # max |H - H^dag| accepted by hermitize()
ANTIHERM_TOL = 1e-12        # max |X + X^dag| accepted by exp_antihermitian()
UNITARITY_TOL = 1e-10       # max |U^dag U - I| and |det U - 1|
TRACE_TOL = 1e-12           # |tr(rho) - 1| for density matrices
POSITIVITY_TOL = 1e-10      # min eigenvalue >= -POSITIVITY_TOL

# -- eigensolver (cyclic complex Jacobi) --------------------------------------
JACOBI_MAX_SWEEPS = 100     # hard cap; exceeding it raises NumericalError
JACOBI_OFF_TOL = 1e-14      # relative off-diagonal Frobenius stop threshold
EIG_RECONSTRUCT_TOL = 1e-10  # |V diag(w) V^dag - H| contract

# -- matrix exponential (scaling and squaring, truncated Taylor) --------------
EXPM_TAYLOR_ORDER = 12
EXPM_SCALE_THETA = 0.5      # scale X down until |X|_F / 2^s <= theta
EXPM_PATH_TOL = 1e-12       # series path vs closed form on commuting sums

# -- coordinate charts ---------------------------------------------------------
SIMPLEX_TOL = 1e-12         # slack on ordering/positivity of eigenvalues
OCTAHEDRON_TOL = 1e-12      # slack on the l1-ball membership test
GENERIC_GAP = 1e-12         # spectral gap below which a chart point is flagged

# -- separability algebra ------------------------------------------------------
FANO_BOUND_TOL = 1e-10      # slack on |a|,|b|,|C_ij| <= 1
DET_IDENTITY_TOL = 1e-10    # det|M| = det|C| - C112/2 consistency gate
DUAL_PATH_TOL = 1e-10       # spectral route vs invariant route agreement
CLOSED_FORM_TOL = 1e-10     # closed-form det|C| vs brute-force determinant
VERDICT_TOL = 1e-9          # default boundary band for PPT verdicts
MINEIG_BAND = 1e-8          # oracle exclusion band on the minimal PT eigenvalue

# -- quartic coefficient fits --------------------------------------------------
FIT_RESIDUAL_TOL = 1e-9     # max |V c - y| accepted for a fitted table
FIT_COND_CAP = 1e8          # Vandermonde condition number cap
COEFF_EPS = 1e-9            # entry magnitude below which a coefficient is zero

# -- Monte-Carlo harness -------------------------------------------------------
CHUNK = 4096                # batch size; also the unit of stream addressing
