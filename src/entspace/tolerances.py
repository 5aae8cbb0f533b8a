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

# -- LDL^H inertia certificates of the scan oracle (min_eig_certificates) ------
#: The margin delta of min_eig_certificates, relative to max(1, |H|_F).
#: With u = 2^-53 and n = 4, three errors must each stay 1e3 times below
#: delta = 1e-11 max(1, |H|_F):
#: - LDL^H without pivoting: the computed L, D are the exact factors of
#:   H - s I + E with |E| <= g |L| |D| |L^H| (Higham, Accuracy and Stability
#:   of Numerical Algorithms, 2nd ed., Thms 9.3 and 10.3, with g = gamma_(n+1)
#:   widened to sqrt(2) gamma_(n+3) for complex arithmetic, section 3.6).
#:   When every pivot is positive, Cauchy-Schwarz gives |E|_2 <= g tr(H - s I)
#:   (1 + O(u)) <= 2 g |H|_F, about 2.2e-15 |H|_F; rounding s into the
#:   diagonal adds u (|H|_F + s).  Together under 2.5e-15 max(1, |H|_F).
#: - The Rayleigh quotient: y = H w and w^H y are complex inner products of
#:   length 4, so |fl(w^H H w) - w^H H w| <= 2 sqrt(2) gamma_6 |w|^T |H| |w|
#:   (1 + O(u)), under 2e-15 |H|_F |w|^2 because |w|^T |H| |w| <=
#:   |H|_F |w|^2.  The test charges RAYLEIGH_ROUNDING |H|_F |w|^2 =
#:   1e-14 |H|_F |w|^2 for it, five times that and 1e-3 delta |w|^2.
#: - LAPACK's zheevd, behind eigvalsh: |computed - exact| <= p(n) u |H|_2
#:   (LAPACK Users' Guide, 3rd ed., section 4.7) with p(n) a modest function
#:   of n; delta is 1e3 p(n) u |H|_2 for any p(4) up to 90.
#: Gradual underflow adds a few 1e-308 per operation, nothing beside delta.
#: At 1e-12 the factorisation's bound would be only 400 times below delta.
CERTIFICATE_MARGIN = 1e-11
RAYLEIGH_ROUNDING = 1e-14

# -- quartic coefficient fits --------------------------------------------------
FIT_RESIDUAL_TOL = 1e-9     # max |V c - y| accepted for a fitted table
FIT_COND_CAP = 1e8          # Vandermonde condition number cap
COEFF_EPS = 1e-9            # entry magnitude below which a coefficient is zero

# -- Monte-Carlo harness -------------------------------------------------------
CHUNK = 4096                # batch size; also the unit of stream addressing
