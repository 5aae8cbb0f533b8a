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

# -- Newton's lambda_min of rho^TB (pt_min_eigenvalue) --------------------------
PT_NEWTON_STEPS = 16        # Newton steps from -1/2; HS roots settle in about 8
PT_NEWTON_BOUND = 1e-11     # largest bound on |lambda_min - x| kept; the rest take the Jacobi
#: A bound on the rounding error of p(x) = x^4 - t x^3 + S2 x^2 - S3 x + S4
#: and of p'(x), each, at |x| <= 1/2, with t = tr H and S2-S4 by _s_coeffs,
#: for H = rho^TB of a state.  Its eigenvalues lie in [-1/2, 1] with sum 1, so
#: sum |l_i| <= 2, |S2| <= 3/8, |S3| <= 1/2, |S4| <= 1/16, and every
#: p_k = tr H^k, k >= 2, is at most tr rho^2 <= 1; the rows of H have 2-norms
#: a_i with sum a_i^2 = p2.  First order in u = 2^-53, in _s_coeffs' order:
#: - H^2 by _gram: each part of an entry sums 8 products, error <= 5u sum_k
#:   |h_qk| |h_pk| <= 5u a_q a_p.
#: - t 3u, p2 8u, p4 18u, and p3 <= 10u sum |G_qp| |h_qp| + 5 sqrt(2) u a^T |H| a
#:   <= 18u (the sums are at most |H^2|_F |H|_F <= 1 and |H|_F p2 <= 1).
#: - Newton's identities, through their partial derivatives and their own
#:   roundings: S2 8u, S3 14u, S4 19u.
#: - Horner's roundings: 8u sum |a_j| |x|^j < 5u for p, 6u (1/2 + 3/4 + 3/8 +
#:   1/2) < 13u for p'.
#: So p(x) is off by at most 3u/8 + 8u/4 + 14u/2 + 19u + 5u < 34u and p'(x)
#: by 9u/4 + 8u + 14u + 13u < 38u = 4.2e-15; the kernel charges 5e-15 to both.
PT_COEFF_ERROR = 5e-15

# -- quartic coefficient fits --------------------------------------------------
FIT_RESIDUAL_TOL = 1e-9     # max |V c - y| accepted for a fitted table
FIT_COND_CAP = 1e8          # Vandermonde condition number cap
COEFF_EPS = 1e-9            # entry magnitude below which a coefficient is zero

# -- Monte-Carlo harness -------------------------------------------------------
CHUNK = 4096                # batch size; also the unit of stream addressing
