"""Dispatch guard: the package's elementwise numpy calls keep their bits on
any x86 CPU.

numpy picks each ufunc's SIMD loop from the CPU when it is imported, and
some loops round differently from one target to another.  Hashing 2^20
values with numpy's AVX-512 loops on and then off, np.cbrt, np.exp, np.log
and np.power (``x ** 3`` and ``x ** 4`` on an array among them) moved, and
the ufuncs of STABLE kept their bits.  So every ``np.<name>`` under
``src/entspace`` that is a ufunc must be one of STABLE.  np.matmul is a
BLAS call: it moves with the BLAS kernel, not with numpy's dispatch, and
is not judged here.

On an array, ``x ** 2`` is np.square's loop and any other exponent is
np.power's, so a ``**`` takes the literal exponent 2 unless its function
is in POW_ALLOWED, with the reason it keeps its bits.

LAPACK's results move with the BLAS kernel OpenBLAS picks for the CPU, so
every ``np.linalg.*`` call must sit at a site of LAPACK_SITES, with its
reason, and every listed site must still make exactly the listed calls.
Matrix products (``@``, np.matmul, ``.dot``) are BLAS calls that move the
same way, and np.einsum sums in an order of numpy's choosing, so each must
sit at a site of PRODUCT_SITES, with its reason, in the same way.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: Ufuncs whose bits did not move with numpy's AVX-512 loops disabled.
STABLE = frozenset(getattr(np, name) for name in (
    "abs", "add", "conj", "conjugate", "copysign", "cos", "divmod", "frexp", "hypot",
    "isfinite", "ldexp", "logical_and", "maximum", "minimum", "multiply", "negative",
    "sin", "sqrt", "square",
))

#: 'module.function' -> why its ``**`` with another exponent keeps its bits.
POW_ALLOWED = {
    "separability._monomial_rows": "x, y and z are numpy scalars, whose ** is libm's pow, "
                                   "not a SIMD loop",
}


def _numpy_names(tree):
    """Names a module binds to numpy itself, and names it imports from numpy."""
    modules, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            members |= {a.asname or a.name for a in node.names}
    return modules, members


def _owned_nodes(tree):
    """(node, 'function' or '') of every node of a module, with the name of
    the function (dotted through nested definitions) it sits in."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{owner}.{child.name}".lstrip("."))
            else:
                yield child, owner
                yield from walk(child, owner)
    return walk(tree, "")


def dispatch_dependent(src):
    """Sorted 'module:line what' of every call under ``src`` whose bits may
    depend on numpy's SIMD dispatch (see the module docstring)."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, members = _numpy_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                name = node.attr
            elif isinstance(node, ast.alias) and (node.asname or node.name) in members:
                name = node.name
            else:
                continue
            member = getattr(np, name, None)
            if isinstance(member, np.ufunc) and member not in STABLE and name != "matmul":
                found.append(f"{path.stem}:{node.lineno} np.{name}")
        for node, owner in _owned_nodes(tree):
            if not (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)):
                continue
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if ast.unparse(exponent) != "2" and f"{path.stem}.{owner}" not in POW_ALLOWED:
                found.append(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    return sorted(found)


def test_every_ufunc_and_power_keeps_its_bits_under_any_dispatch():
    assert dispatch_dependent(ROOT / "src" / "entspace") == []


#: 'module.function' -> (the np.linalg functions it calls, why its output may
#: depend on the LAPACK build).  A printed value that LAPACK decides moves
#: with the BLAS kernel, so each entry is a decision-only site, a reference
#: oracle, or a printed route whose move to elementwise sums is still open.
LAPACK_SITES = {
    "montecarlo.pt_oracle_masks": (
        {"eigvalsh"}, "decision-only: its masks are printed only as counts"),
    "montecarlo.sample_records": (
        {"eigvalsh"}, "printed, open: the min_pt_eig column of sample"),
    "montecarlo.reanalyze_record": (
        {"eigvalsh"}, "printed, open: a replayed record's min_pt_eig"),
    "separability._fit_system": (
        {"pinv", "cond"}, "printed, open: the fit's pseudo-inverse and its condition"),
    "linalg4.unitarity_defect": (
        {"det"}, "printed, open: the |det U - 1| defect of the verify residuals"),
    "verify._check_charpoly_vs_spectrum": (
        {"det"}, "reference oracle: S4 against LAPACK's determinant"),
}


def _imports_linalg(node):
    """Whether ``node`` imports numpy.linalg or a name from it."""
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.linalg") for a in node.names)
    return isinstance(node, ast.ImportFrom) and (
        node.module == "numpy.linalg"
        or node.module == "numpy" and any(a.name == "linalg" for a in node.names))


def lapack_calls(src):
    """{'module.function': set of names} of every ``np.linalg.<name>`` under
    ``src``.  An import of numpy.linalg or of a name from it is keyed
    'module:line', which no listed site can cover."""
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, _ = _numpy_names(tree)
        for node, owner in _owned_nodes(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name) \
                    and node.value.value.id in modules:
                found.setdefault(f"{path.stem}.{owner}", set()).add(node.attr)
            elif _imports_linalg(node):
                found[f"{path.stem}:{node.lineno}"] = {"import"}
    return found


def test_every_lapack_call_sits_at_a_listed_site():
    assert lapack_calls(ROOT / "src" / "entspace") == {
        site: names for site, (names, _) in LAPACK_SITES.items()
    }


#: 'module.function' -> (the products it makes: "@", "matmul", "dot" for
#: ``x.dot`` or np.dot, "einsum"; why its output may depend on their order or
#: on the BLAS kernel).  As in LAPACK_SITES, each is decision-only, a
#: reference, exact whatever the order, or a printed route whose move to
#: elementwise sums is open (ROADMAP item 16).
PRODUCT_SITES = {
    "chart._conjugate": (
        {"@"}, "printed, open: A diag(r) A^dag of the fit's 23 targets"),
    "chart.a_factor": (
        {"@"}, "reference: the series A-factor, the closed route's independent check"),
    "chart.assemble_su4": (
        {"@"}, "printed, open: (u (x) v) A T, read by the chart verify checks"),
    "fano.FanoState.__post_init__": (
        {"einsum"}, "decision-only: |a|^2 and |b|^2 against the Bloch-ball bound"),
    "fano._reject": (
        {"einsum"}, "message only: the norms an error names"),
    "fano.to_fano": (
        {"dot"}, "exact whatever the order: each table product adds at most two terms"),
    "fano.from_fano": (
        {"dot"}, "exact whatever the order: each family sum adds at most two terms"),
    "fano.local_unitary_action": (
        {"@"}, "printed, open: k rho k^dag in the verify residuals"),
    "fano.su2_to_so3": (
        {"einsum"}, "reference: the SO(3) rotation of an SU(2) factor"),
    "linalg4._exp_antihermitian": (
        {"@", "matmul"}, "printed, open: the series exponential's Taylor steps and squarings"),
    "linalg4.partial_trace": (
        {"einsum"}, "exact whatever the order: each entry adds two terms"),
    "linalg4.unitarity_defect": (
        {"@"}, "printed, open: the U^dag U Gram matrix of the verify residuals"),
    "sampling._product_states": (
        {"einsum"}, "exact whatever the order: one product per entry, no sum"),
    "separability.fit_c112_coeffs": (
        {"@"}, "printed, open: pinv times the targets, and the fit's residual"),
    "separability.quesne_c112": (
        {"einsum"}, "fixed order: numpy's loop, not BLAS, adds from +0.0 in (r, s) order, "
                    "pinned by test_cofactor_invariants_are_their_fixed_order_sums"),
    "verify._check_c112_quartic_predicts": (
        {"@"}, "printed, open: the quartic table's predictions"),
    "verify._check_eigensolver_reconstruction": (
        {"@"}, "printed, open: the reconstruction residual V diag(w) V^dag - H"),
    "verify._check_expm_paths": (
        {"@"}, "printed, open: the residual exp(X) exp(-X) - I"),
    "verify._check_kron_mixed_product": (
        {"@"}, "printed, open: the mixed-product residual"),
    "verify._check_partial_transpose_trace": (
        {"einsum"}, "printed, open: the traces and Bloch vectors of the residual"),
}


def product_calls(src):
    """{'module.function': set of names} of every matrix product and einsum
    under ``src``: ``@`` and ``@=``, np.matmul, np.dot or ``x.dot(...)``, and
    np.einsum, each as it is named in PRODUCT_SITES."""
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, members = _numpy_names(tree)
        for node, owner in _owned_nodes(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                name = "@"
            elif isinstance(node, ast.Attribute) and (node.attr == "dot" or (
                    node.attr in ("matmul", "einsum") and isinstance(node.value, ast.Name)
                    and node.value.id in modules)):
                name = node.attr
            elif isinstance(node, ast.alias) and (node.asname or node.name) in members \
                    and node.name in ("matmul", "dot", "einsum"):
                name = node.name
            else:
                continue
            found.setdefault(f"{path.stem}.{owner}", set()).add(name)
    return found


def test_every_matrix_product_and_einsum_sits_at_a_listed_site():
    assert product_calls(ROOT / "src" / "entspace") == {
        site: names for site, (names, _) in PRODUCT_SITES.items()
    }
