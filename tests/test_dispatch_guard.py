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


def _pow_owners(tree):
    """(node, 'function' or '') of every ``**`` in a module, with the name
    of the function (dotted through nested definitions) it sits in."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{owner}.{child.name}".lstrip("."))
            else:
                if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Pow):
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
        for node, owner in _pow_owners(tree):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if ast.unparse(exponent) != "2" and f"{path.stem}.{owner}" not in POW_ALLOWED:
                found.append(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    return sorted(found)


def test_every_ufunc_and_power_keeps_its_bits_under_any_dispatch():
    assert dispatch_dependent(ROOT / "src" / "entspace") == []

