"""Dead-symbol guard: every top-level name of the package has a user.

A name defined at the top level of a module under ``src/entspace`` is in
use when the package refers to it outside its own definition (in its own
module or in another one), when ``entspace.__all__`` exports it, or when
the benchmark under ``perfbench/`` uses it (by name, attribute or the
string its tracer hooks).  A helper that only tests call belongs in the
tests.  Likewise every parameter with a default value is read by its
function's body: a knob that changes nothing is dead too, and so is a
name that a module imports and never reads, unless the benchmark's tracer
hooks it in that module's namespace.
"""

import ast
from pathlib import Path

import entspace

ROOT = Path(__file__).resolve().parents[1]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """(name, node) of each function, class and assigned name at the top
    level of a module, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("__"):
                        yield n.id, node


def _references(nodes, strings=False):
    """Names the ``nodes`` refer to: loaded names, attribute names, imported
    names and, with ``strings``, identifier-like string constants."""
    found = set()
    for root in nodes:
        for n in ast.walk(root):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                found.add(n.id)
            elif isinstance(n, ast.Attribute):
                found.add(n.attr)
            elif isinstance(n, ast.alias):
                found.add(n.name.rpartition(".")[2])
            elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
                found.update(n.value.split("."))
    return found


def _bench_references(bench):
    """Names the benchmark under ``bench`` refers to, hooked strings included."""
    return _references((_parse(p) for p in sorted(bench.glob("*.py"))), strings=True)


def dead_symbols(src, bench):
    """Sorted 'module.name' of every top-level name under ``src`` that has
    no user (see the module docstring); ``bench`` is the benchmark directory."""
    modules = {p.stem: _parse(p) for p in sorted(src.glob("*.py"))}
    used_by_bench = _bench_references(bench)
    exported = set(entspace.__all__)
    dead = []
    for stem, tree in modules.items():
        elsewhere = _references(t for s, t in modules.items() if s != stem)
        for name, node in _definitions(tree):
            at_home = _references(n for n in tree.body if n is not node)
            if not ({name} & (elsewhere | at_home | exported | used_by_bench)):
                dead.append(f"{stem}.{name}")
    return sorted(dead)


def test_every_top_level_name_has_a_user():
    assert dead_symbols(ROOT / "src" / "entspace", ROOT / "perfbench") == []


def unread_defaults(src):
    """Sorted 'module.function(parameter)' of every parameter under ``src``
    that has a default value and that its function's body never reads;
    a read inside a nested function counts."""
    unread = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for root in body for n in ast.walk(root)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.stem}.{name}({a.arg})" for a in defaulted if a.arg not in read]
    return sorted(unread)


def test_every_defaulted_parameter_is_read():
    assert unread_defaults(ROOT / "src" / "entspace") == []


def unread_imports(src):
    """Sorted 'module.name' of every name that a module under ``src`` binds
    by an import and never reads; the package's ``__init__`` is exempt,
    since its imports are its exports."""
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = _parse(path)
        read = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}.{name}")
    return sorted(unread)


def test_every_imported_name_is_read_or_hooked_by_the_benchmark():
    # a module may import a name it never reads only so that the benchmark
    # tracer can wrap it in that module's namespace; today those are
    # chart.exp_antihermitian, separability.representative_state and
    # verify.oracle_masks
    used_by_bench = _bench_references(ROOT / "perfbench")
    unread = unread_imports(ROOT / "src" / "entspace")
    assert [m for m in unread if m.rpartition(".")[2] not in used_by_bench] == []
