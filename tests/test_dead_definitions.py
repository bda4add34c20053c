"""Guard against dead code: every module-level function and class of the
package, and every non-dunder method of its classes, is named somewhere
else in the package (``lrmeq/__init__.py``'s exports count as such a
name); every parameter is read, and so is every solve setting of the
command line."""

import ast
import collections
from pathlib import Path

import lrmeq
from lrmeq import cli

PACKAGE = Path(lrmeq.__file__).parent

# Definitions that nothing in the package names, each with the reason it stays.
ALLOWED = {
    "hutchpp_residual_norm": "bench/tracer.py still wraps it; it goes with the next "
                             "benchmark change (ROADMAP item 1)",
}
ALLOWED_METHODS = {
    "_Parser.error": "argparse calls it",
    **{f"SpdFactorization.{name}": "bench/tracer.py wraps it; it goes with the next "
                                   "benchmark change (ROADMAP item 1)"
       for name in ("c_mul", "ct_mul", "c_solve", "ct_solve")},
    "SolveTrace.rows_without_time": "the golden-diff helper of tests and tools",
}


def uses(node):
    """How often ``node`` reads, calls, imports or reaches each identifier
    as an attribute."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
    return out


def package_trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def unused(definitions, trees):
    """``{key: where}`` of the ``(key, module, node)`` definitions whose
    name the package uses only inside the definition itself."""
    package = sum((uses(tree) for tree in trees.values()), collections.Counter())
    return {key: f"{module}:{d.lineno}" for key, module, d in definitions
            if package[d.name] == uses(d)[d.name]}


def check(definitions, trees, allowed):
    dead = unused(definitions, trees)
    assert not [k for k in dead if k not in allowed], (
        "defined but named nowhere else in lrmeq: "
        + ", ".join(f"{where} {key}" for key, where in dead.items() if key not in allowed))
    assert set(allowed) <= set(dead), "an allowed definition is gone or in use again"


def test_every_module_level_definition_is_named_elsewhere():
    trees = package_trees()
    defined = [
        (stmt.name, module, stmt) for module, tree in trees.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 50    # the scan sees the package
    check(defined, trees, ALLOWED)


def test_every_method_is_named_elsewhere():
    trees = package_trees()
    methods = [
        (f"{cls.name}.{d.name}", module, d)
        for module, tree in trees.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for d in cls.body
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (d.name.startswith("__") and d.name.endswith("__"))
    ]
    assert len(methods) > 50    # the scan sees the classes
    check(methods, trees, ALLOWED_METHODS)


def parameters(fn):
    args = fn.args
    return [a.arg for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs,
                            args.kwarg) if a is not None]


def reads(fn):
    """The names that the body of ``fn`` reads."""
    return {sub.id for stmt in fn.body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}


def test_every_parameter_is_read():
    """Every parameter of every function of the package, methods and nested
    functions included, is read in the function's body; ``self``, ``cls``
    and ``_``-prefixed names are exempt."""
    functions = [(module, fn) for module, tree in package_trees().items()
                 for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert len(functions) > 200    # the scan sees the package
    unread = [f"{module}:{fn.lineno} {fn.name}({name})" for module, fn in functions
              for name in parameters(fn)
              if name not in ("self", "cls") and not name.startswith("_")
              and name not in reads(fn)]
    assert not unread, "parameters never read: " + ", ".join(unread)


def test_every_config_key_is_read():
    """Every key of ``cli._CONFIG_DEFAULTS`` is read as ``cfg["<key>"]`` in
    ``lrmeq/cli.py``, so no setting is accepted that nothing uses."""
    tree = package_trees()["cli.py"]
    read = {sub.slice.value for sub in ast.walk(tree)
            if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Load)
            and isinstance(sub.value, ast.Name) and sub.value.id == "cfg"
            and isinstance(sub.slice, ast.Constant)}
    assert "solver" in read    # the scan sees the reads
    assert not set(cli._CONFIG_DEFAULTS) - read, (
        "config keys never read: " + ", ".join(sorted(set(cli._CONFIG_DEFAULTS) - read)))
