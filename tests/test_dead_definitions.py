"""Guard against dead code: every module-level function and class of the
package is named somewhere else in the package (``lrmeq/__init__.py``'s
exports count as such a name)."""

import ast
from pathlib import Path

import lrmeq

PACKAGE = Path(lrmeq.__file__).parent

# Definitions that nothing in the package names, each with the reason it stays.
ALLOWED = {
    "hutchpp_residual_norm": "bench/tracer.py still wraps it; it goes with the next "
                             "benchmark change (ROADMAP item 1)",
}


def names_in(node):
    """Every identifier ``node`` reads, calls, imports or reaches as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def test_every_module_level_definition_is_named_elsewhere():
    statements = []     # (module, top-level statement, names it uses)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.name, stmt, names_in(stmt)) for stmt in tree.body]
    defined = [
        (module, stmt) for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 50    # the scan sees the package
    unused = {
        d.name: f"{module}:{d.lineno}" for module, d in defined
        if not any(d.name in names for _, stmt, names in statements if stmt is not d)
    }
    dead = [f"{where} {name}" for name, where in unused.items() if name not in ALLOWED]
    assert not dead, "defined but named nowhere else in lrmeq: " + ", ".join(dead)
    assert set(ALLOWED) <= set(unused), "an allowed definition is gone or in use again"
