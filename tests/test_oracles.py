import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def imported_modules(source):
    """Top-level names of every module an ``import`` statement in the
    source names, at any nesting depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." if node.level else node.module.split(".")[0])
    return names


def test_oracles_do_not_import_the_package():
    """The dense oracles stay independent of the code they check: a
    reference that calls into ``lrmeq`` would share its defects."""
    names = imported_modules(ORACLES.read_text())
    assert "lrmeq" not in names and "." not in names, sorted(names)
