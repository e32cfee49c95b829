"""Checks in the package must still run under ``python -O``.

``python -O`` strips assert statements, so a conclusion the package checks
at run time has to raise CheckFailed instead.
"""

import ast
from pathlib import Path

import latticevc


def test_package_has_no_assert_statements():
    modules = sorted(Path(latticevc.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
