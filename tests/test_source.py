"""Checks on the package source itself."""

import ast
from pathlib import Path

import netwake

PACKAGE = Path(netwake.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # Invariants must be real checks: an assert vanishes under python -O.
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths, f"no source files under {PACKAGE}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in the package: {found}"
