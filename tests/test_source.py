"""Checks on the package source itself."""

import ast
import sys
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


def test_public_names_resolve_once():
    names = netwake.__all__
    assert [name for name in names if not hasattr(netwake, name)] == []
    assert sorted({name for name in names if names.count(name) > 1}) == []


def test_package_imports_only_numpy_and_the_standard_library():
    # The README promises a numpy-only package.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed]
    assert found == [], f"imports outside numpy and the standard library: {found}"


def names_outside(owners, names):
    """Every place a package module other than ``owners`` names one of ``names``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in names:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_only_network_reads_the_edge_format():
    # Network owns the CSR layout; other modules ask has_edge and neighbors.
    internals = {"adj_indptr", "adj_indices", "local_indptr", "local_indices", "row_positions", "concat_ranges"}
    found = names_outside({"network.py"}, internals)
    assert found == [], f"CSR internals named outside network.py: {found}"


def test_only_montecarlo_reads_the_cascade_window():
    # One transition pipeline: everything else asks window_boundaries.
    found = names_outside({"montecarlo.py", "__init__.py"}, {"estimate_crossing", "fit_boundary_exponent"})
    assert found == [], f"crossing or fit rules named outside montecarlo.py: {found}"


def test_only_deploy_draws_a_replicate():
    # One stream per replicate: only _deploy derives it and draws the
    # points; the idle-seed probe and the response stage read them.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name in ("replicate_rng", "sample_points"):
                        found.append(f"{path.name}:{func.name} {name}")
    assert sorted(set(found)) == ["montecarlo.py:_deploy replicate_rng", "montecarlo.py:_deploy sample_points"]
