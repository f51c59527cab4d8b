"""The declared runtime dependencies match what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    path = ROOT / "pyproject.toml"
    if not path.exists():
        pytest.skip("no pyproject.toml next to the tests")
    deps = tomllib.loads(path.read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


def _imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "curvfun"}
    outside = {path.name: sorted(set(_imported_top_levels(path)) - allowed)
               for path in sorted((ROOT / "src" / "curvfun").glob("*.py"))}
    assert {name: mods for name, mods in outside.items() if mods} == {}
