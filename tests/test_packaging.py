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


def _unused_imports(path):
    """``file:line name`` for each name ``path`` imports and never reads.

    A name in ``__all__`` counts as read; an import whose lines carry
    ``# noqa: F401`` is kept on purpose and skipped.
    """
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append("%s:%d %s" % (path.name, node.lineno, name))
    return unused


def test_package_modules_use_every_name_they_import():
    unused = [entry for path in sorted((ROOT / "src" / "curvfun").glob("*.py"))
              for entry in _unused_imports(path)]
    assert unused == []


def test_every_exported_name_resolves():
    import importlib

    modules = ["curvfun"] + ["curvfun." + path.stem
                             for path in sorted((ROOT / "src" / "curvfun").glob("*.py"))
                             if path.stem != "__init__"]
    stale = []
    for name in modules:
        module = importlib.import_module(name)
        stale += ["%s.%s" % (name, attr) for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert stale == []


def test_metric_fields_come_from_geometry_constructors():
    """No module builds a ``MetricField(...)`` itself: each metric source reaches
    (g, R) through one of geometry's constructors."""
    calls = ["%s:%d" % (path.name, node.lineno)
             for path in sorted((ROOT / "src" / "curvfun").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and "MetricField" in (getattr(node.func, a, None) for a in ("id", "attr"))]
    assert calls == []


def _names_read(path):
    """Every name ``path`` reads, as a bare ``Name`` or as an ``Attribute``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _exports(path):
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_is_read_or_documented():
    """Public API that only its own tests call is code to delete."""
    sources = sorted((ROOT / "src" / "curvfun").glob("*.py"))
    read = {name for path in sources + sorted((ROOT / "demos").glob("*.py"))
            for name in _names_read(path)}
    readme = (ROOT / "README.md").read_text()
    unread = sorted("%s.%s" % (path.stem, name) for path in sources for name in _exports(path)
                    if name not in read and not re.search(r"\b%s\b" % re.escape(name), readme))
    assert unread == []
