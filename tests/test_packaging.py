"""The declared runtime dependencies match what the package imports."""

import ast
import math
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


# Defaulted parameters no call in src/ or demos/ reaches, kept on purpose: the
# console entry point's argv.
_ENTRY_POINT_PARAMS = {"cli.main(argv)"}


def _defaulted_params(path):
    """``(function, parameter, position)`` for each defaulted parameter of each
    def in ``path`` but dunders; ``position`` counts the arguments a call
    passes (a method's ``self`` is not one), ``None`` for keyword-only ones."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef) or f.name.startswith("__"):
            continue
        positional = f.args.posonlyargs + f.args.args
        skip = 1 if id(f) in methods else 0
        first = len(positional) - len(f.args.defaults)
        for k in range(first, len(positional)):
            yield f.name, positional[k].arg, k - skip
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield f.name, arg.arg, None


def _passed_params(paths):
    """For each called name, the most positional arguments one call passes and
    every keyword some call passes (``**`` and ``*`` count as every one)."""
    positional, keywords = {}, {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            positional[name] = max(positional.get(name, 0), count)
            names = {kw.arg for kw in node.keywords}
            keywords.setdefault(name, set()).update({"**"} if None in names else names)
    return positional, keywords


def test_every_defaulted_parameter_is_passed_by_some_call():
    """A default that no call overrides is a constant behind a knob nobody turns."""
    sources = sorted((ROOT / "src" / "curvfun").glob("*.py"))
    positional, keywords = _passed_params(sources + sorted((ROOT / "demos").glob("*.py")))
    unpassed = sorted(
        "%s.%s(%s)" % (path.stem, func, param)
        for path in sources for func, param, k in _defaulted_params(path)
        if not ((k is not None and positional.get(func, 0) > k)
                or keywords.get(func, set()) & {param, "**"})
    )
    assert [p for p in unpassed if p not in _ENTRY_POINT_PARAMS] == []
