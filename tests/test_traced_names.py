"""The names the benchmark's tracer wraps still exist in the package.

``perfbench/tracing.py`` wraps curvfun's entry points by name and reports a
missing one as absent, so a rename or a deletion would silently zero the
per-layer metrics that rest on it.  The tracer is loaded from its path only
to read its tables; nothing is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("no perfbench/tracing.py next to the tests")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(tracing):
    for _, modname, path in tracing.ENTRY_POINTS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(inspect.getattr_static(owner, attr)), (modname, path)
    for _, modname in tracing.WHOLE_MODULES:
        importlib.import_module(modname)
    # quadrature binds it, uncalled, for the tracer's restore test
    assert importlib.import_module("curvfun.quadrature").riemann_arrays
