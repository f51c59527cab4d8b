"""Committed CLI records stay as they are, to 1e-13 relative.

Each command in ``tests/golden/generate.py`` runs in process and its record
is compared with the committed file: the same keys, equal strings, integers,
booleans and nulls, and floats within 1e-13 relative (1e-14 absolute near
zero).  The tolerance is not bitwise because BLAS kernels may round
differently on another CPU; to see bit-level moves, rerun the generator and
``git diff tests/golden``.
"""

import json

import pytest

from golden.generate import COMMANDS, path, record

REL, ABS = 1e-13, 1e-14


def moved(golden, now, where="$"):
    """``(where, golden, now)`` for every field of ``now`` that differs from ``golden``."""
    if isinstance(golden, dict) and isinstance(now, dict):
        for key in sorted(golden.keys() | now.keys()):
            if key not in now or key not in golden:
                yield ("%s.%s" % (where, key), golden.get(key, "<missing>"),
                       now.get(key, "<missing>"))
            else:
                yield from moved(golden[key], now[key], "%s.%s" % (where, key))
    elif isinstance(golden, list) and isinstance(now, list) and len(golden) == len(now):
        for i, (g, n) in enumerate(zip(golden, now)):
            yield from moved(g, n, "%s[%d]" % (where, i))
    elif type(golden) is float and type(now) is float:
        if not abs(now - golden) <= max(REL * abs(golden), ABS):
            yield where, golden, now
    elif type(golden) is not type(now) or golden != now:
        yield where, golden, now


def test_moved_names_every_field_that_differs():
    golden = {"a": 1.0, "b": [1, "x"], "c": 0.0, "d": True, "e": 2}
    now = {"a": 1.0 + 1e-12, "b": [1, "y"], "c": 1e-15, "d": 1, "f": None}
    assert list(moved(golden, now)) == [
        ("$.a", 1.0, 1.0 + 1e-12), ("$.b[1]", "x", "y"), ("$.d", True, 1),
        ("$.e", 2, "<missing>"), ("$.f", "<missing>", None),
    ]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_record_matches_its_golden_file(name):
    golden = json.loads(path(name).read_text())
    diffs = list(moved(golden, record(COMMANDS[name])))
    assert not diffs, "%s moved:\n%s" % (name, "\n".join(
        "  %s: golden %r, now %r" % d for d in diffs))
