"""Verdict semantics for the reproduction harness."""

import pytest

from curvfun.errors import ConfigError
from curvfun.reproduce import CASE_NAMES, _check, run_case


def test_verdicts():
    assert _check("x", "q", 1.0, 1.0 + 1e-9, 1e-6, "quoted").verdict == "PASS"
    assert _check("x", "q", 1.0, 1.5, 1e-6, "quoted").verdict == "FAIL"
    # a measured value matching the independently derived number, where the
    # published one disagrees, is a documented discrepancy -- not a failure
    r = _check("x", "q", 2.0, 2.0, 1e-6, "derived", discrepancy=True, note="factor 2")
    assert r.verdict == "DISCREPANCY-DOCUMENTED"
    # exact channel: tolerance None means ==
    assert _check("x", "q", 5, 5, None, "quoted").verdict == "PASS"
    assert _check("x", "q", 5, 5.0000001, None, "quoted").verdict == "FAIL"


def test_check_rejects_an_unknown_source_and_a_noteless_discrepancy():
    with pytest.raises(ValueError, match="source"):
        _check("x", "q", 1.0, 1.0, 1e-6, "printed")
    with pytest.raises(ValueError, match="note"):
        _check("x", "q", 2.0, 2.0, 1e-6, "derived", discrepancy=True)
    for source in ("quoted", "derived", "identity"):
        assert _check("x", "q", 1.0, 1.0, 1e-6, source).verdict == "PASS"


def test_records_serialize():
    r = _check("x", "q", 1.0, 1.0, 1e-6, "quoted", note="n")
    rec = r.to_record()
    assert rec["case"] == "x" and rec["verdict"] == "PASS" and rec["note"] == "n"


def test_run_case_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown case 'borel-conjecture'"):
        run_case("borel-conjecture")


def test_case_registry_is_complete():
    assert len(CASE_NAMES) == 10
    for name in ("spheres", "taubes", "ellipsoids", "rp2", "products",
                 "cp2", "so4", "su3", "klembeck", "discrete"):
        assert name in CASE_NAMES


# checks per case, and the documented discrepancies among them
CASE_CHECKS = {"taubes": (7, 2), "spheres": (5, 1), "ellipsoids": (4, 0), "rp2": (3, 0),
               "products": (4, 0), "cp2": (4, 1), "so4": (5, 0), "su3": (6, 0),
               "klembeck": (6, 0), "discrete": (6, 0)}


@pytest.mark.parametrize("case", CASE_NAMES)
def test_every_case_runs_without_a_failed_check(case):
    verdicts = [r.verdict for r in run_case(case)]
    assert "FAIL" not in verdicts
    assert (len(verdicts), verdicts.count("DISCREPANCY-DOCUMENTED")) == CASE_CHECKS[case]
