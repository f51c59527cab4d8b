"""Bi-invariant curvature on compact Lie algebras and the JSON loader."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from curvfun.errors import BadDimensionError, NotBiInvariantError, NotClosedError
from curvfun.functionals import k_discrete, matching_sum, perm_sum
from curvfun.liegroups import (
    LieAlgebra,
    biinvariant_sectional,
    builtin_algebra,
    gamma_d_group,
    load_algebra,
    rotate_algebra,
    so3,
    so4,
    structure_constants,
    su3,
)


def test_builtins_do_not_import_sympy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; from curvfun.liegroups import so3, so4, su3; "
            "so3(); so4(); su3(); assert 'sympy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("build", [so3, so4, su3], ids=lambda f: f.__name__)
def test_builtin_alpha_antisymmetric_and_matches_exact_table(build):
    alg = build()
    a = alg.alpha
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.array_equal(np.transpose(a, axes), -a)
    exact = np.array([[float(v) for v in row] for row in alg.k_exact])
    assert np.max(np.abs(biinvariant_sectional(alg) - exact)) <= 1e-15


def test_so3_constant_curvature_quarter():
    alg = so3()
    K = alg.k_exact
    for i in range(3):
        for j in range(3):
            assert K[i][j] == (Fraction(1, 4) if i != j else 0)
    assert alg.jacobi_residual() < 1e-14


def test_su3_jacobi_and_matrix_shape():
    alg = su3()
    assert alg.dim == 8
    assert alg.jacobi_residual() < 1e-12
    K = alg.k_exact
    assert K[0][1] == Fraction(1, 4)
    assert K[3][7] == Fraction(3, 16)
    assert K[0][7] == 0


def test_su3_pairing_sums_exact():
    k = su3().k_exact[None]
    ms, ps = matching_sum(k)[0], perm_sum(k)[0]
    assert ms == Fraction(117, 8192)
    assert ps == Fraction(351, 64)
    # gamma for the standard volume pi^5
    gamma = gamma_d_group(su3(), math.pi**5)
    assert gamma == pytest.approx(117 * math.pi / 2**17, rel=1e-14)


def test_so4_density_vanishes_identically():
    alg = so4()
    k = biinvariant_sectional(alg)[None]
    assert k_discrete(k)[0] == 0.0
    assert gamma_d_group(alg, 123.456) == 0.0


def test_gamma_d_group_rejects_odd_dimension():
    with pytest.raises(BadDimensionError):
        gamma_d_group(so3(), 1.0)


def test_rotate_algebra_preserves_biinvariance_and_jacobi():
    alg = su3()
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rot = rotate_algebra(alg, q)
    assert rot.jacobi_residual() < 1e-10
    k = biinvariant_sectional(rot)  # total antisymmetry preserved
    assert np.all(np.isfinite(k))
    # rotation is a genuine frame change: the density moves
    assert abs(k_discrete(k[None])[0] / k_discrete(biinvariant_sectional(alg)[None])[0] - 1) > 1e-4


def test_rotate_algebra_rejects_non_orthogonal():
    from curvfun.errors import NonOrthonormalFrameError

    with pytest.raises(NonOrthonormalFrameError):
        rotate_algebra(su3(), 2.0 * np.eye(8))


def test_structure_constants_from_matrices_match_so3():
    # spin generators: [e_i, e_j] = e_k cyclically
    e = [
        np.array([[0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]),
        np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]]),
        np.array([[0, -1.0, 0], [1.0, 0, 0], [0, 0, 0]]),
    ]

    def inner(a, b):
        return float(-np.trace(a @ b) / 2)

    alpha = structure_constants(e, inner)
    assert alpha[0, 1, 2] == pytest.approx(1.0)
    assert alpha[1, 0, 2] == pytest.approx(-1.0)
    assert np.max(np.abs(alpha - so3().alpha)) < 1e-12


def test_structure_constants_reject_non_closed_set():
    # a rotation generator and a traceless diagonal: bracket is symmetric,
    # orthogonal to both, so the pair does not span a subalgebra
    s = 1 / math.sqrt(2)
    bad = [
        s * np.array([[0, -1.0, 0], [1.0, 0, 0], [0, 0, 0]]),
        s * np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, 0]]),
    ]

    def inner(a, b):
        return float(np.trace(a @ b.T))

    with pytest.raises(NotClosedError):
        structure_constants(bad, inner)


def test_biinvariant_sectional_rejects_left_invariant_only():
    # alpha antisymmetric in (i,j) but not totally antisymmetric
    alpha = np.zeros((3, 3, 3))
    alpha[0, 1, 2] = 1.0
    alpha[1, 0, 2] = -1.0
    alpha[0, 2, 2] = 0.5
    alpha[2, 0, 2] = -0.5
    alg = LieAlgebra(name="bad", alpha=alpha, metric_note="test")
    with pytest.raises(NotBiInvariantError):
        biinvariant_sectional(alg)


def test_builtin_registry():
    assert builtin_algebra("so4").dim == 6
    with pytest.raises(ValueError):
        builtin_algebra("e8")


def test_load_algebra_from_basis_json(tmp_path):
    path = tmp_path / "su2.json"
    # su(2) basis i*sigma/2 as [re, im] pairs, orthonormal under -2 Re tr
    basis = [
        [[[0, 0], [0, 0.5]], [[0, 0.5], [0, 0]]],
        [[[0, 0], [0.5, 0]], [[-0.5, 0], [0, 0]]],
        [[[0, 0.5], [0, 0]], [[0, 0], [0, -0.5]]],
    ]
    path.write_text(json.dumps({"name": "su2", "basis": basis, "inner": "neg_two_re_trace"}))
    alg = load_algebra(path)
    assert alg.dim == 3
    k = biinvariant_sectional(alg)
    assert k[0, 1] == pytest.approx(0.25)


def test_load_algebra_from_structure_constants(tmp_path):
    path = tmp_path / "so3.json"
    payload = {
        "name": "so3-sc",
        "dimension": 3,
        "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
    }
    path.write_text(json.dumps(payload))
    alg = load_algebra(path)
    k = biinvariant_sectional(alg)
    assert np.allclose(k + np.eye(3) * 0.25, 0.25)  # off-diagonal 1/4, diagonal 0


def test_load_algebra_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "nothing"}))
    with pytest.raises(ValueError):
        load_algebra(path)


@pytest.mark.parametrize("payload, problem", [
    pytest.param([1, 2, 3], "JSON object", id="not-an-object"),
    pytest.param({"structure_constants": [[1, 2, 3, 1.0]]}, '"dimension"', id="no-dimension"),
    pytest.param({"dimension": 3, "structure_constants": [[0, 1, 2, 1.0]]}, "1..3", id="index-0"),
    pytest.param({"dimension": 3, "structure_constants": [[1, 2, 4, 1.0]]}, "1..3",
                 id="index-above-n"),
    pytest.param({"dimension": 3, "structure_constants": [[1, 2, 3]]}, r"\[i, j, k, value\]",
                 id="three-entries"),
    pytest.param(None, "cannot read", id="missing-file"),
    pytest.param({"basis": [1]}, "square list of rows", id="basis-not-a-matrix"),
    pytest.param({"basis": [[[0, 1], [-1, 0]], [[0]]]}, "one size", id="basis-sizes-differ"),
])
def test_load_algebra_names_the_problem(tmp_path, payload, problem):
    path = tmp_path / "bad.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=problem):
        load_algebra(path)
