"""Reference-value reproduction: per-case checks with verdicts.

Each case computes the artifact's values for a family of published
quantities and compares them against the tagged references in the zoo
(or local exact references).  Verdicts:

* ``PASS``                     -- measured value matches the reference.
* ``DISCREPANCY-DOCUMENTED``   -- measured value matches the artifact's
  derived reference, which is known to disagree with the printed source
  value; the note records both.  Counts as success for the exit code.
* ``FAIL``                     -- anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import discrete as D
from . import liegroups as LG
from . import zoo
from .functionals import (
    brute_force_perm_sum,
    k_discrete,
    k_gbc,
    matching_sum,
    perm_sum,
)
from .geometry import curvature_batch, curvature_chunk
from .quadrature import integrate_functional, volume

__all__ = ["CheckResult", "run_case", "CASE_NAMES"]

CASE_NAMES = (
    "taubes",
    "spheres",
    "ellipsoids",
    "rp2",
    "products",
    "cp2",
    "so4",
    "su3",
    "klembeck",
    "discrete",
)


@dataclass
class CheckResult:
    case: str
    quantity: str
    expected: object
    measured: object
    tolerance: object
    source: str
    verdict: str
    note: str = ""

    def to_record(self):
        return {
            "case": self.case,
            "quantity": self.quantity,
            "expected": _jsonable(self.expected),
            "measured": _jsonable(self.measured),
            "tolerance": _jsonable(self.tolerance),
            "source": self.source,
            "verdict": self.verdict,
            "note": self.note,
        }


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (set, frozenset)):
        return sorted((_jsonable(x) for x in v), key=str)
    return v


def _check(case, quantity, expected, measured, tol, source, note="", discrepancy=False):
    if tol is None:
        ok = measured == expected
    else:
        ok = abs(measured - expected) <= tol
    if ok:
        verdict = "DISCREPANCY-DOCUMENTED" if discrepancy else "PASS"
    else:
        verdict = "FAIL"
    return CheckResult(case, quantity, expected, measured, tol, source, verdict, note)


def _gamma(spec, workers=1, functional="gamma_d", grid=None):
    res = integrate_functional(
        spec.metric, grid or spec.default_grid, functional=functional, workers=workers
    )
    return res.value


# -- cases ----------------------------------------------------------------------


def _case_spheres(workers):
    out = []
    s2 = zoo.round_sphere(2)
    out.append(_check("spheres", "gamma_d(S^2)", 2.0, _gamma(s2, workers), 1e-6, "quoted"))
    s4 = zoo.round_sphere(4)
    out.append(_check("spheres", "gamma_d(S^4)", 2.0, _gamma(s4, workers), 1e-3, "quoted"))
    vol = volume(s4.metric, s4.default_grid, workers=workers).value
    out.append(
        _check("spheres", "volume(S^4)", 8 * math.pi**2 / 3, vol, 1e-6, "quoted")
    )
    pts = s4.interior_points(5, seed=11)
    k, _, _, _ = curvature_batch(s4.metric, pts)
    kd = k_discrete(k)
    ref = next(r for r in s4.references if r.quantity == "k_d_pointwise")
    out.append(
        _check(
            "spheres",
            "k_d(S^4) pointwise",
            ref.value,
            float(np.max(kd)),
            ref.tolerance,
            ref.source,
            note=ref.note,
            discrepancy=ref.discrepancy,
        )
    )
    gbc = _gamma(s4, workers, functional="gbc")
    out.append(_check("spheres", "gbc_total(S^4)", 2.0, gbc, 1e-3, "quoted"))
    return out


def _case_taubes(workers):
    out = []
    spec = zoo.taubes_torus("cos(x2) + cos(x1)")
    pts = spec.interior_points(20, seed=5)
    k, _, _, _ = curvature_batch(spec.metric, pts)
    dev_matrix = float(np.max(np.abs(k - spec.oracles["sectional"](pts))))
    out.append(
        _check("taubes", "sectional matrix vs printed pattern (max dev, 20 pts)",
               0.0, dev_matrix, 1e-8, "quoted")
    )
    dev_kd = float(np.max(np.abs(k_discrete(k) - spec.oracles["k_d"](pts))))
    out.append(
        _check("taubes", "k_d vs closed form (max dev, 20 pts)", 0.0, dev_kd, 1e-8, "quoted")
    )
    g1 = _gamma(spec, workers)
    spec2 = zoo.taubes_torus("cos(x1 + x2)")
    g2 = _gamma(spec2, workers)
    by_name = {r.quantity: r for r in spec.references}
    r1 = by_name["gamma_d[u=cos(x1)+cos(x2)]"]
    out.append(_check("taubes", r1.quantity, r1.value, g1, r1.tolerance, r1.source,
                      note=r1.note, discrepancy=r1.discrepancy))
    r2 = by_name["gamma_d[u=cos(x1+x2)]"]
    out.append(_check("taubes", r2.quantity, r2.value, g2, r2.tolerance, r2.source,
                      note=r2.note, discrepancy=r2.discrepancy))
    out.append(_check("taubes", "gamma_d ratio", -2.0, g1 / g2, 1e-6, "derived",
                      note="robust to the overall factor-2 ambiguity"))
    # independent-route agreement: tensor pipeline vs closed-form density
    from .quadrature import integrate

    def oracle_density(p, idx):
        return spec.oracles["k_d"](p) * spec.oracles["dV"](p), None

    g1_oracle, _ = integrate(oracle_density, spec.default_grid, workers=workers)
    out.append(_check("taubes", "pipeline vs displayed-formula quadrature",
                      g1_oracle, g1, 1e-8, "derived"))
    gbc_total = _gamma(spec, workers, functional="gbc")
    out.append(_check("taubes", "gbc_total(T^4)", 0.0, gbc_total, 1e-8, "identity",
                      note="chi(T^4) = 0"))
    return out


def _case_ellipsoids(workers):
    out = []
    e2 = zoo.two_ellipsoid(1.0, 2.0, 3.0)
    out.append(_check("ellipsoids", "gamma_d(E(1,2,3))", 2.0, _gamma(e2, workers), 1e-5, "quoted"))
    e4 = zoo.ellipsoid_of_revolution(2.0)
    pts = e4.interior_points(20, seed=7)
    k, _, _, _ = curvature_batch(e4.metric, pts)
    kd = k_discrete(k)
    oracle = e4.oracles["k_d"](pts)
    rel = float(np.max(np.abs(kd - oracle) / np.abs(oracle)))
    out.append(
        _check("ellipsoids", "e4 revolution oracle vs pipeline (max rel dev, 20 pts)",
               0.0, rel, 1e-6, "derived",
               note="printed closed form has the cos(2t) term with flipped sign and a "
               "nonstandard constant; the implemented oracle is fixed by the a=1 "
               "sphere limit")
    )
    e2x = zoo.e2xe2()
    out.append(_check("ellipsoids", "gamma_d(ExE)", 4.0, _gamma(e2x, workers), 1e-3, "quoted"))
    smoke = zoo.general_4_ellipsoid([1.0, 1.1, 1.2, 1.3, 1.4])
    spts = smoke.interior_points(5, seed=3)
    _, riem_b, _, _ = curvature_batch(smoke.metric, spts)
    sym_dev = float(
        np.max(np.abs(riem_b + np.transpose(riem_b, (0, 2, 1, 3, 4))))
    )
    out.append(_check("ellipsoids", "general 4-ellipsoid smoke (finite, antisymmetric)",
                      0.0, sym_dev, 1e-9, "identity",
                      note="full-resolution run declared out of desk scope"))
    return out


def _case_rp2(workers):
    out = []
    spec = zoo.rp2()
    pts = spec.interior_points(10, seed=9)
    k, _, _, _ = curvature_batch(spec.metric, pts)
    gauss_dev = float(np.max(np.abs(k[:, 0, 1] - 0.5)))
    out.append(_check("rp2", "gauss curvature constant 1/2 (max dev, 10 pts)", 0.0,
                      gauss_dev, 1e-8, "quoted"))
    out.append(_check("rp2", "volume", 4 * math.pi,
                      volume(spec.metric, spec.default_grid, workers=workers).value,
                      1e-6, "quoted"))
    out.append(_check("rp2", "gamma_d", 1.0, _gamma(spec, workers), 1e-5, "quoted",
                      note="chi(RP^2) = 1"))
    return out


def _case_products(workers):
    out = []
    s2s2 = zoo.s2xs2()
    out.append(_check("products", "gamma_d(S^2xS^2)", 4.0, _gamma(s2s2, workers), 1e-3, "quoted"))
    s3s1 = zoo.s3xs1()
    pts = s3s1.interior_points(1000, seed=13)
    k, _, _, _ = curvature_batch(s3s1.metric, pts)
    kd_max = float(np.max(np.abs(k_discrete(k))))
    out.append(_check("products", "max |k_d| on S^3xS^1 (1000 pts)", 0.0, kd_max,
                      1e-10, "quoted"))
    flat = zoo.flat_torus(4)
    out.append(_check("products", "gamma_d(flat T^4)", 0.0, _gamma(flat, workers),
                      1e-12, "identity"))
    out.append(_check("products", "gbc_total(flat T^4)", 0.0,
                      _gamma(flat, workers, functional="gbc"), 1e-12, "identity"))
    return out


def _case_cp2(workers):
    out = []
    std = zoo.cp2_sectional_exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    out.append(_check("cp2", "standard-basis permutation sum", Fraction(144),
                      perm_sum(std), None, "quoted"))
    pattern_ok = std[0, 1] == 4 and std[2, 3] == 4 and std[0, 2] == 1 and std[1, 3] == 1
    out.append(_check("cp2", "standard-basis pattern (K12=K34=4, rest 1)", True,
                      bool(pattern_ok), None, "quoted"))
    rot = zoo.cp2_sectional_exact([[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, -1, 0], [0, 0, 0, 1]])
    out.append(_check("cp2", "rotated-basis permutation sum", Fraction(108),
                      perm_sum(rot), None, "quoted"))
    out.append(_check("cp2", "rotated-basis unit pairs", (Fraction(1), Fraction(1)),
                      (rot[0, 2], rot[1, 3]), None, "quoted",
                      note="printed pattern claim 'K13 = K23 = 1' is inconsistent with "
                      "the printed sum 108; the unit pairs are K13 and K24",
                      discrepancy=True))
    return out


def _case_so4(workers):
    out = []
    alg = LG.so4()
    out.append(_check("so4", "jacobi residual", 0.0, alg.jacobi_residual(), 1e-10, "identity"))
    kx = LG.sectional_exact(alg)
    mixed = max(kx[i, j] for i in range(3) for j in range(3, 6))
    out.append(_check("so4", "mixed-plane sectional curvature", Fraction(0), mixed,
                      None, "quoted"))
    within = {kx[0, 1], kx[0, 2], kx[1, 2], kx[3, 4], kx[3, 5], kx[4, 5]}
    out.append(_check("so4", "within-factor sectional curvature", {Fraction(1, 4)}, within,
                      None, "quoted"))
    out.append(_check("so4", "matching sum (exact)", Fraction(0), matching_sum(kx),
                      None, "quoted", note="every pairing uses a mixed flat plane"))
    out.append(_check("so4", "gamma_d", 0.0, LG.gamma_d_group(alg, 1.0), None, "quoted",
                      note="density is exactly zero, so the volume is irrelevant"))
    return out


def _case_su3(workers):
    out = []
    alg = LG.su3()
    out.append(_check("su3", "jacobi residual", 0.0, alg.jacobi_residual(), 1e-10, "identity"))
    kx = LG.sectional_exact(alg)
    printed = _su3_printed_matrix()
    out.append(_check("su3", "sectional matrix equals printed 8x8 table", True,
                      bool(np.all(kx == printed)), None, "quoted"))
    prod = kx[0, 1] * kx[2, 3] * kx[4, 5] * kx[6, 7]
    out.append(_check("su3", "K12 K34 K56 K78", Fraction(3, 16384), prod, None, "quoted"))
    ms, ps = LG.pairing_sums_exact(alg)
    out.append(_check("su3", "permutation sum over curvature quadruples", Fraction(351, 64),
                      ps, None, "quoted",
                      note="the printed 351/64 is the full signed-free sum over all 8! "
                      "index permutations = 2^4 4! times the 105-pairing sum 117/8192; "
                      "convention fixed by the brute-force permutation oracle"))
    gamma = LG.gamma_d_group(alg, math.pi**5)
    out.append(_check("su3", "gamma_d (volume pi^5)", 117 * math.pi / 2**17, gamma,
                      1e-12, "quoted"))
    rng = np.random.Generator(np.random.PCG64(2))
    from .frames import haar_orthogonal

    rot = LG.rotate_algebra(alg, haar_orthogonal(8, rng))
    kd0 = k_discrete(LG.biinvariant_sectional(alg))
    kd1 = k_discrete(LG.biinvariant_sectional(rot))
    out.append(_check("su3", "frame dependence (relative k_d change > 1e-3)", True,
                      bool(abs(kd1 / kd0 - 1.0) > 1e-3), None, "quoted",
                      note="a generic basis rotation shifts k_d by a few percent, far "
                      "above float noise; the density is not a frame invariant"))
    return out


def _case_klembeck(workers):
    out = []
    spec = zoo.klembeck_patch()
    origin = np.zeros((1, 6), dtype=object)
    origin[...] = Fraction(0)
    riem_exact = curvature_chunk(spec.metric, origin)[1][0]
    k_exact = np.empty((6, 6), dtype=object)
    k_exact[...] = Fraction(0)
    for i in range(6):
        for j in range(6):
            if i != j:
                k_exact[i, j] = riem_exact[i, j, i, j]
    values = sorted({v for i in range(6) for j in range(6) if i != j for v in (k_exact[i, j],)})
    out.append(_check("klembeck", "origin sectional values", [Fraction(0), Fraction(3)],
                      values, None, "quoted"))
    curved = {(i, j) for i in range(6) for j in range(6) if i != j and k_exact[i, j] != 0}
    expected_pairs = {(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5)}
    expected_pairs |= {(j, i) for i, j in expected_pairs}
    out.append(_check("klembeck", "curved planes form two triangles", True,
                      curved == expected_pairs, None, "quoted"))
    gbc = k_gbc(riem_exact)
    out.append(_check("klembeck", "origin GBC mean term", Fraction(-9216, 518400),
                      gbc.mean_term, None, "quoted",
                      note="printed as -9216/(6!)^2; raw double-permutation sum -9216"))
    out.append(_check("klembeck", "origin GBC raw sum", Fraction(-9216), gbc.raw_sum,
                      None, "quoted"))
    out.append(_check("klembeck", "origin k_discrete", Fraction(0),
                      k_discrete(k_exact, normalization="raw"), None, "derived",
                      note="the printed claim is non-negativity, which holds; the "
                      "two-triangle support makes every pairing product vanish"))
    out.append(_check("klembeck", "k_gbc < 0 at origin", True, bool(gbc.value < 0),
                      None, "quoted"))
    return out


def _case_discrete(workers):
    out = []
    rng = np.random.Generator(np.random.PCG64(17))
    bad_ph = 0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        p = (0.3, 0.5, 0.7)[int(rng.integers(0, 3))]
        K = D.whitney_complex(*D.random_graph(n, p, rng))
        if not K.vertices:
            continue
        f = {v: float(x) for v, x in zip(K.vertices, rng.permutation(len(K.vertices)))}
        total = sum(D.ph_index(K, f, v) for v in K.vertices)
        if total != D.euler_characteristic(K):
            bad_ph += 1
    out.append(_check("discrete", "Poincare-Hopf sum = chi (200 random graphs)", 0,
                      bad_ph, None, "quoted"))
    corpus = D.random_corpus(100, seed=23)
    bad_det = bad_recip = bad_sign = bad_unimod = bad_transport = 0
    for K in corpus:
        h = D.random_energy(K, rng)
        det = D.counting_determinant(K, h)
        if det != math.prod(h.values()):
            bad_det += 1
        if 0 not in h.values():
            gs = D.green_sum(K, h)
            if gs != sum(Fraction(1, v) for v in h.values()):
                bad_recip += 1
        hs = D.random_energy(K, rng, signs_only=True)
        if D.green_sum(K, hs) != sum(hs.values()):
            bad_sign += 1
        w = {s: D.omega(s) for s in K.simplices}
        if abs(D.counting_determinant(K, w)) != 1:
            bad_unimod += 1
        f = {v: float(x) for v, x in zip(K.vertices, rng.permutation(len(K.vertices)))}
        if sum(D.transported_index(K, f).values()) != D.euler_characteristic(K):
            bad_transport += 1
    out.append(_check("discrete", "det L = prod h (100 random complexes)", 0, bad_det,
                      None, "quoted"))
    out.append(_check("discrete", "sum g = sum h for sign-valued h (100 complexes)", 0,
                      bad_sign, None, "quoted",
                      note="for general nonzero h the identity is sum g = sum 1/h, "
                      "verified separately; the two coincide when h takes values +-1"))
    out.append(_check("discrete", "sum g = sum 1/h for integer h (100 complexes)", 0,
                      bad_recip, None, "derived"))
    out.append(_check("discrete", "|det L| = 1 for h = omega", 0, bad_unimod, None,
                      "quoted"))
    out.append(_check("discrete", "transported index sums to chi", 0, bad_transport,
                      None, "identity"))
    return out


def _su3_printed_matrix():
    q = Fraction(1, 4)
    s = Fraction(1, 16)
    t = Fraction(3, 16)
    z = Fraction(0)
    rows = [
        [z, q, q, s, s, s, s, z],
        [q, z, q, s, s, s, s, z],
        [q, q, z, s, s, s, s, z],
        [s, s, s, z, q, s, s, t],
        [s, s, s, q, z, s, s, t],
        [s, s, s, s, s, z, q, t],
        [s, s, s, s, s, q, z, t],
        [z, z, z, t, t, t, t, z],
    ]
    return np.array(rows, dtype=object)


_CASES = {
    "taubes": _case_taubes,
    "spheres": _case_spheres,
    "ellipsoids": _case_ellipsoids,
    "rp2": _case_rp2,
    "products": _case_products,
    "cp2": _case_cp2,
    "so4": _case_so4,
    "su3": _case_su3,
    "klembeck": _case_klembeck,
    "discrete": _case_discrete,
}


def run_case(name, workers=1):
    """Run one reproduction case; returns a list of CheckResults."""
    if name not in _CASES:
        raise ValueError("unknown case %r (cases: %s)" % (name, ", ".join(CASE_NAMES)))
    return _CASES[name](workers)
