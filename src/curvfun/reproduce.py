"""Reference-value reproduction: per-case checks with verdicts.

Each case computes the artifact's values for a family of published
quantities and compares each against a reference value written beside the
measurement, with its tolerance (``None`` for an exact comparison) and a
provenance tag:

* ``"quoted"``   -- the value printed in the source being reproduced.
* ``"derived"``  -- obtained independently here, e.g. by analytic evaluation.
* ``"identity"`` -- a mathematical identity such as a known Euler
  characteristic.

A reference whose printed value disagrees with the artifact's computation
carries ``discrepancy=True`` and a note recording both.  Verdicts:

* ``PASS``                     -- measured value matches the reference.
* ``DISCREPANCY-DOCUMENTED``   -- measured value matches the artifact's
  derived reference, which is known to disagree with the printed source
  value; the note records both.  Counts as success for the exit code.
* ``FAIL``                     -- anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import discrete as D
from . import liegroups as LG
from . import zoo
from .errors import ConfigError
from .frames import rotate_frame
from .functionals import gbc_raw_sum, k_discrete, matching_sum, perm_sum
from .geometry import curvature_batch, curvature_chunk
from .quadrature import integrate, integrate_functional

__all__ = ["CheckResult", "run_case", "CASE_NAMES"]

_SOURCES = ("quoted", "derived", "identity")


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
        return {k: _jsonable(v) for k, v in vars(self).items()}


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (set, frozenset)):
        return sorted((_jsonable(x) for x in v), key=str)
    return v


def _check(case, quantity, expected, measured, tol, source, note="", discrepancy=False):
    if source not in _SOURCES:
        raise ValueError("unknown reference source %r for %r (one of %s)"
                         % (source, quantity, ", ".join(_SOURCES)))
    if discrepancy and not note:
        raise ValueError("the documented discrepancy %r needs a note" % quantity)
    if tol is None:
        ok = measured == expected
    else:
        ok = abs(measured - expected) <= tol
    if ok:
        verdict = "DISCREPANCY-DOCUMENTED" if discrepancy else "PASS"
    else:
        verdict = "FAIL"
    return CheckResult(case, quantity, expected, measured, tol, source, verdict, note)


def _gamma(spec, functional="gamma_d"):
    return integrate_functional(spec.metric, spec.default_grid, functional=functional).value


# -- cases ----------------------------------------------------------------------


def _case_spheres():
    out = []
    s2 = zoo.round_sphere(2)
    out.append(_check("spheres", "gamma_d(S^2)", 2.0, _gamma(s2), 1e-6, "quoted"))
    s4 = zoo.round_sphere(4)
    out.append(_check("spheres", "gamma_d(S^4)", 2.0, _gamma(s4), 1e-3, "quoted"))
    vol = _gamma(s4, "volume")
    out.append(
        _check("spheres", "volume(S^4)", 8 * math.pi**2 / 3, vol, 1e-6, "quoted")
    )
    pts = s4.interior_points(5, seed=11)
    k, _, _, _ = curvature_batch(s4.metric, pts)
    kd = k_discrete(k)
    out.append(
        _check("spheres", "k_d(S^4) pointwise", 3.0 / (4 * math.pi**2), float(np.max(kd)),
               1e-10, "quoted",
               note="printed constant (3/8)/pi^2 is off by a factor 3/2; the value "
               "consistent with gamma_d = 2 and |S^4| = 8 pi^2/3 is 3/(4 pi^2)",
               discrepancy=True)
    )
    gbc = _gamma(s4, functional="gbc")
    out.append(_check("spheres", "gbc_total(S^4)", 2.0, gbc, 1e-3, "quoted"))
    return out


def _case_taubes():
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
    g1 = _gamma(spec)
    spec2 = zoo.taubes_torus("cos(x1 + x2)")
    g2 = _gamma(spec2)
    out.append(_check("taubes", "gamma_d[u=cos(x1)+cos(x2)]", 2 * math.pi**2, g1, 1e-6,
                      "derived",
                      note="printed value pi^2; the displayed integral evaluates to twice "
                      "that (a factor-2 discrepancy, documented); ratio checks are unaffected",
                      discrepancy=True))
    out.append(_check("taubes", "gamma_d[u=cos(x1+x2)]", -(math.pi**2), g2, 1e-6, "derived",
                      note="printed value -pi^2/2; same factor-2 discrepancy",
                      discrepancy=True))
    out.append(_check("taubes", "gamma_d ratio", -2.0, g1 / g2, 1e-6, "derived",
                      note="robust to the overall factor-2 ambiguity"))
    # independent-route agreement: tensor pipeline vs closed-form density
    def oracle_density(p, idx):
        return spec.oracles["k_d"](p) * spec.oracles["dV"](p), None

    g1_oracle, _ = integrate(oracle_density, spec.default_grid)
    out.append(_check("taubes", "pipeline vs displayed-formula quadrature",
                      g1_oracle, g1, 1e-8, "derived"))
    gbc_total = _gamma(spec, functional="gbc")
    out.append(_check("taubes", "gbc_total(T^4)", 0.0, gbc_total, 1e-8, "identity",
                      note="chi(T^4) = 0"))
    return out


def _case_ellipsoids():
    out = []
    e2 = zoo.two_ellipsoid(1.0, 2.0, 3.0)
    out.append(_check("ellipsoids", "gamma_d(E(1,2,3))", 2.0, _gamma(e2), 1e-5, "quoted"))
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
    out.append(_check("ellipsoids", "gamma_d(ExE)", 4.0, _gamma(e2x), 1e-3, "quoted"))
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


def _case_rp2():
    out = []
    spec = zoo.rp2()
    pts = spec.interior_points(10, seed=9)
    k, _, _, _ = curvature_batch(spec.metric, pts)
    gauss_dev = float(np.max(np.abs(k[:, 0, 1] - 0.5)))
    out.append(_check("rp2", "gauss curvature constant 1/2 (max dev, 10 pts)", 0.0,
                      gauss_dev, 1e-8, "quoted"))
    out.append(_check("rp2", "volume", 4 * math.pi, _gamma(spec, "volume"),
                      1e-6, "quoted"))
    out.append(_check("rp2", "gamma_d", 1.0, _gamma(spec), 1e-5, "quoted",
                      note="chi(RP^2) = 1"))
    return out


def _case_products():
    out = []
    s2s2 = zoo.s2xs2()
    out.append(_check("products", "gamma_d(S^2xS^2)", 4.0, _gamma(s2s2), 1e-3, "quoted"))
    s3s1 = zoo.s3xs1()
    pts = s3s1.interior_points(1000, seed=13)
    k, _, _, _ = curvature_batch(s3s1.metric, pts)
    kd_max = float(np.max(np.abs(k_discrete(k))))
    out.append(_check("products", "max |k_d| on S^3xS^1 (1000 pts)", 0.0, kd_max,
                      1e-10, "quoted"))
    flat = zoo.flat_torus(4)
    out.append(_check("products", "gamma_d(flat T^4)", 0.0, _gamma(flat),
                      1e-12, "identity"))
    out.append(_check("products", "gbc_total(flat T^4)", 0.0,
                      _gamma(flat, functional="gbc"), 1e-12, "identity"))
    return out


def _case_cp2():
    out = []
    std = zoo.cp2_sectional_exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    out.append(_check("cp2", "standard-basis permutation sum", Fraction(144),
                      perm_sum(std[None])[0], None, "quoted"))
    pattern_ok = std[0, 1] == 4 and std[2, 3] == 4 and std[0, 2] == 1 and std[1, 3] == 1
    out.append(_check("cp2", "standard-basis pattern (K12=K34=4, rest 1)", True,
                      bool(pattern_ok), None, "quoted"))
    rot = zoo.cp2_sectional_exact([[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, -1, 0], [0, 0, 0, 1]])
    out.append(_check("cp2", "rotated-basis permutation sum", Fraction(108),
                      perm_sum(rot[None])[0], None, "quoted"))
    out.append(_check("cp2", "rotated-basis unit pairs", (Fraction(1), Fraction(1)),
                      (rot[0, 2], rot[1, 3]), None, "quoted",
                      note="printed pattern claim 'K13 = K23 = 1' is inconsistent with "
                      "the printed sum 108; the unit pairs are K13 and K24",
                      discrepancy=True))
    return out


def _case_so4():
    out = []
    alg = LG.so4()
    out.append(_check("so4", "jacobi residual", 0.0, alg.jacobi_residual(), 1e-10, "identity"))
    kx = alg.k_exact
    mixed = max(kx[i, j] for i in range(3) for j in range(3, 6))
    out.append(_check("so4", "mixed-plane sectional curvature", Fraction(0), mixed,
                      None, "quoted"))
    within = {kx[0, 1], kx[0, 2], kx[1, 2], kx[3, 4], kx[3, 5], kx[4, 5]}
    out.append(_check("so4", "within-factor sectional curvature", {Fraction(1, 4)}, within,
                      None, "quoted"))
    out.append(_check("so4", "matching sum (exact)", Fraction(0), matching_sum(kx[None])[0],
                      None, "quoted", note="every pairing uses a mixed flat plane"))
    gamma = _gamma(zoo.compact_group(alg))
    out.append(_check("so4", "gamma_d", 0.0, gamma, None, "quoted",
                      note="density is exactly zero, so the volume is irrelevant"))
    return out


def _case_su3():
    out = []
    alg = LG.su3()
    out.append(_check("su3", "jacobi residual", 0.0, alg.jacobi_residual(), 1e-10, "identity"))
    kx = alg.k_exact
    printed = _su3_printed_matrix()
    out.append(_check("su3", "sectional matrix equals printed 8x8 table", True,
                      bool(np.all(kx == printed)), None, "quoted"))
    prod = kx[0, 1] * kx[2, 3] * kx[4, 5] * kx[6, 7]
    out.append(_check("su3", "K12 K34 K56 K78", Fraction(3, 16384), prod, None, "quoted"))
    out.append(_check("su3", "permutation sum over curvature quadruples", Fraction(351, 64),
                      perm_sum(kx[None])[0], None, "quoted",
                      note="the printed 351/64 is the full signed-free sum over all 8! "
                      "index permutations = 2^4 4! times the 105-pairing sum 117/8192; "
                      "convention fixed by the brute-force permutation oracle"))
    spec = zoo.compact_group(alg)
    gamma = _gamma(spec)
    out.append(_check("su3", "gamma_d (volume pi^5)", 117 * math.pi / 2**17, gamma,
                      1e-12, "quoted"))
    rot = np.eye(8)
    for k in range(7):  # every frame vector mixes with its neighbours
        rot = rotate_frame(rot, k, k + 1, 0.5)
    rotated = integrate_functional(spec.metric, spec.default_grid, frame=rot).value
    out.append(_check("su3", "frame dependence (relative k_d change > 1e-3)", True,
                      bool(abs(rotated / gamma - 1.0) > 1e-3), None, "quoted",
                      note="a generic basis rotation shifts k_d by a few percent, far "
                      "above float noise; the density is not a frame invariant"))
    return out


def _case_klembeck():
    out = []
    spec = zoo.klembeck_patch()
    origin = np.zeros((1, 6), dtype=object)
    origin[...] = Fraction(0)
    riem_exact = curvature_chunk(spec.metric, origin)[1][0]
    i, j = np.indices((6, 6))
    k_exact = riem_exact[i, j, i, j]  # g = I at the origin: the chart basis is the frame
    off = i != j
    out.append(_check("klembeck", "origin sectional values", [Fraction(0), Fraction(3)],
                      sorted(set(k_exact[off])), None, "quoted"))
    curved = set(zip(*np.nonzero(off & (k_exact != 0))))
    expected_pairs = {(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5)}
    expected_pairs |= {(j, i) for i, j in expected_pairs}
    out.append(_check("klembeck", "curved planes form two triangles", True,
                      curved == expected_pairs, None, "quoted"))
    raw = gbc_raw_sum(riem_exact[None])[0]
    out.append(_check("klembeck", "origin GBC mean term", Fraction(-9216, 518400),
                      raw / math.factorial(6) ** 2, None, "quoted",
                      note="printed as -9216/(6!)^2; raw double-permutation sum -9216"))
    out.append(_check("klembeck", "origin GBC raw sum", Fraction(-9216), raw,
                      None, "quoted"))
    out.append(_check("klembeck", "origin k_discrete", Fraction(0),
                      perm_sum(k_exact[None])[0], None, "derived",
                      note="the printed claim is non-negativity, which holds; the "
                      "two-triangle support makes every pairing product vanish"))
    # k_gbc is raw times a positive constant
    out.append(_check("klembeck", "k_gbc < 0 at origin", True, bool(raw < 0),
                      None, "quoted"))
    return out


def _case_discrete():
    out = []
    rng = np.random.Generator(np.random.PCG64(17))
    bad_ph = 0
    for _ in range(200):
        K = D.random_whitney(rng)
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
        det, gs = D.determinant_and_green_sum(K, h)
        if det != math.prod(h.values()):
            bad_det += 1
        if 0 not in h.values() and gs != sum(Fraction(1, v) for v in h.values()):
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

CASE_NAMES = tuple(_CASES)


def run_case(name):
    """Run one reproduction case; returns a list of CheckResults."""
    if name not in _CASES:
        raise ConfigError("unknown case %r (cases: %s)" % (name, ", ".join(CASE_NAMES)))
    return _CASES[name]()
