"""Finite abstract simplicial complexes: Euler characteristic, Poincare-Hopf
indices, counting matrices, and Green-function identities.

Everything here is exact: integers and Fractions throughout, since the
statements being checked (det L = prod h, sums of inverse entries, index
sums) are exact identities.

The counting matrix of a complex G with energy h is

    L(x, y) = sum of h(z) over simplices z of G contained in x intersect y,

which for h = 1 counts the simplices in the intersection (2^|x n y| - 1).
Its determinant is prod_x h(x), so L is invertible iff no h vanishes, and
the sum of all entries of L^{-1} equals sum_x 1/h(x) -- which coincides
with sum_x h(x) whenever h takes values in {-1, +1} (in particular for
h = omega, where both sides are the Euler characteristic).

L is the face-inclusion product Z diag(h) Z^T, exact in Python ints or
Fractions.  The Green sum is a generic solve of L x = 1 (not the Moebius
closed form), so sum g = sum 1/h stays a check.

Complexes are built in memory: Whitney complexes of given or random graphs.
The module reads and writes no files.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import NotLocallyInjectiveError, SingularCountingMatrixError
from .rationals import _eliminate, exact_det

__all__ = [
    "SimplicialComplex",
    "whitney_complex",
    "euler_characteristic",
    "ph_index",
    "counting_matrix",
    "green_sum",
    "determinant_and_green_sum",
    "transported_index",
    "random_graph",
    "random_whitney",
    "random_corpus",
]


class SimplicialComplex:
    """A finite collection of nonempty vertex sets closed under subsets.

    Simplices are stored canonically: sorted tuples, ordered by
    (dimension, lexicographic).  The constructor validates closure.
    """

    def __init__(self, simplices):
        canon = {tuple(sorted(s)) for s in simplices}
        if any(len(s) == 0 for s in canon):
            raise ValueError("simplices must be nonempty")
        if any(len(set(s)) != len(s) for s in canon):
            raise ValueError("simplices must not repeat vertices")
        for s in canon:
            for k in range(1, len(s)):
                for sub in combinations(s, k):
                    if sub not in canon:
                        raise ValueError(
                            "not closed under subsets: %r missing face %r" % (s, sub)
                        )
        self.simplices = tuple(sorted(canon, key=lambda s: (len(s), s)))
        self.vertices = tuple(sorted({v for s in self.simplices for v in s}))
        self._index = {s: i for i, s in enumerate(self.simplices)}

    @classmethod
    def _from_canonical(cls, simplices):
        """A complex from simplices already closed under subsets and in canonical
        order; nothing is checked."""
        out = object.__new__(cls)
        out.simplices = tuple(simplices)
        out.vertices = tuple(sorted({v for s in out.simplices for v in s}))
        out._index = {s: i for i, s in enumerate(out.simplices)}
        return out

    def __len__(self):
        return len(self.simplices)

    def __contains__(self, s):
        return tuple(sorted(s)) in self._index

    def induced(self, vertex_subset):
        """Subcomplex of simplices entirely inside the vertex subset."""
        vs = set(vertex_subset)
        return SimplicialComplex._from_canonical(s for s in self.simplices if set(s) <= vs)

    def edges(self):
        return [s for s in self.simplices if len(s) == 2]

    @cached_property
    def _adjacency(self):
        """Sorted neighbours of each vertex, built once: a complex is never mutated."""
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges():
            adj[a].add(b)
            adj[b].add(a)
        return {v: sorted(ws) for v, ws in adj.items()}

    def neighbors(self, v):
        return list(self._adjacency.get(v, ()))


def whitney_complex(vertices, edges):
    """Whitney (clique) complex of a graph: simplices are the cliques."""
    vertices = sorted(set(vertices))
    adj = {v: set() for v in vertices}
    for a, b in edges:
        if a == b:
            raise ValueError("no self-loops")
        adj[a].add(b)
        adj[b].add(a)
    cliques = []
    for k in range(1, len(vertices) + 1):
        found_any = False
        for cand in combinations(vertices, k):
            if all(b in adj[a] for a, b in combinations(cand, 2)):
                cliques.append(cand)
                found_any = True
        if not found_any:
            break
    # cliques grow by size, each size in lexicographic order: already canonical
    return SimplicialComplex._from_canonical(cliques)


def euler_characteristic(complex_):
    """chi(G) = sum over simplices of (-1)^dim."""
    return sum((-1) ** (len(s) - 1) for s in complex_.simplices)


def omega(simplex):
    """The alternating weight (-1)^dim of a simplex."""
    return (-1) ** (len(simplex) - 1)


def _check_locally_injective(complex_, f):
    for v in complex_.vertices:
        seen = {f[v]}
        for w in complex_.neighbors(v):
            if f[w] in seen:
                raise NotLocallyInjectiveError(
                    "f is not injective on the closed neighborhood of %r" % (v,)
                )
            seen.add(f[w])


def ph_index(complex_, f, v):
    """Poincare-Hopf index 1 - chi(S-) at vertex v.

    S- is the subcomplex induced on the neighbors of v with strictly
    smaller f-value.  ``f`` maps vertices to comparable values and must be
    injective on closed neighborhoods.
    """
    _check_locally_injective(complex_, f)
    lower = [w for w in complex_.neighbors(v) if f[w] < f[v]]
    return 1 - euler_characteristic(complex_.induced(lower))


def transported_index(complex_, f):
    """Index obtained by transporting omega(x) to the f-minimal vertex of x.

    Returns a dict vertex -> sum of omega(x) over simplices whose
    f-smallest vertex is that vertex; the values sum to chi(G) by
    construction (every simplex is counted exactly once).
    """
    out = {v: 0 for v in complex_.vertices}
    for s in complex_.simplices:
        vmin = min(s, key=lambda w: f[w])
        out[vmin] += omega(s)
    return out


# -- counting matrix and Green functions ----------------------------------------


def counting_matrix(complex_, h=None):
    """Energized counting matrix L(x, y) = sum_{z in G, z <= x n y} h(z).

    ``h`` maps simplices to integers/Fractions; omitted h means h = 1,
    for which L(x, y) = 2^{|x n y|} - 1.  Returns a nested list of exact
    values in the complex's canonical simplex order.

    L = Z diag(h) Z^T with Z[x, z] = 1 when z <= x, summed one face z at a
    time: h(z) lands on every (x, y) in the star of z x the star of z.
    """
    simplices = complex_.simplices
    n = len(simplices)
    star = [[] for _ in range(n)]
    for x, s in enumerate(simplices):
        for k in range(1, len(s) + 1):
            for face in combinations(s, k):
                star[complex_._index[face]].append(x)
    out = [[0] * n for _ in range(n)]
    for z, xs in enumerate(star):
        hz = 1 if h is None else h[simplices[z]]
        for x in xs:
            row = out[x]
            for y in xs:
                row[y] += hz
    return out


def counting_determinant(complex_, h=None):
    """det L, exactly; equals the product of all h(x)."""
    return exact_det(counting_matrix(complex_, h))


def green_sum(complex_, h=None):
    """Sum of all entries of L^{-1}, exactly (one linear solve).

    Raises :class:`SingularCountingMatrixError` when L is singular, which
    by det L = prod h happens exactly when some h(x) = 0.
    """
    total = determinant_and_green_sum(complex_, h)[1]
    if total is None:
        raise SingularCountingMatrixError("counting matrix is singular (some h(x) = 0)")
    return total


def determinant_and_green_sum(complex_, h=None):
    """``(det L, green_sum)`` from one elimination of L; the sum is ``None`` if L is singular."""
    L = counting_matrix(complex_, h)
    det, x = _eliminate(L, [[1]] * len(L))
    return det, None if x is None else sum((r[0] for r in x), Fraction(0))


# -- corpora ---------------------------------------------------------------------


def random_graph(n, p, rng):
    """Erdos-Renyi graph G(n, p) as (vertices, edges)."""
    vertices = list(range(n))
    edges = [(a, b) for a, b in combinations(vertices, 2) if rng.random() < p]
    return vertices, edges


def random_whitney(rng):
    """Whitney complex of G(n, p), n drawn from 4..8 and then p from 0.3, 0.5, 0.7."""
    n = int(rng.integers(4, 9))
    p = (0.3, 0.5, 0.7)[int(rng.integers(0, 3))]
    return whitney_complex(*random_graph(n, p, rng))


def random_corpus(count, seed):
    """``count`` draws of :func:`random_whitney`; deterministic for a given seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [random_whitney(rng) for _ in range(count)]


def random_energy(complex_, rng, signs_only=False):
    """Random nonzero integer energy in -3..3 per simplex (or +-1 when signs_only)."""
    h = {}
    for s in complex_.simplices:
        if signs_only:
            h[s] = int(rng.integers(0, 2)) * 2 - 1
        else:
            v = 0
            while v == 0:
                v = int(rng.integers(-3, 4))
            h[s] = v
    return h
