"""Exact identities on simplicial complexes: indices, counting matrices, Green sums."""

from fractions import Fraction

import numpy as np
import pytest

from curvfun.discrete import (
    SimplicialComplex,
    counting_determinant,
    counting_matrix,
    determinant_and_green_sum,
    euler_characteristic,
    green_sum,
    omega,
    ph_index,
    random_corpus,
    random_energy,
    random_graph,
    transported_index,
    whitney_complex,
)
from curvfun.errors import NotLocallyInjectiveError, SingularCountingMatrixError


def triangle():
    return whitney_complex([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def path3():
    return whitney_complex([1, 2, 3], [(1, 2), (2, 3)])


def test_whitney_complex_finds_cliques():
    t = triangle()
    assert len(t) == 7  # 3 vertices + 3 edges + 1 triangle
    assert (1, 2, 3) in t
    assert euler_characteristic(t) == 1
    p = path3()
    assert len(p) == 5
    assert euler_characteristic(p) == 1


def test_complex_requires_closure():
    with pytest.raises(ValueError):
        SimplicialComplex([(1, 2)])  # faces {1}, {2} missing
    ok = SimplicialComplex([(1,), (2,), (1, 2)])
    assert len(ok) == 3


def test_omega_alternates():
    assert omega((1,)) == 1
    assert omega((1, 2)) == -1
    assert omega((1, 2, 3)) == 1


def test_euler_characteristic_circle():
    c4 = whitney_complex([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert euler_characteristic(c4) == 0


def test_ph_index_sums_to_chi():
    t = triangle()
    f = {1: 0.1, 2: 0.7, 3: 0.4}
    total = sum(ph_index(t, f, v) for v in t.vertices)
    assert total == euler_characteristic(t) == 1


def test_ph_index_rejects_ties_in_neighborhoods():
    t = triangle()
    with pytest.raises(NotLocallyInjectiveError):
        ph_index(t, {1: 0.5, 2: 0.5, 3: 0.9}, 1)


def test_ph_index_rejects_a_tie_away_from_its_vertex():
    # vertex 1's closed neighborhood {1, 2} is injective; 3 and 4 tie next to each other
    p4 = whitney_complex([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(NotLocallyInjectiveError, match="neighborhood of 3"):
        ph_index(p4, {1: 0.0, 2: 1.0, 3: 5.0, 4: 5.0}, 1)


def test_neighbors_are_sorted_and_private_to_the_caller():
    c = whitney_complex([1, 2, 3, 4], [(3, 1), (1, 2), (4, 1)])
    assert c.neighbors(1) == [2, 3, 4]
    assert c.neighbors(2) == [1]
    assert c.neighbors(9) == []
    c.neighbors(1).append(7)
    assert c.neighbors(1) == [2, 3, 4]


def test_transported_index_sums_to_chi_and_localizes():
    c = whitney_complex([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    f = {1: 4, 2: 1, 3: 2, 4: 3}
    idx = transported_index(c, f)
    assert sum(idx.values()) == euler_characteristic(c)
    # every simplex is attributed to exactly one vertex
    assert set(idx) == set(c.vertices)


def test_counting_matrix_unit_energy():
    # h = 1: L(x, y) counts subsimplices of the intersection, det = 1
    t = triangle()
    L = counting_matrix(t)
    simplices = t.simplices
    for i, x in enumerate(simplices):
        for j, y in enumerate(simplices):
            cap = set(x) & set(y)
            assert L[i][j] == 2 ** len(cap) - 1
    assert counting_determinant(t) == 1
    # sum of Green entries equals the number of simplices for h = 1
    assert green_sum(t) == len(t)


def test_counting_matrix_matches_its_definition_with_energies():
    # L(x, y) = sum of h(z) over the simplices z inside x n y, summed directly
    rng = np.random.default_rng(3)
    for g in random_corpus(5, seed=5):
        h = {s: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) for s in g.simplices}
        L = counting_matrix(g, h)
        for i, x in enumerate(g.simplices):
            for j, y in enumerate(g.simplices):
                assert L[i][j] == sum(h[z] for z in g.simplices if set(z) <= set(x) & set(y))


def test_counting_determinant_is_energy_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = whitney_complex(*random_graph(5, 0.5, rng))
        h = random_energy(g, rng)
        det = counting_determinant(g, h)
        prod = 1
        for s in g.simplices:
            prod *= h[s]
        assert det == prod


def test_green_sum_reciprocal_identity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = whitney_complex(*random_graph(5, 0.6, rng))
        h = random_energy(g, rng)
        expected = sum(Fraction(1, h[s]) for s in g.simplices)
        assert green_sum(g, h) == expected


def test_green_sum_equals_energy_sum_for_sign_energies():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = whitney_complex(*random_graph(6, 0.4, rng))
        h = random_energy(g, rng, signs_only=True)
        assert green_sum(g, h) == sum(h[s] for s in g.simplices)


def test_green_sum_omega_energy_gives_chi():
    for g in (triangle(), path3(), whitney_complex([1, 2, 3, 4], [(1, 2), (3, 4)])):
        h = {s: omega(s) for s in g.simplices}
        assert green_sum(g, h) == euler_characteristic(g)
        assert abs(counting_determinant(g, h)) == 1


def test_green_sum_singular_energy_raises():
    t = triangle()
    h = {s: 1 for s in t.simplices}
    h[(1, 2)] = 0
    with pytest.raises(SingularCountingMatrixError):
        green_sum(t, h)
    assert determinant_and_green_sum(t, h) == (0, None)


def test_one_elimination_gives_the_determinant_and_the_green_sum():
    rng = np.random.default_rng(3)
    for g in random_corpus(10, seed=5):
        h = random_energy(g, rng)
        det, total = determinant_and_green_sum(g, h)
        assert det == counting_determinant(g, h)
        assert total == (None if 0 in h.values() else green_sum(g, h))


def test_random_corpus_shapes():
    corpus = random_corpus(8, seed=5)
    assert len(corpus) == 8
    for g in corpus:
        assert len(g.vertices) >= 4
        assert euler_characteristic(g) == sum(omega(s) for s in g.simplices)
