"""Exact determinant, inverse and the elimination behind the Green sum, over rationals."""

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from oracles import bareiss_lists

from curvfun import discrete, rationals
from curvfun.rationals import _eliminate, exact_det, exact_inv
from curvfun.reproduce import run_case


def leibniz_det(A):
    """The determinant as the signed sum over permutations (the oracle)."""
    n = len(A)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Fraction(A[i][j])
        total += term
    return total


def random_entry(rng):
    """An int, a small Fraction or a Fraction with a large denominator."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randrange(-5, 6)
    if kind == 1:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
    return Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**15))


def random_matrix(rng, n):
    return [[random_entry(rng) for _ in range(n)] for _ in range(n)]


def solve(A, b):
    """``x`` with ``A x = b`` from the elimination the Green sum runs; ``None`` if singular."""
    _, x = _eliminate(A, [[v] for v in b])
    return None if x is None else [r[0] for r in x]


def matmul(A, X):
    return [[sum((Fraction(a) * x for a, x in zip(row, col)), Fraction(0)) for col in zip(*X)]
            for row in A]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_the_leibniz_sum(n):
    rng = random.Random(n)
    for _ in range(10):
        A = random_matrix(rng, n)
        assert exact_det(A) == leibniz_det(A)


def test_det_of_integers_needing_a_row_swap():
    A = [[0, 2, 1], [3, 0, 4], [1, 5, 0]]
    assert exact_det(A) == leibniz_det(A) == 23


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_solve_and_inverse_are_exact(n):
    rng = random.Random(100 + n)
    for _ in range(5):
        A = random_matrix(rng, n)
        if exact_det(A) == 0:
            continue
        b = [random_entry(rng) for _ in range(n)]
        x = solve(A, b)
        assert matmul(A, [[v] for v in x]) == [[Fraction(v)] for v in b]
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert matmul(A, exact_inv(A)) == identity


def test_mixed_rows_of_ints_numpy_ints_floats_and_fractions():
    # each entry is taken exactly as Fraction(x) takes it
    A = [[np.int64(-3), 0.5, Fraction(9, 1)],
         [0.1, np.int64(-3), Fraction(-8, 9)],
         [0, 4, 1.0]]
    b = [-0.25, 4, Fraction(1, 10**18)]
    exact = [[Fraction(int(v)) if isinstance(v, np.integer) else Fraction(v) for v in row]
             for row in A]
    x = solve(A, b)
    assert matmul(exact, [[v] for v in x]) == [[Fraction(v)] for v in b]
    assert exact_det(A) == leibniz_det(exact)


def test_singular_matrix():
    A = [[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)], [4, 5, 6]]
    assert exact_det(A) == 0
    assert type(exact_det(A)) is Fraction
    assert solve(A, [1, 1, 1]) is None
    with pytest.raises(ValueError, match="singular"):
        exact_inv(A)


def test_empty_matrix():
    assert exact_det([]) == 1
    assert type(exact_det([])) is Fraction
    assert solve([], []) == []
    assert exact_inv([]) == []


def test_results_are_fractions():
    A = [[2, 1], [1, 3]]
    assert type(exact_det(A)) is Fraction
    assert exact_det(A) == 5
    x = solve(A, [1, 1])
    assert x == [Fraction(2, 5), Fraction(1, 5)]
    assert all(type(v) is Fraction for v in x)
    inv = exact_inv(A)
    assert inv == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]
    assert all(type(v) is Fraction for row in inv for v in row)


def assert_exact_types(det, x):
    assert type(det) is Fraction and type(det.numerator) is int
    assert type(det.denominator) is int
    for row in x or ():
        for v in row:
            assert type(v) is Fraction
            assert type(v.numerator) is int and type(v.denominator) is int


def assert_matches_the_list_oracle(A, B):
    det, x = _eliminate(A, B)
    assert (det, x) == bareiss_lists(A, B)
    assert_exact_types(det, x)
    return det, x


def test_every_elimination_of_the_discrete_case_matches_the_list_oracle(monkeypatch):
    calls = []

    def recording(A, B):
        calls.append((A, B, _eliminate(A, B)))
        return calls[-1][2]

    monkeypatch.setattr(rationals, "_eliminate", recording)  # behind exact_det
    monkeypatch.setattr(discrete, "_eliminate", recording)
    assert all(c.verdict == "PASS" for c in run_case("discrete"))
    assert len(calls) == 300
    for A, B, (det, x) in calls:
        assert (det, x) == bareiss_lists(A, B)
        assert_exact_types(det, x)


@pytest.mark.parametrize("seed", range(6))
def test_random_int_and_fraction_matrices_match_the_list_oracle(seed):
    rng = random.Random(200 + seed)
    for n in range(1, 9):
        A = random_matrix(rng, n)
        m = rng.randrange(3)
        B = [[random_entry(rng) for _ in range(m)] for _ in range(n)]
        assert_matches_the_list_oracle(A, B)
        ints = [[rng.randrange(-10**rng.randrange(1, 25), 10**rng.randrange(1, 25))
                 for _ in range(n)] for _ in range(n)]
        assert_matches_the_list_oracle(ints, [[1]] * n)


@pytest.mark.parametrize("big", [2**31 - 1, 2**31])
def test_entries_at_the_int64_bound(big):
    # at big = 2**31 the first step of [[big, big], [-big, big]] is 2**62 + 2**62
    for A in ([[big, 1], [1, -big]], [[big, big], [-big, big]],
              [[big, -big, 1], [-big, 1, big], [1, big, big]],
              [[-big, 0, big], [big, big, 0], [0, -big, big]]):
        det, x = assert_matches_the_list_oracle(A, [[1]] * len(A))
        assert det == leibniz_det(A)


def test_a_matrix_promoted_part_way_through():
    # entries fit in 2**31, but the 2 x 2 minors its first step leaves do not
    rng = random.Random(7)
    A = [[rng.randrange(-10**5, 10**5 + 1) for _ in range(12)] for _ in range(12)]
    det, x = assert_matches_the_list_oracle(A, [[1]] * 12)
    assert abs(det) > 2**63
    assert x is not None and matmul(A, x) == [[Fraction(1)]] * 12


def test_numpy_int64_entries_beyond_the_bound():
    big = np.int64(3 * 10**9)
    A = [[big, np.int64(1), np.int64(0)],
         [np.int64(1), big, np.int64(1)],
         [np.int64(0), np.int64(1), big]]
    det, _ = assert_matches_the_list_oracle(A, [[np.int64(1)]] * 3)
    b = 3 * 10**9
    assert det == b**3 - 2 * b


def test_a_zero_column_right_hand_side():
    A = [[2, 1], [1, 3]]
    assert assert_matches_the_list_oracle(A, [[]] * 2) == (5, [[], []])


def test_a_singular_matrix_needing_a_row_swap():
    A = [[0, 1, 2], [1, 2, 3], [2, 4, 6]]
    assert assert_matches_the_list_oracle(A, [[1]] * 3) == (0, None)
    assert exact_det(A) == leibniz_det(A) == 0
