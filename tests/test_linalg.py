import random
from fractions import Fraction

import pytest

from projarr.linalg import (
    Subspace,
    int_det,
    int_identity,
    int_matmul,
    kernel,
    make_matrix,
    rref,
    snf,
    subspace_intersection,
)


def test_rref_pivots_are_one_and_staircase():
    m = make_matrix([[2, 4, 6], [1, 2, 4], [0, 0, 2]])
    red = rref(m)
    pivots = []
    for row in red:
        j = next(i for i, x in enumerate(row) if x != 0)
        assert row[j] == 1
        pivots.append(j)
    assert pivots == sorted(pivots)
    # pivot columns are elementary
    for r, j in enumerate(pivots):
        assert all(red[i][j] == (1 if i == r else 0) for i in range(len(red)))


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = make_matrix(
            [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        )
        red = rref(m)
        assert rref(red) == red


def test_kernel_vectors_annihilated():
    m = make_matrix([[1, 2, 3], [0, 1, 1]])
    for v in kernel(m, 3):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(kernel(m, 3)) == 1


def test_subspace_canonical_equality_across_constructions():
    # the same plane reached by span, intersection and equations must
    # compare equal (duplicates here would corrupt the poset)
    a = Subspace.from_span(4, [(1, 0, 0, 0), (0, 0, 4, 1)])
    big = Subspace.from_span(4, [(1, 0, 0, 0), (0, 0, 4, 1), (0, 1, 0, 0)])
    other = Subspace.from_span(4, [(1, 0, 0, 0), (0, 0, 4, 1), (0, 0, 1, 0)])
    cut = subspace_intersection(big, other)
    assert cut == a
    assert hash(cut) == hash(a)
    eqs = Subspace.from_equations(4, [(0, 1, 0, 0), (0, 0, 1, -4)])
    assert eqs == a


def test_subspace_contains_and_dims():
    line = Subspace.from_span(3, [(1, 1, 0)])
    plane = Subspace.from_span(3, [(1, 0, 0), (0, 1, 0)])
    assert plane.contains(line)
    assert not line.contains(plane)
    assert Subspace.full(3).dim == 3
    assert Subspace.zero(3).dim == 0
    assert subspace_intersection(line, plane) == line


def test_equal_subspaces_hash_equally_and_find_each_other():
    # the plane x0 + 2x1 - x3 = 0 = x2 - 3x3 in Q^4, once as a span and
    # once as the common zeros of two other equations for it
    spanned = Subspace.from_span(4, [[2, -1, 0, 0], [Fraction(1, 2), Fraction(1, 4), 3, 1]])
    cut = Subspace.from_equations(4, [[1, 2, 0, -1], [2, 4, 1, -5]])
    assert spanned == cut
    assert hash(spanned) == hash(cut) == hash(spanned)
    assert {spanned: "span"}[cut] == "span"
    assert {cut: "equations"}[spanned] == "equations"
    other = Subspace.from_equations(4, [[1, 2, 0, -1], [0, 0, 1, -2]])
    assert other != spanned and other not in {cut: 0}


def test_annihilator_dimensions():
    s = Subspace.from_span(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    ann = s.annihilator
    assert len(ann) == 2
    for f in ann:
        for v in s.basis:
            assert sum(a * b for a, b in zip(f, v)) == 0


def _check_snf(a):
    res = snf(a)
    rows, cols = len(a), len(a[0])
    assert abs(int_det(res.u)) == 1
    assert abs(int_det(res.v)) == 1
    assert int_matmul(res.u, res.uinv) == int_identity(rows)
    assert int_matmul(res.v, res.vinv) == int_identity(cols)
    d = int_matmul(int_matmul(res.u, a), res.v)
    assert d == res.d
    diag = res.diagonal()
    for i in range(rows):
        for j in range(cols):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert d[i][j] == expected
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    for x in diag:
        assert x >= 0


def test_snf_known_matrix():
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert snf(a).diagonal() == [2, 6, 12]
    _check_snf(a)


def test_snf_random_matrices():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        _check_snf(a)


def test_snf_inverses_on_edge_shapes():
    rng = random.Random(13)
    for n in range(1, 7):
        _check_snf([[rng.randrange(-6, 7) for _ in range(n)]])  # 1 x n
        _check_snf([[rng.randrange(-6, 7)] for _ in range(n)])  # n x 1
        _check_snf([[0] * n for _ in range(n + 1)])  # all zero
    for _ in range(60):
        # rank-deficient: product of an m x k and a k x n factor, k < min(m, n)
        m, n = rng.randrange(2, 7), rng.randrange(2, 7)
        k = rng.randrange(1, min(m, n))
        left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(m)]
        right = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)]
        a = int_matmul(left, right)
        _check_snf(a)
        assert sum(1 for x in snf(a).diagonal() if x) <= k


def test_make_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        make_matrix([[1, 2], [3]])


def test_fraction_entries_survive():
    m = make_matrix([[Fraction(1, 2), 1]])
    assert rref(m) == ((Fraction(1), Fraction(2)),)
