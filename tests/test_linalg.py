import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from arrangements import boolean, generic_hyperplanes
from projarr import chains, parse_arrangement
from projarr.linalg import (
    Subspace,
    kernel,
    make_matrix,
    rref,
    snf,
    subspace_intersection,
)
from projarr.poset import build_poset
from projarr.ring import decompose

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


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


def _dense(vectors, by_rows):
    """The square matrix with these sparse rows (or columns); None stays None."""
    if vectors is None:
        return None
    n = len(vectors)
    if by_rows:
        return [[vec.get(j, 0) for j in range(n)] for vec in vectors]
    return [[vec.get(i, 0) for vec in vectors] for i in range(n)]


def transforms(res):
    """Dense (U, U⁻¹, V, V⁻¹) of an SNFResult; an uncarried pair is None."""
    return (
        _dense(res.u_rows, by_rows=True),
        _dense(res.uinv_cols, by_rows=False),
        _dense(res.v_cols, by_rows=False),
        _dense(res.vinv_rows, by_rows=True),
    )


def _eye(n):
    """sympy's n×n identity as int rows."""
    return [[int(x) for x in row] for row in sympy.eye(n).tolist()]


def _matmul(a, b):
    """The product a·b, computed by sympy, as int rows."""
    return [[int(x) for x in row] for row in (sympy.Matrix(a) * sympy.Matrix(b)).tolist()]


def _check_snf(a, left=True, right=True):
    res = snf(a, left=left, right=right)
    u, uinv, v, vinv = transforms(res)
    rows, cols = len(a), len(a[0])
    diag = res.diagonal()
    for i in range(rows):
        for j in range(cols):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert res.d[i][j] == expected
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    for x in diag:
        assert x >= 0
    padded = diag + [0] * max(rows, cols)
    if left:
        assert abs(sympy.Matrix(u).det()) == 1
        assert _matmul(u, uinv) == _eye(rows)
        # U·A = D·V⁻¹ and the rows of V⁻¹ are primitive: row i has content d_i
        for i, row in enumerate(_matmul(u, a)):
            assert gcd(*row) == padded[i]
    else:
        assert u is None and uinv is None
    if right:
        assert abs(sympy.Matrix(v).det()) == 1
        assert _matmul(v, vinv) == _eye(cols)
        for j, col in enumerate(zip(*_matmul(a, v))):
            assert gcd(*col) == padded[j]
    else:
        assert v is None and vinv is None
    if left and right:
        assert _matmul(_matmul(u, a), v) == res.d


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
        a = _matmul(left, right)
        _check_snf(a)
        assert sum(1 for x in snf(a).diagonal() if x) <= k


def test_make_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        make_matrix([[1, 2], [3]])


def test_fraction_entries_survive():
    m = make_matrix([[Fraction(1, 2), 1]])
    assert rref(m) == ((Fraction(1), Fraction(2)),)


def _reference_snf(a):
    """The dense Smith normal form the sparse kernel must reproduce step
    for step: minimal-|x| pivot in row-major order, four dense transforms
    updated on every step."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [[int(x) for x in row] for row in a]
    u, v, uinv, vinv = _eye(m), _eye(n), _eye(m), _eye(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(src, dst, f):
        d[dst] = [x + f * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]
        for row in uinv:
            row[src] -= f * row[dst]

    def add_col(src, dst, f):
        for row in d:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]
        vinv[src] = [x - f * y for x, y in zip(vinv[src], vinv[dst])]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        dirty = False
        for i in range(t + 1, m):
            if d[i][t] != 0:
                add_row(t, i, -(d[i][t] // d[t][t]))
                dirty = dirty or d[i][t] != 0
        for j in range(t + 1, n):
            if d[t][j] != 0:
                add_col(t, j, -(d[t][j] // d[t][t]))
                dirty = dirty or d[t][j] != 0
        if dirty:
            continue
        offender = next(
            (i for i in range(t + 1, m) for j in range(t + 1, n) if d[i][j] % d[t][t]), None
        )
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return d, u, v, uinv, vinv


def _assert_matches_reference(a, sides=((True, True), (True, False), (False, True))):
    """d and every carried transform equal the reference's, entry for entry."""
    d, u, v, uinv, vinv = _reference_snf(a)
    for left, right in sides:
        res = snf(a, left=left, right=right)
        assert res.d == d
        assert transforms(res) == (
            *((u, uinv) if left else (None, None)),
            *((v, vinv) if right else (None, None)),
        )


def test_snf_matches_dense_reference_on_random_and_edge_shapes():
    rng = random.Random(17)
    for _ in range(300):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        _assert_matches_reference([[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)])
    for n in range(1, 7):
        _assert_matches_reference([[rng.randrange(-6, 7) for _ in range(n)]])
        _assert_matches_reference([[rng.randrange(-6, 7)] for _ in range(n)])
        _assert_matches_reference([[0] * n for _ in range(n + 1)])
    for _ in range(60):
        m, n = rng.randrange(2, 7), rng.randrange(2, 7)
        k = rng.randrange(1, min(m, n))
        left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(m)]
        right = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)]
        _assert_matches_reference(_matmul(left, right))
    _assert_matches_reference([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])


def test_snf_checks_hold_with_one_side_carried():
    rng = random.Random(19)
    for _ in range(100):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        a = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        _check_snf(a, right=False)
        _check_snf(a, left=False)


def _homology_snf_inputs(arr):
    """Every matrix homology hands to snf while decomposing arr."""
    seen = []

    def recording(a, **kwargs):
        seen.append([list(row) for row in a])
        return snf(a, **kwargs)

    original = chains.snf
    chains.snf = recording
    try:
        decompose(build_poset(arr))
    finally:
        chains.snf = original
    return seen


HOMOLOGY_INPUTS = [path.stem for path in sorted(FIXTURES.glob("*.json"))] + [
    "boolean(4)",
    "generic_hyperplanes(3,6)",
]


@pytest.mark.parametrize("name", HOMOLOGY_INPUTS)
def test_snf_matches_dense_reference_on_homology_matrices(name):
    if name.endswith(")"):
        arr = {"boolean(4)": boolean(4), "generic_hyperplanes(3,6)": generic_hyperplanes(3, 6)}[name]
    else:
        arr = parse_arrangement((FIXTURES / f"{name}.json").read_text())
    matrices = _homology_snf_inputs(arr)
    assert matrices or name == "empty_cp3"  # its complexes are single cells
    for a in matrices:
        _assert_matches_reference(a, sides=((True, False), (False, True)))
