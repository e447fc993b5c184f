"""The subspace layer against an independent reference: sympy's exact
row reduction and ranks, and brute-force intersection over subfamilies."""

import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from random import Random

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from projarr.arrangement import (
    Arrangement,
    Hyperplane,
    hyperplane_section,
    intersection_closure,
    restrict_to_hyperplane,
)
from projarr.linalg import (
    AmbientMismatch,
    Subspace,
    _cut_rows,
    _rank,
    rational_view,
    rref,
    subspace_intersection,
)
from projarr.poset import build_poset, verify_eta

BIG = 10**6

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    m = [[draw(rationals) for _ in range(cols)] for _ in range(rows)]
    # zero rows and zero columns, and rows repeated up to a scalar
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        m[i] = [Fraction(0)] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in m:
            row[j] = Fraction(0)
    if rows > 1 and draw(st.booleans()):
        f = draw(rationals)
        m[-1] = [f * x for x in m[0]]
    return m


def _fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def sympy_rref(m) -> tuple:
    red, pivots = sympy.Matrix(m).rref()
    return tuple(
        tuple(_fraction(red[i, j]) for j in range(red.cols)) for i in range(len(pivots))
    )


def sympy_rank(rows) -> int:
    return sympy.Matrix(rows).rank() if rows else 0


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(rational_matrices())
@example([[Fraction(0)]])
@example([[Fraction(0), Fraction(0), Fraction(0)]])
@example([[Fraction(0)], [Fraction(0)]])
@example([[Fraction(BIG, BIG - 1), Fraction(-1, BIG), Fraction(0), Fraction(7)]])
@example([[Fraction(BIG - 1, BIG)], [Fraction(0)], [Fraction(-3, 7)]])
@example([[Fraction(-BIG, 3), Fraction(1, BIG)], [Fraction(BIG, BIG - 3), Fraction(0)], [Fraction(2), Fraction(5, BIG)]])
def test_rref_matches_sympy(m):
    assert rational_view(rref(m)) == sympy_rref(m)


@st.composite
def integer_matrices(draw):
    """Up to 8 by 8, tall or wide, entries up to 10⁶ or small; leading
    zero columns, and zero leading entries on top rows, so that pivots
    need row swaps."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = st.integers(-BIG, BIG) | st.integers(-2, 2)
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    lead = draw(st.integers(0, cols - 1))  # zero columns in front
    swaps = draw(st.integers(0, rows - 1))  # top rows zero in the first column left
    return [[0 if j < lead or (i < swaps and j == lead) else x for j, x in enumerate(row)] for i, row in enumerate(m)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_matrices())
@example([[0, 0], [0, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
@example([[0, 3], [0, -6], [0, 1]])
@example([[0, 0, 2], [0, 1, 0], [3, 0, 0], [1, 1, 1], [2, 2, 2]])  # tall, every pivot a swap
@example([[0, 0, 0, 0], [0, 0, 5, 1], [0, 0, 0, 7]])  # leading zero columns
@example([[2, 4, 6], [1, 2, 3], [0, 0, BIG], [0, 0, -BIG]])  # a pivot column dropped, then a swap
def test_rank_matches_sympy(m):
    assert _rank(m) == sympy_rank(m)


def test_rank_divides_back_to_minors():
    # Bareiss keeps every intermediate entry a minor of m, so none exceeds
    # Hadamard's bound: the product of the norms of the minor's rows, at
    # most ∏ ‖row‖ over all rows of m, each norm being ≥ 1.  Without the
    # exact division entries would double in bits at each of the 11 steps
    rng = Random(1968)
    m = [[rng.randint(-(2**20), 2**20) for _ in range(12)] for _ in range(12)]
    m[3] = [x + y for x, y in zip(m[0], m[1])]  # rank 11, after a late pivot
    bound = prod(sum(x * x for x in row) for row in m)  # the bound squared
    largest = 0

    def watch(frame, event, arg):
        nonlocal largest
        if frame.f_code is not _rank.__code__:
            return None
        rows = frame.f_locals.get("rows") or []
        largest = max([largest, *(x * x for row in rows for x in row)])
        return watch

    previous = sys.gettrace()
    sys.settrace(watch)
    try:
        rank = _rank(m)
    finally:
        sys.settrace(previous)
    assert rank == sympy_rank(m) == 11
    assert 0 < largest <= bound


def _watch_cut_rows(run):
    """run(), with the largest square of an entry the rows of each
    `_cut_rows` call hold, and Hadamard's bound on it for that call's
    input: its intermediate rows, with their values, are kept no larger
    than Bareiss elimination's minors of the input's rows [values | b],
    so none exceeds ∏ max(1, ‖[values | b]‖²) over those rows."""
    calls = []  # [bound squared, largest square] per call

    def watch(frame, event, arg):
        if frame.f_code is not _cut_rows.__code__:
            return None
        if event == "call":
            basis, values = frame.f_locals["basis"], frame.f_locals["values"]
            norms = (sum(v[i] ** 2 for v in values) + sum(x * x for x in b) for i, b in enumerate(basis))
            calls.append([prod(max(1, x) for x in norms), 0])
        rows = frame.f_locals.get("rows") or []
        calls[-1][1] = max([calls[-1][1], *(x * x for row in rows for x in row)])
        return watch

    previous = sys.gettrace()
    sys.settrace(watch)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, calls


def test_cuts_keep_their_entries_bounded():
    # 20 dense equations in Q^21 are 20 cuts of the unit basis, and a
    # hyperplane met with a plane is 19 cuts of the hyperplane's basis.
    # Each step without its gcd division would double the entries' bits
    rng = Random(1973)
    m = [[rng.randint(-9, 9) for _ in range(21)] for _ in range(20)]
    zeros, calls = _watch_cut_rows(lambda: Subspace.from_equations(21, m))
    null = sympy.Matrix(m).nullspace()
    assert zeros == Subspace.from_span(21, [[_fraction(x) for x in v] for v in null])
    assert zeros.dim == 1
    hyperplane = Subspace.from_equations(21, m[:1])
    plane = Subspace.from_span(21, [[rng.randint(-9, 9) for _ in range(21)] for _ in range(2)])
    meet, more = _watch_cut_rows(lambda: subspace_intersection(hyperplane, plane))
    null = sympy.Matrix([m[0], *plane.annihilator]).nullspace()
    assert meet == Subspace.from_span(21, [[_fraction(x) for x in v] for v in null])
    assert meet.dim == 1
    assert len(calls) == len(more) == 1
    for bound, largest in calls + more:
        assert 0 < largest <= bound


negative_rationals = st.builds(Fraction, st.integers(-BIG, -1), st.integers(1, BIG))


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(rational_matrices(), st.lists(negative_rationals, min_size=5, max_size=5))
@example([[Fraction(-2), Fraction(4), Fraction(-6)]], [Fraction(-1)] * 5)
@example([[Fraction(0), Fraction(-3, 2)], [Fraction(5), Fraction(1, 7)]], [Fraction(-1, 3)] * 5)
def test_rref_is_the_integer_canonical_form(m, scales):
    ncols = len(m[0])
    rows = rref(m)
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    for i, (row, p) in enumerate(zip(rows, pivots)):
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[p] > 0
        assert all(other[p] == 0 for k, other in enumerate(rows) if k != i)
    assert rational_view(rows) == sympy_rref(m)
    # row i scaled by a negative rational plus the rows before it: an
    # invertible change of spanning set with the same canonical form
    mixed = [
        [c * x + sum(earlier[j] for earlier in m[:i]) for j, x in enumerate(row)]
        for i, (c, row) in enumerate(zip(scales, m))
    ]
    original, recombined = Subspace.from_span(ncols, m), Subspace.from_span(ncols, mixed)
    assert original.basis == rows
    assert recombined == original and hash(recombined) == hash(original)


small_rows = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(small_rows, min_size=1, max_size=4),
    st.lists(small_rows, min_size=1, max_size=4),
)
def test_intersection_dimension_obeys_grassmann(rows_a, rows_b):
    a = Subspace.from_span(4, rows_a)
    b = Subspace.from_span(4, rows_b)
    cut = subspace_intersection(a, b)
    dim_a, dim_b = sympy_rank(rows_a), sympy_rank(rows_b)
    assert (a.dim, b.dim) == (dim_a, dim_b)
    # dim(A ∩ B) = dim A + dim B − dim(A + B)
    assert cut.dim == dim_a + dim_b - sympy_rank(rows_a + rows_b)
    for row in cut.basis:
        assert sympy_rank(rows_a + [list(row)]) == dim_a
        assert sympy_rank(rows_b + [list(row)]) == dim_b


def sympy_intersection(ambient_dim, rows_a, rows_b) -> tuple:
    """The RREF basis of span(rows_a) ∩ span(rows_b), solved by sympy from
    the stacked equations of both."""
    equations = [list(v) for rows in (rows_a, rows_b) for v in sympy.Matrix(rows).nullspace()]
    if not equations:
        return sympy_rref(sympy.eye(ambient_dim).tolist())
    basis = sympy.Matrix(equations).nullspace()
    return sympy_rref([list(v) for v in basis]) if basis else ()


@st.composite
def subspace_pairs(draw):
    """Row lists of two subspaces of Q^ambient_dim, in one of the relations
    the closure meets: drawn independently, a ⊆ b, b ⊆ a, a = b, a or b
    the full space, or a of dimension 1."""
    ambient_dim = draw(st.integers(1, 5))
    vectors = st.lists(rationals, min_size=ambient_dim, max_size=ambient_dim)
    rows_a = draw(st.lists(vectors, min_size=1, max_size=ambient_dim))
    rows_b = draw(st.lists(vectors, min_size=1, max_size=ambient_dim))
    full = [[Fraction(int(i == j)) for j in range(ambient_dim)] for i in range(ambient_dim)]
    combos = st.lists(rationals, min_size=len(rows_b), max_size=len(rows_b))
    relation = draw(st.sampled_from(["any", "a in b", "b in a", "equal", "a full", "b full", "a line"]))
    if relation == "a in b":
        rows_a = [
            [sum(c * r[k] for c, r in zip(draw(combos), rows_b)) for k in range(ambient_dim)]
            for _ in range(draw(st.integers(1, len(rows_b))))
        ]
    elif relation == "b in a":
        rows_a = rows_b + rows_a
    elif relation == "equal":
        rows_a = [[-x for x in r] for r in reversed(rows_b)]
    elif relation == "a full":
        rows_a = full
    elif relation == "b full":
        rows_b = full
    elif relation == "a line":
        rows_a = rows_a[:1]
    return ambient_dim, rows_a, rows_b


def _assert_exact_intersection(ambient_dim, rows_a, rows_b):
    a, b = Subspace.from_span(ambient_dim, rows_a), Subspace.from_span(ambient_dim, rows_b)
    cut = subspace_intersection(a, b)
    expected = sympy_intersection(ambient_dim, rows_a, rows_b)
    assert cut.ambient_dim == ambient_dim
    assert rational_view(cut.basis) == expected
    assert cut == Subspace.from_span(ambient_dim, expected)
    # the closure reads "the meet is a itself" as "b contains a"
    assert (cut is a) == b.contains(a)


Q = Fraction
X, Y, Z, W = ([Q(int(i == j)) for j in range(4)] for i in range(4))


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(subspace_pairs())
@example((4, [X], [X, Y]))  # a ⊆ b, a a point
@example((4, [X, Y], [X]))  # b ⊆ a
@example((4, [X, Y], [[Q(2), Q(3), Q(0), Q(0)], [Q(0), Q(-1, 2), Q(0), Q(0)]]))  # a = b
@example((4, [X, Y], [Z, W]))  # a ∩ b = 0
@example((4, [[Q(1), Q(2), Q(3), Q(4)]], [X, Y, Z]))  # a point off the member
@example((4, [X, Y, Z, W], [[Q(1), Q(1, 3), Q(0), Q(-5)], Z]))  # a full
@example((4, [[Q(1), Q(1), Q(0), Q(0)], Z], [X, Y, Z, W]))  # b full
@example((3, [[Q(0), Q(0), Q(0)]], [[Q(1), Q(0), Q(0)]]))  # a zero
@example((2, [[Q(1), Q(-1)]], [[Q(BIG, BIG - 1), Q(-BIG, BIG - 1)]]))  # a = b, big entries
def test_intersection_is_the_subspace_sympy_solves_for(case):
    _assert_exact_intersection(*case)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=n),
            st.lists(st.integers(-4, 4), min_size=n, max_size=n).filter(any),
        )
    )
)
@example(([[1, 0, 0, 0], [0, 1, 0, 0]], [0, 2, -3, 1]))
@example(([[0, 3, 2, 0]], [0, 2, -3, 1]))  # a point inside ker h
def test_cut_by_a_hyperplane_kernel_is_exact(case):
    # a ∩ ker h: one equation, so M is 1 × dim a
    rows, functional = case
    ambient_dim = len(functional)
    kernel_rows = [[_fraction(x) for x in v] for v in sympy.Matrix([functional]).nullspace()]
    assert Subspace.from_equations(ambient_dim, [functional]) == Subspace.from_span(ambient_dim, kernel_rows)
    _assert_exact_intersection(ambient_dim, rows, kernel_rows)


def test_the_full_space_cut_by_a_proper_subspace_is_that_subspace():
    h = Hyperplane((0, 2, -3, 1))
    kernel_of_h = Subspace.from_equations(4, [h.functional])
    proper = [kernel_of_h, Subspace.from_span(4, [[1, 2, 3, 4]]), Subspace.from_span(4, [[0, 0, 0, 0]])]
    for b in proper:
        assert subspace_intersection(Subspace.full(4), b) == b
    cut = restrict_to_hyperplane(Subspace.full(4), h)
    assert cut == Subspace.full(3)


def test_intersection_of_different_ambient_dimensions_is_refused():
    a, b = Subspace.from_span(3, [[1, 0, 0]]), Subspace.from_span(4, [[1, 0, 0, 0]])
    for x, y in ((a, b), (b, a), (Subspace.full(3), b), (Subspace.from_span(3, [[0, 0, 0]]), b)):
        with pytest.raises(AmbientMismatch):
            subspace_intersection(x, y)


def _brute_force_closure(ambient_dim, members):
    """Every subfamily's intersection as its sympy RREF basis, mapped to the
    mask of the members containing it."""
    equations = [sympy.Matrix(m).nullspace() for m in members]
    found = {}
    full = tuple(tuple(Fraction(int(i == j)) for j in range(ambient_dim)) for i in range(ambient_dim))
    found[full] = None
    for size in range(1, len(members) + 1):
        for subset in combinations(range(len(members)), size):
            eqs = [v.T for a in subset for v in equations[a]]
            basis = sympy.Matrix.vstack(*eqs).nullspace()
            key = sympy_rref([list(v) for v in basis]) if basis else ()
            found[key] = None
    for key in found:
        found[key] = sum(
            1 << a
            for a, m in enumerate(members)
            if sympy_rank(m + [list(r) for r in key]) == sympy_rank(m)
        )
    return found


@st.composite
def small_arrangements(draw):
    ambient_dim = draw(st.integers(3, 4))
    count = draw(st.integers(1, 5))
    members, spans = [], set()
    for _ in range(count):
        dim = draw(st.integers(1, ambient_dim - 1))
        rows = draw(
            st.lists(
                st.lists(st.integers(-1, 1), min_size=ambient_dim, max_size=ambient_dim),
                min_size=dim,
                max_size=dim,
            )
        )
        key = sympy_rref(rows)
        assume(0 < len(key) < ambient_dim and key not in spans)
        spans.add(key)
        members.append(rows)
    return ambient_dim, members


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_arrangements())
@example((3, [[[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 0, 1]]]))  # concurrent lines
@example((4, [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]]))  # point on a line
@example((3, [[[1, 1, 0]], [[1, -1, 0]], [[1, 0, 0], [0, 1, 0]]]))  # two points on a line, before it
def test_closure_matches_brute_force(case):
    ambient_dim, members = case
    arr = Arrangement(ambient_dim, tuple(Subspace.from_span(ambient_dim, m) for m in members))
    closure = intersection_closure(arr)
    expected = _brute_force_closure(ambient_dim, members)
    assert {rational_view(s.basis): mask for s, mask in closure.items()} == expected


def test_section_with_pivot_off_column_zero(monkeypatch):
    # h = (0, 2, -3, 1): its first nonzero column is 1, so the section frame
    # is e_j - (h_j / h_1)·e_1 for j = 0, 2, 3 and column 1 is dropped
    h = Hyperplane((0, 2, -3, 1))
    frame = sympy.Matrix(
        [[1, 0, 0, 0], [0, sympy.Rational(3, 2), 1, 0], [0, sympy.Rational(-1, 2), 0, 1]]
    )
    hvec = sympy.Matrix([[0, 2, -3, 1]])
    assert hvec * frame.T == sympy.zeros(1, 3)
    member_equations = [[[1, 0, 0, 0]], [[0, 0, 1, -1]], [[1, 1, 0, 0], [0, 0, 0, 1]]]
    members = tuple(Subspace.from_equations(4, eqs) for eqs in member_equations)
    for s, eqs in zip(members, member_equations):
        # s ∩ ker h by sympy, then frame coordinates y solving frameᵀ·y = v
        coords = []
        for v in sympy.Matrix(eqs + [[0, 2, -3, 1]]).nullspace():
            y, params = frame.T.gauss_jordan_solve(v)
            assert params.shape[0] == 0
            coords.append(list(y))
        got = restrict_to_hyperplane(s, h)
        assert got.ambient_dim == 3
        assert rational_view(got.basis) == sympy_rref(coords)
    poset = build_poset(Arrangement(4, members))
    sectioned = hyperplane_section(poset, h)
    assert [s.dim for s in sectioned.subspaces] == [s.dim - 1 for s in members]
    monkeypatch.setattr("projarr.poset.generic_hyperplane", lambda poset, seed=0: h)
    report = verify_eta(poset)
    assert report.passed, report.detail


def sympy_section(ambient_dim, rows, functional) -> tuple:
    """The RREF basis of span(rows) ∩ ker h in the frame of ker h, by
    sympy: the null space of the stacked equations, then frameᵀ·y = v
    solved for each of its vectors, with the frame e_k − (h_k/h_j)·e_j
    for k ≠ j and j the first nonzero column of h."""
    hvec = sympy.Matrix([functional])
    j = next(k for k, x in enumerate(functional) if x)
    frame = sympy.Matrix(
        [
            [int(i == k) - (sympy.Rational(functional[k], functional[j]) if i == j else 0) for i in range(ambient_dim)]
            for k in range(ambient_dim)
            if k != j
        ]
    )
    assert hvec * frame.T == sympy.zeros(1, ambient_dim - 1)
    equations = [list(v) for v in sympy.Matrix(rows).nullspace()]
    coords = []
    for v in sympy.Matrix(equations + [functional]).nullspace():
        y, params = frame.T.gauss_jordan_solve(v)
        assert params.shape[0] == 0
        coords.append(list(y))
    return sympy_rref(coords) if coords else ()


@st.composite
def sections(draw):
    """Rows of a subspace s and a functional h with leading zero columns,
    s drawn independently, inside ker h, or a point off ker h."""
    ambient_dim = draw(st.integers(2, 5))
    entries = st.integers(-4, 4)
    lead = draw(st.integers(0, ambient_dim - 1))
    functional = [0] * lead + [draw(entries.filter(bool))]
    functional += draw(st.lists(entries, min_size=ambient_dim - lead - 1, max_size=ambient_dim - lead - 1))
    vectors = st.lists(entries, min_size=ambient_dim, max_size=ambient_dim)
    rows = draw(st.lists(vectors, min_size=1, max_size=ambient_dim))

    def value(v):
        return sum(f * x for f, x in zip(functional, v))

    relation = draw(st.sampled_from(["any", "inside ker h", "point off ker h"]))
    if relation == "inside ker h":
        # v ↦ h_j·v − h(v)·e_j projects into ker h
        rows = [[functional[lead] * x - (value(v) if k == lead else 0) for k, x in enumerate(v)] for v in rows]
    elif relation == "point off ker h":
        v = rows[0]
        rows = [v if value(v) else [x + (k == lead) for k, x in enumerate(v)]]
    return ambient_dim, rows, functional


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(sections())
@example((4, [[1, 0, 0, 0], [0, 1, 0, 0]], [0, 2, -3, 1]))  # pivot off column 0
@example((4, [[1, 0, 0, 0], [0, 3, 2, 0]], [0, 2, -3, 1]))  # s ⊆ ker h
@example((4, [[1, 1, 1, 1]], [0, 2, -3, 1]))  # a point off ker h
@example((3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 5]))  # s = V, h's pivot last
@example((3, [[0, 0, 0]], [1, 2, 3]))  # s = 0
def test_restriction_is_the_section_sympy_solves_for(case):
    ambient_dim, rows, functional = case
    s, h = Subspace.from_span(ambient_dim, rows), Hyperplane(tuple(functional))
    got = restrict_to_hyperplane(s, h)
    assert got.ambient_dim == ambient_dim - 1
    assert rational_view(got.basis) == sympy_section(ambient_dim, rows, functional)
    assert got.dim == s.dim - (not h.vanishes_on(s))
