import pathlib
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings

from arrangements import (
    boolean,
    crossed_pairs,
    empty,
    generic_hyperplanes,
    mixed,
    points_cp1,
    skew_lines,
    span,
)
from projarr import (
    Arrangement,
    Subspace,
    build_poset,
    is_c_arrangement,
    minimal_dependent_sets,
    parse_arrangement,
    subspace_intersection,
    verify_eta,
)
from projarr import poset as poset_module
from projarr.arrangement import GenericityError, generic_hyperplane, hyperplane_section
from projarr.linalg import rational_view
from projarr.poset import EtaReport, set_defect
from strategies import small_arrangements

FIXTURE_DIR = pathlib.Path(__file__).parent.parent / "fixtures"

ALL_FIXTURES = [
    empty(2),
    points_cp1(3),
    points_cp1(5),
    boolean(2),
    boolean(3),
    generic_hyperplanes(2, 4),
    skew_lines(2),
    skew_lines(3),
    crossed_pairs(),
    mixed(),
]


def test_poset_shapes():
    p = build_poset(points_cp1(3))
    assert p.d == [1, 0, 0, 0, -1]
    p = build_poset(skew_lines(2))
    assert p.d == [3, 1, 1, -1]
    p = build_poset(crossed_pairs())
    assert p.d == [3, 1, 1, 1, 1, 0, 0, -1]
    p = build_poset(boolean(2))
    assert p.d == [2, 1, 1, 1, 0, 0, 0, -1]


def test_top_is_first_and_maximal():
    for arr in ALL_FIXTURES:
        p = build_poset(arr)
        assert p.top == 0 and p.d[0] == arr.n
        assert all(p.leq[i][0] for i in range(len(p.elements)))


def test_leq_is_a_partial_order():
    for arr in ALL_FIXTURES:
        p = build_poset(arr)
        m = len(p.elements)
        for i in range(m):
            assert p.leq[i][i]
            for j in range(m):
                if i != j and p.leq[i][j]:
                    assert not p.leq[j][i]
                for k in range(m):
                    if p.leq[i][j] and p.leq[j][k]:
                        assert p.leq[i][k]


def test_meet_is_greatest_lower_bound():
    for arr in ALL_FIXTURES:
        p = build_poset(arr)
        m = len(p.elements)
        for i in range(m):
            for j in range(m):
                w = p.meet[i][j]
                assert p.leq[w][i] and p.leq[w][j]
                for k in range(m):
                    if p.leq[k][i] and p.leq[k][j]:
                        assert p.leq[k][w]


def test_covers_of_points_fixture():
    p = build_poset(points_cp1(3))
    covers = set(p.covers())
    # 0 < each point < V
    assert covers == {(4, 1), (4, 2), (4, 3), (1, 0), (2, 0), (3, 0)}


def test_minimal_dependent_sets_points():
    deps = minimal_dependent_sets(build_poset(points_cp1(4)))
    # pairs of points are independent; every triple is minimally dependent
    assert sorted(d.indices for d in deps) == sorted(combinations(range(4), 3))
    assert all(d.defect == 1 for d in deps)


def test_minimal_dependent_sets_boolean_empty():
    assert minimal_dependent_sets(build_poset(boolean(2))) == []
    assert minimal_dependent_sets(build_poset(boolean(3))) == []


def test_minimal_dependent_sets_skew_lines():
    assert minimal_dependent_sets(build_poset(skew_lines(2))) == []
    deps = minimal_dependent_sets(build_poset(skew_lines(3)))
    assert [d.indices for d in deps] == [(0, 1, 2)]


def test_set_defect():
    arr = points_cp1(3)
    p = build_poset(arr)
    assert set_defect(p, (0, 1)) == 0
    assert set_defect(p, (0, 1, 2)) == 1


def test_is_c_arrangement():
    assert is_c_arrangement(build_poset(points_cp1(3)), 1)
    assert is_c_arrangement(build_poset(boolean(3)), 1)
    assert is_c_arrangement(build_poset(skew_lines(2)), 2)
    assert is_c_arrangement(build_poset(skew_lines(3)), 2)
    assert not is_c_arrangement(build_poset(skew_lines(2)), 3)
    assert not is_c_arrangement(build_poset(mixed()), 1)  # members of unequal codimension
    # crossed pairs: lines have codim 2 but crossing points codim 3
    assert not is_c_arrangement(build_poset(crossed_pairs()), 2)


def test_verify_eta_across_seeds():
    for arr in [points_cp1(3), boolean(2), skew_lines(2), crossed_pairs(), mixed()]:
        for seed in range(3):
            report = verify_eta(build_poset(arr), seed)
            assert report.passed, report.detail


def concurrent_lines() -> Arrangement:
    """Three lines in CP^2 through one point: every pair meets in it."""
    p = (0, 0, 1)
    return Arrangement(3, (span(3, p, (1, 0, 0)), span(3, p, (0, 1, 0)), span(3, p, (1, 1, 0))))


def point_on_line() -> Arrangement:
    """A point of CP^2 lying on a line: one member inside another."""
    return Arrangement(3, (span(3, (1, 0, 0), (0, 1, 0)), span(3, (1, 1, 0))))


REFERENCE_CASES = [
    *((path.stem, parse_arrangement(path.read_text())) for path in sorted(FIXTURE_DIR.glob("*.json"))),
    ("empty(2)", empty(2)),
    ("points_cp1(5)", points_cp1(5)),
    ("boolean(3)", boolean(3)),
    ("boolean(4)", boolean(4)),
    ("generic_hyperplanes(2,4)", generic_hyperplanes(2, 4)),
    ("generic_hyperplanes(3,6)", generic_hyperplanes(3, 6)),
    ("skew_lines(3)", skew_lines(3)),
    ("crossed_pairs", crossed_pairs()),
    ("mixed", mixed()),
    ("concurrent_lines", concurrent_lines()),
    ("point_on_line", point_on_line()),
]


def _assert_poset_matches_linear_algebra(arr):
    # the mask-derived order and meet against containment and intersection
    # computed by row reduction, and the integer sort key against the
    # rational one
    p = build_poset(arr)
    m = len(p.elements)
    for i, u in enumerate(p.elements):
        assert p.masks[i] == sum(1 << a for a, s in enumerate(arr.subspaces) if s.contains(u)), i
        for j, v in enumerate(p.elements):
            assert p.leq[i][j] == v.contains(u), (i, j)
            assert p.meet[i][j] == p.index_of(subspace_intersection(u, v)), (i, j)
    assert len(set(p.masks)) == m
    assert p.elements == sorted(p.elements, key=lambda s: (-s.dim, rational_view(s.basis)))


@pytest.mark.parametrize("arr", [arr for _, arr in REFERENCE_CASES], ids=[name for name, _ in REFERENCE_CASES])
def test_mask_poset_matches_linear_algebra(arr):
    _assert_poset_matches_linear_algebra(arr)


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_arrangements())
@example(Arrangement(4, (span(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), span(4, (1, 2, 0, 0)), span(4, (0, 0, 1, 1)))))
@example(Arrangement(4, (span(4, (1, 0, 0, 0), (0, 1, 0, 0)), span(4, (0, 0, 1, 0), (0, 0, 0, 1)), span(4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))))
def test_mask_poset_matches_linear_algebra_on_random_arrangements(arr):
    _assert_poset_matches_linear_algebra(arr)


def test_non_generic_posets():
    p = build_poset(concurrent_lines())
    assert p.d == [2, 1, 1, 1, 0]  # V, three lines, the common point
    assert all(p.meet[i][j] == 4 for i in (1, 2, 3) for j in (1, 2, 3) if i != j)
    p = build_poset(point_on_line())
    assert p.d == [2, 1, 0]  # V, the line, the point (their meet)
    assert p.leq[2][1] and not p.leq[1][2]


def test_index_of_rejects_a_subspace_outside_the_poset():
    p = build_poset(skew_lines(2))
    assert p.index_of(skew_lines(2).subspaces[1]) in range(len(p.elements))
    with pytest.raises(ValueError):
        p.index_of(skew_lines(3).subspaces[2])
    with pytest.raises(ValueError):
        p.index_of(Subspace.full(3))


def _reference_verify_eta(poset, seed=0):
    """The section check on a full `build_poset` of the section, as it was
    before it read the section's closure masks: the reference the mask
    check must reproduce, detail strings included.  Each image is the
    span of the rows `projarr.poset._section_rows` gives, put in
    canonical form and looked up, so a planted fault in that seam
    reaches both checks."""
    try:
        h = generic_hyperplane(poset, seed)
        sectioned = hyperplane_section(poset, h)
    except GenericityError as e:
        return EtaReport(False, f"genericity failure: {e}")
    sposet = build_poset(sectioned)
    upper = [i for i in range(len(poset.elements)) if poset.d[i] >= 1]
    images = {}
    for i in upper:
        img = Subspace.from_span(poset.n, poset_module._section_rows(poset.elements[i], h))
        if img.dim - 1 != poset.d[i] - 1:
            return EtaReport(False, f"dimension not lowered by one at element {i}")
        try:
            images[i] = sposet.index_of(img)
        except ValueError:
            return EtaReport(False, f"image of element {i} missing from sectioned poset")
    target = {i for i, di in enumerate(sposet.d) if di >= 0}
    if set(images.values()) != target or len(set(images.values())) != len(images):
        return EtaReport(False, "not a bijection onto Q^H_[0,n-1]")
    for i in upper:
        for j in upper:
            if poset.leq[i][j] != sposet.leq[images[i]][images[j]]:
                return EtaReport(False, f"order not preserved on pair ({i},{j})")
    return EtaReport(True)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_arrangements())
def test_section_check_matches_the_build_poset_reference(arr):
    p = build_poset(arr)
    for seed in range(3):
        assert verify_eta(p, seed) == _reference_verify_eta(p, seed), seed


FAULT_CASES = [("boolean(3)", boolean(3)), ("crossed_pairs", crossed_pairs()), ("skew_lines(3)", skew_lines(3))]


def _planted(monkeypatch, arr, remap):
    """Both checks' reports on arr with the restriction patched to
    restrict remap(s) in place of each element s."""
    restrict = poset_module._section_rows
    monkeypatch.setattr(poset_module, "_section_rows", lambda s, h: restrict(remap(s), h))
    p = build_poset(arr)
    report = verify_eta(p)
    assert report == _reference_verify_eta(p)
    return p, report


@pytest.mark.parametrize("arr", [arr for _, arr in FAULT_CASES], ids=[name for name, _ in FAULT_CASES])
def test_section_check_reports_a_wrong_image(monkeypatch, arr):
    # the first member's image replaced by the section of a subspace of
    # the same dimension in general position, which is no element
    member = arr.subspaces[0]
    wrong = Subspace.from_span(arr.ambient_dim, [[(k + 2) ** e for e in range(arr.ambient_dim)] for k in range(member.dim)])
    assert wrong.dim == member.dim
    p, report = _planted(monkeypatch, arr, lambda s: wrong if s == member else s)
    assert report == EtaReport(False, f"image of element {p.index_of(member)} missing from sectioned poset")


@pytest.mark.parametrize("arr", [arr for _, arr in FAULT_CASES], ids=[name for name, _ in FAULT_CASES])
def test_section_check_reports_two_elements_sent_to_one_image(monkeypatch, arr):
    # the second member restricted as the first, of the same dimension
    first, second = arr.subspaces[:2]
    assert first.dim == second.dim
    p, report = _planted(monkeypatch, arr, lambda s: first if s == second else s)
    assert report == EtaReport(False, "not a bijection onto Q^H_[0,n-1]")


def test_section_check_reports_a_broken_order(monkeypatch):
    # in CP³ the lines A0∩A1 and A0∩A2 of boolean(3) swap images: a
    # bijection, but A0∩A1 ⊆ A1 while its image lies in no section of A1
    arr = boolean(3)
    a, b = subspace_intersection(*arr.subspaces[:2]), subspace_intersection(arr.subspaces[0], arr.subspaces[2])
    p, report = _planted(monkeypatch, arr, lambda s: b if s == a else a if s == b else s)
    assert report.detail.startswith("order not preserved on pair (") and not report.passed
