from arrangements import (
    boolean,
    crossed_pairs,
    empty,
    generic_hyperplanes,
    mixed,
    points_cp1,
    skew_lines,
)
from projarr import compare, mobius, os_poincare_projective, stratified_euler
from projarr.oracles import OracleError, os_poincare_central
from projarr.poset import build_poset
from projarr.ring import decompose, ring_table

import pytest


def test_mobius_values_points():
    poset = build_poset(points_cp1(3))
    table = mobius(poset)
    top = poset.top
    assert table.mu(top, top) == 1
    zero = poset.d.index(-1)
    for p in range(len(poset.elements)):
        if poset.d[p] == 0:
            assert table.mu(top, p) == -1
    assert table.mu(top, zero) == 2


def test_mobius_recursion_identity():
    for arr in [boolean(3), crossed_pairs(), skew_lines(3)]:
        poset = build_poset(arr)
        table = mobius(poset)
        m = len(poset.elements)
        below = lambda u, v: poset.leq[v][u]
        for u in range(m):
            for v in range(m):
                if u == v or not below(u, v):
                    continue
                total = sum(
                    table.mu(u, w)
                    for w in range(m)
                    if below(u, w) and below(w, v)
                )
                assert total == 0, (u, v)


def test_os_central_closed_forms():
    # three points in CP^1: (1+t)(1+2t)
    assert os_poincare_central(build_poset(points_cp1(3))) == [1, 3, 2]
    # Boolean: (1+t)^{n+1}
    assert os_poincare_central(build_poset(boolean(2))) == [1, 3, 3, 1]
    assert os_poincare_central(build_poset(boolean(3))) == [1, 4, 6, 4, 1]


def test_os_projective_closed_forms():
    assert os_poincare_projective(points_cp1(2)) == [1, 1]
    assert os_poincare_projective(points_cp1(3)) == [1, 2]
    assert os_poincare_projective(boolean(2)) == [1, 2, 1]
    assert os_poincare_projective(boolean(3)) == [1, 3, 3, 1]
    assert os_poincare_projective(generic_hyperplanes(2, 4)) == [1, 3, 3]


def test_os_rejects_non_hyperplanes():
    with pytest.raises(OracleError):
        os_poincare_projective(skew_lines(2))


def test_stratified_euler_values():
    assert stratified_euler(build_poset(empty(3))) == 4
    assert stratified_euler(build_poset(points_cp1(3))) == -1
    assert stratified_euler(build_poset(skew_lines(2))) == 0
    assert stratified_euler(build_poset(skew_lines(3))) == -2
    assert stratified_euler(build_poset(crossed_pairs())) == -2
    assert stratified_euler(build_poset(mixed())) == 0


def test_compare_all_fixtures():
    fixtures = [
        empty(2),
        points_cp1(2),
        points_cp1(3),
        points_cp1(4),
        points_cp1(5),
        boolean(2),
        boolean(3),
        generic_hyperplanes(2, 4),
        generic_hyperplanes(3, 5),
        skew_lines(2),
        skew_lines(3),
        crossed_pairs(),
        mixed(),
    ]
    for arr in fixtures:
        report = compare(ring_table(decompose(build_poset(arr))))
        assert report.passed, report.failures
