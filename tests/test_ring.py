from math import comb

from arrangements import (
    boolean,
    crossed_pairs,
    empty,
    generic_hyperplanes,
    mixed,
    points_cp1,
    skew_lines,
)
from projarr import (
    affine_decompose,
    build_poset,
    decompose,
    poincare_polynomial,
    ring_table,
    verify_ring_axioms,
)


def ring_of(arr):
    return ring_table(decompose(build_poset(arr)))


EXPECTED_POINCARE = {
    "empty2": (empty(2), [1, 0, 1, 0, 1]),
    "empty3": (empty(3), [1, 0, 1, 0, 1, 0, 1]),
    "pts3": (points_cp1(3), [1, 2, 0]),
    "pts5": (points_cp1(5), [1, 4, 0]),
    "bool2": (boolean(2), [1, 2, 1, 0, 0]),
    "bool3": (boolean(3), [1, 3, 3, 1, 0, 0, 0]),
    "gen4": (generic_hyperplanes(2, 4), [1, 3, 3, 0, 0]),
    "skew2": (skew_lines(2), [1, 0, 1, 1, 0, 1, 0]),
    "skew3": (skew_lines(3), [1, 0, 1, 2, 0, 2, 0]),
    "sec5": (crossed_pairs(), [1, 0, 1, 3, 0, 1, 0]),
    "mixed": (mixed(), [1, 0, 0, 1, 0, 0, 0]),
}


def test_poincare_polynomials():
    for name, (arr, expected) in EXPECTED_POINCARE.items():
        assert poincare_polynomial(decompose(build_poset(arr))) == expected, name


def test_no_torsion_on_fixtures():
    for name, (arr, _) in EXPECTED_POINCARE.items():
        table = ring_of(arr)
        assert all(b.torsion_order == 0 for b in table.basis), name


def test_decompose_degree_bookkeeping():
    arr = skew_lines(2)
    dec = decompose(build_poset(arr))
    n = dec.n
    for k in range(n + 1):
        for r, dh in enumerate(dec.summaries[k].degrees):
            if dh.generators:
                assert 0 <= 2 * n - 2 * k - r <= 2 * n


def test_empty_ring_is_truncated_polynomial():
    for n in range(1, 5):
        table = ring_of(empty(n))
        assert table.poincare == [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
        # one basis element per even degree; the degree-2 class generates
        ids = {b.degree: i for i, b in enumerate(table.basis)}
        x = {ids[2]: 1}
        power = {table.unit_index: 1}
        for s in range(1, n + 1):
            power = table.multiply(power, x)
            assert power == {ids[2 * s]: 1} or power == {ids[2 * s]: -1}
        assert table.multiply(power, x) == {}


def test_ring_axioms_all_fixtures():
    for name, (arr, _) in EXPECTED_POINCARE.items():
        report = verify_ring_axioms(ring_of(arr))
        assert report.passed, (name, report.failures[:3])


def test_corrupted_table_fails_axioms():
    table = ring_of(skew_lines(2))
    # break one product entry
    key = next(k for k, v in table.products.items() if v)
    broken = dict(table.products)
    broken[key] = {t: c + 1 for t, c in broken[key].items()}
    table.products = broken
    assert not verify_ring_axioms(table).passed


def test_skew_lines_products():
    table = ring_of(skew_lines(2))
    by_degree = {}
    for i, b in enumerate(table.basis):
        by_degree.setdefault(b.degree, []).append(i)
    (two,) = by_degree[2]
    (three,) = by_degree[3]
    (five,) = by_degree[5]
    prod = table.products[(two, three)]
    assert set(prod) == {five} and abs(prod[five]) == 1
    # odd class squares to zero
    assert table.products[(three, three)] == {}


def test_products_determinism():
    a = ring_of(crossed_pairs())
    b = ring_of(crossed_pairs())
    assert a.products == b.products
    assert a.basis == b.basis


def test_affine_points():
    for m in (2, 3, 5):
        table = affine_decompose(build_poset(points_cp1(m)), 0)
        assert table.poincare[: 2] == [1, m - 1]
        assert all(x == 0 for x in table.poincare[2:])
        # all products of positive-degree classes vanish
        for (i, j), entry in table.products.items():
            if table.basis[i].degree and table.basis[j].degree:
                assert entry == {}


def test_affine_boolean_torus():
    for n in (2, 3):
        table = affine_decompose(build_poset(boolean(n)), 0)
        assert table.poincare[: n + 1] == [comb(n, i) for i in range(n + 1)]
        assert all(x == 0 for x in table.poincare[n + 1 :])
        # degree-1 classes generate an exterior algebra: products of
        # distinct generators are unimodular in degree 2, squares vanish
        ones = [i for i, b in enumerate(table.basis) if b.degree == 1]
        assert len(ones) == n
        for a in ones:
            assert table.products[(a, a)] == {}
            for b in ones:
                if a != b:
                    prod = table.products[(a, b)]
                    assert len(prod) == 1 and abs(next(iter(prod.values()))) == 1
                    flipped = table.products[(b, a)]
                    assert flipped == {t: -c for t, c in prod.items()}


def test_affine_requires_hyperplane_at_infinity():
    import pytest

    with pytest.raises(ValueError):
        affine_decompose(build_poset(skew_lines(2)), 0)
