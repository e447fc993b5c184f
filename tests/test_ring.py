import pathlib
import sys
from math import comb

import pytest

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
    Arrangement,
    affine_decompose,
    build_poset,
    decompose,
    parse_arrangement,
    ring_table,
    verify_ring_axioms,
)
from projarr import chains
from projarr.chains import _shuffle_paths
from projarr.linalg import Subspace, rref
from projarr.oracles import compare
from projarr.ring import RingTable, _ring

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


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
        assert ring_of(arr).poincare == expected, name


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


def _failures_with(table, changes):
    """verify_ring_axioms' failures on the table with some products replaced."""
    saved = table.products
    table.products = {**saved, **changes}
    try:
        return verify_ring_axioms(table).failures
    finally:
        table.products = saved


def _ids_of_degree(table, degree):
    return [i for i, b in enumerate(table.basis) if b.degree == degree]


def test_verify_ring_axioms_reports_each_planted_failure():
    skew = ring_of(skew_lines(2))  # one class in each of degrees 0, 2, 3, 5; 2n = 6
    assert verify_ring_axioms(skew).passed
    (unit,), (two,), (three,), (five,) = (_ids_of_degree(skew, d) for d in (0, 2, 3, 5))
    product = skew.products[(two, three)]
    assert set(product) == {five}
    cases = [
        ({(unit, three): {three: 2}}, f"unit law fails on left of basis {three}"),
        ({(three, unit): {three: -1}}, f"unit law fails on right of basis {three}"),
        ({(two, two): {three: 1}}, f"degree additivity fails on ({two},{two})"),
        ({(three, five): {five: 1}}, f"nonzero product above top degree on ({three},{five})"),
        ({(three, two): {five: -product[five]}}, f"graded commutativity fails on ({two},{three})"),
    ]
    for changes, message in cases:
        assert message in _failures_with(skew, changes), message

    # a non-associative triple of degree 3 <= 2n: in the exterior algebra
    # H*((C*)^3), doubling every product of class i with a degree-2 class
    # keeps the unit law, degrees and commutativity, but i·(j·t) ≠ (i·j)·t
    cube = ring_of(boolean(3))
    assert verify_ring_axioms(cube).passed
    i, j, t = _ids_of_degree(cube, 1)
    doubled = {}
    for k in _ids_of_degree(cube, 2):
        for key in ((i, k), (k, i)):
            doubled[key] = {x: 2 * c for x, c in cube.products[key].items()}
    failures = _failures_with(cube, doubled)
    assert f"associativity fails on ({i},{j},{t})" in failures
    assert failures and all(f.startswith("associativity fails") for f in failures)


# five codim-2 subspaces of CP^5 in general position, each cut out by two
# equations: the shape of the benchmark's generic `verify` inputs
CODIM2_CP5 = [
    [[4, -1, 0, 5, 3, -5], [2, -2, 5, -5, -3, -4]],
    [[0, 2, -2, 1, 3, -4], [4, -2, -5, -2, 1, -1]],
    [[-3, 1, -3, -4, -3, 4], [4, 2, -3, -3, -5, -5]],
    [[-2, -2, -3, -3, -1, 0], [-2, 3, 5, 5, -2, -3]],
    [[-2, 1, -1, -5, 0, 1], [-3, -3, -1, -4, 0, -1]],
]
AXIOM_CASES = {
    **{
        path.stem: lambda path=path: parse_arrangement(path.read_text())
        for path in sorted(FIXTURES.glob("*.json"))
    },
    "boolean3": lambda: boolean(3),
    "codim2x5_cp5": lambda: Arrangement(6, tuple(Subspace.from_equations(6, eqs) for eqs in CODIM2_CP5)),
}


@pytest.mark.parametrize("name", AXIOM_CASES)
def test_associativity_is_compared_exactly_on_triples_of_degree_sum_at_most_2n(monkeypatch, name):
    table = ring_of(AXIOM_CASES[name]())
    degrees = [b.degree for b in table.basis]
    m = len(degrees)
    bounded = sum(1 for x in degrees for y in degrees for z in degrees if x + y + z <= 2 * table.n)
    calls = 0
    original = RingTable.multiply

    def multiply(self, a, b):
        nonlocal calls
        calls += 1
        return original(self, a, b)

    monkeypatch.setattr(RingTable, "multiply", multiply)
    assert verify_ring_axioms(table).passed
    # two unit-law products per basis element, then two per compared triple
    assert calls == 2 * m + 2 * bounded
    if name == "codim2x5_cp5":
        assert (m, bounded) == (22, 774)


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


def test_a_block_whose_target_has_no_cells_in_the_product_degree_is_zero():
    # a product's cells are cells of its target, so when the target has
    # none in degree r + s the chains are empty; _ring reads them as no
    # classes, also above the target's top degree.  Every block here is
    # sent to level n, whose complex is V alone (top degree 0).
    dec = decompose(build_poset(skew_lines(2)))
    n, summaries = dec.n, dict(enumerate(dec.summaries))
    calls = 0

    def empty_product(c, d):
        nonlocal calls
        calls += 1
        return {}

    table = _ring(
        dec.poset, summaries, lambda k, r: 2 * n - 2 * k - r,
        lambda b: (b.degree, -b.summand, b.r, b.index), lambda k, l: (n, empty_product), "relative",
    )
    m = len(table.basis)
    assert summaries[n].complex.top_degree == 0
    assert any(b.r > 0 for b in table.basis)  # so some product degree exceeds 0
    assert calls == m * m
    assert all(table.products[(i, j)] == {} for i in range(m) for j in range(m))


def _reference_meet_shuffle(poset, c, d, evaluations):
    """The meet kernel as it was before it kept a memo: the shuffle paths
    of every pair of simplices walked again on every call.  Appends each
    simplex pair it walks to evaluations."""
    meet = poset.meet
    out = {}
    for sigma, a in c.items():
        rows = [meet[u] for u in sigma]
        for tau, b in d.items():
            evaluations.append((sigma, tau))
            grid = [row[v] for row in rows for v in tau]
            for sign, path in _shuffle_paths(len(sigma) - 1, len(tau) - 1):
                last = grid[0]
                image = [last]
                for x in path:
                    v = grid[x]
                    if v == last:
                        break
                    image.append(v)
                    last = v
                else:
                    key = tuple(image)
                    out[key] = out.get(key, 0) + sign * a * b
    return {s: x for s, x in out.items() if x}


def _memo_free_table(poset, affine, evaluations):
    """The projective (affine=None) or affine table with A_affine at
    infinity, assembled by `_ring` with every product from the memo-free
    kernel, and in projective mode the semimodular check on every
    vertex."""
    n = poset.n
    if affine is None:
        summaries = dict(enumerate(decompose(poset).summaries))

        def multiply_at(m):
            def multiply(c, d):
                result = _reference_meet_shuffle(poset, c, d, evaluations)
                assert all(min(poset.d[v] for v in s) >= m for s in result)
                return result

            return multiply

        return _ring(
            poset, summaries, lambda k, r: 2 * n - 2 * k - r,
            lambda b: (b.degree, -b.summand, b.r, b.index),
            lambda k, l: None if k + l < n else (k + l - n, multiply_at(k + l - n)), "relative",
        )
    summaries = affine_decompose(poset, affine).summaries

    def block(u, v):
        w = poset.meet[u][v]
        if w not in summaries or poset.d[w] != poset.d[u] + poset.d[v] - n:
            return None
        return w, lambda c, d: _reference_meet_shuffle(poset, c, d, evaluations)

    return _ring(
        poset, summaries, lambda u, m: 2 * n - 2 * poset.d[u] - m,
        lambda b: (b.degree, poset.d[b.summand], b.summand, b.r, b.index), block, "local",
    )


def shuffled_pairs(build):
    """build()'s result and the simplex pairs whose terms the meet kernel
    computes while it runs."""
    pairs = []
    terms = chains._meet_terms.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is terms:
            pairs.append((frame.f_locals["sigma"], frame.f_locals["tau"]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = build()
    finally:
        sys.setprofile(previous)
    return result, pairs


def _table_cases():
    """Every fixture in projective mode, and in affine mode with member 0
    at infinity where it is a hyperplane."""
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.stem, None
        arr = parse_arrangement(path.read_text())
        if arr.subspaces and arr.subspaces[0].dim == arr.n:
            yield path.stem, 0


TABLE_CASES = list(_table_cases())


@pytest.mark.parametrize("name, affine", TABLE_CASES, ids=[f"{n} {'ring' if a is None else '--affine 0'}" for n, a in TABLE_CASES])
def test_the_table_shuffles_each_simplex_pair_once(name, affine):
    # equal tables to the memo-free kernel's, and each distinct (σ, τ)
    # walked once per table where the memo-free kernel walks it once per
    # product it enters
    poset = build_poset(parse_arrangement((FIXTURES / f"{name}.json").read_text()))
    build = (lambda: ring_table(decompose(poset))) if affine is None else (lambda: affine_decompose(poset, affine))
    table, pairs = shuffled_pairs(build)
    evaluations = []
    reference = _memo_free_table(poset, affine, evaluations)
    assert (table.basis, table.poincare, table.products) == (reference.basis, reference.poincare, reference.products)
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(evaluations)
    if name == "boolean_cp3" and affine is None:
        assert (len(evaluations), len(pairs)) == (349, 193)


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
    with pytest.raises(ValueError):
        affine_decompose(build_poset(skew_lines(2)), 0)


@pytest.mark.parametrize(
    "arr, index, message",
    [
        (boolean(2), 7, "infinity_index 7 is out of range: member indices are 0..2"),
        (boolean(2), -1, "infinity_index -1 is out of range: member indices are 0..2"),
        (empty(2), 0, "infinity_index 0: the arrangement has no members"),
    ],
    ids=["too-large", "negative", "no-members"],
)
def test_affine_rejects_member_index_out_of_range(arr, index, message):
    with pytest.raises(ValueError, match=message):
        affine_decompose(build_poset(arr), index)


def pairing_ranks(table) -> dict[tuple[int, int], int]:
    """Rank over Q of H^p (x) H^q -> H^{p+q} on the free part, per (p, q)."""
    free: dict[int, list[int]] = {}
    for i, b in enumerate(table.basis):
        if not b.torsion_order:
            free.setdefault(b.degree, []).append(i)
    out = {}
    for p, left in free.items():
        for q, right in free.items():
            target = free.get(p + q, [])
            rows = [
                [table.products[(i, j)].get(t, 0) for t in target]
                for i in left
                for j in right
            ]
            out[(p, q)] = len(rref(rows)) if target else 0
    return out


def torsion_by_degree(table) -> list[tuple[int, int]]:
    return sorted((b.degree, b.torsion_order) for b in table.basis if b.torsion_order)


def hyperplane_members():
    for path in sorted(FIXTURES.glob("*.json")):
        arr = parse_arrangement(path.read_text())
        yield from ((path.stem, i) for i, s in enumerate(arr.subspaces) if s.dim == arr.n)


HYPERPLANE_MEMBERS = list(hyperplane_members())


def test_every_fixture_hyperplane_member_is_covered():
    assert len(HYPERPLANE_MEMBERS) == 20


@pytest.mark.parametrize("name, index", HYPERPLANE_MEMBERS, ids=lambda v: str(v))
def test_affine_table_matches_projective_ring(name, index):
    # a hyperplane A_0 gives CP^n minus the union = C^n minus the rest
    poset = build_poset(parse_arrangement((FIXTURES / f"{name}.json").read_text()))
    affine = affine_decompose(poset, index)
    report = verify_ring_axioms(affine)
    assert report.passed, report.failures[:3]
    projective = ring_table(decompose(poset))
    assert affine.poincare == projective.poincare
    assert torsion_by_degree(affine) == torsion_by_degree(projective)
    assert pairing_ranks(affine) == pairing_ranks(projective)


@pytest.mark.parametrize(
    "arr", [boolean(4), generic_hyperplanes(4, 5)], ids=["boolean(4)", "generic_hyperplanes(4,5)"]
)
def test_betti_numbers_and_ring_at_hundreds_of_cells(arr):
    # 750 cells over all levels: the sizes where a dense kernel was slow
    dec = decompose(build_poset(arr))
    assert sum(len(b) for s in dec.summaries for b in s.complex.bases) == 750
    table = ring_table(dec)
    report = compare(table)
    assert report.os_oracle is not None
    assert report.passed, report.failures
    assert verify_ring_axioms(table).passed
