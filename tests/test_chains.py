import dataclasses
import pathlib
import random

import pytest

from arrangements import (
    C_FIXTURES,
    boolean,
    crossed_pairs,
    empty,
    generic_hyperplanes,
    mixed,
    points_cp1,
    skew_lines,
)
from projarr.arrangement import parse_arrangement
from projarr.chains import (
    ChainComplex,
    NotACycle,
    add_chains,
    build_local_complex,
    build_relative_complex,
    cross_shuffle,
    homology,
    meet_chain,
    meet_product,
    meet_push,
)
from projarr.poset import build_poset
from projarr.presentation import atomic_complex

FIXTURES = [
    empty(2),
    points_cp1(3),
    boolean(2),
    skew_lines(2),
    skew_lines(3),
    crossed_pairs(),
    mixed(),
]


def full_boundary(chain):
    """Ordinary simplicial boundary on tuple simplices (all faces)."""
    out = {}
    for s, c in chain.items():
        if len(s) == 1:
            continue
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            out[face] = out.get(face, 0) + (-1) ** i * c
            if out[face] == 0:
                del out[face]
    return out


def test_chain_arithmetic():
    a = {(1, 2): 1}
    b = {(1, 2): -1, (2, 3): 2}
    assert add_chains(a, b) == {(2, 3): 2}


def boundary_cases():
    """Every relative and local complex of the fixtures, and every atomic
    complex of the c-fixtures."""
    for arr in FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            yield build_relative_complex(poset, k)
        for u in range(len(poset.elements)):
            if poset.d[u] >= 0:
                yield build_local_complex(poset, u)
    for arr, _ in C_FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            yield atomic_complex(poset, k)


def test_boundary_squares_to_zero_everywhere():
    checked = 0
    for cx in boundary_cases():
        for r in range(cx.top_degree + 1):
            assert len(cx.boundaries[r]) == cx.dim(r)
            for s, column in zip(cx.bases[r], cx.boundaries[r]):
                assert len(column) <= r + 1
                assert 0 not in column.values()
                assert cx.boundary(cx.boundary({s: 1}, r), r - 1) == {}
                checked += 1
    assert checked > 150


def test_relative_complex_basis_shape():
    poset = build_poset(points_cp1(3))
    cx = build_relative_complex(poset, 0)
    assert cx.bases[0] == [(0,)]
    assert len(cx.bases[1]) == 3  # (p_i, V)
    assert cx.top_degree == 1


def test_level_zero_homology_of_points():
    poset = build_poset(points_cp1(3))
    summary = homology(build_relative_complex(poset, 0))
    assert summary.degree(0).free_rank == 0
    assert summary.degree(1).free_rank == 2
    assert summary.degree(1).torsion == []


def test_top_level_homology_is_unit():
    for arr in FIXTURES:
        poset = build_poset(arr)
        summary = homology(build_relative_complex(poset, arr.n))
        assert summary.degree(0).free_rank == 1


def test_synthetic_torsion():
    cx = ChainComplex([[(0,)], [(0, 1)]], [[{}], [{0: 2}]])
    summary = homology(cx)
    assert summary.degree(0).free_rank == 0
    assert summary.degree(0).torsion == [2]
    gen = summary.degree(0).generators[0]
    assert summary.class_of(cx.chain(gen.vector, 0), 0) == [1]
    assert summary.class_of(cx.chain([2], 0), 0) == [0]  # 2x is a boundary


def torsion_sublattice_complex():
    # ker d1 = <e1-e2, e2-e4, e3> is a proper sublattice of Z^4, and
    # im d2 = <k1-k2, 3(k2+k3)> in that basis, so H_1 = Z/3 + Z
    # columns of d1 = [[-1, -1, 0, -1], [1, 1, 0, 1]]
    d1 = [{0: -1, 1: 1}, {0: -1, 1: 1}, {}, {0: -1, 1: 1}]
    # columns of d2 = [[1, 0], [-2, 3], [0, 3], [1, -3]]
    d2 = [{0: 1, 1: -2, 3: 1}, {1: 3, 2: 3, 3: -3}]
    return ChainComplex(
        [[(0,), (1,)], [(0, 1), (0, 2), (0, 3), (0, 4)], [(0, 1, 2), (0, 1, 3)]],
        [[{}, {}], d1, d2],
    )


def test_synthetic_torsion_in_proper_cycle_sublattice():
    cx = torsion_sublattice_complex()
    summary = homology(cx)
    h1 = summary.degree(1)
    assert h1.free_rank == 1 and h1.torsion == [3]
    assert summary.degree(0).free_rank == 1 and summary.degree(0).torsion == []
    assert summary.degree(2).generators == []
    for i, gen in enumerate(h1.generators):
        assert cx.boundary(cx.chain(gen.vector, 1), 1) == {}
        unit = [int(i == j) for j in range(len(h1.generators))]
        assert summary.class_of(cx.chain(gen.vector, 1), 1) == unit
    torsion_gen = next(g for g in h1.generators if g.order == 3)
    assert summary.class_of(cx.chain([3 * x for x in torsion_gen.vector], 1), 1) == [0, 0]
    rng = random.Random(17)
    for _ in range(20):
        a, b = rng.randrange(-4, 5), rng.randrange(-4, 5)
        boundary = cx.boundary(cx.chain([a, b], 2), 2)
        assert summary.class_of(boundary, 1) == [0, 0]


def test_homology_rejects_boundary_not_squaring_to_zero():
    # d1·d2 = [[1]] != 0: the image of d2 is not made of cycles
    cx = ChainComplex([[(0,)], [(0, 1), (0, 2)], [(0, 1, 2)]], [[{}], [{0: 1}, {}], [{0: 1}]])
    with pytest.raises(RuntimeError, match="outside the cycle lattice"):
        homology(cx)


def test_meet_product_checks_semimodular_bound():
    poset = build_poset(skew_lines(2))
    unit = {(poset.top,): 1}
    n = poset.n
    assert meet_product(poset, n, n, unit, unit) == unit
    d = list(poset.d)
    d[poset.top] = n - 1
    broken = dataclasses.replace(poset, d=d)
    with pytest.raises(RuntimeError, match="semimodular bound"):
        meet_product(broken, n, n, unit, unit)


def test_coordinatize_rejects_non_cycles():
    poset = build_poset(points_cp1(3))
    cx = build_relative_complex(poset, 0)
    summary = homology(cx)
    chain = {cx.bases[1][0]: 1}  # single (p, V) simplex: not a relative cycle
    with pytest.raises(NotACycle):
        summary.class_of(chain, 1)


def test_class_of_boundary_is_zero_on_random_chains():
    rng = random.Random(3)
    for arr in FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            cx = build_relative_complex(poset, k)
            summary = homology(cx)
            trials = 0
            while trials < 100:
                r = rng.randrange(1, cx.top_degree + 1) if cx.top_degree else 0
                if cx.dim(r) == 0 or r == 0:
                    break
                vec = [rng.randrange(-3, 4) for _ in range(cx.dim(r))]
                chain = cx.chain(vec, r)
                bnd = cx.boundary(chain, r)
                coords = summary.class_of(bnd, r - 1)
                assert all(c == 0 for c in coords)
                trials += 1


def coordinatizer_cases():
    """Every relative complex of every level, and every local complex, of
    the fixtures and the shared families, plus the Z + Z/3 complex."""
    fixture_dir = pathlib.Path(__file__).parent.parent / "fixtures"
    arrangements = [parse_arrangement(p.read_text()) for p in sorted(fixture_dir.glob("*.json"))]
    arrangements += FIXTURES + [boolean(3), generic_hyperplanes(2, 4)]
    for arr in arrangements:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            yield build_relative_complex(poset, k)
        for u in range(len(poset.elements)):
            if poset.d[u] >= 0:
                yield build_local_complex(poset, u)
    yield torsion_sublattice_complex()


def test_class_of_recovers_coefficients_of_generators_plus_boundary():
    # z = sum a_i g_i + d(c) must coordinatize to (a_i), reduced mod the
    # order of each torsion generator; z plus a cell with nonzero boundary
    # is not a cycle
    rng = random.Random(23)
    checked = rejected = 0
    for cx in coordinatizer_cases():
        summary = homology(cx)
        for r in range(cx.top_degree + 1):
            gens = summary.degree(r).generators
            for _ in range(3):
                coeffs = [rng.randrange(-6, 7) for _ in gens]
                z = {}
                for a, g in zip(coeffs, gens):
                    z = add_chains(z, cx.chain(g.vector, r), a)
                if cx.dim(r + 1):
                    c = cx.chain([rng.randrange(-3, 4) for _ in range(cx.dim(r + 1))], r + 1)
                    z = add_chains(z, cx.boundary(c, r + 1))
                want = [a % g.order if g.order else a for a, g in zip(coeffs, gens)]
                assert summary.class_of(z, r) == want
                checked += 1
                cells = [s for s in cx.bases[r] if cx.boundary({s: 1}, r)]
                if cells:
                    with pytest.raises(NotACycle):
                        summary.class_of(add_chains(z, {rng.choice(cells): 1}), r)
                    rejected += 1
    assert checked > 1000 and rejected > 100


def test_cross_shuffle_point_identity():
    c = {(1,): 1}
    d = {(2, 5): 3}
    assert cross_shuffle(c, d) == {((1, 2), (1, 5)): 3}


def test_cross_shuffle_leibniz_rule():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.randrange(0, 3)
        q = rng.randrange(0, 3)

        def random_chain(deg):
            chain = {}
            for _ in range(rng.randrange(1, 3)):
                verts = tuple(sorted(rng.sample(range(8), deg + 1)))
                chain[verts] = chain.get(verts, 0) + rng.randrange(-2, 3)
            return {s: c for s, c in chain.items() if c}

        c = random_chain(p)
        d = random_chain(q)
        lhs = full_boundary(cross_shuffle(c, d))
        rhs = add_chains(
            cross_shuffle(full_boundary(c), d),
            cross_shuffle(c, full_boundary(d)),
            (-1) ** p,
        )
        assert lhs == rhs


def test_meet_push_naturality():
    rng = random.Random(9)
    for arr in [skew_lines(3), crossed_pairs(), boolean(2)]:
        poset = build_poset(arr)
        cx = build_relative_complex(poset, 0)
        for _ in range(100):
            r1 = rng.randrange(0, cx.top_degree + 1)
            r2 = rng.randrange(0, cx.top_degree + 1)
            if not cx.dim(r1) or not cx.dim(r2):
                continue
            c = {cx.bases[r1][rng.randrange(cx.dim(r1))]: rng.choice([-1, 1, 2])}
            d = {cx.bases[r2][rng.randrange(cx.dim(r2))]: rng.choice([-1, 1])}
            x = cross_shuffle(c, d)
            assert meet_push(poset, full_boundary(x)) == full_boundary(
                meet_push(poset, x)
            )


def test_meet_chain_of_units():
    poset = build_poset(skew_lines(2))
    unit = {(poset.top,): 1}
    assert meet_chain(poset, unit, unit) == unit
