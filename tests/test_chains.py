import dataclasses
import pathlib
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings

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
from projarr import chains as chains_module
from projarr.chains import (
    ChainComplex,
    Generator,
    NotACycle,
    add_chains,
    atomic_complex,
    build_local_complex,
    _meet_at_level,
    _meet_shuffle,
    build_relative_complex,
    homology,
)
from projarr.linalg import snf
from projarr.poset import build_poset
from projarr.ring import Decomposition, decompose, ring_table
from strategies import small_arrangements

FIXTURE_DIR = pathlib.Path(__file__).parent.parent / "fixtures"
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


def _reference_boundaries(bases, faces):
    """The columns of every ∂_r from the face rule, as complex_from_faces
    built them before it read the complex's own cell index."""
    boundaries = [[{} for _ in bases[0]]]
    for prev, cur in zip(bases, bases[1:]):
        idx = {s: i for i, s in enumerate(prev)}
        cols = []
        for s in cur:
            col = {}
            for face, coeff in faces(s):
                col[idx[face]] = col.get(idx[face], 0) + coeff
            cols.append({i: x for i, x in col.items() if x})
        boundaries.append(cols)
    return bases, boundaries


def _reference_relative_complex(poset, k):
    """(bases, boundaries) of the level-k relative complex as the builder
    made them before one enumeration of chains to V served both builders:
    each chain extended at its front by every element of d >= k below it,
    each degree sorted."""
    ids = [i for i in range(len(poset.elements)) if poset.d[i] >= k]
    top = poset.top
    by_degree = [[(top,)]]
    frontier = [(top,)]
    while frontier:
        new = []
        for chain in frontier:
            first = chain[0]
            for w in ids:
                if w != first and poset.leq[w][first]:
                    new.append((w,) + chain)
        if new:
            by_degree.append(sorted(new))
        frontier = new
    return _reference_boundaries(by_degree, lambda s: [(s[:i] + s[i + 1:], (-1) ** i) for i in range(len(s) - 1)])


def _reference_local_complex(poset, u):
    """(bases, boundaries) of the local complex at u as its builder made
    them before: elements of [u, V] inserted between consecutive vertices
    of the chains of the last degree, with duplicates merged, and V alone
    as a literal."""
    top = poset.top
    if u == top:
        return [[(top,)]], [[{}]]
    ids = [i for i in range(len(poset.elements)) if poset.leq[u][i]]
    by_degree = [[], [(u, top)]]
    frontier = by_degree[1]
    while frontier:
        new = set()
        for chain in frontier:
            for w in ids:
                if w in chain:
                    continue
                for pos in range(len(chain) - 1):
                    lo, hi = chain[pos], chain[pos + 1]
                    if poset.leq[lo][w] and poset.leq[w][hi] and w != lo and w != hi:
                        new.add(chain[: pos + 1] + (w,) + chain[pos + 1:])
        frontier = sorted(new)
        if frontier:
            by_degree.append(frontier)
    return _reference_boundaries(by_degree, lambda s: [(s[:i] + s[i + 1:], (-1) ** i) for i in range(1, len(s) - 1)])


def _assert_complexes_match_the_references(arr):
    poset = build_poset(arr)
    for k in range(arr.n + 1):
        cx = build_relative_complex(poset, k)
        assert (cx.bases, cx.boundaries) == _reference_relative_complex(poset, k), k
    for u in range(len(poset.elements)):
        cx = build_local_complex(poset, u)
        assert (cx.bases, cx.boundaries) == _reference_local_complex(poset, u), u


BUILDER_CASES = [
    *((path.stem, parse_arrangement(path.read_text())) for path in sorted(FIXTURE_DIR.glob("*.json"))),
    *((f"FIXTURES[{i}]", arr) for i, arr in enumerate(FIXTURES)),
    ("boolean(4)", boolean(4)),
    ("generic_hyperplanes(3,6)", generic_hyperplanes(3, 6)),
    ("generic_hyperplanes(4,5)", generic_hyperplanes(4, 5)),
]


@pytest.mark.parametrize("arr", [arr for _, arr in BUILDER_CASES], ids=[name for name, _ in BUILDER_CASES])
def test_complexes_match_the_reference_builders(arr):
    # every level k and every start u, the zero element (d = -1) and V
    # included: the same bases in the same order and the same columns
    _assert_complexes_match_the_references(arr)


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_arrangements())
def test_complexes_match_the_reference_builders_on_random_arrangements(arr):
    # the posets of tests/test_poset.py, some with one member inside another
    _assert_complexes_match_the_references(arr)


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
    # an empty chain above the top degree is the zero class of H = 0
    assert summary.class_of({}, cx.top_degree + 1) == []
    assert summary.classes_of([{}, {}], cx.top_degree + 1) == [[], []]


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
    assert _meet_at_level(poset, n, unit, unit) == unit
    d = list(poset.d)
    d[poset.top] = n - 1
    broken = dataclasses.replace(poset, d=d)
    with pytest.raises(RuntimeError, match="semimodular bound"):
        _meet_at_level(broken, n, unit, unit)
    # the ring table runs the same check on every projective product
    with pytest.raises(RuntimeError, match="semimodular bound"):
        ring_table(Decomposition(broken, decompose(poset).summaries))


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
    arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
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


def _reference_homology(cx):
    """The homology the skipping one must reproduce, as it was before it
    took invariant factors first: V, V⁻¹ of every boundary and U, U⁻¹ of
    every image presentation, in every degree.  Per degree, the
    generators and a class reader (a chain -> coordinates function that
    raises NotACycle)."""

    def dense(columns, nrows):
        rows = [[0] * len(columns) for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                rows[i][j] = x
        return rows

    def transpose(rows):
        cols = [{} for _ in rows]
        for k, row in enumerate(rows):
            for j, c in row.items():
                cols[j][k] = c
        return cols

    def kernel_coords(vinv, rank_out, entries):
        y = [0] * len(vinv)
        for j, x in entries:
            for k, c in vinv[j].items():
                y[k] += x * c
        return None if any(y[:rank_out]) else y[rank_out:]

    def reader(r, vinv, rank_out, u2, orders, signs):
        def class_of(chain):
            w = kernel_coords(vinv, rank_out, [(cx.index[r][s], c) for s, c in chain.items() if c])
            if w is None:
                raise NotACycle("chain is not a cycle")
            wp = [0] * len(u2)
            for k, wk in enumerate(w):
                if wk:
                    for i, c in u2[k].items():
                        wp[i] += c * wk
            coords, pos = [], 0
            for i, order in enumerate(orders):
                if order == 1:
                    continue
                val = signs[pos] * wp[i]
                coords.append(val % order if order > 1 else val)
                pos += 1
            return coords

        return class_of

    degrees = []
    for r in range(cx.top_degree + 1):
        nr = cx.dim(r)
        if nr == 0:
            degrees.append(([], reader(r, [], 0, [], [], [])))
            continue
        if cx.dim(r - 1) == 0:
            rank_out = 0
            vinv = kernel = [{j: 1} for j in range(nr)]
        else:
            res = snf(dense(cx.boundaries[r], cx.dim(r - 1)), left=False)
            rank_out = sum(1 for x in res.diagonal() if x != 0)
            vinv = transpose(res.vinv_rows)
            kernel = res.v_cols[rank_out:]
        s = nr - rank_out
        if s == 0:
            degrees.append(([], reader(r, vinv, rank_out, [], [], [])))
            continue
        if cx.dim(r + 1):
            out = []
            for col in cx.boundaries[r + 1]:
                w = kernel_coords(vinv, rank_out, col.items())
                if w is None:
                    raise RuntimeError("image column outside the cycle lattice")
                out.append(w)
            res2 = snf([list(row) for row in zip(*out)], right=False)
            u2, u2inv, diag2 = transpose(res2.u_rows), res2.uinv_cols, res2.diagonal()
        else:
            u2 = u2inv = [{j: 1} for j in range(s)]
            diag2 = []
        orders = [diag2[i] if i < len(diag2) else 0 for i in range(s)]
        gens, signs = [], []
        for i, order in enumerate(orders):
            if order == 1:
                continue
            col = [0] * nr
            for k, x in u2inv[i].items():
                for row, c in kernel[k].items():
                    col[row] += c * x
            eps = next((1 if x > 0 else -1 for x in col if x), 1)
            signs.append(eps)
            gens.append(Generator(order, [eps * x for x in col]))
        degrees.append((gens, reader(r, vinv, rank_out, u2, orders, signs)))
    return degrees


def _class_or_not(read, chain):
    try:
        return read(chain)
    except NotACycle:
        return "not a cycle"


def test_homology_matches_the_every_degree_reference():
    # equal generators (orders included) in every degree, and equal
    # classes of the same cycles and rejections of the same non-cycles;
    # a degree without homology reads no transforms of its own
    rng = random.Random(41)
    zero_degrees = checked = rejected = 0
    for cx in coordinatizer_cases():
        summary = homology(cx)
        reference = _reference_homology(cx)
        for r, (gens, read) in enumerate(reference):
            dh = summary.degree(r)
            assert dh.generators == gens
            if not gens:
                zero_degrees += 1
                assert (dh._vinv, dh._u2) == ([], [])
                assert dh._boundary == cx.boundaries[r]
            for _ in range(3):
                z = {}
                for g in gens:
                    z = add_chains(z, cx.chain(g.vector, r), rng.randrange(-6, 7))
                if cx.dim(r + 1):
                    c = cx.chain([rng.randrange(-3, 4) for _ in range(cx.dim(r + 1))], r + 1)
                    z = add_chains(z, cx.boundary(c, r + 1))
                assert summary.class_of(z, r) == read(z)
                checked += 1
                if cx.dim(r):
                    w = add_chains(z, {rng.choice(cx.bases[r]): rng.choice([-1, 1])})
                    got = _class_or_not(lambda chain: summary.class_of(chain, r), w)
                    assert got == _class_or_not(read, w)
                    rejected += got == "not a cycle"
    assert zero_degrees > 150 and checked > 1000 and rejected > 250


def _snf_calls(monkeypatch, cx):
    """The summary of cx and its SNF calls by kind: "factors" (no
    transforms), "boundary" (V, V⁻¹) and "presentation" (U, U⁻¹)."""
    calls = []
    original = chains_module.snf

    def snf_counted(a, left=True, right=True):
        calls.append("factors" if not (left or right) else "boundary" if right else "presentation")
        return original(a, left=left, right=right)

    monkeypatch.setattr(chains_module, "snf", snf_counted)
    summary = homology(cx)
    monkeypatch.setattr(chains_module, "snf", original)
    return summary, calls


def test_transforms_are_carried_only_in_degrees_with_homology(monkeypatch):
    # factors of every ∂_r with a target; V, V⁻¹ of ∂_r and U, U⁻¹ of the
    # image of ∂_{r+1} only where H_r ≠ 0
    for cx in coordinatizer_cases():
        summary, calls = _snf_calls(monkeypatch, cx)
        live = [r for r, dh in enumerate(summary.degrees) if dh.generators]
        assert calls.count("factors") == sum(1 for r in range(1, cx.top_degree + 1) if cx.dim(r) and cx.dim(r - 1))
        assert calls.count("boundary") == sum(1 for r in live if r and cx.dim(r - 1))
        assert calls.count("presentation") == sum(1 for r in live if cx.dim(r + 1))
    # boolean_cp3's level-0 complex has cells [1, 14, 36, 24] and H only
    # in its top degree, which has no image to present: one SNF with
    # transforms where today's reference took five
    fixture = FIXTURE_DIR / "boolean_cp3.json"
    cx = build_relative_complex(build_poset(parse_arrangement(fixture.read_text())), 0)
    summary, calls = _snf_calls(monkeypatch, cx)
    assert [len(dh.generators) for dh in summary.degrees] == [0, 0, 0, 1]
    assert calls == ["factors"] * 3 + ["boundary"]


def _reference_shuffles(p, q):
    """All (p,q)-shuffle words as (sign, moves), moves a tuple of 0/1 (0 =
    advance the first factor), sign the parity of the shuffle permutation."""
    for rpos in combinations(range(p + q), p):
        moves = [1] * (p + q)
        for i in rpos:
            moves[i] = 0
        inv = ones_seen = 0
        for m in moves:
            if m == 1:
                ones_seen += 1
            else:
                inv += ones_seen
        yield (-1) ** inv, tuple(moves)


def _reference_meet_product(poset, c, d):
    """The three-pass product the kernel must reproduce: the shuffle cross
    product with pairs as vertices, words regenerated for every pair of
    simplices; then (u, v) -> u∧v on every shuffled simplex, degenerate
    images dropped afterwards; then the projection to chains ending at V."""
    crossed = {}
    for sigma, a in c.items():
        for tau, b in d.items():
            for sign, moves in _reference_shuffles(len(sigma) - 1, len(tau) - 1):
                i = j = 0
                verts = [(sigma[0], tau[0])]
                for m in moves:
                    if m == 0:
                        i += 1
                    else:
                        j += 1
                    verts.append((sigma[i], tau[j]))
                crossed = add_chains(crossed, {tuple(verts): sign * a * b})
    pushed = {}
    for simplex, coeff in crossed.items():
        image = tuple(poset.meet[u][v] for u, v in simplex)
        if len(set(image)) == len(image):
            pushed = add_chains(pushed, {image: coeff})
    return {s: v for s, v in pushed.items() if s[-1] == poset.top}


def product_arrangements():
    """Every fixture file, boolean(3) and four generic lines in CP^2."""
    arrangements = [parse_arrangement(p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.json"))]
    return arrangements + [boolean(3), generic_hyperplanes(2, 4)]


def random_chain(rng, cx, r):
    """Up to three basis simplices of degree r with coefficients in ±1, ±2."""
    picks = rng.sample(cx.bases[r], min(cx.dim(r), rng.randrange(1, 4)))
    return {s: rng.choice([-2, -1, 1, 2]) for s in picks}


def relative_boundary(chain):
    """∂ on chains ending at V: every face but the one dropping V."""
    out = {}
    for s, c in chain.items():
        out = add_chains(out, {s[:i] + s[i + 1:]: (-1) ** i * c for i in range(len(s) - 1)})
    return out


def level_pairs(rng, levels, draws):
    """Random pairs of basis chains c at level k in degree p and d at level
    l in degree q, for every k + l >= n and every p, q with cells: draws
    pairs when p, q > 0, and three when one of them is a point."""
    n = len(levels) - 1
    for k in range(n + 1):
        for l in range(n - k, n + 1):
            for p in range(levels[k].top_degree + 1):
                for q in range(levels[l].top_degree + 1):
                    if levels[k].dim(p) and levels[l].dim(q):
                        for _ in range(draws if p and q else 3):
                            c = random_chain(rng, levels[k], p)
                            yield k, l, p, q, c, random_chain(rng, levels[l], q)


def test_meet_kernel_matches_the_three_pass_reference():
    rng = random.Random(31)
    products = positive = local = degenerate = 0
    for arr in product_arrangements():
        poset = build_poset(arr)
        n = arr.n
        levels = [build_relative_complex(poset, k) for k in range(n + 1)]
        for k, l, p, q, c, d in level_pairs(rng, levels, 50):
            assert _meet_at_level(poset, k + l - n, c, d) == _reference_meet_product(poset, c, d)
            products += 1
            positive += p > 0 and q > 0
        summands = [build_local_complex(poset, u) for u in range(len(poset.elements))]
        for _ in range(60):
            u, v = rng.randrange(len(summands)), rng.randrange(len(summands))
            w = poset.meet[u][v]
            r1, r2 = rng.randrange(summands[u].top_degree + 1), rng.randrange(summands[v].top_degree + 1)
            if not summands[u].dim(r1) or not summands[v].dim(r2):
                continue
            c, d = random_chain(rng, summands[u], r1), random_chain(rng, summands[v], r2)
            want = {s: x for s, x in _reference_meet_product(poset, c, d).items() if s[0] == w}
            assert _meet_shuffle(poset, c, d) == want
            local += 1
        # a simplex of positive degree times itself: every shuffle path
        # starts σ_0, σ_0 and degenerates at its first step
        for s in levels[0].bases[-1][:3] if levels[0].top_degree else []:
            assert _reference_meet_product(poset, {s: 1}, {s: 1}) == {}
            assert _meet_shuffle(poset, {s: 1}, {s: 1}) == {}
            degenerate += 1
    assert products > 1300 and positive > 750 and local > 300 and degenerate > 20


def test_meet_product_of_a_point_with_a_simplex():
    # p = 0: the single shuffle path walks the second factor
    arr = points_cp1(3)
    poset = build_poset(arr)
    unit = {(poset.top,): 1}
    edge = {(poset.index_of(arr.subspaces[0]), poset.top): 3}
    assert _meet_at_level(poset, 0, unit, edge) == edge
    assert _meet_at_level(poset, 0, edge, unit) == edge
    assert _meet_at_level(poset, 1, unit, unit) == unit


def test_meet_product_is_a_chain_map_of_relative_chains():
    # ∂(c·d) = ∂c·d + (-1)^p c·∂d, c of degree p at level k, d at level l
    rng = random.Random(5)
    checked = nontrivial = 0
    for arr in product_arrangements():
        poset = build_poset(arr)
        n = arr.n
        levels = [build_relative_complex(poset, k) for k in range(n + 1)]
        for k, l, p, q, c, d in level_pairs(rng, levels, 50):
            m = k + l - n
            lhs = relative_boundary(_meet_at_level(poset, m, c, d))
            rhs = add_chains(
                _meet_at_level(poset, m, relative_boundary(c), d),
                _meet_at_level(poset, m, c, relative_boundary(d)),
                (-1) ** p,
            )
            assert lhs == rhs
            checked += 1
            nontrivial += bool(lhs)
    assert checked > 1300 and nontrivial > 900
