from itertools import combinations

import pytest

from arrangements import C_FIXTURES, boolean, mixed, points_cp1, skew_lines
from projarr import (
    build_presentation,
    graded_ranks,
    pi_context,
    pi_image,
    verify_fg_homotopic,
    verify_fk_iso,
    verify_presentation,
)
from projarr.chains import ChainComplex, add_chains, homology
from projarr.poset import build_poset, set_defect
from projarr.ring import decompose, ring_table
from projarr import presentation
from projarr.presentation import (
    ChainMapData,
    NotCArrangement,
    _chain_map_images,
    atomic_complex,
    fk_chain_map,
    gk_chain_map,
    gk_level,
    monomial_mul,
    pi_polynomial,
    poly_mul_monomial,
)

def context(arr, c, base_index=0):
    poset = build_poset(arr)
    return pi_context(ring_table(decompose(poset)), build_presentation(poset, c, base_index))


def test_monomial_multiplication():
    assert monomial_mul((1, ()), (1, ()), c=3) == (1, (2, ()))
    assert monomial_mul((1, ()), (2, ()), c=3) is None  # x^3 = 0
    assert monomial_mul((0, (1,)), (0, (2,)), c=2) == (1, (0, (1, 2)))
    assert monomial_mul((0, (2,)), (0, (1,)), c=2) == (-1, (0, (1, 2)))
    assert monomial_mul((0, (1,)), (0, (1,)), c=2) is None  # y_1^2 = 0


def test_poly_mul_monomial_signs():
    poly = {(0, (1,)): 1, (0, (3,)): -1}
    out = poly_mul_monomial((0, (2,)), poly, c=2)
    assert out == {(0, (1, 2)): -1, (0, (2, 3)): -1}


def test_presentation_relations_points():
    # 3 points: the single dependent triple passes through the base
    pres = build_presentation(build_poset(points_cp1(3)), 1, 0)
    assert pres.t == 2
    assert list(zip(pres.relation_kinds, pres.relations)) == [
        ("through-base", {(0, (1, 2)): 1}),
        ("x-power", {(1, ()): 1}),
    ]
    # 4 points: the triple avoiding the base contributes an alternating sum
    pres = build_presentation(build_poset(points_cp1(4)), 1, 0)
    sums = [
        rel for rel, kind in zip(pres.relations, pres.relation_kinds)
        if kind == "boundary-sum"
    ]
    assert sums == [{(0, (2, 3)): 1, (0, (1, 3)): -1, (0, (1, 2)): 1}]
    assert sum(k == "through-base" for k in pres.relation_kinds) == 3


def test_presentation_relations_skew3():
    pres = build_presentation(build_poset(skew_lines(3)), 2, 0)
    assert pres.t == 2
    assert list(zip(pres.relation_kinds, pres.relations)) == [
        ("through-base", {(0, (1, 2)): 1}),
        ("x-power", {(2, ()): 1}),
    ]


def test_presentation_requires_c_arrangement():
    with pytest.raises(NotCArrangement):
        build_presentation(build_poset(mixed()), 1)
    with pytest.raises(NotCArrangement):
        build_presentation(build_poset(skew_lines(2)), 1)


@pytest.mark.parametrize(
    "arr, index, message",
    [
        (skew_lines(2), 5, "base_index 5 is out of range: member indices are 0..1"),
        (skew_lines(2), -1, "base_index -1 is out of range: member indices are 0..1"),
    ],
    ids=["too-large", "negative"],
)
def test_presentation_rejects_base_index_out_of_range(arr, index, message):
    with pytest.raises(ValueError, match=message):
        build_presentation(build_poset(arr), 2, index)


def test_graded_ranks_closed_forms():
    # m points in CP^1, c = 1: ranks (1, m-1)
    for m in (2, 3, 5):
        pres = build_presentation(build_poset(points_cp1(m)), 1, 0)
        assert graded_ranks(pres, 2) == [1, m - 1, 0]
    # skew lines, c = 2: Betti pattern of the engine
    pres = build_presentation(build_poset(skew_lines(2)), 2, 0)
    assert graded_ranks(pres, 6) == [1, 0, 1, 1, 0, 1, 0]
    pres = build_presentation(build_poset(skew_lines(3)), 2, 0)
    assert graded_ranks(pres, 6) == [1, 0, 1, 2, 0, 2, 0]


def test_dependent_monomials_vanish_in_quotient():
    # any dependent index set without the base yields a monomial that dies
    # in the quotient: check rank drop by adjoining it as a relation
    for arr, c in C_FIXTURES:
        poset = build_poset(arr)
        pres = build_presentation(poset, c, 0)
        y_of_member = {m: y for y, m in pres.member_of_y.items()}
        t = len(arr.subspaces)
        for size in range(2, min(t, 4) + 1):
            for combo in combinations(range(t), size):
                if 0 in combo or set_defect(poset, combo) == 0:
                    continue
                ys = tuple(sorted(y_of_member[i] for i in combo))
                mono = (0, ys)
                degree = 2 * 0 + (2 * c - 1) * len(ys)
                base_ranks = graded_ranks(pres, degree)
                pres.relations.append({mono: 1})
                pres.relation_kinds.append("boundary-sum")
                new_ranks = graded_ranks(pres, degree)
                pres.relations.pop()
                pres.relation_kinds.pop()
                assert new_ranks == base_ranks, (combo, mono)


def test_atomic_complex_shape():
    arr = boolean(2)
    poset = build_poset(arr)
    cx = atomic_complex(poset, 0)
    assert cx.bases[0] == [()]
    assert len(cx.bases[1]) == 3
    assert len(cx.bases[2]) == 3
    # the full triple meets in the zero space, d = -1 < 0
    assert cx.top_degree == 2
    cx1 = atomic_complex(poset, 1)
    assert cx1.top_degree == 1


def test_fk_gk_are_chain_maps():
    # f(∂s) = ∂f(s) for every basis simplex s of the atomic complex
    for arr, c in C_FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            fdata = fk_chain_map(poset, k)
            gdata = gk_chain_map(poset, c, 0, k)
            for r in range(1, fdata.atomic.top_degree + 1):
                for data in (fdata, gdata):
                    for j, s in enumerate(data.atomic.bases[r]):
                        lhs = {}
                        for face, x in data.atomic.boundary({s: 1}, r).items():
                            face_image = data.images[r - 1][data.atomic.index[r - 1][face]]
                            lhs = add_chains(lhs, face_image, x)
                        rhs = data.relative.boundary(data.images[r][j], r)
                        assert lhs == rhs


def test_chain_map_image_outside_target_raises():
    atomic = ChainComplex([[(0,)]], [[{}]])
    empty_target = ChainComplex([[]], [[]])
    assert _chain_map_images(atomic, empty_target, lambda r, s: {}, 0) == [[{}]]
    with pytest.raises(RuntimeError, match="outside the target complex"):
        _chain_map_images(atomic, empty_target, lambda r, s: {(0,): 1}, 0)
    # a simplex missing from a non-empty target basis
    target = ChainComplex([[(1,)]], [[{}]])
    assert _chain_map_images(atomic, target, lambda r, s: {(1,): 3}, 0) == [[{(1,): 3}]]
    with pytest.raises(RuntimeError, match=r"outside the target complex in degree 0: \(0,\)"):
        _chain_map_images(atomic, target, lambda r, s: {(0,): 1}, 0)


def test_gk_level():
    assert gk_level(3, 2, 1) == 1
    assert gk_level(3, 2, 3) == 0
    assert gk_level(1, 1, 0) == 1
    assert gk_level(3, 1, 0) == 3


def test_verify_fk_iso_all_levels():
    for arr, _ in C_FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            report = verify_fk_iso(poset, k)
            assert report.passed, (arr.names, k, report.detail)


def test_verify_fk_iso_reports_torsion_unsupported(monkeypatch):
    # C_0 = Z, C_1 = Z^2, C_2 = Z with d1 = (1 0) and d2 = (0 2)^T: H_0 = 0,
    # H_1 = Z/2; the identity map between two copies is a chain map
    def torsion_complex():
        return ChainComplex(
            [[(0,)], [(0, 1), (0, 2)], [(0, 1, 2)]], [[{}], [{0: 1}, {}], [{1: 2}]]
        )

    assert homology(torsion_complex()).degree(1).torsion == [2]
    cx = torsion_complex()
    identity = [[{s: 1} for s in basis] for basis in cx.bases]
    data = ChainMapData(cx, torsion_complex(), identity)
    monkeypatch.setattr(presentation, "fk_chain_map", lambda poset, k: data)
    report = verify_fk_iso(build_poset(points_cp1(2)), 0)
    assert (report.passed, report.detail) == (False, "torsion comparison in degree 1 unsupported")


@pytest.mark.parametrize("factor, passed", [(2, False), (-1, True)])
def test_verify_fk_iso_decides_unimodularity_by_invariant_factors(monkeypatch, factor, passed):
    # C_0 = Z in both complexes: the chain map is multiplication by factor
    # on H_0 = Z, an isomorphism only for a unit
    def point():
        return ChainComplex([[(0,)]], [[{}]])

    data = ChainMapData(point(), point(), [[{(0,): factor}]])
    monkeypatch.setattr(presentation, "fk_chain_map", lambda poset, k: data)
    report = verify_fk_iso(build_poset(points_cp1(2)), 0)
    detail = "" if passed else "induced map not unimodular in degree 0"
    assert (report.passed, report.detail) == (passed, detail)


def test_verify_fk_iso_reports_an_image_with_a_dropped_term(monkeypatch):
    # dropping a term t of f(s), s of degree >= 1, changes ∂f(s) by ∂t != 0
    original = presentation.fk_chain
    planted = 0
    for arr, _ in C_FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            dropped = []

            def fk_chain(poset, simplex):
                chain = original(poset, simplex)
                if simplex and chain and not dropped:
                    dropped.append(simplex)
                    chain = dict(list(chain.items())[:-1])
                return chain

            monkeypatch.setattr(presentation, "fk_chain", fk_chain)
            report = verify_fk_iso(poset, k)
            if dropped:
                assert (report.passed, report.detail) == (
                    False, "comparison map does not commute with boundaries"
                ), (arr.names, k)
                planted += 1
    assert planted >= 10


def test_verify_fg_homotopic_reports_a_flipped_gk_image(monkeypatch):
    original = presentation.gk_chain
    planted = 0
    for arr, c in C_FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            flipped = []

            def gk_chain(poset, base_index, simplex):
                chain = original(poset, base_index, simplex)
                if chain and not flipped:
                    flipped.append(simplex)
                    chain = {s: -x for s, x in chain.items()}
                return chain

            monkeypatch.setattr(presentation, "gk_chain", gk_chain)
            report = verify_fg_homotopic(poset, c, 0, k)
            if flipped:
                assert not report.passed, (arr.names, k)
                assert report.detail.startswith("homotopy identity fails in degree"), report.detail
                planted += 1
    assert planted >= 10


def test_verify_fg_homotopic_all_levels():
    for arr, c in C_FIXTURES:
        poset = build_poset(arr)
        for k in range(arr.n + 1):
            report = verify_fg_homotopic(poset, c, 0, k)
            assert report.passed, (arr.names, k, report.detail)


def test_atomic_homology_matches_engine_ranks():
    # sanity behind verify_fk_iso: the atomic complex computes the same
    # groups as the order-complex pair
    arr = skew_lines(3)
    poset = build_poset(arr)
    for k in range(arr.n + 1):
        data = fk_chain_map(poset, k)
        h_at = homology(data.atomic)
        h_rel = homology(data.relative)
        top = max(data.atomic.top_degree, data.relative.top_degree)
        for r in range(top + 1):
            assert h_at.degree(r).free_rank == h_rel.degree(r).free_rank


def test_pi_kills_relations_and_x_power():
    for arr, c in C_FIXTURES:
        ctx = context(arr, c)
        assert pi_image(ctx, (c, ())) == {}
        for rel in ctx.presentation.relations:
            assert pi_polynomial(ctx, rel) == {}


def test_pi_degree_bookkeeping():
    arr = skew_lines(2)
    c = 2
    ctx = context(arr, c)
    for mono in [(0, ()), (1, ()), (0, (1,)), (1, (1,))]:
        img = pi_image(ctx, mono)
        degree = 2 * mono[0] + (2 * c - 1) * len(mono[1])
        for i in img:
            assert ctx.table.basis[i].degree == degree


def test_pi_x_y_product_spans_top_class():
    ctx = context(skew_lines(2), 2)
    img = pi_image(ctx, (1, (1,)))
    (five,) = [
        i for i, b in enumerate(ctx.table.basis)
        if b.degree == 5 and b.torsion_order == 0
    ]
    assert set(img) == {five} and abs(img[five]) == 1


def test_verify_presentation_all_fixtures():
    for arr, c in C_FIXTURES:
        report = verify_presentation(context(arr, c), 2 * arr.n)
        assert report.passed, (arr.names, report.degrees)
        assert not report.torsion_flag
        for degree, pi_rank, ri_rank, engine_rank in report.degrees:
            assert pi_rank == ri_rank == engine_rank, degree


def test_verify_presentation_nonzero_base():
    report = verify_presentation(context(points_cp1(3), 1, base_index=1))
    assert report.passed
